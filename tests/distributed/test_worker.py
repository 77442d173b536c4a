"""The worker protocol: ping, job, task streaming, fold, errors, shutdown."""

import pickle

import pytest

from repro.distributed.transport import Channel, LoopbackTransport
from repro.distributed.wire import ConnectionClosed
from repro.distributed.worker import WorkerServer
from repro.engine.parallel import (
    ShardJob,
    ShardPlanEntry,
    ShardRunner,
    plan_shards,
)
from repro.engine.planner import plan_join
from tests.helpers import count_index_builds, triangle_query


def _job(query, shards=2):
    """Plan a query and package its shards exactly as shard_join does."""
    plan = plan_join(query, algorithm="generic", shards=shards)
    attribute = plan.attribute_order[0]
    return ShardJob(
        runner=ShardRunner(plan),
        entries=[
            ShardPlanEntry(((attribute, piece.values),), piece.weight)
            for piece in plan_shards(query, plan.shards, attribute)
        ],
    )


def _install(channel, job, spec=None, rid=0):
    """Send the job frame every connection starts with."""
    channel.send({"op": "job", "id": rid}, pickle.dumps((job.runner, spec)))
    header, _payload = channel.recv()
    assert header == {"op": "ready", "id": rid}


def _run_task(channel, rid, entry, trace=False):
    """Drive one task op; return (rows, done_header, span_payload)."""
    header = {"op": "task", "id": rid}
    if trace:
        header["trace"] = True
    channel.send(header, pickle.dumps(entry.key))
    rows, span = [], b""
    while True:
        reply, payload = channel.recv()
        assert reply["id"] == rid
        if reply["op"] == "rows":
            rows.extend(pickle.loads(payload))
        elif reply["op"] == "done":
            return rows, reply, payload
        else:
            raise AssertionError(f"unexpected frame {reply!r}")


class TestShardWorker:
    def test_ping_pong(self):
        channel = LoopbackTransport().connect()
        try:
            channel.send({"op": "ping", "id": 3})
            header, _payload = channel.recv()
            assert header == {"op": "pong", "id": 3}
        finally:
            channel.close()

    def test_task_streams_rows_and_reports_timing(self):
        query = triangle_query()
        job = _job(query)
        serial = set()
        channel = LoopbackTransport().connect()
        try:
            _install(channel, job)
            for rid, entry in enumerate(job.entries, start=1):
                rows, done, _span = _run_task(channel, rid, entry)
                assert done["count"] == len(rows)
                assert done["seconds"] >= 0.0
                serial.update(rows)
        finally:
            channel.close()
        from repro.api import execute

        assert serial == set(execute(query, algorithm="generic"))

    def test_traced_task_ships_its_span_home(self):
        job = _job(triangle_query())
        channel = LoopbackTransport().connect()
        try:
            _install(channel, job)
            _rows, done, span_bytes = _run_task(
                channel, 9, job.entries[0], trace=True
            )
            assert done.get("span") is True
            span = pickle.loads(span_bytes)
            assert span.name == "shard"
            assert span.meta["remote"] is True
            assert span.meta["rows"] == done["count"]
        finally:
            channel.close()

    def test_fold_returns_pickled_state(self):
        from repro.aggregate.specs import Count

        job = _job(triangle_query(), shards=1)
        channel = LoopbackTransport().connect()
        try:
            _install(channel, job, Count())
            channel.send(
                {"op": "fold", "id": 4}, pickle.dumps(job.entries[0].key)
            )
            header, payload = channel.recv()
            assert header["op"] == "state"
            assert header["id"] == 4
            assert pickle.loads(payload) == 3
        finally:
            channel.close()

    def test_corrupt_task_is_a_typed_error_not_a_crash(self):
        channel = LoopbackTransport().connect()
        try:
            _install(channel, _job(triangle_query()))
            channel.send({"op": "task", "id": 5}, b"not a pickle")
            header, _payload = channel.recv()
            assert header["op"] == "error"
            assert header["id"] == 5
            assert header["error"]["type"]
            # The connection survives a failed task.
            channel.send({"op": "ping", "id": 6})
            assert channel.recv()[0]["op"] == "pong"
        finally:
            channel.close()

    @pytest.mark.parametrize("op", ["task", "fold"])
    def test_a_key_before_any_job_is_a_protocol_error(self, op):
        job = _job(triangle_query())
        channel = LoopbackTransport().connect()
        try:
            channel.send({"op": op, "id": 8}, pickle.dumps(job.entries[0].key))
            header, _payload = channel.recv()
            assert header["op"] == "error"
            assert header["id"] == 8
            assert header["error"]["type"] == "protocol"
            assert "before any job" in header["error"]["message"]
            # The connection survives, and a job makes the same key run.
            _install(channel, job)
            _rows, done, _span = _run_task(channel, 9, job.entries[0])
            assert done["op"] == "done"
        finally:
            channel.close()

    def test_corrupt_job_is_a_typed_error_and_binds_nothing(self):
        channel = LoopbackTransport().connect()
        try:
            channel.send({"op": "job", "id": 1}, b"not a pickle")
            header, _payload = channel.recv()
            assert header["op"] == "error"
            assert header["id"] == 1
            channel.send({"op": "task", "id": 2}, pickle.dumps(()))
            assert channel.recv()[0]["error"]["type"] == "protocol"
        finally:
            channel.close()

    def test_a_connection_binds_its_job_once_however_many_keys(
        self, monkeypatch
    ):
        builds = count_index_builds(monkeypatch)
        job = _job(triangle_query(), shards=3)
        assert len(job.entries) == 3
        payload = pickle.dumps((job.runner, None))
        builds.clear()
        channel = LoopbackTransport().connect()
        try:
            channel.send({"op": "job", "id": 0}, payload)
            assert channel.recv()[0]["op"] == "ready"
            assert sorted(builds) == ["R", "S", "T"]
            for rid, entry in enumerate(job.entries, start=1):
                _run_task(channel, rid, entry)
            assert sorted(builds) == ["R", "S", "T"]
        finally:
            channel.close()

    def test_unknown_op_is_a_protocol_error(self):
        channel = LoopbackTransport().connect()
        try:
            channel.send({"op": "warp", "id": 7})
            header, _payload = channel.recv()
            assert header["op"] == "error"
            assert header["error"]["type"] == "protocol"
        finally:
            channel.close()

    def test_shutdown_says_bye_and_stops(self):
        transport = LoopbackTransport()
        channel = transport.connect()
        try:
            channel.send({"op": "shutdown"})
            assert channel.recv()[0]["op"] == "bye"
            assert transport.worker.stopped.is_set()
        finally:
            channel.close()


class TestWorkerServer:
    def test_tcp_roundtrip_and_stop(self):
        import socket
        import threading

        server = WorkerServer(port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.address
        channel = Channel(socket.create_connection((host, port), timeout=5))
        try:
            channel.send({"op": "ping", "id": 1})
            assert channel.recv()[0]["op"] == "pong"
            job = _job(triangle_query(), shards=1)
            _install(channel, job)
            rows, done, _span = _run_task(channel, 2, job.entries[0])
            assert done["count"] == len(rows)
        finally:
            channel.close()
            server.stop()
            thread.join(timeout=5)
        assert not thread.is_alive()

    def test_accepted_connections_do_not_delay_small_frames(
        self, monkeypatch
    ):
        """``rows`` then ``done`` are two small writes; with Nagle on,
        the second waits out the driver's delayed ACK (~40 ms a key)."""
        import socket
        import threading

        from repro.distributed import worker

        accepted = []

        class Recording(Channel):
            def __init__(self, sock):
                accepted.append(
                    sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
                )
                super().__init__(sock)

        monkeypatch.setattr(worker, "Channel", Recording)
        server = WorkerServer(port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        channel = Channel(socket.create_connection(server.address, timeout=5))
        try:
            channel.send({"op": "ping", "id": 1})
            assert channel.recv()[0]["op"] == "pong"
        finally:
            channel.close()
            server.stop()
            thread.join(timeout=5)
        assert not thread.is_alive()
        assert accepted and all(accepted)

    def test_bind_failure_is_distributed_error(self):
        from repro.errors import DistributedError

        with pytest.raises(DistributedError):
            WorkerServer(host="203.0.113.1", port=1)  # TEST-NET, unroutable
