"""Failure injection: exactly-once accounting under a hostile fleet.

``FlakyTransport`` wraps the loopback fleet and sabotages channels on a
shared script: kill the connection mid-shard or right after the job was
installed, drop or duplicate ``done`` acks, delay heartbeats past the
probe timeout.  Under every fault the
dispatcher must deliver the *exact* serial row multiset — no row lost to
a died worker, none duplicated by a retry or a re-sent ack — within a
bounded retry budget; faults past the budget must abort loudly with
:class:`~repro.errors.DistributedError`, never hang or return partial
rows as if complete.
"""

import threading
from collections import Counter

import pytest

from repro import execute
from repro.distributed import DispatchScheduler, LoopbackTransport
from repro.distributed.wire import ConnectionClosed
from repro.errors import DistributedError
from repro.query.context import ExecutionContext
from repro.query.shards import ShardSpec
from repro.workloads import generators, queries


def skewed_query():
    return generators.random_instance(
        queries.triangle(), 250, 25, seed=17, skew=1.1
    )


class FlakyChannel:
    """A channel that injects faults per its transport's shared script."""

    def __init__(self, channel, script) -> None:
        self.channel = channel
        self.script = script
        self._replay = []
        self._doomed = False

    def send(self, header, payload=b""):
        if header.get("op") == "job":
            self.script.jobs_sent += 1
        self.channel.send(header, payload)

    def settimeout(self, seconds):
        self.channel.settimeout(seconds)

    def close(self):
        self.channel.close()

    def recv(self):
        if self._replay:
            return self._replay.pop(0)
        header, payload = self.channel.recv()
        op = header.get("op")
        script = self.script
        if self._doomed:
            # The job was installed and acknowledged; the worker dies
            # before it says anything about its first key.
            script.fired.set()
            self.channel.close()
            raise ConnectionClosed("worker killed after its job (injected)")
        if op == "ready" and script.kill_after_job > 0:
            script.kill_after_job -= 1
            self._doomed = True
        if op == "pong" and script.delay_pong > 0:
            # A heartbeat answered too late looks exactly like a timeout.
            script.delay_pong -= 1
            self.channel.close()
            raise TimeoutError("pong delayed past the probe timeout")
        if op == "rows" and script.kill_mid_shard > 0:
            # Worker dies while streaming: rows are in flight, no ack.
            script.kill_mid_shard -= 1
            script.fired.set()
            self.channel.close()
            raise ConnectionClosed("worker killed mid-shard (injected)")
        if op in ("done", "state") and script.drop_ack > 0:
            # Worker finished the shard but died before the ack landed:
            # the sharpest exactly-once case — the work happened, yet
            # the driver must discard it and re-run from zero rows.
            script.drop_ack -= 1
            script.fired.set()
            self.channel.close()
            raise ConnectionClosed("ack dropped (injected)")
        if op == "done" and script.duplicate_ack > 0:
            script.duplicate_ack -= 1
            self._replay.append((dict(header), payload))
        return header, payload


class FlakyTransport:
    """A loopback worker slot with scripted faults (shared across
    reconnections, like a flaky rack: each fault fires once).

    ``after=other`` makes this slot join the fleet only once ``other``
    has killed a worker.  Drivers race for shards, so an ungated healthy
    slot can drain the whole board before the faulty one claims a shard
    that streams rows — then no fault fires and there is nothing to
    retry (about 1 run in 8 on a busy two-core host).
    """

    def __init__(
        self,
        *,
        kill_mid_shard=0,
        kill_after_job=0,
        drop_ack=0,
        duplicate_ack=0,
        delay_pong=0,
        after=None,
    ) -> None:
        self.inner = LoopbackTransport()
        self.kill_mid_shard = kill_mid_shard
        self.kill_after_job = kill_after_job
        #: ``job`` frames the driver sent through this slot, reconnects
        #: included.
        self.jobs_sent = 0
        self.drop_ack = drop_ack
        self.duplicate_ack = duplicate_ack
        self.delay_pong = delay_pong
        self.fired = threading.Event()
        self.after = after

    def connect(self):
        if self.after is not None and not self.after.fired.wait(timeout=10):
            raise OSError("the faulty slot never killed a worker")
        return FlakyChannel(self.inner.connect(), self)


class RefusingTransport:
    """A slot whose worker is simply gone."""

    def connect(self):
        raise OSError("connection refused (injected)")


def run_fleet(query, transports, algorithm="generic", backend=None, **kwargs):
    scheduler = DispatchScheduler(
        transports, retry_backoff=0.002, **kwargs
    )
    context = ExecutionContext(
        algorithm=algorithm,
        backend=backend,
        shards=ShardSpec(4),
        scheduler=scheduler,
    )
    return list(execute(query, context=context)), scheduler


@pytest.mark.parametrize(
    "algorithm,backend",
    [("generic", "trie"), ("leapfrog", "compact")],
)
class TestFaultParity:
    def test_worker_killed_mid_shard_is_retried_without_row_loss(
        self, algorithm, backend
    ):
        query = skewed_query()
        serial = Counter(execute(query, algorithm=algorithm))
        dying = FlakyTransport(kill_mid_shard=2)
        rows, scheduler = run_fleet(
            query,
            [dying, FlakyTransport(after=dying)],
            algorithm=algorithm,
            backend=backend,
        )
        assert Counter(rows) == serial  # multiset: no dup, no loss
        assert 1 <= scheduler.last_run["retries"] <= 2 * 3  # bounded

    def test_death_after_the_job_re_sends_it_and_loses_no_row(
        self, algorithm, backend
    ):
        query = skewed_query()
        serial = Counter(execute(query, algorithm=algorithm))
        dying = FlakyTransport(kill_after_job=1)
        rows, scheduler = run_fleet(
            query,
            [dying, FlakyTransport(after=dying)],
            algorithm=algorithm,
            backend=backend,
        )
        assert Counter(rows) == serial
        assert scheduler.last_run["retries"] >= 1
        # The bound job died with its connection: the reconnect got the
        # job again before the retried key.
        assert dying.jobs_sent == 2

    def test_dropped_ack_never_duplicates_committed_rows(
        self, algorithm, backend
    ):
        query = skewed_query()
        serial = Counter(execute(query, algorithm=algorithm))
        dropping = FlakyTransport(drop_ack=1)
        rows, scheduler = run_fleet(
            query,
            [dropping, FlakyTransport(after=dropping)],
            algorithm=algorithm,
            backend=backend,
        )
        # The first attempt's work completed worker-side; a naive
        # dispatcher would ship those buffered rows AND the retry's.
        assert Counter(rows) == serial
        assert scheduler.last_run["retries"] >= 1

    def test_duplicated_ack_is_skipped_by_request_id(
        self, algorithm, backend
    ):
        query = skewed_query()
        serial = Counter(execute(query, algorithm=algorithm))
        rows, scheduler = run_fleet(
            query,
            [FlakyTransport(duplicate_ack=2), FlakyTransport()],
            algorithm=algorithm,
            backend=backend,
        )
        assert Counter(rows) == serial
        assert scheduler.last_run["retries"] == 0  # dups are not failures

    def test_delayed_heartbeat_sidelines_the_slot(self, algorithm, backend):
        query = skewed_query()
        serial = Counter(execute(query, algorithm=algorithm))
        rows, _scheduler = run_fleet(
            query,
            [FlakyTransport(delay_pong=1), FlakyTransport()],
            algorithm=algorithm,
            backend=backend,
        )
        assert Counter(rows) == serial  # the healthy slot carries the run


class TestAborts:
    def test_retry_budget_exhaustion_aborts(self):
        query = skewed_query()
        always_dying = FlakyTransport(kill_mid_shard=10_000)
        with pytest.raises(DistributedError, match="retry budget"):
            run_fleet(query, [always_dying], max_retries=2)

    def test_fully_dead_fleet_aborts(self):
        query = skewed_query()
        with pytest.raises(DistributedError, match="workers died"):
            run_fleet(
                query, [RefusingTransport(), RefusingTransport()]
            )

    def test_permanent_worker_failure_aborts(self):
        class ErrorChannel:
            def __init__(self):
                self._queue = []

            def settimeout(self, seconds):
                pass

            def close(self):
                pass

            def send(self, header, payload=b""):
                op = header.get("op")
                if op == "ping":
                    self._queue.append(
                        ({"op": "pong", "id": header.get("id")}, b"")
                    )
                else:
                    self._queue.append(
                        (
                            {
                                "op": "error",
                                "id": header.get("id"),
                                "error": {
                                    "type": "plan",
                                    "message": "injected permanent failure",
                                },
                            },
                            b"",
                        )
                    )

            def recv(self):
                if not self._queue:
                    raise ConnectionClosed("nothing to say")
                return self._queue.pop(0)

        class ErrorTransport:
            def connect(self):
                return ErrorChannel()

        with pytest.raises(DistributedError, match="permanently"):
            run_fleet(skewed_query(), [ErrorTransport()])

    def test_zero_retries_means_first_death_aborts(self):
        query = skewed_query()
        with pytest.raises(DistributedError, match="retry budget"):
            run_fleet(
                query,
                [FlakyTransport(kill_mid_shard=1)],
                max_retries=0,
            )
