"""Server integration: concurrency, the prepared cache, admission, and
graceful shutdown — over real sockets."""

import asyncio
import json
import math
import socket
import struct
import threading
import time

import pytest

from repro.engine import planner
from repro.lang.compiler import compile_query
from repro.lang.parser import parse
from repro.query.builder import Q
from repro.query.prepared import PreparedQuery
from repro.relations.database import Database
from repro.relations.relation import Relation
from repro.server import (
    AdmissionController,
    JoinServer,
    PreparedCache,
    ServerClient,
    ServerError,
)
from repro.server.cache import CacheEntry
from repro.server.service import (
    DEFAULT_BATCH_ROWS,
    MAX_LINE_ROWS,
    MAX_REQUEST_BYTES,
)


def triangle_rows(database):
    relations = [database[name] for name in ("R", "S", "T")]
    return sorted(Q(*relations).on(database).stream())


#: ``select * from U, V`` over :func:`wide_database` — the row count of
#: the ledger's ``lifted_triangle`` answer.
WIDE_ROWS = 11_114
WIDE = "select * from U, V;"


@pytest.fixture()
def wide_database():
    u = Relation("U", ("A", "B"), [(0, 0), (1, 0)])
    v = Relation("V", ("B", "C"), [(0, c) for c in range(WIDE_ROWS // 2)])
    return Database([u, v])


def wide_oracle():
    return sorted((a, 0, c) for a in (0, 1) for c in range(WIDE_ROWS // 2))


def counted_stream(monkeypatch):
    """Wrap every ``PreparedQuery.stream`` and ``PreparedQuery._texts``
    (the rows as the loop nest's JSON texts, which the server takes
    where there are some): ``seen["pulled"]`` counts the rows the server
    took, ``seen["closed"]`` says the descent's generator was closed (or
    ran out), ``seen["rows"]`` which of the two it read."""
    seen = {"pulled": 0, "closed": False, "rows": None}
    stream, texts = PreparedQuery.stream, PreparedQuery._texts

    def counting(rows, kind):
        seen["rows"] = kind
        try:
            for row in rows:
                seen["pulled"] += 1
                yield row
        finally:
            seen["closed"] = True

    def counting_texts(self):
        rows = texts(self)
        return None if rows is None else counting(rows, "text")

    monkeypatch.setattr(
        PreparedQuery, "stream", lambda self: counting(stream(self), "tuples")
    )
    monkeypatch.setattr(PreparedQuery, "_texts", counting_texts)
    return seen


def wait_until(condition, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not condition() and time.monotonic() < deadline:
        time.sleep(0.01)
    return condition()


class TestQueries:
    def test_rows_parity_with_builder(self, live_server, database):
        live = live_server(JoinServer(database))
        with ServerClient(live.host, live.port) as client:
            outcome = client.query("select * from R, S, T;")
        assert sorted(outcome.rows) == triangle_rows(database)
        assert outcome.final["kind"] == "rows"
        assert outcome.final["columns"] == ["A", "B", "C"]
        assert outcome.final["rows_total"] == len(outcome.rows)

    def test_small_batches_stream_multiple_lines(self, live_server,
                                                 database):
        live = live_server(JoinServer(database))
        with ServerClient(live.host, live.port) as client:
            batches, final = client.request(
                "query", q="select * from R, S, T;", batch=4
            )
        assert len(batches) >= 2  # 40 rows at 4 per line
        assert all(len(b["rows"]) <= 4 for b in batches)
        assert final["rows_total"] == 40

    def test_zero_rows_is_one_final_line(self, live_server, database):
        live = live_server(JoinServer(database))
        with ServerClient(live.host, live.port) as client:
            batches, final = client.request(
                "query", q="select * from R, S, T where A in (999);"
            )
        assert batches == []
        assert final["ok"] is True and final["rows_total"] == 0

    def test_aggregates_answer_inline(self, live_server, database):
        live = live_server(JoinServer(database))
        with ServerClient(live.host, live.port) as client:
            outcome = client.query(
                "select count(*), avg(B), count(distinct C) from R, S, T;"
            )
        relations = [database[name] for name in ("R", "S", "T")]
        oracle = Q(*relations).on(database)
        assert outcome.rows == [(
            oracle.count(), oracle.avg("B"), oracle.count_distinct("C")
        )]

    def test_explain_op_returns_plan_text(self, live_server, database):
        live = live_server(JoinServer(database))
        with ServerClient(live.host, live.port) as client:
            text = client.explain("select * from R, S, T;")
        assert "R" in text and "S" in text and "T" in text

    def test_trace_round_trips(self, live_server, database):
        live = live_server(JoinServer(database))
        with ServerClient(live.host, live.port) as client:
            outcome = client.query(
                "select count(*) from R;", trace=True
            )
        spans = outcome.final["trace"]["spans"]
        assert spans[0]["name"] == "request"
        child_names = [c["name"] for c in spans[0]["children"]]
        assert "parse" in child_names and "execute" in child_names

    @pytest.mark.parametrize(
        "statement, encoder",
        [
            (WIDE, "text"),  # the loop nest writes the rows' JSON
            ("select * from U, V where B = 0;", "tuples"),  # a merge
        ],
    )
    def test_the_trace_names_the_row_encoder(
        self, live_server, wide_database, statement, encoder
    ):
        live = live_server(JoinServer(wide_database))
        with ServerClient(live.host, live.port) as client:
            outcome = client.query(statement, trace=True)
        assert sorted(outcome.rows) == wide_oracle()
        (request,) = outcome.final["trace"]["spans"]
        (execute,) = [
            span for span in request["children"] if span["name"] == "execute"
        ]
        # 256, 512, ..., 4096 rows a line: 11,114 rows in six.
        assert execute["meta"]["rows"] == encoder
        assert execute["meta"]["lines"] == 6


class TestLineSizing:
    """With no ``batch`` a line doubles the one before: O(log rows)
    hand-offs per answer, and the first rows still leave early."""

    def test_default_lines_double_to_the_ceiling(
        self, live_server, wide_database
    ):
        live = live_server(JoinServer(wide_database))
        with ServerClient(live.host, live.port) as client:
            batches, final = client.request("query", q=WIDE)
        sizes = [len(message["rows"]) for message in batches]
        assert sizes[0] <= DEFAULT_BATCH_ROWS
        assert sizes[:-1] == sorted(sizes[:-1])  # only the last may shrink
        assert max(sizes) <= MAX_LINE_ROWS
        assert len(sizes) <= (
            math.ceil(math.log2(MAX_LINE_ROWS / DEFAULT_BATCH_ROWS))
            + math.ceil(WIDE_ROWS / MAX_LINE_ROWS)
            + 1
        )
        assert len(sizes) <= 8  # 44 lines of 256 before
        rows = [row for message in batches for row in message["rows"]]
        assert sorted(rows) == wide_oracle()
        assert final["rows_total"] == WIDE_ROWS

    def test_request_batch_is_a_ceiling_on_every_line(
        self, live_server, wide_database
    ):
        live = live_server(JoinServer(wide_database))
        with ServerClient(live.host, live.port) as client:
            batches, final = client.request("query", q=WIDE, batch=1000)
        sizes = [len(message["rows"]) for message in batches]
        assert sizes == [1000] * 11 + [114]
        assert final["rows_total"] == WIDE_ROWS

    def test_server_batch_rows_sizes_the_first_line(
        self, live_server, wide_database
    ):
        live = live_server(JoinServer(wide_database, batch_rows=3000))
        with ServerClient(live.host, live.port) as client:
            batches, _final = client.request("query", q=WIDE)
        sizes = [len(message["rows"]) for message in batches]
        assert sizes == [3000, MAX_LINE_ROWS, WIDE_ROWS - 3000 - MAX_LINE_ROWS]

    def test_batch_rows_above_the_ceiling_never_shrinks(
        self, live_server, wide_database
    ):
        live = live_server(JoinServer(wide_database, batch_rows=5000))
        with ServerClient(live.host, live.port) as client:
            batches, _final = client.request("query", q=WIDE)
        assert [len(m["rows"]) for m in batches] == [5000, 5000, 1114]

    def test_query_returns_tuples_streamed_or_inline(
        self, live_server, database
    ):
        live = live_server(JoinServer(database))
        with ServerClient(live.host, live.port) as client:
            streamed = client.query("select * from R;", batch=7)
            inline = client.query("select A, B, count(*) from R group by A, B;")
        assert streamed.final.get("rows") is None  # every row on a row line
        assert inline.final["rows"]  # every row on the final line
        assert sorted(streamed.rows) == sorted(database["R"].tuples)
        assert sorted(row[:2] for row in inline.rows) == sorted(streamed.rows)
        assert all(type(row) is tuple for row in streamed.rows + inline.rows)


    def test_a_query_retried_after_a_hang_up_collects_each_row_once(self):
        # A server that hangs up after one row line, then answers in full
        # on the client's fresh connection.
        listener = socket.create_server(("127.0.0.1", 0))

        def serve():
            for hang_up in (True, False):
                conn, _address = listener.accept()
                with conn, conn.makefile("rb") as reader:
                    rid = json.loads(reader.readline())["id"]
                    lines = [{"id": rid, "rows": [[1, 2]]}]
                    if not hang_up:
                        lines += [
                            {"id": rid, "rows": [[3, 4]]},
                            {"id": rid, "ok": True, "final": True},
                        ]
                    conn.sendall(
                        b"".join(json.dumps(m).encode() + b"\n" for m in lines)
                    )

        server = threading.Thread(target=serve, daemon=True)
        server.start()
        with listener, ServerClient(*listener.getsockname()[:2]) as client:
            outcome = client.query("select * from R;")
        server.join(timeout=10)
        assert not server.is_alive()
        assert outcome.rows == [(1, 2), (3, 4)]


class StalledWriter:
    """A ``StreamWriter`` double whose peer reads one line, then stalls
    until ``resume`` is set."""

    def __init__(self):
        self.lines = []
        self.resume = asyncio.Event()

    def write(self, data):
        self.lines.append(data)

    async def drain(self):
        await self.resume.wait()


class TestBackpressure:
    def test_stalled_reader_holds_the_descent(
        self, wide_database, monkeypatch
    ):
        seen = counted_stream(monkeypatch)
        server = JoinServer(wide_database)
        entry = CacheEntry(
            compile_query(parse(WIDE), wide_database, server.context)
        )

        async def scenario():
            writer = StalledWriter()
            streaming = asyncio.ensure_future(
                server._stream_rows(
                    1,
                    entry,
                    (DEFAULT_BATCH_ROWS, MAX_LINE_ROWS),
                    writer,
                    asyncio.Lock(),
                )
            )
            while not writer.lines:
                await asyncio.sleep(0.01)
            await asyncio.sleep(0.2)  # room to run ahead, were it going to
            stalled = (len(writer.lines), seen["pulled"], seen["closed"])
            writer.resume.set()
            return stalled, await streaming, writer.lines

        stalled, total, lines = asyncio.run(scenario())
        # One line written, and the worker no further than the next one.
        assert stalled[0] == 1
        assert stalled[1] <= DEFAULT_BATCH_ROWS + 2 * DEFAULT_BATCH_ROWS
        assert stalled[2] is False
        assert total == WIDE_ROWS == seen["pulled"]
        rows = [
            tuple(row) for line in lines for row in json.loads(line)["rows"]
        ]
        assert sorted(rows) == wide_oracle()


    def test_a_stalled_reader_holds_a_where_bound_descent(
        self, wide_database, monkeypatch
    ):
        # The tuple lines: a ``where`` merge puts ``B`` back in each row.
        seen = counted_stream(monkeypatch)
        server = JoinServer(wide_database)
        entry = CacheEntry(
            compile_query(
                parse("select * from U, V where B = 0;"),
                wide_database,
                server.context,
            )
        )

        async def scenario():
            writer = StalledWriter()
            streaming = asyncio.ensure_future(
                server._stream_rows(
                    1, entry, (DEFAULT_BATCH_ROWS, MAX_LINE_ROWS),
                    writer, asyncio.Lock(),
                )
            )
            while not writer.lines:
                await asyncio.sleep(0.01)
            await asyncio.sleep(0.2)
            stalled = (len(writer.lines), seen["pulled"], seen["closed"])
            writer.resume.set()
            return stalled, await streaming, writer.lines

        stalled, total, lines = asyncio.run(scenario())
        assert seen["rows"] == "tuples"
        assert stalled[0] == 1
        assert stalled[1] <= DEFAULT_BATCH_ROWS + 2 * DEFAULT_BATCH_ROWS
        assert stalled[2] is False
        assert total == WIDE_ROWS == seen["pulled"]
        rows = [
            tuple(row) for line in lines for row in json.loads(line)["rows"]
        ]
        assert sorted(rows) == wide_oracle()


class TestPreparedCache:
    def test_repeated_normalized_text_hits_with_zero_index_builds(
        self, live_server, database
    ):
        live = live_server(JoinServer(database))
        with ServerClient(live.host, live.port) as client:
            first = client.query("select * from R, S, T;")
            assert first.cached is False
            misses_before = database.cache_info().misses
            # Different spelling, same normalized text.
            second = client.query("SELECT  *  FROM R , S , T")
            third = client.query(
                "select * -- comment\n from R, S, T;"
            )
            stats = client.stats()
        assert second.cached is True
        assert third.cached is True
        assert sorted(second.rows) == sorted(first.rows)
        # The hit reused the frozen plan: not one new index build.
        assert database.cache_info().misses == misses_before
        assert stats["prepared_cache"]["hits"] == 2
        assert stats["prepared_cache"]["entries"] == 1

    def test_a_miss_plans_once(self, live_server, database, monkeypatch):
        # Admission, prepare() and the entry's bound share one plan.
        calls = []
        plan_join = planner._plan_join

        def counting(*args, **kwargs):
            calls.append(args[0])
            return plan_join(*args, **kwargs)

        monkeypatch.setattr(planner, "_plan_join", counting)
        live = live_server(JoinServer(database))
        with ServerClient(live.host, live.port) as client:
            assert client.query("select * from R, S, T;").cached is False
            assert len(calls) == 1
            assert client.query("select * from R, S, T;").cached is True
        assert len(calls) == 1

    def test_normalized_text_is_reported(self, live_server, database):
        live = live_server(JoinServer(database))
        with ServerClient(live.host, live.port) as client:
            outcome = client.query("SELECT  * FROM R ;")
        assert outcome.final["normalized"] == "select * from R"

    def test_failed_compiles_do_not_poison_the_cache(
        self, live_server, database
    ):
        live = live_server(JoinServer(database))
        with ServerClient(live.host, live.port) as client:
            with pytest.raises(ServerError):
                client.query("select * from Missing;")
            stats = client.stats()
        assert stats["prepared_cache"]["entries"] == 0


class TestAdmission:
    def test_over_budget_rejection_names_bound_and_budget(
        self, live_server, database
    ):
        live = live_server(
            JoinServer(
                database,
                admission=AdmissionController(row_budget=2.0),
            )
        )
        with ServerClient(live.host, live.port) as client:
            with pytest.raises(ServerError) as info:
                client.query("select * from R, S, T;")
            stats = client.stats()
        error = info.value
        assert error.kind == "admission"
        assert error.payload["budget"] == 2.0
        assert error.payload["bound"] > 2.0
        assert "bound" in error.payload["message"]
        assert "row budget" in error.payload["message"]
        assert stats["admission"]["rejected"] == 1

    def test_rejection_happens_before_any_index_build(
        self, live_server, database
    ):
        live = live_server(
            JoinServer(
                database,
                admission=AdmissionController(row_budget=2.0),
            )
        )
        with ServerClient(live.host, live.port) as client:
            with pytest.raises(ServerError):
                client.query("select * from R, S, T;")
        info = database.cache_info()
        assert info.misses == 0  # zero index builds for a rejected query

    def test_aggregates_pass_the_same_budget(self, live_server, database):
        live = live_server(
            JoinServer(
                database,
                admission=AdmissionController(row_budget=2.0),
            )
        )
        with ServerClient(live.host, live.port) as client:
            outcome = client.query("select count(*) from R, S, T;")
        assert outcome.rows[0][0] == 40


class TestProtocolOverTheWire:
    def test_ping_stats_metrics(self, live_server, database):
        live = live_server(JoinServer(database))
        with ServerClient(live.host, live.port) as client:
            assert client.ping()["pong"] is True
            client.query("select count(*) from R;")
            stats = client.stats()
            metrics = client.metrics()
        assert stats["relations"] == {"R": 40, "S": 40, "T": 40}
        assert "repro_server_requests_total" in metrics
        assert "repro_server_request_seconds" in metrics

    def test_malformed_json_answers_typed_error(self, live_server,
                                                database):
        live = live_server(JoinServer(database))
        with socket.create_connection(
            (live.host, live.port), timeout=10
        ) as raw:
            raw.sendall(b"this is not json\n")
            line = raw.makefile("rb").readline()
        response = json.loads(line)
        assert response["ok"] is False
        assert response["error"]["type"] == "protocol"

    def test_oversized_request_line_answers_then_hangs_up(
        self, live_server, database, caplog
    ):
        live = live_server(JoinServer(database))
        oversized = json.dumps(
            {"id": 1, "op": "query", "q": "x" * (MAX_REQUEST_BYTES + 1)}
        ).encode()
        with socket.create_connection(
            (live.host, live.port), timeout=10
        ) as raw:
            raw.sendall(oversized + b"\n")
            with raw.makefile("rb") as reader:
                response = json.loads(reader.readline())
                # ... then a clean close, not a reset.
                assert reader.readline() == b""
        assert response["ok"] is False and response["final"] is True
        assert response["error"]["type"] == "protocol"
        assert str(MAX_REQUEST_BYTES) in response["error"]["message"]
        # A line just under the limit (asyncio's own default is 64 KiB)
        # is an ordinary request.
        with ServerClient(live.host, live.port) as client:
            with pytest.raises(ServerError) as info:
                client.query("x" * 70_000)
            assert info.value.kind == "parse"
            assert 'errors_total{type="protocol"} 1' in client.metrics()
        # Nothing "Unhandled exception in client_connected_cb"-like.
        assert [r for r in caplog.records if r.name == "asyncio"] == []

    def test_bad_batch_field(self, live_server, database):
        live = live_server(JoinServer(database))
        with ServerClient(live.host, live.port) as client:
            with pytest.raises(ServerError) as info:
                client.request("query", q="select * from R;", batch=0)
        assert info.value.kind == "protocol"

    def test_errors_never_kill_the_connection(self, live_server,
                                              database):
        live = live_server(JoinServer(database))
        with ServerClient(live.host, live.port) as client:
            for bad in ("selec *;", "select * from Zed;"):
                with pytest.raises(ServerError):
                    client.query(bad)
            outcome = client.query("select count(*) from R;")
        assert outcome.rows


class TestConcurrency:
    def test_concurrent_clients_multiplex(self, live_server, database):
        live = live_server(JoinServer(database))
        expected = triangle_rows(database)
        results: dict[int, bool] = {}

        def worker(index: int) -> None:
            with ServerClient(live.host, live.port) as client:
                outcome = client.query("select * from R, S, T;", batch=8)
                results[index] = sorted(outcome.rows) == expected

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert len(results) == 8
        assert all(results.values())

    def test_vanished_client_is_a_disconnect_and_stops_the_descent(
        self, live_server, wide_database, monkeypatch
    ):
        seen = counted_stream(monkeypatch)
        live = live_server(JoinServer(wide_database))
        with socket.create_connection(
            (live.host, live.port), timeout=10
        ) as raw:
            raw.sendall(
                json.dumps(
                    {"id": 1, "op": "query", "q": WIDE, "batch": 1}
                ).encode() + b"\n"
            )
            first = json.loads(raw.makefile("rb").readline())
            assert len(first["rows"]) == 1
        # The peer is gone: the row generator is closed, not exhausted.
        assert wait_until(lambda: seen["closed"])
        assert seen["pulled"] < WIDE_ROWS
        with ServerClient(live.host, live.port) as client:
            assert wait_until(
                lambda: 'errors_total{type="disconnect"} 1'
                in client.metrics()
            )
            metrics = client.metrics()
        assert 'type="internal"' not in metrics
        assert "repro_server_rows_sent_total" not in metrics

    def test_a_stalled_reader_does_not_hold_the_same_statement(
        self, live_server
    ):
        # 600 x 800 = 480,000 rows, megabytes of lines: far more than
        # the socket buffers hold, so a client that stops reading
        # blocks its own answer's drain for good.
        r = Relation("R", ("A", "B"), [(a, 0) for a in range(600)])
        s = Relation("S", ("B", "C"), [(0, c) for c in range(800)])
        live = live_server(JoinServer(Database([r, s])))
        request = json.dumps(
            {"id": 1, "op": "query", "q": "select * from R, S;"}
        ).encode() + b"\n"
        answer: dict = {}

        def other_client() -> None:
            with socket.create_connection(
                (live.host, live.port), timeout=30
            ) as raw:
                raw.sendall(request)
                rows = 0
                for line in raw.makefile("rb"):
                    message = json.loads(line)
                    if message.get("final"):
                        answer["final"] = message
                        break
                    rows += len(message["rows"])
                answer["rows"] = rows

        with socket.socket() as stalled:
            stalled.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            stalled.settimeout(10)
            stalled.connect((live.host, live.port))
            stalled.sendall(request)
            # Its run has started (the statement is cached and its
            # first line written); it reads nothing more.
            assert json.loads(stalled.makefile("rb").readline())["rows"]
            thread = threading.Thread(target=other_client, daemon=True)
            thread.start()
            thread.join(timeout=20)
            assert not thread.is_alive(), (
                "a client that stopped reading held up another client "
                "sending the same statement"
            )
        assert answer["final"]["cached"] is True
        assert answer["rows"] == answer["final"]["rows_total"] == 480_000

    def test_one_connection_pipelines_requests(self, live_server,
                                               database):
        live = live_server(JoinServer(database))
        with socket.create_connection(
            (live.host, live.port), timeout=10
        ) as raw:
            for i in (1, 2, 3):
                raw.sendall(
                    json.dumps(
                        {"id": i, "op": "query",
                         "q": "select count(*) from R;"}
                    ).encode() + b"\n"
                )
            reader = raw.makefile("rb")
            finals = {}
            while len(finals) < 3:
                response = json.loads(reader.readline())
                if response.get("final"):
                    finals[response["id"]] = response
        assert set(finals) == {1, 2, 3}
        assert all(f["ok"] for f in finals.values())


def read_to_eof(raw):
    """Every response line up to the server's close, decoded."""
    with raw.makefile("rb") as reader:
        return [json.loads(line) for line in reader]


def query_line(request_id, text, **fields):
    message = {"id": request_id, "op": "query", "q": text, **fields}
    return json.dumps(message).encode() + b"\n"


class TestHalfClose:
    """End of input is not a hang-up: a client that sends its requests
    and shuts down its writing side (``nc -N``) still gets every answer,
    then end-of-file."""

    def test_one_request_then_half_close_gets_the_whole_answer(
        self, live_server, wide_database
    ):
        live = live_server(JoinServer(wide_database))
        with socket.create_connection(
            (live.host, live.port), timeout=30
        ) as raw:
            raw.sendall(query_line(1, WIDE))
            raw.shutdown(socket.SHUT_WR)
            lines = read_to_eof(raw)
        rows = [tuple(row) for line in lines for row in line.get("rows", ())]
        assert sorted(rows) == wide_oracle()
        assert len(lines) > 1  # row lines, not one inline answer
        assert [line.get("final", False) for line in lines] == (
            [False] * (len(lines) - 1) + [True]
        )
        assert lines[-1]["ok"] and lines[-1]["rows_total"] == WIDE_ROWS

    def test_two_pipelined_requests_then_half_close_are_both_answered(
        self, live_server, database
    ):
        live = live_server(JoinServer(database))
        with socket.create_connection(
            (live.host, live.port), timeout=30
        ) as raw:
            raw.sendall(
                query_line(1, "select * from R, S, T;", batch=8)
                + query_line(2, "select count(*) from R;")
            )
            raw.shutdown(socket.SHUT_WR)
            lines = read_to_eof(raw)
        finals = {line["id"]: line for line in lines if line.get("final")}
        assert set(finals) == {1, 2} and all(f["ok"] for f in finals.values())
        rows = [
            tuple(row)
            for line in lines
            if line["id"] == 1
            for row in line.get("rows", ())
        ]
        assert sorted(rows) == triangle_rows(database)

    def test_a_reset_after_half_close_is_still_a_disconnect(
        self, live_server, wide_database, monkeypatch
    ):
        seen = counted_stream(monkeypatch)
        live = live_server(JoinServer(wide_database))
        raw = socket.create_connection((live.host, live.port), timeout=30)
        raw.sendall(query_line(1, WIDE, batch=1))
        raw.shutdown(socket.SHUT_WR)
        first = json.loads(raw.makefile("rb").readline())
        assert len(first["rows"]) == 1
        # Linger 0: close() sends a reset instead of an orderly FIN.
        raw.setsockopt(
            socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
        )
        raw.close()
        assert wait_until(lambda: seen["closed"])
        assert seen["pulled"] < WIDE_ROWS
        with ServerClient(live.host, live.port) as client:
            assert wait_until(
                lambda: 'errors_total{type="disconnect"} 1'
                in client.metrics()
            )
            assert 'type="internal"' not in client.metrics()


def stop_with_drain_after_first_line(live, **fields):
    """Send one query, read its first row line, ``stop(drain=True)``
    mid-stream, read on: ``(first line's rows, every row, final)``."""
    with socket.create_connection((live.host, live.port), timeout=30) as raw:
        raw.sendall(
            json.dumps({"id": 1, "op": "query", **fields}).encode() + b"\n"
        )
        reader = raw.makefile("rb")
        first = json.loads(reader.readline())["rows"]  # one line in flight
        stopper = live.submit(live.server.stop(drain=True))
        rows = list(first)
        final = None
        while final is None:
            response = json.loads(reader.readline())
            if response.get("final"):
                final = response
            else:
                rows.extend(response["rows"])
        stopper.result(timeout=30)
    return first, sorted(tuple(row) for row in rows), final


class TestShutdown:
    def test_drain_finishes_in_flight_queries(self, live_server,
                                              database):
        live = live_server(JoinServer(database))
        first, rows, final = stop_with_drain_after_first_line(
            live, q="select * from R, S, T;", batch=1
        )
        assert first
        # Every row arrived and the final line flushed before teardown.
        assert final["ok"] is True
        assert rows == triangle_rows(database)
        assert final["rows_total"] == len(rows)

    def test_drain_finishes_a_default_sized_stream(
        self, live_server, wide_database
    ):
        live = live_server(JoinServer(wide_database))
        first, rows, final = stop_with_drain_after_first_line(live, q=WIDE)
        assert 0 < len(first) <= DEFAULT_BATCH_ROWS
        assert final["ok"] is True and final["rows_total"] == WIDE_ROWS
        assert rows == wide_oracle()

    def test_new_requests_during_drain_get_shutdown_error(
        self, live_server, database
    ):
        live = live_server(JoinServer(database))

        async def enter_drain():
            # What stop() does first; the connection stays up so the
            # refusal itself is observable.
            live.server._draining = True

        with socket.create_connection(
            (live.host, live.port), timeout=30
        ) as raw:
            reader = raw.makefile("rb")
            live.submit(enter_drain()).result(timeout=5)
            raw.sendall(b'{"id": 9, "op": "ping"}\n')
            response = json.loads(reader.readline())
        assert response["ok"] is False
        assert response["error"]["type"] == "shutdown"

    def test_listener_closes_after_stop(self, live_server, database):
        live = live_server(JoinServer(database))
        live.stop()
        with pytest.raises(OSError):
            socket.create_connection((live.host, live.port), timeout=2)
