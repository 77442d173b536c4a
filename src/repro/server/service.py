"""The always-on asyncio join server.

One process, one catalog, many concurrent clients: ``python -m repro
serve R.csv S.csv ...`` (or :class:`JoinServer` embedded).  The event
loop owns connections and scheduling; query execution — which is
CPU-bound, synchronous engine code — runs on worker threads via
``asyncio.to_thread``, one hop per response line: the worker descends
for the line's rows *and* encodes them, the loop only writes the bytes
and drains.  The next hop starts after the drain, so a slow client
applies TCP backpressure to its own query without stalling anyone
else's, and a client that hangs up stops its descent within a line.

Life of a request line:

1. **decode** (:mod:`repro.server.protocol`) — malformed JSON or an
   unknown op answers a typed ``protocol`` error; so does a line over
   :data:`MAX_REQUEST_BYTES`, after which the connection is closed.
2. **parse + compile** — the same front-end the REPL uses; errors
   answer typed ``parse`` / ``compile`` payloads with caret text.
3. **admission** (:mod:`repro.server.admission`) — the plan's AGM
   bound against the row budget: reject (typed ``admission`` error
   naming bound and budget), queue (heavy queries serialize), or
   admit.  Rejection happens *before* any index is built.  A streamed
   answer is admitted per worker hop, not while its client drains.
4. **prepared cache** (:mod:`repro.server.cache`) — repeated
   normalized text reuses the frozen plan: zero replanning, zero index
   builds on hits.
5. **execute** — row queries stream row lines then a final line;
   aggregates/groups/explains answer one final line.  Where the rows
   are Generic Join's plain loop nest's (:meth:`~repro.query.prepared.
   PreparedQuery._texts`), the nest writes each row's JSON text and a
   line joins them; otherwise each line's tuples are encoded.  A request's
   ``batch`` is a hard ceiling on every line's rows.  Without one the
   first line holds at most the server's ``batch_rows`` (256, so the
   first rows leave early) and each line after it doubles, up to
   :data:`MAX_LINE_ROWS` (4096): an answer of n rows is handed to the
   wire O(log n) + n / 4096 times, not n / 256.  A client that hangs
   up mid-stream is counted as a ``disconnect`` (not an error of the
   server's) and its row generator is closed.  Every phase runs
   under a per-request :class:`~repro.observe.tracing.Tracer` span
   (returned to the client when the request sets ``"trace": true``),
   and the shared :class:`~repro.observe.metrics.MetricsRegistry`
   counts requests, errors, admissions, rows, and latency — the
   ``metrics`` op serves it as Prometheus text.

``stop(drain=True)`` closes the listener, lets in-flight queries
finish and flush, then tears down connections — the graceful shutdown
integration tests drive.
"""

from __future__ import annotations

import asyncio
from collections.abc import Iterator
from contextlib import aclosing, nullcontext, suppress
from itertools import islice

from repro.errors import LangError, ReproError, require_positive_int
from repro.lang.compiler import compile_query
from repro.lang.parser import parse
from repro.observe.metrics import MetricsRegistry
from repro.observe.tracing import Tracer
from repro.query.context import ExecutionContext
from repro.query.builder import _pump
from repro.relations.database import Database
from repro.relations.relation import Row
from repro.server.admission import AdmissionController
from repro.server.cache import CacheEntry, PreparedCache
from repro.server.protocol import (
    ProtocolError,
    decode_line,
    encode,
    error_payload,
)
from repro.version import __version__

__all__ = ["JoinServer", "DEFAULT_BATCH_ROWS"]

#: Rows on the first streamed response line unless the request asks
#: otherwise (a server's ``batch_rows``): small, so the first rows leave
#: early.
DEFAULT_BATCH_ROWS = 256

#: Ceiling on a request's ``batch`` field (a huge batch defeats
#: backpressure by buffering the whole result in one message).
MAX_BATCH_ROWS = 65536

#: Rows a line grows to when the request names no ``batch``: each line
#: doubles the one before up to this many, so a result of n rows costs
#: O(log n) + n / 4096 worker hops, socket writes and client reads
#: instead of n / 256.
MAX_LINE_ROWS = 4096

#: Longest request line read, in bytes (the stream reader's limit); a
#: longer one is answered a ``protocol`` error and the connection closed.
MAX_REQUEST_BYTES = 1 << 20


def _row_lines(
    rows: Iterator[Row] | Iterator[str], texts: bool, request_id,
    first: int, ceiling: int,
) -> Iterator[tuple[int, bytes]]:
    """One answer's row lines, ``(row count, encoded line)`` each: at
    most ``first`` rows on the first, then doubling up to ``ceiling``.

    Driven by :func:`~repro.query.builder._pump`, so a line's descent,
    batching and JSON encoding are one worker hop and the event loop
    only writes bytes.  ``rows`` are row tuples for :func:`encode`, or
    — ``texts`` — the rows' JSON array texts the loop nest wrote, joined
    between the head and the tail :func:`encode` gives an empty line.
    """
    head = encode({"id": request_id, "rows": []})[:-3].decode()
    size = first
    while batch := list(islice(rows, size)):
        yield len(batch), (
            (head + ",".join(batch) + "]}\n").encode()
            if texts
            else encode({"id": request_id, "rows": batch})
        )
        size = min(2 * size, ceiling)


class JoinServer:
    """A TCP NDJSON query server over one :class:`Database`."""

    def __init__(
        self,
        database: Database,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        admission: AdmissionController | None = None,
        cache: PreparedCache | None = None,
        context: ExecutionContext | None = None,
        batch_rows: int = DEFAULT_BATCH_ROWS,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.database = database
        self.host = host
        self.port = port
        self.admission = (
            admission if admission is not None else AdmissionController()
        )
        self.cache = cache if cache is not None else PreparedCache()
        self.context = (
            context if context is not None else ExecutionContext()
        )
        self.batch_rows = require_positive_int(batch_rows, "batch_rows")
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._server: asyncio.AbstractServer | None = None
        self._conn_tasks: set[asyncio.Task] = set()
        self._request_tasks: set[asyncio.Task] = set()
        self._draining = False

    # -- lifecycle -----------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` (real port after ``port=0``)."""
        if self._server is None:
            raise RuntimeError("server is not started")
        return self._server.sockets[0].getsockname()[:2]

    async def start(self) -> tuple[str, int]:
        """Bind and start accepting connections; returns the address."""
        self._server = await asyncio.start_server(
            self._on_connection,
            self.host,
            self.port,
            limit=MAX_REQUEST_BYTES,
        )
        return self.address

    async def stop(self, drain: bool = True) -> None:
        """Shut down: stop accepting, optionally drain, tear down.

        With ``drain`` (the default), every request already in flight
        runs to completion and flushes its final line before
        connections close — clients never see a query vanish.  Without
        it, in-flight work is cancelled.
        """
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        requests = list(self._request_tasks)
        if drain:
            if requests:
                await asyncio.gather(*requests, return_exceptions=True)
        else:
            for task in requests:
                task.cancel()
            if requests:
                await asyncio.gather(*requests, return_exceptions=True)
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(
                *self._conn_tasks, return_exceptions=True
            )

    async def serve_forever(self) -> None:
        """``start()`` then block until cancelled (the CLI's path)."""
        if self._server is None:
            await self.start()
        assert self._server is not None
        try:
            await self._server.serve_forever()
        except asyncio.CancelledError:
            await self.stop(drain=True)
            raise

    # -- connections ---------------------------------------------------------

    async def _on_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        task = asyncio.current_task()
        # start_server wraps this coroutine in a task; track it so
        # stop() can tear the connection down.
        if task is not None:
            self._conn_tasks.add(task)
            task.add_done_callback(self._conn_tasks.discard)
        self.metrics.counter(
            "repro_server_connections_total",
            "connections accepted",
        ).inc()
        await self._connection_loop(reader, writer)

    async def _connection_loop(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        # One writer lock per connection: response lines from
        # concurrently multiplexed requests must not interleave bytes.
        write_lock = asyncio.Lock()
        requests: set[asyncio.Task] = set()
        try:
            while True:
                try:
                    line = await reader.readuntil(b"\n")
                except asyncio.IncompleteReadError as end:
                    line = end.partial  # end of stream
                except asyncio.LimitOverrunError as overrun:
                    await self._refuse_oversized(
                        reader, writer, write_lock, overrun.consumed
                    )
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                if self._draining:
                    await self._refuse(
                        writer,
                        write_lock,
                        {
                            "type": "shutdown",
                            "message": "server is shutting down",
                        },
                    )
                    continue
                task = asyncio.create_task(
                    self._handle_line(line, writer, write_lock)
                )
                self._request_tasks.add(task)
                task.add_done_callback(self._request_tasks.discard)
                requests.add(task)
                task.add_done_callback(requests.discard)
            # End of input is not a hang-up: a client that half-closes
            # (``nc -N``) is still reading, so this connection's requests
            # finish before the writer closes.  They stop by themselves
            # on a ``ConnectionError`` if the peer is really gone.
            if requests:
                await asyncio.gather(*requests, return_exceptions=True)
        except (
            asyncio.CancelledError,
            ConnectionResetError,
            BrokenPipeError,
        ):
            pass
        finally:
            # A second cancel can land while the writer closes: swallow
            # it too, so the task ends normally — a cancelled one makes
            # asyncio's own done-callback (3.11) log a CancelledError.
            with suppress(Exception, asyncio.CancelledError):
                writer.close()
                await writer.wait_closed()

    async def _refuse_oversized(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
        held: int,
    ) -> None:
        """Answer a request line over :data:`MAX_REQUEST_BYTES` (``held``
        bytes of it are buffered) with one ``protocol`` error, then read
        it to its end so the caller can hang up.  A peer that never ends
        the line is held, like any idle one, until it hangs up itself."""
        error = ProtocolError(
            f"request line exceeds the limit of {MAX_REQUEST_BYTES} bytes"
        )
        self._count_error("protocol")
        await self._refuse(writer, write_lock, error_payload(error))
        # Closing a socket with input unread resets the connection, and
        # the reset can overtake the answer: drop the rest of the line
        # (memory stays under the reader's limit) before hanging up.
        while True:
            try:
                await reader.readexactly(held)
                await reader.readuntil(b"\n")
                return
            except asyncio.LimitOverrunError as overrun:
                held = overrun.consumed
            except asyncio.IncompleteReadError:
                return  # the peer hung up first

    async def _refuse(
        self,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
        error: dict,
    ) -> None:
        """The one line answering a request that was never decoded (no
        ``id`` to echo)."""
        await self._send(
            writer,
            write_lock,
            {"id": None, "ok": False, "final": True, "error": error},
        )

    async def _send(
        self,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
        message: dict,
    ) -> None:
        await self._write_line(writer, write_lock, encode(message))

    async def _write_line(
        self,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
        line: bytes,
    ) -> None:
        async with write_lock:
            writer.write(line)
            # drain() inside the lock: TCP backpressure from a slow
            # client pauses exactly the tasks writing to that client.
            await writer.drain()

    def _count_error(self, kind: str) -> None:
        self.metrics.counter(
            "repro_server_errors_total", "typed errors by kind"
        ).inc(type=kind)

    # -- requests ------------------------------------------------------------

    async def _handle_line(
        self,
        line: bytes,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
    ) -> None:
        request_id = None
        started = asyncio.get_running_loop().time()
        tracer = Tracer(name="request")
        try:
            with tracer.span("request"):
                message = decode_line(line)
                request_id = message.get("id")
                op = message["op"]
                self.metrics.counter(
                    "repro_server_requests_total", "requests by op"
                ).inc(op=op)
                final = await self._dispatch(
                    message, writer, write_lock, tracer
                )
        except (ReproError, asyncio.CancelledError) as error:
            if isinstance(error, asyncio.CancelledError):
                raise
            payload = error_payload(error)
            self._count_error(payload["type"])
            final = {"ok": False, "error": payload}
        except ConnectionError:
            # The client hung up mid-answer: its own outcome, not a
            # fault of ours, and nobody is left to send a final line to.
            self._count_error("disconnect")
            return
        except Exception as error:  # internal: never kill the connection
            payload = error_payload(error)
            self._count_error("internal")
            final = {"ok": False, "error": payload}
        final["id"] = request_id
        final["final"] = True
        elapsed = asyncio.get_running_loop().time() - started
        self.metrics.histogram(
            "repro_server_request_seconds", "request wall time"
        ).observe(elapsed)
        if tracer.spans:
            tracer.spans[0].meta["ok"] = final.get("ok", False)
        with suppress(ConnectionResetError, BrokenPipeError):
            await self._send(writer, write_lock, final)

    async def _dispatch(
        self,
        message: dict,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
        tracer: Tracer,
    ) -> dict:
        op = message["op"]
        if op == "ping":
            return {"ok": True, "pong": True, "version": __version__}
        if op == "metrics":
            return {"ok": True, "text": self.metrics.to_prometheus()}
        if op == "stats":
            return {"ok": True, **self._stats_payload()}
        text = message.get("q")
        if not isinstance(text, str) or not text.strip():
            raise ProtocolError(
                f"op {op!r} needs a statement in the 'q' field"
            )
        if op == "explain" and not text.lstrip().lower().startswith(
            "explain"
        ):
            text = "explain " + text
        return await self._run_query(message, text, writer, write_lock, tracer)

    def _stats_payload(self) -> dict:
        info = self.database.cache_info()
        cache = self.cache.cache_info()
        return {
            "relations": self.database.sizes(),
            "prepared_cache": {
                "entries": cache.entries,
                "capacity": cache.capacity,
                "hits": cache.hits,
                "misses": cache.misses,
                "evictions": cache.evictions,
            },
            "index_cache": {
                "entries": info.entries,
                "hits": info.hits,
                "misses": info.misses,
                "evictions": info.evictions,
            },
            "admission": {
                "admitted": self.admission.admitted,
                "rejected": self.admission.rejected,
                "queued": self.admission.queued,
                "row_budget": self.admission.row_budget,
                "queue_budget": self.admission.queue_budget,
            },
        }

    def _line_rows_for(self, message: dict) -> tuple[int, int]:
        """``(first, ceiling)`` rows per line: a request's ``batch`` is
        a hard ceiling on every line; without one, lines start at the
        server's ``batch_rows`` and double up to ``MAX_LINE_ROWS``."""
        batch = message.get("batch")
        if batch is None:
            return self.batch_rows, max(self.batch_rows, MAX_LINE_ROWS)
        if not isinstance(batch, int) or isinstance(batch, bool) or (
            batch < 1
        ):
            raise ProtocolError(
                f"'batch' must be a positive integer, got {batch!r}"
            )
        batch = min(batch, MAX_BATCH_ROWS)
        return batch, batch

    async def _run_query(
        self,
        message: dict,
        text: str,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
        tracer: Tracer,
    ) -> dict:
        request_id = message.get("id")
        line_rows = self._line_rows_for(message)
        with tracer.span("parse"):
            statement = parse(text)
        normalized = statement.normalized
        entry = self.cache.get(normalized)
        cached = entry is not None
        if entry is None:
            with tracer.span("compile"):
                compiled = compile_query(
                    statement, self.database, self.context
                )
            with tracer.span("plan"):
                # The AGM bound comes from the plan alone — admission
                # can reject *before* any index is built.
                bound = float(
                    await asyncio.to_thread(
                        lambda: compiled.builder.plan().estimated_bound
                    )
                )
            self.admission.decide(compiled.kind, bound)
            with tracer.span("prepare"):
                entry = await asyncio.to_thread(CacheEntry, compiled)
            self.cache.put(normalized, entry)
        self.metrics.counter(
            "repro_server_prepared_cache_total", "prepared cache lookups"
        ).inc(outcome="hit" if cached else "miss")
        compiled = entry.compiled
        kind = compiled.kind
        admission = self.admission.admit(kind, entry.bound)
        async with admission as decision:
            self.metrics.counter(
                "repro_server_admission_total", "admission outcomes"
            ).inc(outcome=decision.reason)
            base = {
                "ok": True,
                "kind": kind,
                "columns": list(compiled.columns),
                "cached": cached,
                "bound": entry.bound,
                "queued": decision.queued,
                "normalized": normalized,
            }
            with tracer.span("execute", kind=kind) as span:
                if kind == "rows":
                    total = await self._stream_rows(
                        request_id,
                        entry,
                        line_rows,
                        writer,
                        write_lock,
                        span.meta,
                        admission.released,
                    )
                    base["rows_total"] = total
                else:
                    result = await asyncio.to_thread(
                        compiled.run, entry.prepared
                    )
                    if result.text is not None:
                        base["text"] = result.text
                    base["rows"] = [list(row) for row in result.rows]
                    base["rows_total"] = len(result.rows)
        self.metrics.counter(
            "repro_server_rows_sent_total", "result rows sent"
        ).inc(base["rows_total"])
        if message.get("trace"):
            base["trace"] = tracer.to_dict()
        return base

    async def _stream_rows(
        self,
        request_id,
        entry: CacheEntry,
        line_rows: tuple[int, int],
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
        meta: dict | None = None,
        released=nullcontext,
    ) -> int:
        """Stream one answer's row lines; the rows sent.  ``meta`` (the
        ``execute`` span's) records which encoder ran — ``"text"``, the
        loop nest's row texts, or ``"tuples"`` — and the lines sent."""
        total = sent = 0
        rows = entry.prepared._texts()
        texts = rows is not None
        if not texts:
            rows = entry.prepared.stream()
        # aclosing: a failed write (the client is gone) closes the pump
        # and with it the descent, here and now rather than at some
        # later collection.
        async with aclosing(
            _pump(_row_lines(rows, texts, request_id, *line_rows))
        ) as lines:
            async for count, line in lines:
                total += count
                sent += 1
                async with released():
                    await self._write_line(writer, write_lock, line)
        if meta is not None:
            meta.update(rows="text" if texts else "tuples", lines=sent)
        return total
