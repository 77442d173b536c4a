"""The worker side of the shard fabric.

A worker makes no decisions: it neither profiles nor plans nor
schedules.  Per connection it is told once what to run — a ``job``
frame carrying the pickled :class:`~repro.engine.parallel.ShardRunner`
(the driver's plan: relations, algorithm, cover, order, backends,
residual filters) and the fold spec, bound right there: unpickling
builds the indexes, once — and then which slices of it: every ``task``
/ ``fold`` frame carries a pickled shard *key* and nothing else.  A
``task`` streams the key's rows back in chunks followed by a ``done``
frame carrying the worker's own wall-clock measurement — the number the
dispatcher's steal-rate model and the metrics registry consume.  All
smarts (retry, exactly-once accounting, stealing) live in the
dispatcher, which is what makes worker death survivable: the bound job
dies with its connection and the dispatcher re-sends it on the next.

Frames handled (see :mod:`repro.distributed.wire` for the framing):

``{"op": "ping", "id": n}``
    -> ``{"op": "pong", "id": n}`` — liveness probe.
``{"op": "job", "id": n}`` + pickled ``(runner, spec)``
    -> ``{"op": "ready", "id": n}`` once the job is bound; it replaces
    whatever this connection had bound before.
``{"op": "task", "id": n, "trace": bool}`` + pickled key
    -> zero or more ``{"op": "rows", "id": n}`` + pickled row list,
    then ``{"op": "done", "id": n, "seconds": s, "count": c}`` (with a
    pickled finished :class:`~repro.observe.tracing.Span` as payload
    when tracing was requested).
``{"op": "fold", "id": n}`` + pickled key
    -> ``{"op": "state", "id": n, "seconds": s}`` + pickled raw state
    of the job's spec folded over the key.
``{"op": "shutdown"}``
    -> ``{"op": "bye"}`` and the connection (and, for a
    :class:`WorkerServer`, the accept loop) winds down.

Failures inside a frame become a single ``{"op": "error", "id": n,
"error": {...}}`` frame with the same typed payload the query server
uses (:func:`repro.server.protocol.error_payload`; an unknown op, or a
``task`` / ``fold`` before any ``job``, is a ``protocol`` error) — the
dispatcher treats a typed error as *permanent* (re-running the same
bytes would fail the same way) and aborts the run, while a dead
connection is *transient* and retried.
"""

from __future__ import annotations

import pickle
import socket
import threading
import time

from repro.distributed.transport import Channel
from repro.distributed.wire import ConnectionClosed
from repro.errors import DistributedError
from repro.observe.tracing import Tracer
from repro.server.protocol import ProtocolError, error_payload

__all__ = ["ShardWorker", "WorkerServer"]

#: Rows per ``rows`` frame (amortizes framing without hoarding memory).
CHUNK_ROWS = 512


class ShardWorker:
    """Serves shard keys over one channel at a time."""

    def __init__(self) -> None:
        self.stopped = threading.Event()
        #: Keys completed over this worker's lifetime (observability).
        self.completed = 0

    def serve_connection(self, channel: Channel) -> None:
        """Handle frames until the peer disconnects or says shutdown."""
        #: ``(runner, spec)`` of this connection's ``job`` frame.
        work = None
        while not self.stopped.is_set():
            try:
                header, payload = channel.recv()
                work = self._handle(channel, header, payload, work)
            except (ConnectionClosed, OSError):
                # The dispatcher went away, between frames or while we
                # streamed: drop the work, nothing to clean up.
                return

    def _handle(self, channel: Channel, header: dict, payload: bytes, work):
        """Answer one frame; returns the job the connection now holds."""
        op, rid = header.get("op"), header.get("id")
        try:
            if op == "ping":
                channel.send({"op": "pong", "id": rid})
            elif op == "shutdown":
                # Flag first: whoever reads "bye" may check it at once.
                self.stopped.set()
                channel.send({"op": "bye"})
            elif op == "job":
                work = pickle.loads(payload)  # binds: indexes built here
                channel.send({"op": "ready", "id": rid})
            elif op in ("task", "fold"):
                if work is None:
                    raise ProtocolError(f"{op!r} frame before any job frame")
                self._run_key(channel, header, payload, *work)
            else:
                raise ProtocolError(f"unknown op {op!r}")
        except (ConnectionClosed, OSError):
            raise
        except Exception as error:  # typed, permanent: never retried
            channel.send(
                {"op": "error", "id": rid, "error": error_payload(error)}
            )
        return work

    def _run_key(
        self, channel: Channel, header: dict, payload: bytes, runner, spec
    ) -> None:
        """One ``task`` (stream the key's rows, then ``done``) or one
        ``fold`` (the key's partial state), timed by this worker."""
        rid = header.get("id")
        key = pickle.loads(payload)
        started = time.perf_counter()
        if header["op"] == "fold":
            (state,) = runner.stream(key, spec)
            reply = {"op": "state", "id": rid}
            data = pickle.dumps(state)
        elif header.get("trace"):
            # Like the process pool's traced entry point: a local
            # tracer, the finished shard span shipped home as plain
            # data.
            local = Tracer(name=f"worker-shard-{rid}")
            with local.activate(), local.span(
                "shard", shard=rid, remote=True
            ) as span:
                count = self._stream_rows(channel, rid, runner.stream(key))
                span.meta["rows"] = count
            reply = {"op": "done", "id": rid, "count": count, "span": True}
            data = pickle.dumps(local.roots[0])
        else:
            count = self._stream_rows(channel, rid, runner.stream(key))
            reply = {"op": "done", "id": rid, "count": count}
            data = b""
        reply["seconds"] = time.perf_counter() - started
        self.completed += 1
        channel.send(reply, data)

    def _stream_rows(self, channel: Channel, rid, rows) -> int:
        count = 0
        chunk = []
        for row in rows:
            chunk.append(row)
            count += 1
            if len(chunk) >= CHUNK_ROWS:
                channel.send(
                    {"op": "rows", "id": rid, "n": len(chunk)},
                    pickle.dumps(chunk),
                )
                chunk = []
        if chunk:
            channel.send(
                {"op": "rows", "id": rid, "n": len(chunk)},
                pickle.dumps(chunk),
            )
        return count


class WorkerServer:
    """A listening worker: ``python -m repro worker`` runs one of these.

    Accepts any number of dispatcher connections, each served on its
    own thread by a shared :class:`ShardWorker`.  ``port=0`` binds an
    ephemeral port (read it back from :attr:`address`) — what the tests
    use to run real TCP fleets without port coordination.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0) -> None:
        self.worker = ShardWorker()
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            self._sock.bind((host, port))
        except OSError as error:
            self._sock.close()
            raise DistributedError(
                f"cannot bind worker to {host}:{port}: {error}"
            ) from error
        self._sock.listen()
        # Short accept timeout so stop() is honored promptly.
        self._sock.settimeout(0.2)
        self._threads: list[threading.Thread] = []

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` (resolves ``port=0``)."""
        return self._sock.getsockname()[:2]

    def serve_forever(self) -> None:
        """Accept and serve until :meth:`stop` (or a shutdown frame)."""
        try:
            while not self.worker.stopped.is_set():
                try:
                    conn, _addr = self._sock.accept()
                except socket.timeout:
                    continue
                except OSError:
                    break  # listening socket closed under us: stopping
                thread = threading.Thread(
                    target=self._serve_one, args=(conn,), daemon=True
                )
                thread.start()
                self._threads.append(thread)
        finally:
            self._sock.close()

    def _serve_one(self, conn: socket.socket) -> None:
        # A key's answer is several small frames written back to back
        # (``rows``*, then ``done``): without this the second waits out
        # the driver's delayed ACK, ~40 ms per key.
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        channel = Channel(conn)
        try:
            self.worker.serve_connection(channel)
        finally:
            channel.close()

    def stop(self) -> None:
        self.worker.stopped.set()
        self._sock.close()
