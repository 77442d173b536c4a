"""The worker side of the shard fabric.

A worker is deliberately dumb: it holds no job state, makes no
scheduling decisions, and keeps nothing between tasks.  It receives a
pickled :class:`~repro.engine.parallel._ShardTask` (the same payload
the local process pool ships), plans and runs the shard with the
ordinary engine, and streams the result back in row chunks followed by
a ``done`` frame carrying its own wall-clock measurement — the number
the dispatcher's steal-rate model and the feedback store both consume.
All smarts (retry, exactly-once accounting, stealing) live in the
dispatcher, which is what makes worker death survivable: anything a
dead worker knew can be recomputed from the task bytes.

Frames handled (see :mod:`repro.distributed.wire` for the framing):

``{"op": "ping", "id": n}``
    -> ``{"op": "pong", "id": n}`` — liveness probe.
``{"op": "task", "id": n, "trace": bool}`` + pickled task
    -> zero or more ``{"op": "rows", "id": n}`` + pickled row list,
    then ``{"op": "done", "id": n, "seconds": s, "count": c}`` (with a
    pickled finished :class:`~repro.observe.tracing.Span` as payload
    when tracing was requested).
``{"op": "fold", "id": n}`` + pickled ``(task, spec)``
    -> ``{"op": "state", "id": n, "seconds": s}`` + pickled raw state.
``{"op": "shutdown"}``
    -> ``{"op": "bye"}`` and the connection (and, for a
    :class:`WorkerServer`, the accept loop) winds down.

Failures inside a task become a single ``{"op": "error", "id": n,
"error": {...}}`` frame with the same typed payload the query server
uses (:func:`repro.server.protocol.error_payload`) — the dispatcher
treats a typed error as *permanent* (re-running the same bytes would
fail the same way) and aborts the run, while a dead connection is
*transient* and retried.
"""

from __future__ import annotations

import pickle
import socket
import threading
import time

from repro.distributed.transport import Channel
from repro.distributed.wire import ConnectionClosed
from repro.engine.parallel import _shard_fold_state, _shard_rows
from repro.errors import DistributedError
from repro.observe.tracing import Tracer
from repro.server.protocol import error_payload

__all__ = ["ShardWorker", "WorkerServer"]

#: Rows per ``rows`` frame (amortizes framing without hoarding memory).
CHUNK_ROWS = 512


class ShardWorker:
    """Serves shard tasks over one channel at a time."""

    def __init__(self) -> None:
        self.stopped = threading.Event()
        #: Tasks completed over this worker's lifetime (observability).
        self.completed = 0

    def serve_connection(self, channel: Channel) -> None:
        """Handle frames until the peer disconnects or says shutdown."""
        while not self.stopped.is_set():
            try:
                header, payload = channel.recv()
            except (ConnectionClosed, OSError):
                return  # dispatcher went away; nothing to clean up
            op = header.get("op")
            try:
                if op == "ping":
                    channel.send({"op": "pong", "id": header.get("id")})
                elif op == "shutdown":
                    # Flag first: whoever reads "bye" may check it at once.
                    self.stopped.set()
                    channel.send({"op": "bye"})
                    return
                elif op == "task":
                    self._run_task(channel, header, payload)
                elif op == "fold":
                    self._run_fold(channel, header, payload)
                else:
                    channel.send(
                        {
                            "op": "error",
                            "id": header.get("id"),
                            "error": {
                                "type": "protocol",
                                "message": f"unknown op {op!r}",
                            },
                        }
                    )
            except (ConnectionClosed, OSError):
                return  # peer died while we streamed; drop the work

    def _run_task(
        self, channel: Channel, header: dict, payload: bytes
    ) -> None:
        rid = header.get("id")
        try:
            task = pickle.loads(payload)
            started = time.perf_counter()
            count = 0
            span_bytes = b""
            if header.get("trace"):
                # Like the process pool's traced entry point: a local
                # tracer so the shard's plan/index spans nest, the
                # finished root shipped home as plain data.
                local = Tracer(name=f"worker-shard-{rid}")
                with local.activate(), local.span(
                    "shard", shard=rid, remote=True
                ) as span:
                    count = self._stream_rows(channel, rid, task)
                    span.meta["rows"] = count
                span_bytes = pickle.dumps(local.roots[0])
            else:
                count = self._stream_rows(channel, rid, task)
            seconds = time.perf_counter() - started
            self.completed += 1
            done = {
                "op": "done",
                "id": rid,
                "seconds": seconds,
                "count": count,
            }
            if span_bytes:
                done["span"] = True
            channel.send(done, span_bytes)
        except (ConnectionClosed, OSError):
            raise
        except Exception as error:  # typed, permanent: never retried
            channel.send(
                {"op": "error", "id": rid, "error": error_payload(error)}
            )

    def _stream_rows(self, channel: Channel, rid, task) -> int:
        count = 0
        chunk = []
        for row in _shard_rows(task):
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

    def _run_fold(
        self, channel: Channel, header: dict, payload: bytes
    ) -> None:
        rid = header.get("id")
        try:
            task, spec = pickle.loads(payload)
            started = time.perf_counter()
            state = _shard_fold_state(task, spec)
            self.completed += 1
            channel.send(
                {
                    "op": "state",
                    "id": rid,
                    "seconds": time.perf_counter() - started,
                },
                pickle.dumps(state),
            )
        except (ConnectionClosed, OSError):
            raise
        except Exception as error:
            channel.send(
                {"op": "error", "id": rid, "error": error_payload(error)}
            )


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
        channel = Channel(conn)
        try:
            self.worker.serve_connection(channel)
        finally:
            channel.close()

    def stop(self) -> None:
        self.worker.stopped.set()
        self._sock.close()
