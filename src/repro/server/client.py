"""A small synchronous client for the NDJSON server.

For tests, scripts, and docs — anything that wants to talk to
``python -m repro serve`` without writing asyncio.  One socket, one
request in flight at a time (the *server* multiplexes across
connections; a client wanting concurrency opens more connections or
more :class:`ServerClient` instances).

>>> # doctest-style sketch (the server must be running):
>>> # with ServerClient(host, port) as client:
>>> #     outcome = client.query("select * from R, S;")
>>> #     outcome.columns, outcome.rows
"""

from __future__ import annotations

import json
import socket
import time
from dataclasses import dataclass, field

from repro.errors import ReproError

__all__ = ["QueryOutcome", "ServerClient", "ServerError"]


class ServerError(ReproError):
    """The server answered a typed error payload.

    ``payload`` is the full error object (``type``, ``message``, and
    type-specific fields: ``line``/``column``/``caret`` for language
    errors, ``bound``/``budget`` for admission rejections).
    """

    def __init__(self, payload: dict) -> None:
        kind = payload.get("type", "unknown")
        message = payload.get("message", "")
        super().__init__(f"[{kind}] {message}")
        self.payload = payload
        self.kind = kind


@dataclass
class QueryOutcome:
    """Everything one statement returned."""

    columns: tuple[str, ...]
    rows: list[tuple]
    final: dict = field(default_factory=dict)

    @property
    def cached(self) -> bool:
        return bool(self.final.get("cached"))

    @property
    def bound(self) -> float | None:
        return self.final.get("bound")

    @property
    def text(self) -> str | None:
        return self.final.get("text")


class ServerClient:
    """A blocking NDJSON client; usable as a context manager.

    The connection is reused across requests (opened lazily on the
    first one) instead of dialed fresh every time.  ``idle_timeout``
    bounds reuse: a connection that has sat idle longer is closed and
    redialed before the next request rather than trusted — servers and
    middleboxes drop quiet connections, and a half-dead socket would
    otherwise surface as a mid-response hangup.  A send on a connection
    the server closed while it was idle is retried once on a fresh one.
    """

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float | None = 30.0,
        idle_timeout: float | None = 60.0,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self.idle_timeout = idle_timeout
        self._socket: socket.socket | None = None
        self._reader = None
        self._last_used = 0.0
        self._next_id = 0

    @property
    def connected(self) -> bool:
        """Is a (believed-live) connection currently held open?"""
        return self._socket is not None

    def _connect(self) -> None:
        self._socket = socket.create_connection(
            (self.host, self.port), self.timeout
        )
        self._reader = self._socket.makefile("rb")
        self._last_used = time.monotonic()

    def _ensure_connection(self) -> None:
        if self._socket is not None and self.idle_timeout is not None:
            if time.monotonic() - self._last_used > self.idle_timeout:
                self.close()
        if self._socket is None:
            self._connect()

    def close(self) -> None:
        if self._socket is None:
            return
        try:
            self._reader.close()
        finally:
            sock, self._socket, self._reader = self._socket, None, None
            sock.close()

    def __enter__(self) -> "ServerClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- the wire ------------------------------------------------------------

    def request(self, op: str, **fields) -> tuple[list[dict], dict]:
        """Send one request; returns ``(batch_messages, final)``.

        Every ``rows`` array, streamed or inline on the final line, is a
        list of tuples, converted as its line arrives — while the server
        is producing the next one, not after the last.

        Raises :class:`ServerError` when the final line carries
        ``ok: false``, and :class:`ConnectionError` when the server
        hangs up mid-response.
        """
        self._next_id += 1
        request_id = self._next_id
        line = (
            json.dumps({"id": request_id, "op": op, **fields}) + "\n"
        ).encode("utf-8")
        self._ensure_connection()
        try:
            self._socket.sendall(line)
            return self._read_response(request_id)
        except TimeoutError:
            # A slow server is not a dead connection; re-sending would
            # double-execute against a live one.  Drop the socket (a
            # late response would desynchronize the stream) and report.
            self.close()
            raise
        except (ConnectionError, OSError):
            # The server (or an idle-connection reaper) closed the
            # socket under us.  Nothing was committed server-side for
            # this request id, so one retry on a fresh connection is
            # safe; a failure there is a real outage and propagates.
            self.close()
            self._connect()
            self._socket.sendall(line)
            return self._read_response(request_id)

    def _read_response(self, request_id: int) -> tuple[list[dict], dict]:
        batches: list[dict] = []
        while True:
            line = self._reader.readline()
            if not line:
                raise ConnectionError(
                    "server closed the connection mid-response"
                )
            response = json.loads(line)
            if response.get("id") not in (request_id, None):
                continue  # a stale line from an aborted request
            if "rows" in response:
                response["rows"] = list(map(tuple, response["rows"]))
            if response.get("final"):
                self._last_used = time.monotonic()
                if not response.get("ok"):
                    raise ServerError(response.get("error", {}))
                return batches, response
            batches.append(response)

    # -- sugar ---------------------------------------------------------------

    def query(
        self,
        text: str,
        batch: int | None = None,
        trace: bool = False,
    ) -> QueryOutcome:
        """Execute one statement and collect every row."""
        fields: dict = {"q": text}
        if batch is not None:
            fields["batch"] = batch
        if trace:
            fields["trace"] = True
        batches, final = self.request("query", **fields)
        rows = [
            row
            for message in (*batches, final)
            for row in message.get("rows", ())
        ]
        return QueryOutcome(
            columns=tuple(final.get("columns", ())),
            rows=rows,
            final=final,
        )

    def explain(self, text: str) -> str:
        """The plan description for a statement."""
        _batches, final = self.request("explain", q=text)
        return final.get("text", "")

    def ping(self) -> dict:
        _batches, final = self.request("ping")
        return final

    def stats(self) -> dict:
        _batches, final = self.request("stats")
        return final

    def metrics(self) -> str:
        """The server's metrics in Prometheus text format."""
        _batches, final = self.request("metrics")
        return final.get("text", "")
