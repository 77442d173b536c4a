"""Wire protocol: newline-delimited JSON messages and error payloads.

One request per line, one or more response lines per request, every
line a complete JSON object.  Requests carry a client-chosen ``id``
echoed on every response line, so clients can pipeline: many requests
may be in flight on one connection and responses interleave by ``id``.

Request shape::

    {"id": 1, "op": "query", "q": "select * from R, S;",
     "batch": 256, "trace": false}

Ops: ``query`` (execute a statement), ``explain`` (plan only, sugar
for prefixing EXPLAIN), ``ping``, ``stats`` (catalog and cache
counters), ``metrics`` (Prometheus text).

Responses for a row-streaming query: zero or more ``{"id": 1, "rows":
[[...], ...]}`` row lines, then a final line ``{"id": 1, "ok": true,
"final": true, "columns": [...], "rows_total": N, ...}``.  Non-row
results (aggregates, groups, explains) return a single final line
carrying ``columns`` and ``rows`` inline.

How many rows a line holds: a request's ``batch`` is a hard ceiling on
every line (itself capped at 65536).  With no ``batch`` the first line
holds at most the server's ``batch_rows`` (256 by default) and every
following line twice the one before, up to 4096 — first rows early, and
O(log rows) lines for a result instead of one per 256 rows.  Only the
last row line may be shorter than the one before it; a client must rely
on none of this beyond the ceiling it asked for.  Each row line is
encoded on the worker thread that produced its rows, so the event loop
only writes bytes — where the rows are a plain join's over ``int`` and
``str`` values, by joining the row texts the join's loop nest wrote,
byte for byte what :func:`encode` writes for the tuples.  A request
line longer than 1 MiB is answered one ``protocol`` error (``id``
null) and the connection is closed.

Failures are a single final line with a **typed** error payload::

    {"id": 1, "ok": false, "final": true,
     "error": {"type": "admission", "message": "...",
               "bound": 1024.0, "budget": 100.0}}

``type`` is one of ``parse`` / ``compile`` (with ``line`` / ``column``
/ ``caret``), ``plan``, ``query``, ``admission`` (with ``bound`` /
``budget``), ``protocol`` (malformed request), or ``internal`` — the
mapping from the library's exception hierarchy lives in
:func:`error_payload`, so the REPL's caret diagnostics and the
server's JSON errors always agree.
"""

from __future__ import annotations

import json

from repro.errors import (
    LangError,
    PlanError,
    QueryError,
    ReproError,
)

__all__ = [
    "AdmissionRejected",
    "ProtocolError",
    "decode_line",
    "encode",
    "error_payload",
]

#: Ops the server accepts (checked before dispatch).
OPS = ("query", "explain", "ping", "stats", "metrics")


class ProtocolError(ReproError):
    """The request line itself is malformed (bad JSON, missing op)."""


class AdmissionRejected(ReproError):
    """Admission control refused the query: its AGM output bound
    exceeds the server's row budget.  Carries both numbers so the
    typed payload (and the client's exception message) can name them.
    """

    def __init__(self, message: str, bound: float, budget: float) -> None:
        super().__init__(message)
        self.bound = bound
        self.budget = budget


def encode(message: dict) -> bytes:
    """One response line: compact JSON plus the newline delimiter.
    Rows go in as the tuples they are (JSON arrays either way)."""
    return (
        json.dumps(message, separators=(",", ":"), default=str) + "\n"
    ).encode("utf-8")


def decode_line(line: bytes) -> dict:
    """Parse one request line; :class:`ProtocolError` on bad input."""
    try:
        message = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ProtocolError(f"request is not valid JSON: {error}") from error
    if not isinstance(message, dict):
        raise ProtocolError(
            f"request must be a JSON object, got {type(message).__name__}"
        )
    op = message.get("op")
    if op not in OPS:
        raise ProtocolError(
            f"unknown op {op!r}; expected one of {', '.join(OPS)}"
        )
    return message


def error_payload(error: Exception) -> dict:
    """The typed payload for an exception, per the module docstring."""
    if isinstance(error, AdmissionRejected):
        return {
            "type": "admission",
            "message": str(error),
            "bound": error.bound,
            "budget": error.budget,
        }
    if isinstance(error, LangError):
        return {
            "type": error.kind,  # "parse" or "compile"
            "message": error.message,
            "line": error.line,
            "column": error.column,
            "caret": error.caret_diagnostic(),
        }
    if isinstance(error, ProtocolError):
        return {"type": "protocol", "message": str(error)}
    if isinstance(error, PlanError):
        return {"type": "plan", "message": str(error)}
    if isinstance(error, QueryError):
        return {"type": "query", "message": str(error)}
    if isinstance(error, ReproError):
        return {"type": type(error).__name__, "message": str(error)}
    return {"type": "internal", "message": f"{type(error).__name__}: {error}"}
