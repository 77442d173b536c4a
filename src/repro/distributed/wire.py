"""Length-prefixed framing for the shard fabric.

One frame = one header line + an optional binary payload:

* the header is a compact JSON object terminated by ``"\\n"`` — the
  same newline-delimited-JSON convention as the query server's
  :mod:`repro.server.protocol`, so the two wires read alike in a packet
  capture;
* when the frame carries a payload (the pickled job, shard keys, row
  chunks, fold states, finished trace spans), the header's ``"len"``
  field gives its exact byte length and the payload follows the newline
  verbatim.

Headers stay JSON (debuggable, versionable); payloads stay pickle
(rows and keys round-trip exactly, and the driver pickles the job once
per run — every worker connection receives those same bytes).  Frames
in this direction of trust only ever travel between a driver and
workers *it* started; the worker CLI binds to localhost by default for
exactly that reason.

Ops over this framing (see :mod:`repro.distributed.worker`):
``ping``/``pong``, ``job`` -> ``ready`` (once per connection, before its
first key), ``task`` -> ``rows``* -> ``done``, ``fold`` -> ``state``,
``shutdown`` -> ``bye``, and ``error`` with the same typed payloads as
:func:`repro.server.protocol.error_payload`.
"""

from __future__ import annotations

import json

from repro.errors import DistributedError

__all__ = ["ConnectionClosed", "recv_frame", "send_frame"]


class ConnectionClosed(DistributedError):
    """The peer went away mid-conversation (EOF or a short read).

    The dispatcher treats this as a *transient* worker death: the shard
    the connection was carrying is re-dispatched elsewhere (up to the
    retry budget); only the connection, never the run, is lost here.
    """


def send_frame(sock, header: dict, payload: bytes = b"") -> None:
    """Write one frame: compact-JSON header line, then the payload.

    ``header`` is augmented with ``len`` when a payload rides along;
    the two are concatenated into a single ``sendall`` so a frame is
    never interleaved with another thread's (each channel is owned by
    one driver thread, but cheap atomicity costs nothing).
    """
    if payload:
        header = dict(header, len=len(payload))
    line = (json.dumps(header, separators=(",", ":")) + "\n").encode("utf-8")
    sock.sendall(line + payload)


def recv_frame(reader) -> tuple[dict, bytes]:
    """Read one frame from a buffered binary reader.

    Returns ``(header, payload)``; the payload is ``b""`` for
    payload-free frames.  Raises :class:`ConnectionClosed` on EOF
    between frames or a short read inside one — both mean the peer
    died, and the caller's retry machinery takes over.
    """
    line = reader.readline()
    if not line:
        raise ConnectionClosed("peer closed the connection")
    try:
        header = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise DistributedError(
            f"malformed frame header: {error}"
        ) from error
    if not isinstance(header, dict):
        raise DistributedError(
            f"frame header must be a JSON object, "
            f"got {type(header).__name__}"
        )
    length = header.get("len", 0)
    if not isinstance(length, int) or length < 0:
        raise DistributedError(f"bad frame length {length!r}")
    payload = reader.read(length) if length else b""
    if length and len(payload) != length:
        raise ConnectionClosed(
            f"peer closed mid-frame ({len(payload)}/{length} payload bytes)"
        )
    return header, payload
