"""Zero-dependency tracing: nested, timed spans over the engine's phases.

A :class:`Tracer` records a tree of :class:`Span` records — one per
engine phase (``plan``, ``stats-profile``, ``index-build``, per-shard
``execute``, ``fold``, ``sample``) — each carrying wall and
CPU seconds plus small metadata.  Three ways spans get opened:

* **Explicitly** — ``with tracer.span("execute"): ...`` at the sites
  that hold a tracer (the query layer, the parallel drivers).
* **Ambiently** — deep layers that must not thread a tracer through
  every signature (the planner, ``Database.index``) call
  :func:`maybe_span`, which records into the *active* tracer (a
  ``contextvars`` slot set by :meth:`Tracer.activate`) and costs one
  context-variable read when tracing is off.
* **Remotely** — a process-pool shard worker builds its own local
  tracer, runs its shard under it, and ships the finished span record
  back (spans are plain picklable data); the parent *re-stitches* it
  under its open execute span with :meth:`Tracer.attach` — validated
  against a :class:`SpanContext` where a channel can outlive one trace
  and the record travels with one.

Spans are deliberately coarse — one per phase, never per row — so a
traced run stays within a few percent of an untraced one
(``benchmarks/bench_observe.py`` gates the overhead in CI).
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field

from repro.version import __version__

__all__ = [
    "Span",
    "SpanContext",
    "Tracer",
    "current_tracer",
    "maybe_span",
]

#: The ambient active tracer (see :meth:`Tracer.activate`).  ``None``
#: means tracing is off and :func:`maybe_span` is a no-op.
_ACTIVE: ContextVar["Tracer | None"] = ContextVar(
    "repro_active_tracer", default=None
)

#: Format tag stamped into every trace export header.
TRACE_FORMAT = "repro-trace/1"


def _cpu_clock() -> float:
    """Per-thread CPU seconds where the platform provides them (Linux,
    macOS), falling back to process CPU time."""
    try:
        return time.thread_time()
    except (AttributeError, OSError):  # pragma: no cover - exotic hosts
        return time.process_time()


@dataclass
class Span:
    """One timed phase: name, metadata, wall/CPU seconds, children.

    Plain picklable data — worker processes ship finished spans back to
    the parent as-is.  ``meta`` holds small context (shard index, row
    counts, relation names), never bulk data.  ``wall``/``cpu`` are
    ``None`` while the span is still open.
    """

    name: str
    meta: dict = field(default_factory=dict)
    wall: float | None = None
    cpu: float | None = None
    children: list["Span"] = field(default_factory=list)

    def walk(self):
        """Yield this span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> "Span | None":
        """The first span named ``name`` in this subtree, or ``None``."""
        for span in self.walk():
            if span.name == name:
                return span
        return None

    def to_dict(self) -> dict:
        """A JSON-ready nested rendering of this subtree."""
        record: dict = {"name": self.name}
        if self.meta:
            record["meta"] = dict(self.meta)
        if self.wall is not None:
            record["wall_seconds"] = self.wall
        if self.cpu is not None:
            record["cpu_seconds"] = self.cpu
        if self.children:
            record["children"] = [c.to_dict() for c in self.children]
        return record

    def render(self, indent: int = 0) -> str:
        """An indented one-line-per-span tree (the ``explain --analyze``
        timing block)."""
        wall = f"{self.wall * 1000:.2f} ms" if self.wall is not None else "open"
        cpu = (
            f", cpu {self.cpu * 1000:.2f} ms" if self.cpu is not None else ""
        )
        meta = (
            " [" + ", ".join(f"{k}={v}" for k, v in self.meta.items()) + "]"
            if self.meta
            else ""
        )
        lines = [f"{'  ' * indent}{self.name}: {wall}{cpu}{meta}"]
        lines.extend(child.render(indent + 1) for child in self.children)
        return "\n".join(lines)


@dataclass(frozen=True)
class SpanContext:
    """The picklable identity a parent hands its remote workers.

    Carries the tracer's ``trace_id`` and the open span path at dispatch
    time; a worker's finished span comes back alongside it, and
    :meth:`Tracer.attach` verifies the id before stitching — a stale
    record from a recycled pool worker can never graft onto the wrong
    trace.
    """

    trace_id: int
    path: tuple[str, ...]


class Tracer:
    """Collects a tree of :class:`Span` records for one or more queries.

    Not thread-safe by design: one tracer belongs to one driving thread
    (worker threads and processes report via finished spans the driver
    attaches).  ``roots`` holds every completed top-level span.
    """

    _ids = iter(range(1, 1 << 62))

    def __init__(self, name: str = "trace") -> None:
        self.name = name
        self.trace_id = next(Tracer._ids)
        self.roots: list[Span] = []
        self._stack: list[Span] = []

    # -- recording ----------------------------------------------------------

    @contextmanager
    def span(self, name: str, **meta):
        """Open a child span of the innermost open span (or a new root).

        Yields the :class:`Span` so call sites can add metadata that is
        only known at the end (row counts, resolved modes)::

            with tracer.span("execute") as span:
                ...
                span.meta["rows"] = count
        """
        span = Span(name=name, meta=dict(meta))
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent.children.append(span)
        else:
            self.roots.append(span)
        self._stack.append(span)
        wall0, cpu0 = time.perf_counter(), _cpu_clock()
        try:
            yield span
        finally:
            span.wall = time.perf_counter() - wall0
            span.cpu = _cpu_clock() - cpu0
            self._stack.pop()

    @contextmanager
    def activate(self):
        """Make this tracer the ambient one for :func:`maybe_span`."""
        token = _ACTIVE.set(self)
        try:
            yield self
        finally:
            _ACTIVE.reset(token)

    def attach(
        self, span: Span, context: SpanContext | None = None
    ) -> None:
        """Stitch a finished span (typically shipped from a worker
        process) under the innermost open span, or as a root.

        ``context`` — the :class:`SpanContext` the worker's payload
        carried — is verified when given: a record stamped with another
        trace's id is dropped rather than grafted onto the wrong tree.
        """
        if context is not None and context.trace_id != self.trace_id:
            return
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self.roots.append(span)

    def context(self) -> SpanContext:
        """The :class:`SpanContext` for the current open span path —
        what a parent pickles into each remote worker's payload."""
        return SpanContext(
            trace_id=self.trace_id,
            path=tuple(span.name for span in self._stack),
        )

    # -- inspection ---------------------------------------------------------

    @property
    def spans(self) -> list[Span]:
        """The completed top-level spans (alias of :attr:`roots`)."""
        return self.roots

    def find(self, name: str) -> Span | None:
        """The first span named ``name`` anywhere in the trace."""
        for root in self.roots:
            found = root.find(name)
            if found is not None:
                return found
        return None

    def walk(self):
        """Every span in the trace, depth-first across roots."""
        for root in self.roots:
            yield from root.walk()

    # -- export -------------------------------------------------------------

    def to_dict(self) -> dict:
        """The full trace with its version header, JSON-ready."""
        return {
            "format": TRACE_FORMAT,
            "version": __version__,
            "trace": self.name,
            "spans": [root.to_dict() for root in self.roots],
        }

    def export_json(self, indent: int = 2) -> str:
        """The trace as JSON text (header included)."""
        return json.dumps(self.to_dict(), indent=indent)

    def render(self) -> str:
        """The whole trace as an indented span tree."""
        return "\n".join(root.render() for root in self.roots)

    def __repr__(self) -> str:
        return (
            f"Tracer({self.name!r}, id={self.trace_id}, "
            f"spans={len(self.roots)})"
        )


def current_tracer() -> Tracer | None:
    """The ambient active tracer, or ``None`` when tracing is off."""
    return _ACTIVE.get()


@contextmanager
def maybe_span(name: str, **meta):
    """Record a span into the active tracer — a no-op (one context-var
    read) when no tracer is active.

    The hook for layers that must not carry a tracer in their
    signatures: the planner's ``plan`` / ``stats-profile`` phases and
    ``Database.index``'s ``index-build`` all run under whatever tracer
    the query layer activated, and cost nothing otherwise.  Yields the
    :class:`Span` or ``None``.
    """
    tracer = _ACTIVE.get()
    if tracer is None:
        yield None
        return
    with tracer.span(name, **meta) as span:
        yield span
