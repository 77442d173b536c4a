"""Execution telemetry: what a join run actually did, per level.

The planner's order descent works from *estimates* — exact pairwise
selectivities, distinct counts, relation sizes.  This module defines the
*measurements* they are held against: cheap per-level counters threaded
through the attribute-at-a-time executors (Generic Join, Leapfrog
Triejoin) recording, for every level of the executed attribute order,

* **partials** — how many partial tuples reached the level (the true
  partial-result size the descent estimated),
* **candidates** — how many candidate values the level enumerated (the
  level's actual work), and
* **matches** — how many candidates survived the intersection (became
  partials of the next level).

``EXPLAIN ANALYZE`` lines these up against the plan's estimates, and
the metrics registry sums the candidates into its probe counter.

Telemetry is **off by default**.  The counters belong to the one descent
kernel (:mod:`repro.core.descent`): a :class:`TelemetryProbe` is part of
a descent's shape, not a second copy of the loop — with one attached the
bumps are lines of the compiled loop nest, without one they are not in
its text at all (``docs/ARCHITECTURE.md``, "Telemetry is lines of the
nest").
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "ExecutionTelemetry",
    "ObservedLevel",
    "TelemetryProbe",
]


class TelemetryProbe:
    """Mutable per-level counters, written directly by instrumented
    executors (``probe.partials[depth] += 1`` — attribute access on
    plain lists, no method-call overhead in the search loop).

    One probe observes one attribute order; :meth:`reset` re-arms it for
    another run of the same executor (a prepared query's repeated
    ``stream()`` calls share one probe).
    """

    __slots__ = ("order", "partials", "candidates", "matches")

    def __init__(self, order: tuple[str, ...]) -> None:
        self.order = tuple(order)
        self.reset()

    def reset(self) -> None:
        """Zero every counter (one probe, many runs)."""
        n = len(self.order)
        self.partials = [0] * n
        self.candidates = [0] * n
        self.matches = [0] * n

    def snapshot(self, rows: int) -> "ExecutionTelemetry":
        """Freeze the counters of a completed run into an
        :class:`ExecutionTelemetry`."""
        levels = tuple(
            ObservedLevel(
                attribute=attribute,
                position=i,
                partials=self.partials[i],
                candidates=self.candidates[i],
                matches=self.matches[i],
            )
            for i, attribute in enumerate(self.order)
        )
        return ExecutionTelemetry(
            attribute_order=self.order, levels=levels, rows=rows
        )


@dataclass(frozen=True)
class ObservedLevel:
    """One level of one executed attribute order, measured."""

    attribute: str
    #: Depth at which the attribute was bound (0 = first).
    position: int
    #: Partial tuples that reached the level.
    partials: int
    #: Candidate values the level enumerated.
    candidates: int
    #: Candidates surviving the intersection (next level's partials).
    matches: int


@dataclass(frozen=True)
class ExecutionTelemetry:
    """Everything one completed run measured (frozen, picklable)."""

    attribute_order: tuple[str, ...]
    levels: tuple[ObservedLevel, ...]
    rows: int

    @property
    def total_candidates(self) -> int:
        """Summed candidate enumerations — the run's search work, in
        data-dependent (wall-clock-free) units."""
        return sum(level.candidates for level in self.levels)
