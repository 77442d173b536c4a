"""Execution telemetry: what a join run actually did, per level.

The planner's order descent works from *estimates* — pairwise
selectivities, distinct counts, AGM sub-bounds.  This module defines the
*measurements* that calibrate them: cheap per-level counters threaded
through the attribute-at-a-time executors (Generic Join, Leapfrog
Triejoin) recording, for every level of the executed attribute order,

* **partials** — how many partial tuples reached the level (the true
  partial-result size the descent tried to estimate),
* **candidates** — how many candidate values the level enumerated (the
  level's actual work), and
* **matches** — how many candidates survived the intersection (became
  partials of the next level).

From these fall out the two observed quantities the feedback planner
consumes: the level's **selectivity** ``matches / candidates`` (a level
with selectivity ~1 pruned nothing — the trap the min-distinct heuristic
walks into) and its **per-prefix fan-out** ``matches / partials`` (the
hub expansion "Skew Strikes Back" warns about, which distinct counts and
pairwise selectivities both miss).

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
    "ShardObservation",
    "TelemetryProbe",
    "estimate_divergence",
    "feedback_scope",
    "level_estimates",
]


def feedback_scope(filters) -> tuple:
    """The observation-scope key for a residual-filter mapping.

    Telemetry from a filtered execution describes *different*
    cardinalities than the unfiltered query over the same relations;
    this signature keeps their observations apart in the provider (it
    is passed as the ``scope`` argument of the recording and lookup
    methods).  Predicates without a ``describe`` (raw callables handed
    to the parallel driver directly) fall back to ``repr`` — unstable
    across processes, which errs on the safe side: never reused, never
    cross-polluting.
    """
    if not filters:
        return ()
    parts = []
    for attribute in sorted(filters):
        predicate = filters[attribute]
        describe = getattr(predicate, "describe", None)
        parts.append(
            (attribute, describe() if describe else repr(predicate))
        )
    return tuple(parts)


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

    def snapshot(
        self, rows: int, seconds: float, complete: bool
    ) -> "ExecutionTelemetry":
        """Freeze the counters into an :class:`ExecutionTelemetry`."""
        levels = tuple(
            ObservedLevel(
                attribute=attribute,
                position=i,
                prefix=self.order[:i],
                partials=self.partials[i],
                candidates=self.candidates[i],
                matches=self.matches[i],
            )
            for i, attribute in enumerate(self.order)
        )
        return ExecutionTelemetry(
            attribute_order=self.order,
            levels=levels,
            rows=rows,
            seconds=seconds,
            complete=complete,
        )


@dataclass(frozen=True)
class ObservedLevel:
    """One level of one executed attribute order, measured.

    ``prefix`` records the attributes bound *above* this level in the
    run that produced the observation — :attr:`fanout` is the exact
    per-prefix fan-out for that prefix, and only an approximation for
    any other.
    """

    attribute: str
    #: Depth at which the attribute was bound (0 = first).
    position: int
    #: Attributes bound above this level, in execution order.
    prefix: tuple[str, ...]
    #: Partial tuples that reached the level.
    partials: int
    #: Candidate values the level enumerated.
    candidates: int
    #: Candidates surviving the intersection (next level's partials).
    matches: int

    @property
    def selectivity(self) -> float:
        """``matches / candidates`` — 1.0 means the level pruned nothing."""
        if self.candidates <= 0:
            return 1.0
        return self.matches / self.candidates

    @property
    def fanout(self) -> float:
        """``matches / partials`` — average expansion per partial tuple."""
        if self.partials <= 0:
            return 0.0
        return self.matches / self.partials


@dataclass(frozen=True)
class ExecutionTelemetry:
    """Everything one run measured (frozen, picklable).

    ``complete`` is False when the consumer abandoned the row stream
    early — the counters then undercount and must not be fed back.
    """

    attribute_order: tuple[str, ...]
    levels: tuple[ObservedLevel, ...]
    rows: int
    seconds: float
    complete: bool

    def level(self, attribute: str) -> ObservedLevel | None:
        """The observation for ``attribute``, or None."""
        for observed in self.levels:
            if observed.attribute == attribute:
                return observed
        return None

    @property
    def total_candidates(self) -> int:
        """Summed candidate enumerations — the run's search work, in
        data-dependent (wall-clock-free) units."""
        return sum(level.candidates for level in self.levels)


#: A shard's identity across runs: the chain of ``(attribute, values)``
#: restrictions that produced it.  Top-level shards have one link;
#: every recursive split appends one.
ShardKey = tuple[tuple[str, frozenset], ...]


@dataclass(frozen=True)
class ShardObservation:
    """One shard's measured run (frozen, picklable).

    ``key`` is the shard's :data:`ShardKey` — stable across runs because
    shard planning is deterministic for unchanged data — so a later run
    can recognize the same shard and split it if it ran hot.
    """

    key: ShardKey
    seconds: float
    rows: int
    #: The LPT work estimate the shard was planned with.
    weight: int

    @property
    def depth(self) -> int:
        """How many split levels produced this shard (1 = top level)."""
        return len(self.key)


def level_estimates(statistics) -> tuple[tuple[str, float], ...]:
    """A plan's per-level partial-size estimates, explicit or implied.

    Sampled and feedback plans carry ``order_estimates`` directly;
    heuristic plans imply them — the min-distinct descent's implicit
    model is that each level fans out by at most its distinct score, so
    the running product of scores is the estimate observed counts are
    held against.  Shared by the prepared query's re-plan trigger and
    ``EXPLAIN ANALYZE``'s estimated-vs-observed table; accepts ``None``
    (no statistics recorded) and returns ``()``.
    """
    if statistics is None:
        return ()
    if statistics.order_estimates:
        return statistics.order_estimates
    derived: list[tuple[str, float]] = []
    cumulative = 1.0
    for attribute, score in statistics.distinct_counts:
        cumulative *= max(score, 1)
        derived.append((attribute, cumulative))
    return tuple(derived)


def estimate_divergence(
    estimates: tuple[tuple[str, float], ...],
    telemetry: ExecutionTelemetry,
) -> float:
    """How far a plan's per-level partial-size estimates missed reality.

    ``estimates`` are ``(attribute, estimated partials after binding)``
    pairs in plan order (a :class:`~repro.stats.provider.PlanStatistics`
    ``order_estimates`` field); the observation's ``matches`` at each
    level is the true count.  Returns the worst per-level ratio in
    either direction (``>= 1.0``); both overestimates and underestimates
    count — a plan built on wrong cardinalities deserves re-planning
    whichever way it was wrong.  Levels the telemetry did not observe
    (order mismatch) are skipped.
    """
    worst = 1.0
    for attribute, estimate in estimates:
        observed = telemetry.level(attribute)
        if observed is None:
            continue
        actual = float(max(observed.matches, 1))
        expected = max(float(estimate), 1.0)
        ratio = max(actual / expected, expected / actual)
        if ratio > worst:
            worst = ratio
    return worst
