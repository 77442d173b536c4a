"""FeedbackConfig: the runtime-feedback knobs, in one frozen object.

Attached to an :class:`~repro.query.context.ExecutionContext` as its
``feedback`` field (``None`` = feedback off, the default).  Presence
enables both halves of the loop:

* **recording** — executions carry telemetry probes and write their
  observations (per-level counts, per-shard wall times) back into the
  :class:`~repro.stats.provider.StatsProvider`;
* **application** — the planner prefers observed statistics over estimated
  ones, the sharded driver splits shards that ran hot, and prepared
  queries re-plan when observation diverges from estimate.

The object is frozen and hashable so contexts carrying it stay usable
as cache keys.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import PlanError

__all__ = ["FeedbackConfig"]


@dataclass(frozen=True)
class FeedbackConfig:
    """Every knob of the runtime feedback loop (frozen, hashable)."""

    #: A shard ran *hot* when its wall time exceeds this factor times
    #: the median of its sibling shards; hot shards are re-partitioned
    #: on the next attribute of the order on the following run.
    split_threshold: float = 2.0
    #: Sub-shards a hot shard is split into.
    split_factor: int = 2
    #: Maximum recursive split depth *below* the top level (1 means a
    #: hot top-level shard may split once; its sub-shards never split).
    max_split_depth: int = 2
    #: Shards faster than this never split, whatever the ratio —
    #: guards against chasing scheduling noise on trivial shards.
    min_split_seconds: float = 0.0
    #: A prepared query re-plans when the worst per-level ratio between
    #: estimated and observed partial-result sizes exceeds this.
    replan_tolerance: float = 4.0
    #: An *untried* order proposed by the feedback descent is executed
    #: (explored) only when its estimated total work is below this
    #: fraction of the best recorded order's measured work; otherwise
    #: the planner keeps the best order it has actually measured.
    #: Greedy re-estimation from a good run's telemetry can propose
    #: plausible-but-worse orders — this margin is the hysteresis that
    #: stops the loop from oscillating on them.
    explore_margin: float = 0.5

    def __post_init__(self) -> None:
        if self.split_threshold < 1.0:
            raise PlanError(
                f"split_threshold must be >= 1, got {self.split_threshold!r}"
            )
        if not isinstance(self.split_factor, int) or self.split_factor < 2:
            raise PlanError(
                f"split_factor must be an int >= 2, got {self.split_factor!r}"
            )
        if (
            not isinstance(self.max_split_depth, int)
            or self.max_split_depth < 0
        ):
            raise PlanError(
                f"max_split_depth must be an int >= 0, "
                f"got {self.max_split_depth!r}"
            )
        if self.min_split_seconds < 0:
            raise PlanError(
                f"min_split_seconds must be >= 0, "
                f"got {self.min_split_seconds!r}"
            )
        if self.replan_tolerance < 1.0:
            raise PlanError(
                f"replan_tolerance must be >= 1, "
                f"got {self.replan_tolerance!r}"
            )
        if self.explore_margin < 0.0:
            raise PlanError(
                f"explore_margin must be >= 0, got {self.explore_margin!r}"
            )
