"""Work stealing: split hot shards before and during a run.

Two layers, both splitting with
:func:`~repro.engine.parallel.split_entry`: a shard's key grows one
``(attribute, value group)`` link per split, and sub-shards partition
the parent's output slice exactly.

**Predictive pre-splitting** (:func:`predictive_presplit`) runs at
first-plan time, from statistics that exist *before* any run: a
top-level shard whose value group contains a
heavy-hitter value (frequency at or above the profile's
``heavy_threshold`` — the "Skew Strikes Back" sqrt(N) cut) in any
participant relation is split on the next attribute of the plan's
order immediately.  A planned-weight outlier (a shard LPT could not
balance because one value dominates) is split by the same rule even
when the heavy value hides below the profile's ``top`` table.

**Within-run stealing** (:class:`RateModel`, used by the dispatcher)
handles what prediction misses.  The model fits seconds-per-unit-weight
over the shards *this run* has completed; when idle capacity exists and
a pending shard's predicted time stands ``hot_factor`` above the median
completed time, the claiming driver splits it at claim time — the
parent never runs, the sub-shards enter the queue, idle workers steal
them.  Claim order is lightest-first when stealing is on, so the model
warms on cheap shards while the likely stragglers wait where they can
still be split.
"""

from __future__ import annotations

from statistics import median

from repro.engine.parallel import ShardPlanEntry, split_entry

__all__ = ["RateModel", "predictive_presplit"]

#: Sub-shards per predictive split (matches ``StealPolicy``'s default
#: ``split_factor``).
PRESPLIT_FACTOR = 4

#: A shard is a planned-weight outlier when its LPT weight exceeds
#: this multiple of the median planned weight.
WEIGHT_OUTLIER = 4.0


class RateModel:
    """Seconds-per-weight over this run's completed shards.

    Deliberately tiny: one pooled rate (total seconds / total planned
    weight), plus the completed-time distribution for the hotness
    threshold.  Per-shard noise washes out quickly, and the model only
    has to rank *pending* shards against *completed* ones — not
    forecast absolute times.  Not thread-safe; the dispatcher mutates
    it under its board lock.
    """

    def __init__(self) -> None:
        self.seconds = 0.0
        self.weight = 0
        self.completed: list[float] = []

    def observe(self, seconds: float, weight: int) -> None:
        self.seconds += seconds
        self.weight += max(weight, 1)
        self.completed.append(seconds)

    @property
    def count(self) -> int:
        return len(self.completed)

    def predict(self, weight: int) -> float:
        """Predicted wall seconds for a shard of planned ``weight``."""
        if not self.weight:
            return 0.0
        return (self.seconds / self.weight) * max(weight, 1)

    def hot(self, weight: int, policy) -> bool:
        """Is a pending shard of ``weight`` predicted to straggle?

        ``policy`` is a :class:`~repro.query.shards.StealPolicy`
        (duck-typed).  Requires ``min_completed`` observations — with
        fewer, the rate is one shard's noise — and compares the
        prediction against the median completed time.
        """
        if self.count < policy.min_completed:
            return False
        return self.predict(weight) > policy.hot_factor * median(
            self.completed
        )


def predictive_presplit(
    query, entries, order, provider, factor: int = PRESPLIT_FACTOR
) -> tuple[list[ShardPlanEntry], int]:
    """Pre-split hub-heavy shards at first-plan time.

    ``entries`` are the planned shards of ``query``, ``order`` the
    plan's attribute order, ``provider`` the
    run's :class:`~repro.stats.provider.StatsProvider`, whose cached
    profiles of the query's relations supply the heavy values.  Returns
    ``(new entries, number of parents split)``; with no heavy values and
    no weight outliers the entries pass through untouched, so switching
    ``predictive=True`` on is free for balanced data.

    Only top-level (depth-1) entries are candidates: deeper keys came
    from an earlier split and already isolate a hot region.
    """
    weights = [entry.weight for entry in entries]
    weight_cut = WEIGHT_OUTLIER * median(weights) if weights else 0.0
    result: list[ShardPlanEntry] = []
    splits = 0
    for entry in entries:
        if len(entry.key) != 1:
            result.append(entry)
            continue
        attribute, values = entry.key[0]
        if entry.weight > weight_cut or _holds_heavy_value(
            query, attribute, values, provider
        ):
            sub_entries = split_entry(query, entry, order, factor)
            if len(sub_entries) > 1:
                splits += 1
            result.extend(sub_entries)
        else:
            result.append(entry)
    return result, splits


def _holds_heavy_value(query, attribute: str, values, provider) -> bool:
    """Does any participant relation show a heavy value in this group?

    Reads the provider's profiles of the *full* relations — the ones the
    planner already took and cached, so nothing is profiled per shard.
    The ``top`` table bounds how many heavy values are visible; the
    weight cut in :func:`predictive_presplit` backstops anything below
    it.
    """
    for rel in query.relations.values():
        if attribute not in rel.attribute_set or len(rel) == 0:
            continue
        profile = provider.profile(rel).attribute(attribute)
        for value, count in profile.top:
            if count >= profile.heavy_threshold and value in values:
                return True
    return False
