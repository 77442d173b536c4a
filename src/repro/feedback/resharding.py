"""Online re-sharding: split the shards that ran hot.

``shards="auto"`` sizes the shard count from *predicted* skew (heavy-
hitter mass); this module closes the loop with *measured* skew.  The
sharded driver records each shard's wall time as a
:class:`~repro.feedback.telemetry.ShardObservation`; on the next run of
the same query, :func:`expand_shards` compares every planned shard
against its recorded siblings and re-partitions the hot ones — wall
time above ``split_threshold`` times the sibling median — on the *next*
attribute of the plan's order, dispatching the sub-shards in the parent
shard's place.  Splits recurse: a sub-shard that itself runs hot is
split on the attribute after that, one level deeper per run, bounded by
``max_split_depth`` and the order's length.

This is the online half of the "Skew Strikes Back" split (the ROADMAP's
"online re-sharding" item): the offline half guesses where the heavy
values are; this half *measures* where the time went, and the next run
carves exactly there.  Correctness is inherited from first-attribute
sharding — a sub-shard's key extends the parent's by a value group of
one more attribute, so sub-shards partition the parent's output slice
exactly as the parent partitions the whole join's.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import median
from collections.abc import Mapping, Sequence

from repro.core.query import JoinQuery
from repro.feedback.config import FeedbackConfig
from repro.feedback.telemetry import ShardKey, ShardObservation

__all__ = ["ShardPlanEntry", "expand_shards"]


@dataclass(frozen=True)
class ShardPlanEntry:
    """One dispatchable shard: its key and nothing else to run it by.

    ``key`` chains the ``(attribute, value group)`` restrictions that
    define the shard (length 1 for an unsplit top-level shard) — every
    mode runs it as a walk of the one plan under those value groups —
    and ``weight`` is the LPT work estimate of the final restriction.
    """

    key: ShardKey
    weight: int


def split_entry(
    query: JoinQuery, entry: ShardPlanEntry, order: Sequence[str], factor: int
) -> list[ShardPlanEntry]:
    """Split one entry on the next attribute of the plan's order — the
    one function that turns a key into sub-keys (across-run feedback,
    predictive pre-split and claim-time stealing all call it).

    The next attribute's values are weighed over ``query`` restricted to
    the entry's key, so the sub-keys (the key extended by one link)
    partition the entry's output slice exactly.  Returns ``[entry]``
    unchanged when the entry is at maximum depth for the order or the
    next attribute has too few candidate values under it to partition.
    """
    # Deferred: the engine's parallel driver imports this module.
    from repro.engine.parallel import plan_shards, restrict

    depth = len(entry.key)
    if depth >= len(order):
        return [entry]
    attribute = order[depth]
    slices = plan_shards(restrict(query, entry.key), factor, attribute)
    if len(slices) < 2:
        return [entry]
    return [
        ShardPlanEntry(entry.key + ((attribute, piece.values),), piece.weight)
        for piece in slices
    ]


def _hot(
    observation: ShardObservation,
    observed: Mapping[ShardKey, ShardObservation],
    config: FeedbackConfig,
) -> bool:
    """Did this shard run hot relative to its recorded siblings?

    Siblings are the *other* observations at the same depth under the
    same parent key — the shard is compared against the median of its
    peers, not of a pool including itself (with two shards, a
    pool-inclusive median would let a shard twice its sibling's time
    sit below any threshold above 4/3).  A shard with no recorded
    siblings is never hot: there is no distribution to stand out from.
    """
    key = observation.key
    siblings = [
        entry.seconds
        for entry_key, entry in observed.items()
        if len(entry_key) == len(key)
        and entry_key[:-1] == key[:-1]
        and entry_key != key
    ]
    if not siblings:
        return False
    if observation.seconds < config.min_split_seconds:
        return False
    return observation.seconds > config.split_threshold * median(siblings)


def expand_shards(
    query: JoinQuery,
    entries: Sequence[ShardPlanEntry],
    order: Sequence[str],
    observed: Mapping[ShardKey, ShardObservation],
    config: FeedbackConfig,
) -> list[ShardPlanEntry]:
    """Replace recorded-hot shards with sub-shards on the next attribute.

    ``entries`` are the statically planned top-level shards of ``query``;
    ``order`` is the plan's attribute order (a shard at depth ``d``
    splits on ``order[d]``, see :func:`split_entry`).  Shards without an
    observation — first run, or the shard layout changed — pass through
    untouched, so the expansion is exactly the static plan until
    something has been measured.  The result is deterministic for a
    fixed observation store.
    """
    result: list[ShardPlanEntry] = []
    stack = list(reversed(entries))
    while stack:
        entry = stack.pop()
        observation = observed.get(entry.key)
        pieces = [entry]
        if (
            observation is not None
            and len(entry.key) <= config.max_split_depth
            and _hot(observation, observed, config)
        ):
            pieces = split_entry(query, entry, order, config.split_factor)
        if len(pieces) == 1:
            result.append(entry)
        else:
            # Sub-entries go back on the stack: one that *also* has a hot
            # observation (recorded by a previous split run) splits
            # again, one attribute deeper.
            stack.extend(reversed(pieces))
    return result
