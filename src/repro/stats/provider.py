"""`StatsProvider`: compute, cache, and serve planner statistics.

One object sits between the planner and the statistics machinery:

* :class:`StatsProvider` — serves one statistic taken off the data, the
  **value-count table** of a relation's attribute set
  (:meth:`StatsProvider.value_counts`, cached: scanned, or summed out of
  a wider table of the same relation already held), and the views of it
  the planner reads: :class:`~repro.stats.profiles.RelationProfile`
  objects, exact conditional selectivities, shard weights.  Everything
  caches behind **relation identity**:

  - For relations catalogued in a ``Database`` (the provider checks
    ``database[name] is relation``), payloads live in the database's
    stats cache and are invalidated together with the index cache when
    the relation is replaced or dropped — repeated ``plan_join`` calls
    over the same catalog never rescan.
  - Ad-hoc relations cache locally, keyed by ``id`` with a strong
    reference held, which is sound because relations are immutable.

* :class:`PlanStatistics` — the frozen record a
  :class:`~repro.engine.planner.JoinPlan` carries so ``explain`` can
  show *which numbers justified each decision*, not just the decisions.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from operator import itemgetter
from types import MappingProxyType
from typing import TYPE_CHECKING

from repro.relations.relation import Relation
from repro.stats.profiles import (
    RelationProfile,
    count_values,
    profile_relation,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.core.query import JoinQuery
    from repro.relations.database import Database

__all__ = [
    "PlanStatistics",
    "StatsProvider",
    "resolve_provider",
]

#: Entry cap for a provider's ad-hoc (non-database) cache.  Payloads
#: include O(distinct) value-count tables and hold strong relation
#: references, so the cache must not grow with process lifetime;
#: eviction is FIFO — recomputation is always safe.
LOCAL_CACHE_BUDGET = 512

#: Heavy-hitter mass at or above which adaptive decisions trigger
#: (per-relation trie backends, extra heavy-value shards).
HEAVY_MASS_THRESHOLD = 0.25


def _sum_out(table: Mapping, held: tuple, attributes: tuple) -> Counter:
    """The table over ``attributes`` summed out of ``table``, the one
    over the wider ``held``: the scan item for item and in order (a
    narrower key first occurs with the wider key it first occurs in),
    and a ``Counter`` too — built from a dict, 2.4x cheaper to fill."""
    counts: dict = {}
    get = counts.get
    project = itemgetter(*map(held.index, attributes))
    for key, count in zip(map(project, table), table.values()):
        counts[key] = get(key, 0) + count
    return Counter(counts)


def _count(relation: Relation, attributes: tuple, tables: Mapping) -> Mapping:
    """Sum ``relation``'s table over ``attributes`` out of the smallest
    of its ``tables`` (shared by planning threads) over a wider set, or
    scan when it holds none.  A sum is a Python step per key, a scan a
    C step per tuple, and a wider table has at most N keys: a sum costs
    ≤ ≈ 1.3x a scan (8,000-tuple ternary relation, CPython 3.11, Xeon:
    0.33x at 0.25 N keys, 0.66x at N/2, even at ≈ 0.78 N, 1.28x at N)."""
    wanted = set(attributes)
    wider = [(len(t), h) for h, t in tuple(tables.items()) if wanted < set(h)]
    if not wider:
        return count_values(relation, attributes)
    held = min(wider)[1]
    return _sum_out(tables[held], held, attributes)


def _shared_counts(mine: Mapping, theirs: Mapping) -> tuple[int, int]:
    """Each table's counts summed over the keys both hold, ``(mine's,
    theirs')``: one walk of the smaller table probing the other, no
    intersection set."""
    small, large = (mine, theirs) if len(mine) <= len(theirs) else (theirs, mine)
    get, ours, yours = large.get, 0, 0
    for key, count in small.items():
        other = get(key)
        if other is not None:
            ours += count
            yours += other
    return (ours, yours) if small is mine else (yours, ours)


@dataclass(frozen=True)
class PlanStatistics:
    """The statistics that justified a plan's decisions.

    Attached to :class:`~repro.engine.planner.JoinPlan` by the planner
    and rendered by ``describe(show_stats=True)`` / the CLI's
    ``explain --stats``.  Every field is plain data, so plans pickle and
    compare across process boundaries.
    """

    #: ``(attribute, min distinct count)`` — the smallest-domain scores.
    distinct_counts: tuple[tuple[str, int], ...] = ()
    #: ``(source relation, target relation, P(match))`` for every
    #: conditional selectivity the order descent consulted.
    selectivities: tuple[tuple[str, str, float], ...] = ()
    #: ``(relation, attribute, heavy value count, heavy mass)`` for every
    #: attribute whose profile crossed the heavy threshold.
    heavy_hitters: tuple[tuple[str, str, int, float], ...] = ()
    #: ``(attribute, estimated partial-result size)`` per order position
    #: (the greedy descent's objective, capped at the smallest relation
    #: the prefix fully covers — a heuristic, not an upper bound).
    order_estimates: tuple[tuple[str, float], ...] = ()
    #: For a plan ``EXPLAIN ANALYZE`` ran: the run's per-level counters
    #: as ``(attribute, position, partials, candidates, matches)``, in
    #: executed order.
    observed_levels: tuple[tuple[str, int, int, int, int], ...] = ()
    #: Attribute the shard planner inspected (``None`` when sharding was
    #: not requested).
    shard_attribute: str | None = None
    #: Heavy mass observed on the shard attribute.
    shard_heavy_mass: float | None = None
    #: CPUs visible when the shard count was chosen.
    shard_cpus: int | None = None

    def describe(self) -> str:
        """Human-readable rendering (the ``explain --stats`` block)."""
        lines = ["statistics:"]
        if self.distinct_counts:
            lines.append(
                "  distinct counts: "
                + ", ".join(
                    f"{attr}={count}" for attr, count in self.distinct_counts
                )
            )
        if self.order_estimates:
            lines.append(
                "  order estimates: "
                + ", ".join(
                    f"{attr}~{est:.3g}" for attr, est in self.order_estimates
                )
            )
        if self.observed_levels:
            lines.append("  observed levels (last recorded run):")
            for attr, position, partials, candidates, matches in (
                self.observed_levels
            ):
                selectivity = matches / candidates if candidates else 1.0
                fanout = matches / partials if partials else 0.0
                lines.append(
                    f"    {attr} @ level {position}: partials={partials} "
                    f"candidates={candidates} matches={matches} "
                    f"selectivity={selectivity:.3f} fan-out={fanout:.3g}"
                )
        for src, dst, sel in self.selectivities:
            lines.append(
                f"  selectivity: P(match in {dst} | tuple of {src}) = "
                f"{sel:.3f}"
            )
        for rel, attr, count, mass in self.heavy_hitters:
            lines.append(
                f"  heavy hitters: {rel}.{attr} has {count} heavy "
                f"value(s) carrying {mass:.0%} of tuples"
            )
        if self.shard_attribute is not None:
            lines.append(
                f"  sharding: attribute {self.shard_attribute}, heavy "
                f"mass {self.shard_heavy_mass:.0%} "
                f"across {self.shard_cpus} CPU(s)"
            )
        return "\n".join(lines)


class StatsProvider:
    """Compute-once statistics for the planner.

    Parameters
    ----------
    database:
        Optional catalog.  Statistics for relations catalogued there (by
        identity — ``database[name] is relation``) are cached *in the
        database* and invalidated alongside its index cache on
        ``add(replace=True)`` / ``remove``.
    """

    def __init__(self, database: "Database | None" = None) -> None:
        self.database = database
        # Ad-hoc (non-catalogued) relation cache: payload key -> (ref,
        # payload).  The strong relation reference keeps id() valid and
        # the payload honest — relations are immutable, so entries never
        # go stale.  Bounded by LOCAL_CACHE_BUDGET (FIFO eviction) so a
        # long-lived provider cannot accumulate relations forever.
        self._local: dict[tuple, tuple[object, object]] = {}

    def _local_put(self, key: tuple, ref: object, payload: object) -> None:
        while len(self._local) >= LOCAL_CACHE_BUDGET:
            evicted = next(iter(self._local))
            del self._local[evicted]
        self._local[key] = (ref, payload)

    # -- cache plumbing -----------------------------------------------------

    def _cached(self, relation: Relation, key: tuple, compute):
        """Fetch-or-compute ``key`` for ``relation`` (identity-checked)."""
        db = self.database
        if db is not None and db.is_catalogued(relation):
            payload = db.stats_cache_get(relation.name, key)
            if payload is None:
                payload = compute()
                db.stats_cache_put(relation.name, key, payload)
            return payload
        local_key = (id(relation),) + key
        entry = self._local.get(local_key)
        if entry is not None and entry[0] is relation:
            return entry[1]
        payload = compute()
        self._local_put(local_key, relation, payload)
        return payload

    # -- statistics ---------------------------------------------------------

    def value_counts(
        self, relation: Relation, attributes: Sequence[str]
    ) -> Mapping[object, int]:
        """The relation's ``value -> count`` table over ``attributes``
        (cached, read-only): how many tuples carry each value.

        Keys are bare values for one attribute and value tuples for
        several, in *sorted attribute-name* order whatever order the
        caller (or the schema) lists them in — so ``R(A, B, D)`` and
        ``S(D, B, C)`` key their shared ``(B, D)`` alike and each holds
        one table.  A table is scanned — one C-level counting pass
        (:func:`~repro.stats.profiles.count_values`) — or summed out of
        a wider table of the relation already held, in O(its keys).
        The profile, the selectivities and the shard weights are views
        of these tables; a relation's tables are one cache entry, so
        they are found, and invalidated, together.
        """
        attributes = tuple(sorted(attributes))
        tables = self._cached(relation, ("value_counts",), dict)
        if attributes not in tables:
            table = MappingProxyType(_count(relation, attributes, tables))
            tables.setdefault(attributes, table)
        return tables[attributes]

    def profile(self, relation: Relation) -> RelationProfile:
        """The relation's :class:`RelationProfile` (cached), derived
        from its single-attribute :meth:`value_counts` tables."""
        return self._cached(
            relation,
            ("profile",),
            lambda: profile_relation(relation, value_counts=self.value_counts),
        )

    def selectivity(self, source: Relation, target: Relation) -> float:
        """Exact ``P(match in target | tuple of source)``: the fraction
        of ``source``'s tuples whose shared-attribute values appear in
        ``target`` (0.0 for an empty source).

        The shared attributes are taken from the two schemas, which
        must overlap.  Read off the two relations' :meth:`value_counts`
        tables over them — each side's counts of the keys both hold,
        summed in one pass (:func:`_shared_counts`) — so a pair costs
        one pass for both directions, each cached under its own key,
        and for a single shared attribute the tables are the profile's.
        """
        shared = source.attribute_set & target.attribute_set
        if not shared:
            raise ValueError(
                f"relations {source.name!r} and {target.name!r} share no "
                "attributes"
            )
        shared = tuple(sorted(shared))
        # The database cache is only sound when BOTH relations are the
        # catalogued objects: the key names the other relation, and the
        # database invalidates any entry whose key mentions a replaced/
        # dropped relation, so neither side can go stale.
        db = self.database
        if not (
            db is not None
            and db.is_catalogued(source)
            and db.is_catalogued(target)
        ):
            db = None
        key = ("selectivity", target.name, shared)
        if db is not None:
            payload = db.stats_cache_get(source.name, key)
        else:
            (one, other), payload = self._local.get(
                (id(source), id(target)) + key, ((None, None), None)
            )
            if one is not source or other is not target:
                payload = None
        if payload is not None:
            return payload
        payload = reverse = 0.0
        if source and target:
            hits, back = _shared_counts(
                self.value_counts(source, shared),
                self.value_counts(target, shared),
            )
            payload, reverse = hits / len(source), back / len(target)
        for one, other, value in (
            (source, target, payload), (target, source, reverse)
        ):
            key = ("selectivity", other.name, shared)
            if db is not None:
                db.stats_cache_put(one.name, key, value)
            else:
                self._local_put((id(one), id(other)) + key, (one, other), value)
        return payload

    def attribute_scores(self, query: "JoinQuery") -> dict[str, int]:
        """Per-attribute min-distinct scores: the base of the order
        descent's estimates and its tie-break.

        The score of attribute ``A`` is ``min_e |pi_A(R_e)|`` over the
        relations containing ``A`` — served from cached profiles, so
        repeated plans over a catalog never rescan the data.
        """
        scores: dict[str, int] = {}
        for relation in query.relations.values():
            profile = self.profile(relation)
            for attr_profile in profile.attributes:
                name = attr_profile.attribute
                count = attr_profile.distinct
                if name not in scores or count < scores[name]:
                    scores[name] = count
        return scores

    def heavy_hitters(
        self, query: "JoinQuery"
    ) -> tuple[tuple[str, str, int, float], ...]:
        """Every ``(relation, attribute, heavy count, heavy mass)`` in
        the query whose heavy mass crosses :data:`HEAVY_MASS_THRESHOLD`,
        heaviest mass first (deterministic order)."""
        found = []
        for eid, relation in query.relations.items():
            for attr_profile in self.profile(relation).attributes:
                if attr_profile.heavy_mass >= HEAVY_MASS_THRESHOLD:
                    found.append(
                        (
                            eid,
                            attr_profile.attribute,
                            attr_profile.heavy_count,
                            attr_profile.heavy_mass,
                        )
                    )
        found.sort(key=lambda item: (-item[3], item[0], item[1]))
        return tuple(found)


#: The provider ``plan_join`` falls back to when the caller supplies
#: neither a ``database`` nor a ``stats`` provider.  Shared on purpose:
#: relations are immutable and the cache is identity-keyed, so repeated
#: ad-hoc plans over the same relation objects (``execute([r, s, t])`` in
#: a loop) reuse value-count tables, profiles, and selectivities instead
#: of recomputing them per call; the FIFO-bounded local cache caps memory.
_DEFAULT_PROVIDER = StatsProvider()


def resolve_provider(
    database: "Database | None" = None, stats: StatsProvider | None = None
) -> StatsProvider:
    """The provider a ``(database, stats)`` pair denotes.

    The one resolution rule shared by the planner and the sharded driver
    — both must agree, so the shards are weighed with the tables the
    plan was made from: ``stats`` when given, else the database's
    provider, and finally the process-wide default.
    """
    if stats is not None:
        return stats
    if database is not None:
        return database.stats()
    return _DEFAULT_PROVIDER

