"""Cost-based planning: algorithm, attribute order, and backend selection.

The paper proves (Theorem 5.1, and the Generic Join analysis in "Skew
Strikes Back") that *any* attribute order is worst-case optimal — but
Remark 5.2 and every practical WCOJ system (LogicBlox's Leapfrog,
EmptyHeaded, Umbra) observe that order choice drives constant factors by
orders of magnitude.  Before this planner existed each executor
hard-coded ``query.attributes``; now order selection, algorithm dispatch,
and index-backend choice live in one place, modeled on the
``JoinOrderOptimizer`` separation PostBOUND uses for classical optimizers.

The product is an inspectable :class:`JoinPlan`:

* **algorithm** — Generic Join for every shape, Loomis-Whitney instances
  and binary relations included: it meets the bound of each of the
  paper's specialists ("Skew Strikes Back") and is the one executor
  with cached indexes, a native fold and level filters.  Algorithm 1
  re-partitions its input on every request (warm, 9x Generic Join's
  wall time on a skewed triangle, 4x on Example 2.2) and Theorem 7.3's
  arity-2 decomposition does worst-case work far from the worst case
  (1.4x on a 4-star, 18x on a 4-cycle, 435x on a 3-path), so both are
  pinnable (``algorithm="lw"`` / ``"arity2"``) and never chosen;
* **attribute order** — a greedy descent on *estimated partial-result
  sizes*: each step multiplies the candidate attribute's min-distinct
  count by the exact conditional selectivities against the relations
  already bound (:mod:`repro.stats`), capped at the size of the smallest
  relation the prefix fully covers — a heuristic that favours closing a
  relation, not an upper bound on the partial result (a cross product
  ``R(A) x S(B)`` is capped at ``min(|R|, |S|)``).  No cover LP is
  solved: the AGM bound of the covered relations is never below that
  cap.  The chosen prefix stays connected so early levels prune.  A
  caller may pin the order instead (``attribute_order=``); it must be a
  permutation of the query's attributes, checked here;
* **backend** — ``"sorted"`` flat arrays for leapfrog (its native
  layout; callers may fix ``"compact"`` for packed runs with radix
  seeks); for Generic Join a **per-relation** choice driven by cached-
  index availability in the ``Database`` and each relation's profile:
  large low-skew relations get the ``"compact"`` packed flat arrays for
  their size, everything else the hash trie (O(1) probes, precomputed
  (ST2) counts);
* **shards** — ``shards="auto"`` sizes the shard count from input size,
  CPU count, *and* the first attribute's heavy-hitter mass, so hot
  values ("Skew Strikes Back"'s heavy side) land in their own shard;
* **estimated AGM bound** — the fractional-cover output bound of
  Section 2, with its certificate cover attached (the
  :mod:`repro.core.estimates` machinery).

Every data-driven decision is recorded on the plan:
:attr:`JoinPlan.statistics` carries the
:class:`~repro.stats.provider.PlanStatistics` that justified it, and
``describe(show_stats=True)`` (the CLI's ``explain --stats``) renders
them.

A plan runs one way: :meth:`JoinPlan.executor` builds its executor
from the registry, which the query layer's
:class:`~repro.query.prepared.PreparedQuery` (behind ``repro.execute``
and the CLI) drives.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Callable, Mapping, Sequence

import os

from repro.core.descent import resolve_order
from repro.core.query import JoinQuery
from repro.engine.backends import validate_backend
from repro.engine.compact import CompactArrayIndex
from repro.engine.executors import algorithm_names, build_executor
from repro.errors import PlanError, QueryError, require_positive_int
from repro.hypergraph.agm import best_agm_bound
from repro.hypergraph.covers import FractionalCover
from repro.observe.tracing import maybe_span
from repro.relations.database import DEFAULT_BACKEND, INDEX_BACKENDS, Database
from repro.relations.relation import Relation, Value
from repro.relations.sorted_index import SortedArrayIndex
from repro.relations.trie import TrieIndex
from repro.stats.provider import (
    HEAVY_MASS_THRESHOLD,
    PlanStatistics,
    StatsProvider,
    resolve_provider,
)

__all__ = [
    "JoinPlan",
    "plan_attribute_order_selectivity",
    "plan_join",
]


#: Algorithms that honor a caller-chosen global attribute order.
ORDER_SENSITIVE = ("generic", "leapfrog")

#: Index-backend kinds each algorithm can actually run on.  Algorithms
#: absent here (lw, arity2) build no per-order indexes at all.  Leapfrog
#: needs an ``open/up/next/seek`` cursor, which the sorted and compact
#: backends provide; NPRR's per-tuple case analysis needs the trie's
#: O(1) precomputed counts.
BACKEND_CHOICES = {
    "generic": ("trie", "sorted", "compact"),
    "leapfrog": ("sorted", "compact"),
    "nprr": ("trie",),
}

#: Placeholder backend for algorithms that build no per-order indexes.
NO_BACKEND = "none"

#: Below this total input size (``sum_e N_e``) auto-sharding stays serial:
#: fork/queue overhead dwarfs any parallel win on small queries.
AUTO_SHARD_MIN_TUPLES = 4096

#: Auto-sharding never exceeds this many shards, however many CPUs exist.
MAX_AUTO_SHARDS = 8

#: Relations at or above this size with a low-skew first index level get
#: the packed flat-array backend (``"compact"``) when no cached index
#: exists, for size alone: packed arrays are a small fraction of the
#: trie's dict weight, and without heavy values the log-factor probes
#: are not concentrated on hot paths.  The descent is 2-3x slower over
#: ``compact`` than over the trie, dense integer keys included.
LARGE_FLAT_RELATION = 32768


@dataclass(frozen=True)
class JoinPlan:
    """An inspectable execution plan for one natural join query.

    Produced by :func:`plan_join`; consumed by ``repro.api`` and the CLI.
    ``reasons`` records why each choice was made, in decision order.
    Every field reports what the executor will actually do — the planner
    rejects requests an executor would silently ignore.
    """

    query: JoinQuery
    algorithm: str
    attribute_order: tuple[str, ...]
    backend: str
    cover: FractionalCover | None = None
    reasons: tuple[str, ...] = field(default_factory=tuple)
    #: Parallel shard count.  ``1`` means serial execution; values above 1
    #: partition the first attribute of :attr:`attribute_order` across
    #: workers (see :mod:`repro.engine.parallel`).  Populated by
    #: :func:`plan_join` — either fixed by the caller or derived from data
    #: statistics with ``shards="auto"``.
    shards: int = 1
    #: Per-relation index-backend choices as ``(edge id, kind)`` pairs,
    #: set when the planner picked different backends for different
    #: relations (:attr:`backend` then reads ``"mixed"``).  ``None``
    #: means every relation uses :attr:`backend`.
    relation_backends: tuple[tuple[str, str], ...] | None = None
    #: The statistics that justified the data-driven decisions, or
    #: ``None`` when none were consulted (caller fixed everything, or
    #: the algorithm derives its own order and no sharding was asked
    #: for).  See :class:`~repro.stats.provider.PlanStatistics`.
    statistics: PlanStatistics | None = None
    #: Equality-bound attributes the query layer *eliminated* from this
    #: plan, as ``(attribute, value)`` pairs: each attribute's level was
    #: removed by sectioning the relations that contain it (Remark 5.2's
    #: ahead-of-time evaluation of a constant binding), so
    #: :attr:`query` is the *residual* query and
    #: :attr:`attribute_order` never mentions these attributes.
    bound: tuple[tuple[str, Value], ...] = ()
    #: Residual selection predicates pushed into the executors, as
    #: ``(attribute, description)`` pairs — the rendering half; the
    #: callables themselves travel via the ``filters`` argument of
    #: :meth:`executor` so plans stay comparable and picklable.
    filtered: tuple[tuple[str, str], ...] = ()
    #: Output projection the query layer will stream over this plan's
    #: rows, or ``None`` for the full schema.
    selected: tuple[str, ...] | None = None
    # Lazily computed AGM bound cache (None until first access), so the
    # cover LP is not solved on join() calls that never inspect the plan.
    _bound: float | None = field(default=None, repr=False, compare=False)

    @property
    def estimated_bound(self) -> float:
        """The AGM output bound for the query's current relation sizes.

        Computed on first access (an exact-fraction LP solve) and cached;
        plans executed without inspection never pay for it.
        """
        if self._bound is None:
            _cover, bound = best_agm_bound(
                self.query.hypergraph, self.query.sizes()
            )
            object.__setattr__(self, "_bound", bound)
        return self._bound

    def executor(
        self,
        database: Database | None = None,
        filters: Mapping[str, Callable[[Value], bool]] | None = None,
        telemetry=None,
    ):
        """Build (but do not run) this plan's executor — the one way a
        plan runs: ``executor(db, filters).iter_join()`` streams its rows,
        ``.execute(name)`` materializes them.

        ``filters`` are the query layer's residual predicates (the
        callables matching :attr:`filtered`); they hook the level that
        binds each attribute for the attribute-at-a-time executors and
        filter emitted rows for the blocking specialists.  ``telemetry``
        attaches a :class:`~repro.observe.telemetry.TelemetryProbe` to
        executors that support per-level counting (see
        :data:`~repro.engine.executors.DESCENT_ALGORITHMS`).
        """
        backend: str | dict[str, str] = self.backend
        if self.relation_backends is not None:
            backend = dict(self.relation_backends)
        return build_executor(
            self.query,
            self.algorithm,
            cover=self.cover,
            attribute_order=self.attribute_order,
            backend=backend,
            database=database,
            filters=filters,
            telemetry=telemetry,
        )

    def index_requirements(self) -> tuple[tuple[str, tuple[str, ...], str], ...]:
        """The ``(relation name, index order, backend kind)`` triples this
        plan's executor will request when built.

        The contract behind :meth:`Database.warm
        <repro.relations.database.Database.warm>`: pre-building exactly
        these indexes through the catalog's cache makes a later
        execution of this plan hit on every index lookup.  Algorithms
        that build no per-order indexes (``lw``, ``arity2``) return an
        empty tuple.

        This mirrors how each executor resolves its indexes —
        GenericJoin's per-relation kinds (``DEFAULT_BACKEND``
        fallback), Leapfrog's sorted arrays, NPRR's QP-tree relation
        orders.  Any change to an executor's resolution must land here
        too, or warmed runs silently miss the cache;
        ``tests/query/test_warm.py`` asserts the zero-miss contract per
        algorithm (including the mixed per-relation path) to catch
        drift.
        """
        rank = {a: i for i, a in enumerate(self.attribute_order)}
        per_relation = (
            dict(self.relation_backends)
            if self.relation_backends is not None
            else None
        )
        if self.algorithm in ("generic", "leapfrog"):
            if self.algorithm == "leapfrog":
                kind_default = (
                    self.backend
                    if self.backend in BACKEND_CHOICES["leapfrog"]
                    else SortedArrayIndex.kind
                )
            else:
                kind_default = (
                    self.backend
                    if self.backend in INDEX_BACKENDS
                    else DEFAULT_BACKEND
                )
            triples = []
            for eid in self.query.edge_ids:
                relation = self.query.relation(eid)
                order = tuple(
                    sorted(relation.attributes, key=rank.__getitem__)
                )
                kind = (
                    per_relation.get(eid, DEFAULT_BACKEND)
                    if per_relation is not None
                    else kind_default
                )
                triples.append((eid, order, kind))
            return tuple(triples)
        if self.algorithm == "nprr":
            from repro.core.qptree import QPTree

            tree = QPTree(self.query.hypergraph)
            return tuple(
                (eid, tuple(tree.relation_order(eid)), TrieIndex.kind)
                for eid in self.query.edge_ids
            )
        return ()

    def describe(self, show_stats: bool = False) -> str:
        """A human-readable rendering (the CLI ``explain`` output).

        ``show_stats`` appends the :attr:`statistics` block — the
        numbers (distinct counts, exact selectivities, heavy hitters)
        that justified the data-driven decisions.
        """
        sizes = self.query.sizes()
        backend = self.backend
        if self.relation_backends is not None:
            backend += (
                " ("
                + ", ".join(
                    f"{eid}={kind}" for eid, kind in self.relation_backends
                )
                + ")"
            )
        lines = [
            f"query: {self.query!r}",
            f"algorithm: {self.algorithm}",
            f"attribute order: {', '.join(self.attribute_order)}",
        ]
        if self.bound:
            lines.append(
                "bound attributes: "
                + ", ".join(f"{a}={v!r}" for a, v in self.bound)
                + " (levels eliminated by sectioning)"
            )
        if self.filtered:
            lines.append(
                "residual filters: "
                + "; ".join(description for _a, description in self.filtered)
            )
        if self.selected is not None:
            lines.append(
                "select: "
                + (", ".join(self.selected) if self.selected else "(none)")
                + " (streamed projection)"
            )
        lines += [
            f"index backend: {backend}",
            f"shards: {self.shards}",
            f"estimated output (AGM bound): {self.estimated_bound:.3f} tuples",
            "relation sizes: "
            + ", ".join(f"{eid}={n}" for eid, n in sizes.items()),
        ]
        if show_stats and self.statistics is not None:
            lines.append(self.statistics.describe())
        if self.cover is not None:
            lines.append(
                "fractional cover: "
                + ", ".join(
                    f"x[{eid}]={weight}"
                    for eid, weight in self.cover.items()
                )
            )
        if self.reasons:
            lines.append("decisions:")
            lines.extend(f"  - {reason}" for reason in self.reasons)
        return "\n".join(lines)


def _prefix_clamp(
    relations: Mapping[str, Relation],
    bound_attrs: set[str],
    attribute: str,
    estimate: float,
) -> float:
    """Cap a partial-result estimate at the size of the smallest relation
    fully covered by ``prefix + attribute``, when the covered relations
    span exactly its attributes.

    The cap is a heuristic, not an upper bound: the partial tuples
    project into a covered relation only when that one relation spans
    the prefix (``R(A) x S(B)``, 2 x 2, is capped at 2 against 4 partial
    tuples).  It makes a step that closes a relation look no larger
    than that relation, which favours closing one.  It also caps below
    the AGM bound of the covered relations, which is never smaller than
    their smallest size (the cover puts weight at least 1 on the
    relations holding any one attribute), so no cover LP is needed."""
    prefix_attrs = bound_attrs | {attribute}
    covered = [
        relation
        for relation in relations.values()
        if relation.attribute_set <= prefix_attrs
    ]
    covered_attrs: set[str] = set()
    for relation in covered:
        covered_attrs |= relation.attribute_set
    if covered and covered_attrs == prefix_attrs:
        estimate = min(
            estimate, min(float(len(relation)) for relation in covered)
        )
    return estimate


def plan_attribute_order_selectivity(
    query: JoinQuery, stats: StatsProvider
) -> tuple[
    tuple[str, ...],
    dict[str, int],
    tuple[tuple[str, float], ...],
    dict[tuple[str, str], float],
]:
    """Greedy order descent on selectivity-scaled partial-result
    estimates.

    At each step the estimated size of the partial result after binding
    candidate attribute ``A`` is::

        est(prefix + A) = est(prefix) * min_distinct(A) * shrink(A)

    where ``shrink(A)`` is the smallest conditional selectivity
    ``P(match in f | tuple of e)`` — exact, read off the two relations'
    value-count tables (:meth:`~repro.stats.provider.StatsProvider.
    selectivity`) — over relation pairs ``(e, f)`` with
    ``A in e``, overlapping schemas, and ``f`` either already touched by
    the prefix (the probability mass the bound relations leave for
    ``e``'s tuples) or *also containing* ``A`` (the level's candidates
    are the intersection of the co-containing relations' value sets, so
    their cross-selectivity estimates how far below the min-distinct
    base that intersection falls — this is what lets the very first
    attribute choice see pruning, before anything is bound).  The
    estimate is then capped at the size of the smallest relation fully
    covered by ``prefix + A`` whenever the covered relations span
    exactly its attributes (:func:`_prefix_clamp`).  The cap is not an
    upper bound on the partial result: on ``graph_chain``'s 4-chain it
    reads 249 at the third to fifth attribute, where 498, 996 and 1,992
    partial tuples are bound.  It favours closing a relation.
    The attribute minimizing the estimate is appended; ties fall back
    to the distinct-count score, then first appearance, so the result
    is a function of the data alone.

    The descent reads every overlapping pair's tables, so those over
    two or more shared attributes are read first: the profile's
    one-column tables are then summed out of them, not scanned.

    Returns ``(order, distinct_scores, per-step estimates,
    selectivities consulted)`` so the caller can attach the evidence to
    the plan.
    """
    relations = query.relations
    for eid, relation in relations.items():
        for fid, other in relations.items():
            shared = relation.attribute_set & other.attribute_set
            if fid != eid and len(shared) > 1:
                stats.value_counts(relation, shared)
    scores = stats.attribute_scores(query)
    consulted: dict[tuple[str, str], float] = {}
    appearance = {a: i for i, a in enumerate(query.attributes)}
    rels_with: dict[str, list[str]] = {a: [] for a in query.attributes}
    neighbors: dict[str, set[str]] = {a: set() for a in query.attributes}
    for eid, relation in relations.items():
        for a in relation.attributes:
            rels_with[a].append(eid)
            neighbors[a].update(relation.attributes)
    bound_attrs: set[str] = set()
    touched: set[str] = set()  # edge ids with a bound attribute
    partial = 1.0

    def estimate_for(attribute: str) -> float:
        shrink = 1.0
        containing = rels_with[attribute]
        for eid in containing:
            source = relations[eid]
            for fid in touched.union(containing):
                if fid == eid:
                    continue
                target = relations[fid]
                if not (source.attribute_set & target.attribute_set):
                    continue
                selectivity = stats.selectivity(source, target)
                consulted[(eid, fid)] = selectivity
                shrink = min(shrink, selectivity)
        estimate = partial * scores[attribute] * shrink
        return _prefix_clamp(relations, bound_attrs, attribute, estimate)

    order: list[str] = []
    estimates: list[tuple[str, float]] = []
    remaining = set(query.attributes)
    frontier: set[str] = set()
    while remaining:
        # A new connected component (or the start) opens the frontier.
        candidates = frontier & remaining or remaining
        chosen_estimate, _score, _first, chosen = min(
            (estimate_for(a), scores[a], appearance[a], a)
            for a in candidates
        )
        order.append(chosen)
        estimates.append((chosen, chosen_estimate))
        partial = max(chosen_estimate, 1.0)
        bound_attrs.add(chosen)
        remaining.discard(chosen)
        frontier |= neighbors[chosen]
        touched.update(rels_with[chosen])
    return tuple(order), scores, tuple(estimates), consulted


def _choose_algorithm(
    cover: FractionalCover | None,
    attribute_order: Sequence[str] | None,
    backend: str | None,
    reasons: list[str],
) -> str:
    """Algorithm selection for ``"auto"``: what the caller fixed decides.

    A cover means Algorithm 2; anything else means Generic Join, on
    every query shape.  The shape specialists (``lw``, ``arity2``) meet
    the same bound but index nothing the ``Database`` can keep, so every
    warm request repeats their whole cost: pinnable, never chosen.
    """
    if cover is not None:
        reasons.append(
            "caller supplied a fractional cover: Algorithm 2 (nprr) is the "
            "cover-driven executor"
        )
        return "nprr"
    if attribute_order is not None or backend is not None:
        reasons.append(
            "caller fixed an attribute order or backend: Generic Join "
            "honors both (the shape specialists derive their own)"
        )
        return "generic"
    reasons.append(
        "every shape: Generic Join streams attribute-at-a-time within "
        "the AGM bound"
    )
    return "generic"


def _unordered_attribute(
    relation: Relation, stats: StatsProvider
) -> str | None:
    """The first attribute of ``relation`` whose values do not sort
    (``int`` beside ``str``), or ``None``: the sorted and compact
    backends sort a relation's rows, the hash trie compares nothing."""
    for profile in stats.profile(relation).attributes:
        if not profile.orderable:
            return profile.attribute
    return None


def _require_orderable(
    query: JoinQuery,
    backend: str,
    relation_backends: tuple[tuple[str, str], ...] | None,
    stats: StatsProvider,
) -> None:
    """Reject a plan that would sort a relation whose values do not
    order — a typed error at plan time instead of a ``TypeError`` out
    of the index build."""
    kinds = dict(relation_backends or ())
    for eid, relation in query.relations.items():
        kind = kinds.get(eid, backend)
        if kind not in (SortedArrayIndex.kind, CompactArrayIndex.kind):
            continue
        unordered = _unordered_attribute(relation, stats)
        if unordered is not None:
            raise PlanError(
                f"the {kind!r} backend sorts the rows of {eid!r}, but the "
                f"values of its attribute {unordered!r} do not order "
                f"(mixed types); use backend={TrieIndex.kind!r}"
            )


def _relation_backends(
    query: JoinQuery,
    order: tuple[str, ...],
    stats: StatsProvider,
    database: Database | None,
    reasons: list[str],
) -> tuple[str, tuple[tuple[str, str], ...] | None]:
    """Per-relation backend choice for Generic Join.

    Decision per relation, in priority order:

    1. **Cached-index availability** — if the ``Database`` already holds
       an index over this relation in the order the plan needs, reuse
       its kind: a free cache hit beats any rebuild.
    2. **Skew** — a heavy first index level (heavy-hitter mass at or
       above :data:`~repro.stats.provider.HEAVY_MASS_THRESHOLD`) gets
       the hash trie: the hot values are probed over and over, and the
       trie answers in O(1) where the flat backends pay a log factor
       per probe.
    3. **Size** — large low-skew relations
       (>= :data:`LARGE_FLAT_RELATION` tuples) get the compact flat
       array: packed arrays are a fraction of the trie's dict weight,
       and without hot values the log-factor probes stay spread.  Size
       is the only thing that picks ``compact``: the descent over it is
       2-3x slower than over the trie however dense the keys are.
    4. Default: the hash trie.

    Returns ``(backend label, per-relation pairs or None)`` — the pairs
    are ``None`` when every relation landed on the trie default, so
    plans without statistics pressure look exactly like before.
    """
    rank = {a: i for i, a in enumerate(order)}
    choices: dict[str, str] = {}
    notes: list[str] = []
    kept: list[str] = []
    for eid, relation in query.relations.items():
        index_order = tuple(sorted(relation.attributes, key=rank.__getitem__))
        cached = None
        if database is not None and database.is_catalogued(relation):
            for kind in (
                TrieIndex.kind,
                SortedArrayIndex.kind,
                CompactArrayIndex.kind,
            ):
                if database.has_cached_index(eid, index_order, kind):
                    cached = kind
                    break
        if cached is not None:
            choices[eid] = cached
            notes.append(f"{eid}: cached {cached} index")
            continue
        profile = stats.profile(relation).attribute(index_order[0])
        if profile.heavy_mass >= HEAVY_MASS_THRESHOLD:
            choices[eid] = TrieIndex.kind
            notes.append(
                f"{eid}: trie ({profile.heavy_count} heavy value(s) carry "
                f"{profile.heavy_mass:.0%} of first level)"
            )
        elif len(relation) >= LARGE_FLAT_RELATION:
            unordered = _unordered_attribute(relation, stats)
            if unordered is None:
                choices[eid] = CompactArrayIndex.kind
                notes.append(
                    f"{eid}: compact ({len(relation)} low-skew tuples: "
                    "packed arrays are far leaner than the trie's dicts)"
                )
            else:
                choices[eid] = TrieIndex.kind
                kept.append(
                    f"{eid}: trie kept over compact ({len(relation)} "
                    f"low-skew tuples, but the values of {unordered!r} do "
                    "not order and the flat arrays sort their rows)"
                )
        else:
            choices[eid] = TrieIndex.kind
    kinds = set(choices.values())
    if kinds == {TrieIndex.kind}:
        reasons.append(
            "; ".join(
                ["hash-trie backend: O(1) probes and precomputed counts"]
                + kept
            )
        )
        return TrieIndex.kind, None
    notes += kept
    pairs = tuple(sorted(choices.items()))
    reasons.append(
        "per-relation backends from skew, size, and cached indexes: "
        + "; ".join(notes)
    )
    if len(kinds) == 1:
        return kinds.pop(), None
    return "mixed", pairs


def _auto_shards(
    query: JoinQuery,
    order: tuple[str, ...],
    stats: StatsProvider,
    reasons: list[str],
    record: dict,
) -> int:
    """Pick a shard count from input size, parallelism, and skew.

    Serial below :data:`AUTO_SHARD_MIN_TUPLES` total input tuples (fork
    and queue overhead would dominate); otherwise one shard per available
    CPU, capped at :data:`MAX_AUTO_SHARDS` — **raised** to one more than
    the first attribute's heavy-hitter count when its heavy values carry
    at least :data:`~repro.stats.provider.HEAVY_MASS_THRESHOLD` of its
    mass, so every hot value can land in a shard of its own (the "Skew
    Strikes Back" heavy/light split, applied to the LPT partitioner in
    :mod:`repro.engine.parallel`).
    """
    total = query.total_input_size()
    if total < AUTO_SHARD_MIN_TUPLES:
        reasons.append(
            f"serial: {total} input tuples < {AUTO_SHARD_MIN_TUPLES} "
            "auto-shard threshold"
        )
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without affinity (macOS, Windows)
        cpus = os.cpu_count() or 1
    shards = max(1, min(MAX_AUTO_SHARDS, cpus))
    first = order[0]
    heavy_count, heavy_mass = 0, 0.0
    for relation in query.relations.values():
        if first not in relation.attribute_set:
            continue
        profile = stats.profile(relation).attribute(first)
        if profile.heavy_mass > heavy_mass:
            heavy_mass = profile.heavy_mass
            heavy_count = profile.heavy_count
    record.update(
        shard_attribute=first, shard_heavy_mass=heavy_mass, shard_cpus=cpus
    )
    if heavy_count and heavy_mass >= HEAVY_MASS_THRESHOLD:
        boosted = min(MAX_AUTO_SHARDS, max(shards, heavy_count + 1))
        if boosted > shards:
            reasons.append(
                f"{boosted} shard(s): {heavy_count} heavy value(s) carry "
                f"{heavy_mass:.0%} of {first}'s tuples — each gets its own "
                f"shard ({cpus} CPU(s), {total} input tuples)"
            )
            return boosted
    reasons.append(
        f"{shards} shard(s): {total} input tuples across {cpus} "
        "available CPU(s)"
    )
    return shards


def _resolve_shards(
    query: JoinQuery,
    shards: int | str | None,
    order: tuple[str, ...],
    stats: StatsProvider,
    reasons: list[str],
    record: dict,
) -> int:
    if shards is None:
        return 1
    if shards == "auto":
        return _auto_shards(query, order, stats, reasons, record)
    require_positive_int(shards, "shards", " or 'auto'")
    reasons.append(f"shard count fixed by caller: {shards}")
    return shards


def _plan_join(
    query: JoinQuery,
    algorithm: str = "auto",
    cover: FractionalCover | None = None,
    attribute_order: Sequence[str] | None = None,
    backend: str | None = None,
    shards: int | str | None = None,
    database: Database | None = None,
    stats: StatsProvider | None = None,
    context=None,
) -> JoinPlan:
    """Produce a :class:`JoinPlan` for ``query``.

    ``algorithm`` may be any registered executor name or ``"auto"``;
    unknown names are rejected here, before any index is built.  The
    relation-size statistics are exactly what ``Database.sizes()`` reports
    for catalogued relations, so plans computed against a catalog match
    plans computed against the bound query.

    ``shards`` populates the plan's shard count: a positive int, the
    string ``"auto"`` (choose from data statistics), or ``None``
    (serial).  Requests the engine cannot honor raise
    :class:`~repro.errors.PlanError`.

    ``database`` supplies the statistics cache (and cached-index
    availability for the per-relation backend choice): repeated plans
    over the same catalog reuse value-count tables, profiles, and
    selectivities instead of rescanning the data.  ``stats`` overrides
    the provider outright.

    ``attribute_order`` pins the order of ``generic`` / ``leapfrog``
    (``"auto"`` then means ``generic``); anything but a permutation of
    the query's attributes raises :class:`~repro.errors.QueryError`.

    ``context`` — an :class:`~repro.query.context.ExecutionContext` —
    replaces the individual option keywords wholesale: when given, the
    planner reads ``algorithm``, ``cover``, ``attribute_order``,
    ``backend``, ``shards``, ``database`` and ``stats``
    from it and ignores the corresponding parameters.
    This is how the query layer (and anything else carrying a context)
    calls the planner without re-spelling the option list.
    """
    if context is not None:
        algorithm = context.algorithm
        cover = context.cover
        attribute_order = context.attribute_order
        backend = context.backend
        shards = context.shards
        database = context.database
        stats = context.stats
    # ``shards`` may arrive as a ShardSpec (the context normalizes every
    # spelling to one); the planner consumes only its count.  Duck-typed
    # (not isinstance) so this engine-layer module never imports the
    # query layer.
    if hasattr(shards, "count") and not isinstance(shards, (int, str)):
        shards = shards.count
    if algorithm not in algorithm_names():
        raise QueryError(
            f"unknown algorithm {algorithm!r}; "
            f"choose one of {algorithm_names()}"
        )
    if backend is not None:
        validate_backend(backend)
    # One shared resolution rule (with the sharded driver): an explicit
    # provider as-is, else the database's, else the bounded process-wide
    # default so repeated ad-hoc plans never rescan.
    provider = resolve_provider(database, stats)
    reasons: list[str] = []
    if algorithm == "auto":
        algorithm = _choose_algorithm(
            cover, attribute_order, backend, reasons
        )
    else:
        reasons.append(f"algorithm {algorithm!r} fixed by caller")
    if cover is not None:
        query.validate_cover(cover)

    # Requests the executor would silently ignore are plan-time errors:
    # the plan must report what actually runs.
    order_sensitive = algorithm in ORDER_SENSITIVE
    if attribute_order is not None and not order_sensitive:
        raise PlanError(
            f"algorithm {algorithm!r} derives its own attribute order; "
            f"drop attribute_order or choose one of {ORDER_SENSITIVE}"
        )
    allowed_backends = BACKEND_CHOICES.get(algorithm, ())
    if backend is not None and backend not in allowed_backends:
        raise PlanError(
            f"algorithm {algorithm!r} cannot run on backend {backend!r}"
            + (
                f"; it supports {allowed_backends}"
                if allowed_backends
                else " (it builds no per-order indexes)"
            )
        )

    # Everything the statistics machinery contributed, for the plan's
    # PlanStatistics record; ``used`` flips when any decision consulted
    # the provider.
    record: dict = {}
    used_stats = False

    if attribute_order is not None:
        order = resolve_order(query, attribute_order)
        reasons.append(f"attribute order fixed by caller: {', '.join(order)}")
    elif order_sensitive:
        used_stats = True
        with maybe_span("stats-profile"):
            order, scores, estimates, consulted = (
                plan_attribute_order_selectivity(query, provider)
            )
        record["order_estimates"] = estimates
        record["selectivities"] = tuple(
            (src, dst, sel) for (src, dst), sel in sorted(consulted.items())
        )
        reasons.append(
            "attribute order by exact selectivity descent: "
            + ", ".join(f"{a}(~{est:.3g})" for a, est in estimates)
        )
        record["distinct_counts"] = tuple(
            (a, scores[a]) for a in order
        )
    else:
        order = query.attributes
        reasons.append(
            f"{algorithm} derives its own order; keeping query order"
        )

    relation_backends: tuple[tuple[str, str], ...] | None = None
    if backend is not None:
        reasons.append(f"backend {backend!r} fixed by caller")
    elif algorithm == "leapfrog":
        backend = SortedArrayIndex.kind
        reasons.append(
            "sorted flat-array backend: leapfrog seeks need sorted runs"
        )
    elif algorithm == "generic":
        used_stats = True
        backend, relation_backends = _relation_backends(
            query, order, provider, database, reasons
        )
    elif algorithm == "nprr":
        backend = TrieIndex.kind
        reasons.append(
            "hash-trie backend: O(1) probes and precomputed counts"
        )
    else:
        backend = NO_BACKEND
        reasons.append(f"{algorithm} builds no per-order indexes")
    if backend not in (TrieIndex.kind, NO_BACKEND):
        _require_orderable(query, backend, relation_backends, provider)

    if shards == "auto":
        used_stats = True
    shard_count = _resolve_shards(
        query, shards, order, provider, reasons, record
    )

    statistics = None
    if used_stats:
        statistics = PlanStatistics(
            heavy_hitters=provider.heavy_hitters(query),
            **record,
        )

    # Only the cover-driven algorithms pay for the cover LP at plan time
    # (their executors would solve the same LP anyway); everyone else
    # defers the AGM bound until someone inspects the plan.
    plan_cover, bound = cover, None
    if algorithm in ("nprr", "arity2") and cover is None:
        plan_cover, bound = best_agm_bound(query.hypergraph, query.sizes())
    return JoinPlan(
        query=query,
        algorithm=algorithm,
        attribute_order=order,
        backend=backend,
        cover=plan_cover,
        reasons=tuple(reasons),
        shards=shard_count,
        relation_backends=relation_backends,
        statistics=statistics,
        _bound=bound,
    )


def plan_join(
    query: JoinQuery,
    algorithm: str = "auto",
    cover: FractionalCover | None = None,
    attribute_order: Sequence[str] | None = None,
    backend: str | None = None,
    shards: int | str | None = None,
    database: Database | None = None,
    stats: StatsProvider | None = None,
    context=None,
) -> JoinPlan:
    # The planning phase of any traced execution: one ambient span (one
    # context-variable read when tracing is off) around the whole
    # decision procedure, annotated with the resolved choices.
    with maybe_span("plan") as span:
        plan = _plan_join(
            query,
            algorithm,
            cover=cover,
            attribute_order=attribute_order,
            backend=backend,
            shards=shards,
            database=database,
            stats=stats,
            context=context,
        )
        if span is not None:
            span.meta.update(_span_meta(plan))
        return plan


plan_join.__doc__ = _plan_join.__doc__


def _span_meta(plan: JoinPlan) -> dict:
    """The resolved choices a ``plan`` span is annotated with."""
    order = ",".join(plan.attribute_order)
    return dict(algorithm=plan.algorithm, order=order, backend=plan.backend)
