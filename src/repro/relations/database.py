"""A tiny in-memory database: a catalog of named relations plus index cache.

The paper's algorithms operate on a *database instance* ``I`` assigning a
concrete relation to every relational symbol (Section 2).  :class:`Database`
provides that binding along with:

* size statistics (the ``N_e`` inputs of the AGM bound),
* a uniform cache of index-backend objects keyed by (backend kind,
  relation, attribute order) — Remark 5.2's "index in advance" option: the
  first query that needs an order pays the build, later queries reuse it.
  Every backend of :mod:`repro.engine.backends` is cached here: the
  hash-dict :class:`~repro.relations.trie.TrieIndex`, the sorted
  flat-array :class:`~repro.relations.sorted_index.SortedArrayIndex` that
  Leapfrog Triejoin consumes, and the packed-run
  :class:`~repro.engine.compact.CompactArrayIndex`.  The cache is
  **bounded**: above a configurable entry budget (and, optionally, a
  byte budget), entries are evicted GreedyDual-Size-style —
  least-recently-used first, weighted by *build cost per resident byte*
  (each backend's ``nbytes()`` measure: exact ``buffer_info`` bytes for
  compact's packed arrays, container estimates for the others), so an
  expensive build survives a cheap one of equal recency and a **lean
  index survives a bloated one of equal build cost** — compact indexes
  are cheap to keep.  :meth:`Database.cache_info` exposes occupancy,
  hit/miss/eviction counters, and resident bytes per backend.
* a statistics cache serving the planner's
  :class:`~repro.stats.provider.StatsProvider`: value-count tables,
  the profiles and selectivities read off them, and per-query AGM
  sub-bounds, keyed by relation identity,
  invalidated together with the index cache when a relation is replaced
  or dropped.
"""

from __future__ import annotations

import itertools
import time
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass, field as dataclass_field

from repro.errors import DatabaseError
from repro.observe.tracing import maybe_span
from repro.relations.relation import Relation
from repro.relations.sorted_index import SortedArrayIndex
from repro.relations.trie import TrieIndex

#: Clock used to measure index build cost (monkeypatchable in tests).
_now = time.perf_counter

#: Registered index-backend constructors, keyed by their ``kind`` string.
#: :mod:`repro.engine.backends` re-exports this as the engine's backend
#: registry; every class satisfies the ``IndexBackend`` protocol.  The
#: engine-layer ``"compact"`` backend registers itself here when
#: :mod:`repro.engine.backends` is imported (which any ``import repro``
#: does) — this module cannot import it without a cycle.
INDEX_BACKENDS = {
    TrieIndex.kind: TrieIndex,
    SortedArrayIndex.kind: SortedArrayIndex,
}


def _index_nbytes(index: object) -> int:
    """Measured resident bytes of an index, 0 when unmeasurable.

    Every shipped backend implements ``nbytes()`` (exact for compact's
    packed arrays, estimates for trie/sorted); foreign backends without
    one are charged as size 1 by the cache, i.e. cost-only GreedyDual.
    """
    measure = getattr(index, "nbytes", None)
    if measure is None:
        return 0
    try:
        return int(measure())
    except Exception:
        return 0

#: Backend used when callers do not ask for one.
DEFAULT_BACKEND = TrieIndex.kind

#: The generation ``QueryBuilder.plan`` memoizes under, moved after
#: each write a plan reads; a value is issued once, so racing writers
#: can never bring back one a memo holds.
_GENERATIONS = itertools.count(1)
planning_generation = 0


def bump_planning_generation() -> None:
    """Invalidate every memoized plan (see ``QueryBuilder.plan``)."""
    global planning_generation
    planning_generation = next(_GENERATIONS)


def build_index(
    relation: Relation,
    attribute_order: Iterable[str],
    kind: str = DEFAULT_BACKEND,
):
    """Construct an uncached index of backend ``kind`` over ``relation``.

    Every index construction in the engine funnels through here (the
    catalog's cache-miss path and the executors' private builds alike),
    so this is where a traced run records its ``index-build`` spans —
    one ambient no-op when no tracer is active.
    """
    try:
        backend = INDEX_BACKENDS[kind]
    except KeyError:
        raise DatabaseError(
            f"unknown index backend {kind!r}; "
            f"choose one of {tuple(INDEX_BACKENDS)}"
        ) from None
    order = tuple(attribute_order)
    with maybe_span(
        "index-build", relation=relation.name, kind=kind, order=",".join(order)
    ):
        return backend(relation, order)


#: Default index-cache entry budget.  Deliberately generous — eviction
#: exists to bound long-lived servers that touch many (relation, order)
#: pairs, not to churn a working set.
DEFAULT_INDEX_CACHE_BUDGET = 256

#: GreedyDual-Size charge normalization: an entry's eviction weight is
#: ``build seconds per this many resident bytes``.  Only *relative*
#: weights matter to the eviction order; the reference merely keeps the
#: numbers in a human-readable range (charge ~= cost for a 64 KiB
#: index).  Unmeasurable indexes (nbytes 0) are charged as one
#: reference unit, i.e. plain cost-only GreedyDual.
_BYTE_REFERENCE = 65536.0

#: Default statistics-cache entry budget.  Statistics payloads include
#: O(N) projection sets, so this cache is bounded for the same
#: long-lived-server reason as the index cache; entries are cheap to
#: recompute, so eviction is simple FIFO.
DEFAULT_STATS_CACHE_BUDGET = 4096


@dataclass(frozen=True)
class WarmReport:
    """What :meth:`Database.warm` built, reused, and declined.

    ``warmed`` and ``skipped`` itemize ``(relation, index order, kind)``
    triples — ``skipped`` entries carry a fourth element naming the
    reason (already cached, not catalogued, budget exhausted).
    ``statistics_cached`` counts the statistics payloads the warmup's
    planning passes added to the stats cache.
    """

    warmed: tuple[tuple[str, tuple[str, ...], str], ...]
    skipped: tuple[tuple[str, tuple[str, ...], str, str], ...]
    #: Indexes actually built (== ``len(warmed)``; kept explicit so the
    #: report reads as a build counter in logs).
    index_builds: int
    #: Statistics-cache entries added while planning the workload.
    statistics_cached: int

    def describe(self) -> str:
        """A human-readable rendering of the warmup outcome."""
        lines = [
            f"warmed {self.index_builds} index(es), "
            f"{self.statistics_cached} statistics entr(ies):"
        ]
        for name, order, kind in self.warmed:
            lines.append(f"  + {name} [{', '.join(order)}] ({kind})")
        for name, order, kind, reason in self.skipped:
            lines.append(
                f"  - {name} [{', '.join(order)}] ({kind}): {reason}"
            )
        return "\n".join(lines)


@dataclass(frozen=True)
class CacheInfo:
    """A snapshot of the index cache (:meth:`Database.cache_info`)."""

    #: Indexes currently resident.
    entries: int
    #: Maximum resident entries before eviction kicks in.
    budget: int
    #: Lookups served from the cache.
    hits: int
    #: Lookups that had to build an index.
    misses: int
    #: Entries evicted to stay within budget.
    evictions: int
    #: Summed build cost (seconds) of the resident entries.
    build_seconds: float
    #: Measured resident bytes of all cached indexes (each backend's
    #: ``nbytes()``: exact buffer bytes for compact, estimates for
    #: trie/sorted).
    bytes_total: int = 0
    #: Resident bytes broken down by backend kind, e.g.
    #: ``{"trie": 81920, "compact": 9616}``.  Kinds with no resident
    #: entry are absent.
    bytes_by_backend: dict = dataclass_field(default_factory=dict)
    #: Optional byte ceiling (``None`` = entries-only budgeting).
    byte_budget: int | None = None


class _CacheEntry:
    """One cached index plus the bookkeeping eviction needs."""

    __slots__ = ("index", "cost", "nbytes", "charge", "priority", "serial")

    def __init__(
        self,
        index: object,
        cost: float,
        nbytes: int,
        charge: float,
        priority: float,
        serial: int,
    ) -> None:
        self.index = index
        self.cost = cost  # build seconds (cache_info's build_seconds)
        self.nbytes = nbytes  # measured resident bytes (0 = unknown)
        self.charge = charge  # GreedyDual-Size weight: cost per byte
        self.priority = priority
        self.serial = serial  # monotone access counter: LRU tie-break


class Database:
    """A mutable catalog of immutable relations.

    ``index_cache_budget`` bounds the number of cached indexes; above
    it, entries are evicted by the GreedyDual-Size rule (priority =
    eviction-clock-at-last-use + build cost per resident byte), i.e.
    least-recently-used weighted so that, at equal recency, expensive
    builds survive cheap ones and lean indexes survive bloated ones.
    ``index_cache_byte_budget`` optionally adds a **measured-byte**
    ceiling on top of the entry count: when the resident indexes'
    summed ``nbytes()`` would exceed it, minimum-priority entries are
    evicted first (the entry-count proxy remains as a backstop for
    backends that cannot measure themselves).  A single index larger
    than the whole byte budget is still cached — evicting everything
    and thrashing on rebuilds would be strictly worse.
    """

    def __init__(
        self,
        relations: Iterable[Relation] = (),
        index_cache_budget: int = DEFAULT_INDEX_CACHE_BUDGET,
        stats_cache_budget: int = DEFAULT_STATS_CACHE_BUDGET,
        index_cache_byte_budget: int | None = None,
    ) -> None:
        if index_cache_budget < 1:
            raise DatabaseError(
                f"index_cache_budget must be >= 1, got {index_cache_budget}"
            )
        if index_cache_byte_budget is not None and index_cache_byte_budget < 1:
            raise DatabaseError(
                f"index_cache_byte_budget must be >= 1 or None, "
                f"got {index_cache_byte_budget}"
            )
        if stats_cache_budget < 1:
            raise DatabaseError(
                f"stats_cache_budget must be >= 1, got {stats_cache_budget}"
            )
        self._relations: dict[str, Relation] = {}
        # (backend kind, relation name, attribute order) -> _CacheEntry.
        self._index_cache: dict[
            tuple[str, str, tuple[str, ...]], _CacheEntry
        ] = {}
        self._index_cache_budget = index_cache_budget
        self._index_cache_byte_budget = index_cache_byte_budget
        self._cache_bytes = 0  # summed nbytes of resident entries
        self._cache_clock = 0.0  # GreedyDual inflation clock
        self._cache_serial = 0  # monotone access counter
        self._cache_hits = 0
        self._cache_misses = 0
        self._cache_evictions = 0
        # (relation name, payload key) -> statistics payload (value
        # counts, profiles, selectivities) — see repro.stats.provider.
        # Bounded: FIFO-evicted above stats_cache_budget entries.
        self._stats_cache: dict[tuple[str, tuple], object] = {}
        self._stats_cache_budget = stats_cache_budget
        # The one StatsProvider db.stats() hands out, made on first call.
        self._stats_provider = None
        for relation in relations:
            self.add(relation)

    # -- catalog -------------------------------------------------------------

    def add(self, relation: Relation, replace: bool = False) -> None:
        """Register ``relation`` under its name.

        Raises :class:`~repro.errors.DatabaseError` if the name is taken and
        ``replace`` is false.  Replacing a relation invalidates its cached
        indexes.
        """
        name = relation.name
        if name in self._relations and not replace:
            raise DatabaseError(f"relation {name!r} already exists")
        self._relations[name] = relation
        self._drop_cached(name)
        bump_planning_generation()

    def remove(self, name: str) -> None:
        """Drop a relation (and its cached indexes) from the catalog."""
        if name not in self._relations:
            raise DatabaseError(f"relation {name!r} does not exist")
        del self._relations[name]
        self._drop_cached(name)
        bump_planning_generation()

    def __getitem__(self, name: str) -> Relation:
        try:
            return self._relations[name]
        except KeyError:
            raise DatabaseError(f"relation {name!r} does not exist") from None

    def __contains__(self, name: str) -> bool:
        return name in self._relations

    def __len__(self) -> int:
        return len(self._relations)

    def __iter__(self) -> Iterator[Relation]:
        return iter(self._relations.values())

    def names(self) -> list[str]:
        """Names of all catalogued relations (insertion order)."""
        return list(self._relations)

    # -- statistics ------------------------------------------------------------

    def sizes(self) -> dict[str, int]:
        """``{name: |R|}`` — the ``N_e`` vector of the AGM machinery."""
        return {name: len(rel) for name, rel in self._relations.items()}

    def total_tuples(self) -> int:
        """``sum_e N_e`` — the input-reading term of Definition 2.1."""
        return sum(len(rel) for rel in self._relations.values())

    def is_catalogued(self, relation: Relation) -> bool:
        """True when ``relation`` is *the object* catalogued under its name.

        Identity (not equality) on purpose: the stats and index caches
        key by name, so they are only safe to consult for the exact
        object the catalog currently holds — a same-named ad-hoc
        relation with different tuples must miss.
        """
        return self._relations.get(relation.name) is relation

    def stats(self):
        """The :class:`~repro.stats.provider.StatsProvider` for this
        database (one instance, made on first call).

        Statistics the provider computes for catalogued relations are
        stored in this database's stats cache and invalidated together
        with the index cache on ``add(replace=True)`` / ``remove``.
        """
        # Imported here: repro.stats.provider imports this module.
        from repro.stats.provider import StatsProvider

        if self._stats_provider is None:
            self._stats_provider = StatsProvider(database=self)
        return self._stats_provider

    # -- query layer ---------------------------------------------------------

    def prepare(self, query):
        """Freeze ``query`` into a :class:`~repro.query.prepared.
        PreparedQuery` bound to this catalog.

        ``query`` may be a fluent builder (``Q(...)``), a
        :class:`~repro.core.query.JoinQuery`, or a sequence of
        relations; whatever context it carries, its database is set to
        this catalog so the frozen plan's indexes are built through (and
        shared via) the bounded index cache.
        """
        return self._as_builder(query).prepare()

    def warm(self, queries, budget: int | None = None) -> WarmReport:
        """Pre-build the indexes and statistics a workload will need.

        ``queries`` is an iterable of fluent builders, join queries, or
        relation sequences.  Each is *planned* against this catalog —
        which alone warms the statistics cache (profiles, samples,
        selectivities) — and every ``(relation, order, kind)`` index the
        plan's executor would request is built through :meth:`index`,
        so later executions hit on every lookup (Remark 5.2's indexing
        in advance, across a whole workload).

        ``budget`` caps the number of index *builds*; independent of
        it, warming always respects the GreedyDual cache budget — once
        the cache is full, further builds are skipped rather than
        evicting earlier warmup work.  Requirements over relations not
        catalogued here (ad-hoc objects, or sections created by
        equality pushdown) are skipped: their indexes cannot outlive
        the query.  Returns a :class:`WarmReport`.
        """
        if budget is not None and (
            not isinstance(budget, int)
            or isinstance(budget, bool)
            or budget < 0
        ):
            raise DatabaseError(
                f"warm budget must be a non-negative int or None, "
                f"got {budget!r}"
            )
        warmed: list[tuple[str, tuple[str, ...], str]] = []
        skipped: list[tuple[str, tuple[str, ...], str, str]] = []
        stats_before = self.cached_stats_count()
        builds = 0
        # Only *catalogued* requirements dedup by (name, order, kind):
        # an ad-hoc relation sharing a catalogued name must not swallow
        # a later genuine requirement for the catalog's relation.
        seen: set[tuple[str, tuple[str, ...], str]] = set()
        seen_uncatalogued: set[tuple[str, tuple[str, ...], str]] = set()
        for item in queries:
            plan = self._as_builder(item).plan()
            for triple in plan.index_requirements():
                name, order, kind = triple
                if not self.is_catalogued(plan.query.relation(name)):
                    if triple not in seen_uncatalogued:
                        seen_uncatalogued.add(triple)
                        skipped.append(
                            (*triple, "not catalogued (ad-hoc or sectioned)")
                        )
                    continue
                if triple in seen:
                    continue
                seen.add(triple)
                if self.has_cached_index(name, order, kind):
                    skipped.append((*triple, "already cached"))
                    continue
                if budget is not None and builds >= budget:
                    skipped.append((*triple, "warm budget exhausted"))
                    continue
                if len(self._index_cache) >= self._index_cache_budget or (
                    self._index_cache_byte_budget is not None
                    and self._cache_bytes >= self._index_cache_byte_budget
                ):
                    skipped.append(
                        (
                            *triple,
                            "index cache at budget (would evict warmup)",
                        )
                    )
                    continue
                self.index(name, order, kind)
                builds += 1
                warmed.append(triple)
        return WarmReport(
            warmed=tuple(warmed),
            skipped=tuple(skipped),
            index_builds=builds,
            statistics_cached=self.cached_stats_count() - stats_before,
        )

    def _as_builder(self, query):
        """Normalize prepare()/warm() arguments to a builder on this db."""
        # Imported here: repro.query imports the engine, which imports
        # this module.
        from repro.query.builder import Q, QueryBuilder

        builder = query if isinstance(query, QueryBuilder) else Q(query)
        return builder.using(database=self)

    def stats_cache_get(self, name: str, key: tuple) -> object | None:
        """A cached statistics payload for relation ``name``, or None."""
        return self._stats_cache.get((name, key))

    def stats_cache_put(self, name: str, key: tuple, payload: object) -> None:
        """Cache a statistics payload for relation ``name``.

        The cache is bounded: above the budget the oldest entry is
        dropped (FIFO — statistics are cheap to recompute relative to
        index builds, so no cost weighting here).
        """
        while len(self._stats_cache) >= self._stats_cache_budget:
            evicted = next(iter(self._stats_cache))
            del self._stats_cache[evicted]
        self._stats_cache[(name, key)] = payload

    def cached_stats_count(self) -> int:
        """Number of cached statistics payloads (observability hook)."""
        return len(self._stats_cache)

    # -- index cache ------------------------------------------------------------

    def index(
        self,
        name: str,
        attribute_order: Iterable[str],
        kind: str = DEFAULT_BACKEND,
    ):
        """An index of backend ``kind`` over relation ``name``.

        Built on first use, cached afterwards.  This realizes Remark 5.2:
        the data-preprocessing cost (``O(n^2 sum N_e)`` trie builds, or one
        ``O(N log N)`` sort for the flat backend) is paid once per
        (backend, relation, order) triple, not per query.
        """
        order = tuple(attribute_order)
        key = (kind, name, order)
        entry = self._index_cache.get(key)
        self._cache_serial += 1
        if entry is not None:
            self._cache_hits += 1
            # Refresh recency: GreedyDual-Size re-arms the entry's
            # priority at the current clock plus its per-byte charge.
            entry.priority = self._cache_clock + entry.charge
            entry.serial = self._cache_serial
            return entry.index
        self._cache_misses += 1
        started = _now()
        index = build_index(self[name], order, kind)
        cost = max(_now() - started, 0.0)
        nbytes = _index_nbytes(index)
        # GreedyDual-Size: charge = build cost / resident size, so the
        # cache prefers keeping what is expensive to rebuild *per byte
        # it occupies* — a compact index (small nbytes) earns a higher
        # charge than a trie of equal build cost and survives longer.
        charge = cost * _BYTE_REFERENCE / nbytes if nbytes > 0 else cost
        while self._index_cache and (
            len(self._index_cache) >= self._index_cache_budget
            or (
                self._index_cache_byte_budget is not None
                and self._cache_bytes + nbytes
                > self._index_cache_byte_budget
            )
        ):
            self._evict_one()
        self._index_cache[key] = _CacheEntry(
            index,
            cost,
            nbytes,
            charge,
            self._cache_clock + charge,
            self._cache_serial,
        )
        self._cache_bytes += nbytes
        # The insert (and any eviction above) changes has_cached_index.
        bump_planning_generation()
        return index

    def _evict_one(self) -> None:
        """Evict the minimum-priority entry (GreedyDual-Size).

        The clock advances to the victim's priority, so entries that sat
        unused accrue relative "age" while a recently touched, expensive,
        or lean entry stays ahead of the clock.  Equal priorities fall
        back to plain LRU via the access serial.
        """
        victim_key = min(
            self._index_cache,
            key=lambda k: (
                self._index_cache[k].priority,
                self._index_cache[k].serial,
            ),
        )
        victim = self._index_cache[victim_key]
        self._cache_clock = victim.priority
        self._cache_bytes -= victim.nbytes
        del self._index_cache[victim_key]
        self._cache_evictions += 1

    def has_cached_index(
        self, name: str, attribute_order: Iterable[str], kind: str
    ) -> bool:
        """True when an index is already resident (no build, no recency
        refresh) — the planner's cached-availability probe."""
        return (kind, name, tuple(attribute_order)) in self._index_cache

    def cache_info(self) -> CacheInfo:
        """A :class:`CacheInfo` snapshot of the index cache."""
        by_backend: dict[str, int] = {}
        for (kind, _name, _order), entry in self._index_cache.items():
            by_backend[kind] = by_backend.get(kind, 0) + entry.nbytes
        return CacheInfo(
            entries=len(self._index_cache),
            budget=self._index_cache_budget,
            hits=self._cache_hits,
            misses=self._cache_misses,
            evictions=self._cache_evictions,
            build_seconds=sum(
                entry.cost for entry in self._index_cache.values()
            ),
            bytes_total=self._cache_bytes,
            bytes_by_backend=by_backend,
            byte_budget=self._index_cache_byte_budget,
        )

    def trie(self, name: str, attribute_order: Iterable[str]) -> TrieIndex:
        """A hash-trie over relation ``name`` (the ``"trie"`` backend)."""
        return self.index(name, attribute_order, TrieIndex.kind)

    def sorted_index(
        self, name: str, attribute_order: Iterable[str]
    ) -> SortedArrayIndex:
        """A sorted flat-array index over relation ``name``."""
        return self.index(name, attribute_order, SortedArrayIndex.kind)

    def compact_index(self, name: str, attribute_order: Iterable[str]):
        """A packed flat-level index over relation ``name`` (the
        ``"compact"`` backend, :class:`~repro.engine.compact.
        CompactArrayIndex`)."""
        return self.index(name, attribute_order, "compact")

    def cached_trie_count(self) -> int:
        """Number of hash-tries currently cached (observability for tests)."""
        return self.cached_index_count(TrieIndex.kind)

    def cached_index_count(self, kind: str | None = None) -> int:
        """Number of cached indexes, optionally restricted to one backend."""
        if kind is None:
            return len(self._index_cache)
        return sum(1 for key in self._index_cache if key[0] == kind)

    def _drop_cached(self, name: str) -> None:
        """Invalidate every cached artifact touching relation ``name``.

        Indexes are keyed by the relation directly.  Statistics entries
        are dropped when ``name`` is the entry's subject *or appears
        anywhere in its payload key* — a selectivity cached under its
        source relation also names its target, and replacing the target
        must invalidate it too.
        """
        stale = [key for key in self._index_cache if key[1] == name]
        for key in stale:
            self._cache_bytes -= self._index_cache[key].nbytes
            del self._index_cache[key]
        stale_stats = [
            entry_key
            for entry_key in self._stats_cache
            if entry_key[0] == name or name in entry_key[1]
        ]
        for entry_key in stale_stats:
            del self._stats_cache[entry_key]

    # -- conveniences -------------------------------------------------------------

    @classmethod
    def from_mapping(cls, relations: Mapping[str, Relation]) -> "Database":
        """Build a database renaming each relation to its mapping key."""
        db = cls()
        for name, relation in relations.items():
            db.add(relation.with_name(name))
        return db

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{name}({len(rel)})" for name, rel in self._relations.items()
        )
        return f"Database({inner})"
