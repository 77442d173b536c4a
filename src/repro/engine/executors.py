"""Executor registry: every join algorithm behind one streaming interface.

The engine treats an executor as anything with two methods:

* ``iter_join() -> Iterator[Row]`` — stream result rows in the query's
  attribute order, without materializing the output;
* ``execute(name) -> Relation`` — the thin materializing wrapper.

All five algorithms of this reproduction conform: Algorithm 2 / NPRR
(Section 5 of the paper), Algorithm 1 / LW (Section 4), Theorem 7.3's
arity-2 decomposition (Section 7.1), and the two successor WCOJ
algorithms, Generic Join ("Skew Strikes Back") and Leapfrog Triejoin
(Veldhuizen).  :data:`EXECUTORS` maps each public algorithm name to a
factory with a uniform keyword signature; it is the single source of
truth consumed by :data:`repro.api.ALGORITHMS` and the CLI's
``--algorithm`` choices, so adding an algorithm here surfaces it
everywhere at once.

**Residual filters.**  The query layer (:mod:`repro.query`) pushes
single-attribute selection predicates down to the executors.  The
attribute-at-a-time executors in :data:`DESCENT_ALGORITHMS` evaluate
them at the level that binds the attribute, pruning subtrees; the blocking
specialists (``lw``, ``arity2``, ``nprr``) are wrapped in
:class:`RowFilterExecutor`, which applies the same predicates to emitted
rows — identical semantics, no early pruning.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence

from repro.core.arity_two import ArityTwoJoin
from repro.core.filters import per_position_filters
from repro.core.generic_join import GenericJoin
from repro.core.leapfrog import CURSOR_BACKENDS, LeapfrogTriejoin
from repro.core.lw import LWJoin
from repro.core.nprr import NPRRJoin
from repro.core.query import JoinQuery
from repro.errors import QueryError
from repro.hypergraph.covers import FractionalCover
from repro.relations.database import DEFAULT_BACKEND, Database
from repro.relations.relation import Relation, Row, Value
from repro.relations.sorted_index import SortedArrayIndex

__all__ = [
    "EXECUTORS",
    "DESCENT_ALGORITHMS",
    "RowFilterExecutor",
    "algorithm_names",
    "build_executor",
]

#: Filter predicates as the query layer hands them down: one
#: single-value test per filtered attribute.
Filters = Mapping[str, Callable[[Value], bool]]


class RowFilterExecutor:
    """Adapts residual filters onto an executor without native support.

    Wraps any executor conforming to the streaming protocol; rows whose
    filtered attributes fail their predicates are dropped from the
    stream.  Used for the blocking specialists, whose internal search
    structure (QP-trees, LW partitioning, arity-2 decomposition) has no
    single global per-attribute level to hook.
    """

    def __init__(self, inner, query: JoinQuery, filters: Filters) -> None:
        self._inner = inner
        self.query = query
        slots = per_position_filters(
            filters, query.attributes, query.attributes
        )
        self._checks = tuple(
            (position, predicate)
            for position, predicate in enumerate(slots)
            if predicate is not None
        )

    def iter_join(self):
        checks = self._checks
        for row in self._inner.iter_join():
            if all(predicate(row[i]) for i, predicate in checks):
                yield row

    def execute(self, name: str = "J") -> Relation:
        return Relation(name, self.query.attributes, self.iter_join())

    def __getattr__(self, attribute: str):
        # Observability passthrough (e.g. NPRRJoin.stats in benchmarks).
        return getattr(self._inner, attribute)


def _make_nprr(
    query: JoinQuery,
    *,
    cover: FractionalCover | None,
    attribute_order: Sequence[str] | None,
    backend: str,
    database: Database | None,
    filters: Filters | None,
    telemetry=None,
) -> NPRRJoin:
    # Algorithm 2's order comes from its query-plan tree; an explicit
    # attribute order does not apply, and the hash trie's O(1) (ST2)
    # counts are load-bearing for the per-tuple case analysis.
    return NPRRJoin(query, cover=cover, database=database)


def _make_lw(
    query: JoinQuery,
    *,
    cover: FractionalCover | None,
    attribute_order: Sequence[str] | None,
    backend: str,
    database: Database | None,
    filters: Filters | None,
    telemetry=None,
) -> LWJoin:
    return LWJoin(query)


def _make_generic(
    query: JoinQuery,
    *,
    cover: FractionalCover | None,
    attribute_order: Sequence[str] | None,
    backend: str | Mapping[str, str],
    database: Database | None,
    filters: Filters | None,
    telemetry=None,
) -> GenericJoin:
    # ``backend`` may be a per-relation mapping (the statistics-driven
    # planner emits one when skew or cached indexes argue for mixing
    # kinds); GenericJoin accepts both spellings.
    return GenericJoin(
        query,
        attribute_order=attribute_order,
        database=database,
        backend=backend or DEFAULT_BACKEND,
        filters=filters,
        telemetry=telemetry,
    )


def _make_leapfrog(
    query: JoinQuery,
    *,
    cover: FractionalCover | None,
    attribute_order: Sequence[str] | None,
    backend: str,
    database: Database | None,
    filters: Filters | None,
    telemetry=None,
) -> LeapfrogTriejoin:
    # Leapfrog runs over any cursor-capable layout; non-cursor kinds
    # (the planner's "trie"/"mixed" labels) fall back to its native
    # sorted arrays.
    kind = (
        backend
        if isinstance(backend, str) and backend in CURSOR_BACKENDS
        else SortedArrayIndex.kind
    )
    return LeapfrogTriejoin(
        query,
        attribute_order=attribute_order,
        database=database,
        filters=filters,
        telemetry=telemetry,
        backend=kind,
    )


def _make_arity_two(
    query: JoinQuery,
    *,
    cover: FractionalCover | None,
    attribute_order: Sequence[str] | None,
    backend: str,
    database: Database | None,
    filters: Filters | None,
    telemetry=None,
) -> ArityTwoJoin:
    return ArityTwoJoin(query, cover=cover)


#: Algorithm name -> executor factory.  The single source of truth for
#: selectable algorithms: ``repro.api.ALGORITHMS`` and the CLI both
#: derive their choices from these keys (plus the planner's ``"auto"``).
EXECUTORS = {
    "nprr": _make_nprr,
    "lw": _make_lw,
    "generic": _make_generic,
    "leapfrog": _make_leapfrog,
    "arity2": _make_arity_two,
}

#: Algorithms that run on the descent kernel (:mod:`repro.core.descent`).
#: One fact, three consequences: their executors evaluate residual
#: filters *at the level binding the attribute* (pruning subtrees;
#: everything else is wrapped in :class:`RowFilterExecutor`), accept a
#: per-level :class:`~repro.observe.telemetry.TelemetryProbe` (the
#: blocking specialists have no global per-attribute levels to count),
#: and expose
#: ``fold(folder)`` — aggregation pushed into the level loops with
#: factorized subtree pruning (see :mod:`repro.aggregate.fold`;
#: aggregates over the rest fold the executor's row stream instead).
DESCENT_ALGORITHMS = frozenset({"generic", "leapfrog"})


def algorithm_names(include_auto: bool = True) -> tuple[str, ...]:
    """Public algorithm names, optionally with the planner's ``"auto"``."""
    names = tuple(EXECUTORS)
    return names + ("auto",) if include_auto else names


def build_executor(
    query: JoinQuery,
    algorithm: str,
    *,
    cover: FractionalCover | None = None,
    attribute_order: Sequence[str] | None = None,
    backend: str | Mapping[str, str] = DEFAULT_BACKEND,
    database: Database | None = None,
    filters: Filters | None = None,
    telemetry=None,
):
    """Instantiate the executor for a *resolved* algorithm name.

    ``algorithm`` must be a concrete name (``"auto"`` is resolved by the
    planner, not here).  Raises :class:`~repro.errors.QueryError` for an
    unknown name before touching any relation data.  ``filters`` attach
    the query layer's residual predicates — natively for the algorithms
    in :data:`DESCENT_ALGORITHMS`, via :class:`RowFilterExecutor` otherwise.
    ``telemetry`` attaches a per-level probe to the algorithms in
    :data:`DESCENT_ALGORITHMS` and is ignored for the rest.
    """
    try:
        factory = EXECUTORS[algorithm]
    except KeyError:
        raise QueryError(
            f"unknown algorithm {algorithm!r}; "
            f"choose one of {algorithm_names()}"
        ) from None
    native = filters if algorithm in DESCENT_ALGORITHMS else None
    executor = factory(
        query,
        cover=cover,
        attribute_order=attribute_order,
        backend=backend,
        database=database,
        filters=native,
        telemetry=telemetry if algorithm in DESCENT_ALGORITHMS else None,
    )
    if filters and algorithm not in DESCENT_ALGORITHMS:
        executor = RowFilterExecutor(executor, query, filters)
    return executor
