"""Executor registry: one record of facts per join algorithm.

The engine treats an executor as anything with two methods:

* ``iter_join() -> Iterator[Row]`` — stream result rows in the query's
  attribute order, without materializing the output;
* ``execute(name) -> Relation`` — the thin materializing wrapper.

All five algorithms of this reproduction conform: Algorithm 2 / NPRR
(Section 5 of the paper), Algorithm 1 / LW (Section 4), Theorem 7.3's
arity-2 decomposition (Section 7.1), and the two successor WCOJ
algorithms, Generic Join ("Skew Strikes Back") and Leapfrog Triejoin
(Veldhuizen).  Generic Join meets the bound of every specialist, so the
planner's ``auto`` picks it (or NPRR, for a caller's cover) and the rest
are pins.

:data:`EXECUTORS` maps each public algorithm name to an
:class:`Algorithm` record: how to construct the executor, whether it
honours a caller's attribute order, the index kinds it runs on, whether
it is a descent, whether its plan solves the cover LP, and the order its
indexes are sorted by.  Every algorithm-dependent decision — the
planner's checks and defaults, :meth:`JoinPlan.index_requirements
<repro.engine.planner.JoinPlan.index_requirements>`, filter and probe
attachment here — reads these fields, so a pin is one dict lookup.  The
keys are the single source of truth for selectable algorithms:
:data:`repro.api.ALGORITHMS` and the CLI's ``--algorithm`` choices
derive from them.

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
from typing import NamedTuple

from repro.core.arity_two import ArityTwoJoin
from repro.core.filters import per_position_filters
from repro.core.generic_join import GenericJoin
from repro.core.leapfrog import CURSOR_BACKENDS, LeapfrogTriejoin
from repro.core.lw import LWJoin
from repro.core.nprr import NPRRJoin
from repro.core.qptree import QPTree
from repro.core.query import JoinQuery
from repro.errors import QueryError
from repro.hypergraph.covers import FractionalCover
from repro.relations.database import Database
from repro.relations.relation import Relation, Value
from repro.relations.trie import TrieIndex

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

#: An attribute order.
Order = tuple[str, ...]

#: The backend label of a plan whose algorithm builds no per-order
#: indexes (and of the query layer's executor-free guard plans).
NO_BACKEND = "none"


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


class Algorithm(NamedTuple):
    """What the engine knows about one join algorithm; every fact
    defaults to the blocking specialist's answer."""

    #: The executor class.  It is called with the query, plus
    #: ``attribute_order``, ``database``, ``backend``, ``filters`` and
    #: ``telemetry`` for a descent, ``cover`` when the plan solves the
    #: cover LP, and ``database`` when it reads indexes.
    build: type
    #: Honours a caller's attribute order (the rest derive their own).
    ordered: bool = False
    #: The index kinds it runs on, its native kind first; empty when it
    #: builds no per-order indexes.
    backends: tuple[str, ...] = ()
    #: Searches one :class:`~repro.core.descent.Binding` attribute by
    #: attribute: see :data:`DESCENT_ALGORITHMS`.
    descent: bool = False
    #: Its plan solves the cover LP up front (the executor would solve
    #: the same LP anyway); every other plan defers the AGM bound until
    #: someone reads it.
    solves_cover: bool = False
    #: ``(query, plan order) -> order`` its indexes are sorted by —
    #: each relation's attributes ranked by it
    #: (:func:`~repro.core.descent.index_triples`) — or ``None`` when it
    #: reads no indexes.
    index_order: Callable[[JoinQuery, Order], Order] | None = None


def _plan_order(query: JoinQuery, order: Order) -> Order:
    return order


def _qp_tree_order(query: JoinQuery, order: Order) -> Order:
    # Section 5.3.2: every trie follows the QP-tree's total order.
    return QPTree(query.hypergraph).total_order


#: Algorithm name -> :class:`Algorithm`.  The single source of truth for
#: selectable algorithms: ``repro.api.ALGORITHMS`` and the CLI both
#: derive their choices from these keys (plus the planner's ``"auto"``).
#: NPRR's per-tuple case analysis needs the trie's O(1) precomputed
#: counts; a leapfrog intersection needs the ``open/up/next/seek``
#: cursors of :data:`~repro.core.leapfrog.CURSOR_BACKENDS`.
EXECUTORS = {
    "nprr": Algorithm(
        NPRRJoin,
        backends=(TrieIndex.kind,),
        solves_cover=True,
        index_order=_qp_tree_order,
    ),
    "lw": Algorithm(LWJoin),
    "generic": Algorithm(
        GenericJoin,
        ordered=True,
        backends=(TrieIndex.kind, *CURSOR_BACKENDS),
        descent=True,
        index_order=_plan_order,
    ),
    "leapfrog": Algorithm(
        LeapfrogTriejoin,
        ordered=True,
        backends=CURSOR_BACKENDS,
        descent=True,
        index_order=_plan_order,
    ),
    "arity2": Algorithm(ArityTwoJoin, solves_cover=True),
}

#: Algorithms that search one :class:`~repro.core.descent.Binding`
#: attribute by attribute — Generic Join's loop nest, and Leapfrog
#: Triejoin's own recursion, which folds through that nest.
#: One fact, three consequences: their executors evaluate residual
#: filters *at the level binding the attribute* (pruning subtrees;
#: everything else is wrapped in :class:`RowFilterExecutor`), accept a
#: per-level :class:`~repro.observe.telemetry.TelemetryProbe` (the
#: blocking specialists have no global per-attribute levels to count),
#: and expose
#: ``fold(folder)`` — aggregation pushed into the level loops with
#: factorized subtree pruning (see :mod:`repro.aggregate.fold`;
#: aggregates over the rest fold the executor's row stream instead).
DESCENT_ALGORITHMS = frozenset(
    name for name, algorithm in EXECUTORS.items() if algorithm.descent
)


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
    backend: str | Mapping[str, str] | None = None,
    database: Database | None = None,
    filters: Filters | None = None,
    telemetry=None,
):
    """Instantiate the executor for a *resolved* algorithm name.

    ``algorithm`` must be a concrete name (``"auto"`` is resolved by the
    planner, not here).  Raises :class:`~repro.errors.QueryError` for an
    unknown name before touching any relation data.  ``backend``
    defaults to the algorithm's native kind.  ``filters`` attach the
    query layer's residual predicates — natively for the algorithms in
    :data:`DESCENT_ALGORITHMS`, via :class:`RowFilterExecutor` otherwise.
    ``telemetry`` attaches a per-level probe to the algorithms in
    :data:`DESCENT_ALGORITHMS` and is ignored for the rest.
    """
    try:
        spec = EXECUTORS[algorithm]
    except KeyError:
        raise QueryError(
            f"unknown algorithm {algorithm!r}; "
            f"choose one of {algorithm_names()}"
        ) from None
    if spec.descent:
        return spec.build(
            query,
            attribute_order=attribute_order,
            database=database,
            backend=backend or spec.backends[0],
            filters=filters,
            telemetry=telemetry,
        )
    options = {"cover": cover} if spec.solves_cover else {}
    if spec.index_order is not None:
        options["database"] = database
    executor = spec.build(query, **options)
    return RowFilterExecutor(executor, query, filters) if filters else executor
