"""The front door: one ``execute()`` for every consumption style.

>>> from repro import Relation, execute
>>> r = Relation("R", ("A", "B"), [(1, 2), (2, 3)])
>>> s = Relation("S", ("B", "C"), [(2, 9), (3, 7)])
>>> t = Relation("T", ("A", "C"), [(1, 9), (2, 7)])
>>> sorted(execute([r, s, t]))
[(1, 2, 9), (2, 3, 7)]

:func:`execute` takes the *what* (relations, a
:class:`~repro.core.query.JoinQuery`, or a fluent
:func:`~repro.query.builder.Q` builder) and the *how* (an
:class:`~repro.query.context.ExecutionContext`, or keyword updates to
one) and returns a :class:`~repro.query.result.ResultStream` whose
views cover every consumption style: iterate it, materialize it
(``.relation()``), batch it (``.batches()``), drive it from an event
loop (``.astream()``), or fold it without enumeration (``.count()``,
``.fold(spec)``).  Execution options — algorithm, backend, sharding
(:class:`~repro.query.shards.ShardSpec`), a distributed
:class:`~repro.distributed.DispatchScheduler` — live on the context,
declared once instead of re-spelled per entry point::

    from repro import ExecutionContext, ShardSpec, execute

    ctx = ExecutionContext(shards=ShardSpec("auto", steal=True))
    for row in execute([r, s, t], context=ctx):
        ...

The keyword-style conveniences :func:`iter_join` (the streaming seam
the paper's algorithms share), :func:`count_join`, :func:`sample_join`,
:func:`explain` and :func:`output_bound` are each one ``execute`` call.
The 1.x entry points ``join``, ``join_batched``, ``shard_join`` and
``aiter_join`` are gone in 2.0: they were the ``.relation()``,
``.batches()``, iteration under ``shards=`` and ``.astream()`` views of
the stream ``execute`` returns (``docs/API.md``, "Migrating from 1.x").

Every entry point validates its arguments when *called* — an
incompatible algorithm/backend/order combination raises
:class:`~repro.errors.PlanError` before any iterator is returned, never
at first ``next()``.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

from repro.core.query import JoinQuery
from repro.engine.executors import algorithm_names
from repro.engine.planner import JoinPlan
from repro.errors import QueryError
from repro.hypergraph.agm import best_agm_bound
from repro.hypergraph.covers import FractionalCover
from repro.query.builder import Q, QueryBuilder
from repro.query.context import ExecutionContext
from repro.query.result import ResultStream
from repro.relations.database import Database
from repro.relations.relation import Relation, Row

#: Algorithms selectable by name in :func:`execute`.  Derived from the
#: engine's executor registry — the single source of truth shared with
#: the CLI's ``--algorithm`` choices.
ALGORITHMS = algorithm_names()


def _check_algorithm(algorithm: str) -> None:
    """Reject unknown algorithm names before any planning or index work."""
    if algorithm not in ALGORITHMS:
        raise QueryError(
            f"unknown algorithm {algorithm!r}; choose one of {ALGORITHMS}"
        )


def execute(
    query: Sequence[Relation] | JoinQuery | QueryBuilder,
    context: ExecutionContext | None = None,
    **options,
) -> ResultStream:
    """Execute a join query; return a multi-view
    :class:`~repro.query.result.ResultStream`.

    Parameters
    ----------
    query:
        The relations to join, an existing :class:`JoinQuery`, or a
        fluent builder (whose selections/projections are kept — only
        the execution options are overlaid).
    context:
        An :class:`~repro.query.context.ExecutionContext` carrying
        every execution option: algorithm, cover, attribute order,
        backend, database, sharding (:class:`~repro.query.shards.
        ShardSpec`), scheduler, tracer, metrics.
    **options:
        Alternatively, keyword updates applied to the query's current
        context (``execute(q, shards=ShardSpec(4), mode="thread")``).
        Mutually exclusive with ``context``.

    Nothing runs until a view of the returned stream is consumed; each
    view starts a fresh execution.  Algorithm validation happens now.

    >>> from repro import Relation
    >>> r = Relation("R", ("A", "B"), [(i, i + 1) for i in range(4)])
    >>> s = Relation("S", ("B", "C"), [(i + 1, i) for i in range(4)])
    >>> execute([r, s]).count()
    4
    """
    # Validate the algorithm name before touching the query at all, so
    # ``execute(bad_query, algorithm="bogus")`` reports the bad name.
    if context is not None:
        if options:
            raise QueryError(
                "pass either a context or keyword options, not both"
            )
        _check_algorithm(context.algorithm)
    elif "algorithm" in options:
        _check_algorithm(options["algorithm"])
    if isinstance(query, QueryBuilder):
        builder = query
    else:
        builder = Q(query)
    if context is not None:
        builder = builder.using(context)
    elif options:
        builder = builder.using(**options)
    _check_algorithm(builder.context.algorithm)
    return ResultStream(builder)


def iter_join(
    relations: Sequence[Relation] | JoinQuery,
    algorithm: str = "auto",
    cover: FractionalCover | None = None,
    attribute_order: Sequence[str] | None = None,
    backend: str | None = None,
    database: Database | None = None,
) -> Iterator[Row]:
    """Stream the natural join of ``relations`` row by row.

    Yields tuples aligned with the query's attribute order (the schema
    ``execute(...).relation()`` would carry) as soon as each is found.
    The attribute-at-a-time executors (``nprr``, ``generic``,
    ``leapfrog``) never materialize the output, so the first rows
    arrive while the search is still running and consumers may stop
    early; the blocking specialists (``lw``, ``arity2``) compute
    internally and then stream.
    """
    return iter(
        execute(
            relations,
            algorithm=algorithm,
            cover=cover,
            attribute_order=attribute_order,
            backend=backend,
            database=database,
        )
    )


def count_join(
    relations: Sequence[Relation] | JoinQuery,
    algorithm: str = "auto",
    cover: FractionalCover | None = None,
    attribute_order: Sequence[str] | None = None,
    backend: str | None = None,
    shards: int | str | None = None,
    mode: str = "auto",
    workers: int | None = None,
    database: Database | None = None,
) -> int:
    """Count the join's rows *without enumerating them* when possible.

    Exactly ``sum(1 for _ in iter_join(...))``, but for the level-loop
    algorithms (``generic``, ``leapfrog``) the count is folded into the
    search itself: once the remaining levels factor into independent
    per-relation completions, the whole subtree contributes the product
    of its completion counts in O(1) instead of being walked (see
    :mod:`repro.aggregate.fold`).  With ``shards`` set, shard workers
    compute partial counts and only the integers travel back.

    >>> from repro import Relation
    >>> r = Relation("R", ("A", "B"), [(i, j) for i in range(4) for j in range(4)])
    >>> s = Relation("S", ("B", "C"), [(i, j) for i in range(4) for j in range(4)])
    >>> count_join([r, s])
    64
    """
    return execute(
        relations,
        algorithm=algorithm,
        cover=cover,
        attribute_order=attribute_order,
        backend=backend,
        shards=shards,
        mode=mode,
        workers=workers,
        database=database,
    ).count()


def sample_join(
    relations: Sequence[Relation] | JoinQuery,
    k: int,
    seed: int | None = None,
    algorithm: str = "auto",
    cover: FractionalCover | None = None,
    attribute_order: Sequence[str] | None = None,
    backend: str | None = None,
    database: Database | None = None,
) -> list[Row]:
    """Draw ``min(k, |J|)`` distinct uniform join rows, never
    materializing the join.

    Rows are an exact draw (:mod:`repro.aggregate.sampling`): one
    memoised count of the search tree the enumeration algorithms
    explore numbers the join's rows, ``k`` distinct ranks are drawn, and
    each is unranked along one root-to-leaf path — uniform over the
    join, with no rejection.  Deterministic for a fixed ``seed``.
    ``algorithm`` only participates in validation — the sampler owns its
    descent — and ``backend`` picks the index layout it walks.

    >>> from repro import Relation
    >>> r = Relation("R", ("A", "B"), [(i, i) for i in range(100)])
    >>> s = Relation("S", ("B", "C"), [(i, i) for i in range(100)])
    >>> sample_join([r, s], 3, seed=11)
    [(16, 16, 16), (74, 74, 74), (24, 24, 24)]
    """
    return execute(
        relations,
        algorithm=algorithm,
        cover=cover,
        attribute_order=attribute_order,
        backend=backend,
        database=database,
    ).sample(k, seed)


def explain(
    relations: Sequence[Relation] | JoinQuery,
    algorithm: str = "auto",
    cover: FractionalCover | None = None,
    attribute_order: Sequence[str] | None = None,
    backend: str | None = None,
    database: Database | None = None,
    stats=None,
) -> JoinPlan:
    """Plan the join without running it.

    Returns the engine's :class:`~repro.engine.planner.JoinPlan` — chosen
    algorithm, attribute order, index backend, and the AGM output bound —
    for inspection (``plan.describe()``, and
    ``plan.describe(show_stats=True)`` for the statistics that justified
    each decision) or later execution (``plan.execute()`` /
    ``plan.iter_rows()``).  ``database`` supplies the statistics cache;
    ``stats`` pins a :class:`~repro.stats.provider.StatsProvider` (e.g.
    selectivities disabled).
    """
    return execute(
        relations,
        algorithm=algorithm,
        cover=cover,
        attribute_order=attribute_order,
        backend=backend,
        database=database,
        stats=stats,
    ).plan()


def output_bound(
    relations: Sequence[Relation] | JoinQuery,
) -> float:
    """The tightest AGM bound for the query given its relation sizes."""
    query = (
        relations
        if isinstance(relations, JoinQuery)
        else JoinQuery(list(relations))
    )
    _cover, bound = best_agm_bound(query.hypergraph, query.sizes())
    return bound
