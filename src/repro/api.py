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
one) and returns the :class:`~repro.query.builder.QueryBuilder` it
configured, whose views cover every consumption style: iterate it,
materialize it (``.relation()``), batch it (``.batches()``), drive it
from an event loop (``.astream()``, ``async for``), or fold it without
enumeration (``.count()``, ``.fold(spec)``).  Execution options —
algorithm, backend, sharding (:class:`~repro.query.shards.ShardSpec`),
a distributed :class:`~repro.distributed.DispatchScheduler` — live on
the context, declared once instead of re-spelled per entry point::

    from repro import ExecutionContext, ShardSpec, execute

    ctx = ExecutionContext(shards=ShardSpec("auto", predictive=True))
    for row in execute([r, s, t], context=ctx):
        ...

Every view of the builder runs through one
:class:`~repro.query.prepared.PreparedQuery`; :func:`output_bound`
computes a bound and runs nothing.  There is no other way to run a
query (``docs/API.md``, "Migrating from 6.x" and "Migrating from 7.x",
maps the removed wrappers onto these views).

Every view validates its arguments when *called* — an incompatible
algorithm/backend/order combination raises
:class:`~repro.errors.PlanError` before any iterator is returned, never
at first ``next()``.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.core.query import JoinQuery
from repro.engine.executors import algorithm_names
from repro.errors import QueryError
from repro.hypergraph.agm import best_agm_bound
from repro.query.builder import Q, QueryBuilder
from repro.query.context import ExecutionContext
from repro.relations.relation import Relation

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
) -> QueryBuilder:
    """Configure a join query for execution; return its
    :class:`~repro.query.builder.QueryBuilder`.

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

    Nothing runs until a view of the returned builder is consumed; each
    view starts a fresh execution.  Algorithm validation happens now.
    Without options a builder comes back as it went in, plan memo and
    all (:meth:`~repro.query.builder.QueryBuilder.plan`).

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
    builder = query if isinstance(query, QueryBuilder) else Q(query)
    if context is not None or options:
        builder = builder.using(context, **options)
    _check_algorithm(builder.context.algorithm)
    return builder


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
