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

The pre-``execute`` entry points (:func:`join`, :func:`join_batched`,
:func:`shard_join`, :func:`aiter_join`) remain as signature-frozen
shims — each is one ``execute`` call — and emit
:class:`DeprecationWarning`; :func:`iter_join` stays first-class (it
*is* the streaming seam the paper's algorithms share), as do
:func:`count_join`, :func:`sample_join`, :func:`explain`, and
:func:`output_bound`.

Every entry point validates its arguments when *called* — an
incompatible algorithm/backend/order combination raises
:class:`~repro.errors.PlanError` before any iterator is returned, never
at first ``next()``.
"""

from __future__ import annotations

import warnings
from collections.abc import AsyncIterator, Iterator, Sequence

from repro.core.query import JoinQuery
from repro.engine import parallel as _parallel
from repro.engine.executors import algorithm_names
from repro.engine.planner import JoinPlan
from repro.errors import QueryError
from repro.feedback.config import FeedbackConfig
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


def _deprecated(name: str, hint: str) -> None:
    warnings.warn(
        f"repro.{name}() is deprecated; use {hint}",
        DeprecationWarning,
        stacklevel=3,
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
        ShardSpec`), scheduler, feedback, tracer, metrics.
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


def join(
    relations: Sequence[Relation] | JoinQuery,
    algorithm: str = "auto",
    cover: FractionalCover | None = None,
    name: str = "J",
    attribute_order: Sequence[str] | None = None,
    backend: str | None = None,
    database: Database | None = None,
    feedback: FeedbackConfig | None = None,
) -> Relation:
    """Compute the natural join of ``relations``, worst-case optimally.

    .. deprecated:: this release
        Use ``execute(relations, ...).relation(name)`` — same plan,
        same result, options declared once on the context.

    Parameters
    ----------
    relations:
        The relations to join (or an existing :class:`JoinQuery`).
    algorithm:
        * ``"nprr"`` — Algorithm 2 (works for every query);
        * ``"lw"`` — Algorithm 1 (Loomis-Whitney instances only);
        * ``"generic"`` / ``"leapfrog"`` — the extension WCOJ algorithms;
        * ``"arity2"`` — Theorem 7.3's algorithm (arity <= 2 only);
        * ``"auto"`` — Algorithm 1 on Loomis-Whitney instances, Generic
          Join with a cost-based attribute order otherwise.
    cover:
        Optional fractional edge cover (defaults to the LP optimum).  Only
        consulted by the cover-driven algorithms (``nprr``, ``arity2``).
    attribute_order:
        Optional global variable order for the order-sensitive algorithms;
        by default the planner chooses one from data statistics.
    backend:
        Optional index backend kind (``"trie"`` or ``"sorted"``).
    database:
        Optional catalog whose index cache should be used (Remark 5.2's
        ahead-of-time indexing) — repeated queries then skip index builds.
    feedback:
        Optional :class:`~repro.feedback.config.FeedbackConfig` enabling
        the runtime feedback loop: this run records per-level execution
        telemetry, and repeated runs of the same query re-plan from the
        observed statistics instead of the sampled estimates.
    """
    _deprecated("join", "execute(relations, ...).relation(name)")
    return execute(
        relations,
        algorithm=algorithm,
        cover=cover,
        attribute_order=attribute_order,
        backend=backend,
        database=database,
        feedback=feedback,
    ).relation(name)


def iter_join(
    relations: Sequence[Relation] | JoinQuery,
    algorithm: str = "auto",
    cover: FractionalCover | None = None,
    attribute_order: Sequence[str] | None = None,
    backend: str | None = None,
    database: Database | None = None,
    feedback: FeedbackConfig | None = None,
) -> Iterator[Row]:
    """Stream the natural join of ``relations`` row by row.

    Yields tuples aligned with the query's attribute order (the schema
    ``execute(...).relation()`` would carry) as soon as each is found.
    The attribute-at-a-time executors (``nprr``, ``generic``,
    ``leapfrog``) never materialize the output, so the first rows
    arrive while the search is still running and consumers may stop
    early; the blocking specialists (``lw``, ``arity2``) compute
    internally and then stream.  With ``feedback`` set, a fully
    consumed stream records its telemetry and later runs re-plan from
    it (abandoning the stream early records nothing).
    """
    return iter(
        execute(
            relations,
            algorithm=algorithm,
            cover=cover,
            attribute_order=attribute_order,
            backend=backend,
            database=database,
            feedback=feedback,
        )
    )


def join_batched(
    relations: Sequence[Relation] | JoinQuery,
    batch_size: int | str = _parallel.DEFAULT_BATCH_SIZE,
    algorithm: str = "auto",
    cover: FractionalCover | None = None,
    attribute_order: Sequence[str] | None = None,
    backend: str | None = None,
    database: Database | None = None,
    feedback: FeedbackConfig | None = None,
) -> Iterator[list[Row]]:
    """Stream the natural join in fixed-size row batches.

    .. deprecated:: this release
        Use ``execute(relations, ...).batches(size)``.

    Exactly :func:`iter_join`, delivered as lists of ``batch_size`` rows
    (the last batch may be shorter; no empty batch is yielded), so
    per-row overhead — function calls, syscalls, network frames — is
    paid once per batch.  ``batch_size`` may be ``"auto"`` to let the
    planner size batches from the AGM output estimate.

    >>> import warnings
    >>> from repro import Relation
    >>> r = Relation("R", ("A", "B"), [(i, i + 1) for i in range(5)])
    >>> s = Relation("S", ("B", "C"), [(i + 1, i) for i in range(5)])
    >>> with warnings.catch_warnings():
    ...     warnings.simplefilter("ignore", DeprecationWarning)
    ...     [len(batch) for batch in join_batched([r, s], batch_size=2)]
    [2, 2, 1]
    """
    _deprecated("join_batched", "execute(relations, ...).batches(size)")
    return execute(
        relations,
        algorithm=algorithm,
        cover=cover,
        attribute_order=attribute_order,
        backend=backend,
        batch_size=batch_size,
        database=database,
        feedback=feedback,
    ).batches()


def shard_join(
    relations: Sequence[Relation] | JoinQuery,
    shards: int | str | None = None,
    algorithm: str = "auto",
    cover: FractionalCover | None = None,
    attribute_order: Sequence[str] | None = None,
    backend: str | None = None,
    mode: str = "auto",
    workers: int | None = None,
    database: Database | None = None,
    feedback: FeedbackConfig | None = None,
) -> Iterator[Row]:
    """Stream the natural join, sharded on the planner's first attribute.

    .. deprecated:: this release
        Use ``execute(relations, shards=ShardSpec(n))`` (or a context
        carrying the spec — and, for a remote fleet, a
        ``DispatchScheduler``) and iterate the stream.

    The first attribute's candidate values are partitioned into
    ``shards`` work-balanced groups and the whole engine runs once per
    shard — on a process pool by default (``mode="auto"`` falls back to
    threads for unpicklable values; ``"serial"`` chains the shards
    in-process).  The yielded row *set* equals serial :func:`iter_join`;
    arrival order depends on shard completion.  ``shards`` may be an
    int, ``"auto"`` (sized from heavy-hitter mass and CPU count, so hot
    values land in their own shard), or ``None`` (same as ``"auto"``).
    ``database`` lets the parent plan reuse the catalog's cached
    statistics.  With ``feedback`` set, every shard's wall time is
    recorded and shards that ran hot are re-partitioned on the next
    attribute on the following run (the online "Skew Strikes Back"
    split).  See :mod:`repro.engine.parallel`.
    """
    _deprecated(
        "shard_join",
        "execute(relations, shards=ShardSpec(n)) and iterate the stream",
    )
    return iter(
        execute(
            relations,
            algorithm=algorithm,
            cover=cover,
            attribute_order=attribute_order,
            backend=backend,
            shards=shards if shards is not None else "auto",
            mode=mode,
            workers=workers,
            database=database,
            feedback=feedback,
        )
    )


def aiter_join(
    relations: Sequence[Relation] | JoinQuery,
    algorithm: str = "auto",
    cover: FractionalCover | None = None,
    attribute_order: Sequence[str] | None = None,
    backend: str | None = None,
    shards: int | str | None = None,
    batch_size: int = _parallel.DEFAULT_BATCH_SIZE,
    database: Database | None = None,
    feedback: FeedbackConfig | None = None,
) -> AsyncIterator[Row]:
    """Async variant of :func:`iter_join` for event-loop servers.

    .. deprecated:: this release
        Use ``execute(relations, ...).astream(batch_size)``.

    Returns an async iterator: the blocking join generator runs on
    worker threads (``asyncio.to_thread``) and rows reach the loop
    ``batch_size`` at a time, so the loop never blocks on the search for
    more than one batch.  With ``shards`` set, execution is sharded as
    in :func:`shard_join`.  ``database`` reuses the catalog's cached
    indexes and statistics across requests.  Planning and validation
    happen in this synchronous call, not at first ``anext()``::

        async for row in aiter_join([r, s, t]):
            await websocket.send(render(row))
    """
    _deprecated("aiter_join", "execute(relations, ...).astream(batch_size)")
    return execute(
        relations,
        algorithm=algorithm,
        cover=cover,
        attribute_order=attribute_order,
        backend=backend,
        shards=shards,
        database=database,
        feedback=feedback,
    ).astream(batch_size=batch_size)


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
    feedback: FeedbackConfig | None = None,
) -> int:
    """Count the join's rows *without enumerating them* when possible.

    Exactly ``sum(1 for _ in iter_join(...))``, but for the level-loop
    algorithms (``generic``, ``leapfrog``) the count is folded into the
    search itself: once the remaining levels factor into independent
    per-relation completions, the whole subtree contributes the product
    of its completion counts in O(1) instead of being walked (see
    :mod:`repro.aggregate.fold`).  With ``shards`` set, shard workers
    compute partial counts and only the integers travel back.  With
    ``feedback`` set, counting runs over the recorded row stream so the
    feedback store keeps learning from aggregate-only workloads.

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
        feedback=feedback,
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

    Rows are drawn by AGM-weighted rejection descent
    (:mod:`repro.aggregate.sampling`): each trial walks one root-to-leaf
    path of the same search tree the enumeration algorithms explore,
    accepting full rows with probability exactly ``1/AGM`` each — so
    accepted rows are uniform over the join, at an expected cost of
    ``AGM/|J|`` descents per row.  Deterministic for a fixed ``seed``.
    ``algorithm`` only participates in validation — the sampler owns its
    descent — and ``backend`` picks the index layout it walks.

    >>> from repro import Relation
    >>> r = Relation("R", ("A", "B"), [(i, i) for i in range(100)])
    >>> s = Relation("S", ("B", "C"), [(i, i) for i in range(100)])
    >>> sample_join([r, s], 3, seed=11)
    [(15, 15, 15), (57, 57, 57), (31, 31, 31)]
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
    feedback: FeedbackConfig | None = None,
) -> JoinPlan:
    """Plan the join without running it.

    Returns the engine's :class:`~repro.engine.planner.JoinPlan` — chosen
    algorithm, attribute order, index backend, and the AGM output bound —
    for inspection (``plan.describe()``, and
    ``plan.describe(show_stats=True)`` for the statistics that justified
    each decision) or later execution (``plan.execute()`` /
    ``plan.iter_rows()``).  ``database`` supplies the statistics cache;
    ``stats`` pins a :class:`~repro.stats.provider.StatsProvider` (e.g.
    sampling disabled, or a fixed seed).
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
