"""ResultStream: every way to consume one executed query.

:func:`repro.execute` returns one of these instead of committing the
caller to a consumption style up front.  Earlier entry points each
hard-wired one view — ``join`` materialized, ``iter_join`` streamed,
``join_batched`` batched, ``aiter_join`` went async, ``count_join``
folded — and so each needed its own copy of the execution keywords
(gone in 2.0 and 7.0).  A :class:`ResultStream` is all of those views
over one underlying builder::

    stream = execute([r, s, t], shards=ShardSpec(4))
    for row in stream: ...                   # iterate
    stream.relation("J")                     # materialize
    [b for b in stream.batches(256)]         # batch
    async for row in stream.astream(): ...   # event loop
    stream.count()                           # fold, no enumeration

Nothing executes until a view is consumed; each view call starts a
*fresh* execution (the builder underneath is immutable and reusable),
so ``stream.count()`` after a full iteration runs the query again —
materialize with :meth:`rows` or :meth:`relation` when the result is
needed more than once.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.relations.relation import Relation, Row

__all__ = ["ResultStream"]


class ResultStream:
    """Lazy, multi-view handle on one query's result.

    Thin by design: every view delegates to the wrapped
    :class:`~repro.query.builder.QueryBuilder`, which owns compilation,
    planning, and execution — this class only names the consumption
    styles.  Immutable; safe to share.
    """

    __slots__ = ("_builder",)

    def __init__(self, builder) -> None:
        object.__setattr__(self, "_builder", builder)

    def __setattr__(self, key: str, value: object) -> None:
        raise AttributeError("ResultStream instances are immutable")

    @property
    def builder(self):
        """The underlying builder (for further fluent refinement)."""
        return self._builder

    @property
    def attributes(self) -> tuple[str, ...]:
        """The schema of the rows every view yields."""
        return self._builder.output_attributes

    # -- row views ----------------------------------------------------------

    def __iter__(self) -> Iterator[Row]:
        """Stream rows (plans now; validation errors raise here)."""
        return self._builder.stream()

    def rows(self) -> list[Row]:
        """Materialize the rows as a list."""
        return list(self._builder.stream())

    def relation(self, name: str = "J") -> Relation:
        """Materialize the result as a named :class:`Relation`."""
        return self._builder.run(name)

    def batches(self, size: int | None = None) -> Iterator[list[Row]]:
        """Stream row batches of ``size`` (default
        :data:`~repro.engine.parallel.DEFAULT_BATCH_SIZE`)."""
        return self._builder.batches(size)

    # -- async views --------------------------------------------------------

    def __aiter__(self):
        return self._builder.astream()

    def astream(self, batch_size: int | None = None):
        """Async row iterator for event-loop servers; the blocking
        stream runs on worker threads, rows arrive ``batch_size`` at a
        time (default :data:`~repro.engine.parallel.DEFAULT_BATCH_SIZE`)."""
        return self._builder.astream(batch_size)

    # -- aggregate views ----------------------------------------------------

    def fold(self, spec):
        """Fold an :class:`~repro.aggregate.specs.AggregateSpec` over
        the result without materializing it (pushed into the level
        loops, or per-shard partials under a sharded context)."""
        return self._builder._aggregate(spec, "fold")

    def count(self) -> int:
        """Row count without enumeration when the plan allows."""
        return self._builder.count()

    def sample(self, k: int, seed: int | None = None) -> list[Row]:
        """``min(k, count)`` distinct uniform rows: one count, then the
        drawn ranks unranked; a fixed ``seed`` repeats the draw as
        :meth:`QueryBuilder.sample` says."""
        return self._builder.sample(k, seed)

    # -- inspection ---------------------------------------------------------

    def plan(self):
        """The :class:`~repro.engine.planner.JoinPlan`, without running."""
        return self._builder.plan()

    def explain(self, analyze: bool = False):
        """The plan, or (``analyze=True``) a fully measured run."""
        return self._builder.explain(analyze)

    def __repr__(self) -> str:
        return f"ResultStream({self._builder!r})"
