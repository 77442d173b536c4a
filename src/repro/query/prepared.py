"""Prepared queries: plan once, index once, run many times.

The ROADMAP's "cross-query warmup hints" item, realized at the query
level: :meth:`QueryBuilder.prepare` (or ``Database.prepare``) freezes a
builder into a :class:`PreparedQuery` whose

* **plan** is computed exactly once (algorithm, attribute order,
  backend, pushed bindings — everything ``explain`` shows), and
* **indexes** are built exactly once, at prepare time — through the
  context database's bounded GreedyDual cache when the relations are
  catalogued (so other queries share them), privately otherwise.

Each ``run()`` / ``stream()`` then re-drives the same executor: zero
planning, zero index builds — on a warm catalog, ``Database.
cache_info()`` shows no new misses across any number of runs.

This class is also the *only* code that runs a query: the builder's own
``stream()`` / ``batches()`` / ``count()`` / ``sample()`` and
``explain(analyze=True)`` are one-shot prepared runs (Remark 5.2's
split — choose the order and build the indexes ahead of time, then
join — taken literally), so every surface measures, batches, folds and
samples by the same rules.

:meth:`PreparedQuery.bind` rebinds the equality parameters (``where``
values) *without re-planning*: the residual query has the same shape for
any parameter values, so the frozen algorithm / order / backend carry
over and only the sections (and their private indexes) are rebuilt —
the classical prepared-statement contract.

Sharded execution (a context with ``shards`` set) reuses the same
frozen plan and the same executor: each run hands both to the sharded
driver (:func:`repro.engine.parallel.shard_join` / ``shard_fold``),
which partitions the first attribute's values by the plan's shard count
and runs every shard as a key over the one executor's indexes — so a
held prepared query's sharded runs do zero planning and zero index
builds, exactly as its serial runs do.
"""

from __future__ import annotations

import json
import random
from collections.abc import AsyncIterator, Generator, Iterator
from contextlib import nullcontext as _nullcontext
from contextlib import suppress as _suppress
from dataclasses import replace as _dc_replace

from repro.aggregate.fold import Folder, fold_rows
from repro.aggregate.sampling import JoinSampler, reservoir_sample
from repro.aggregate.specs import Avg, Count, CountDistinct, Max, Min, Sum
from repro.core.descent import iter_texts
from repro.engine import parallel as _parallel
from repro.engine.executors import DESCENT_ALGORITHMS
from repro.engine.planner import JoinPlan
from repro.errors import QueryError
from repro.observe.telemetry import TelemetryProbe
from repro.query.builder import GroupedQuery, QueryBuilder
from repro.relations.relation import Relation, Row, Value

__all__ = ["PreparedQuery"]


class PreparedQuery:
    """A frozen, pre-indexed query ready for repeated execution.

    Build via :meth:`QueryBuilder.prepare` or ``Database.prepare`` —
    the constructor is internal.  Instances are immutable; :meth:`bind`
    derives a new prepared query sharing the frozen plan decisions.
    """

    __slots__ = (
        "_builder",
        "_compiled",
        "_plan",
        "_executor",
        "_probe",
        "_memos",
        "_sampler",
    )

    def __init__(
        self, builder: QueryBuilder, _reuse_plan: JoinPlan | None = None
    ) -> None:
        self._freeze(builder, _reuse_plan, analyze=False)

    @classmethod
    def _one_shot(
        cls, builder: QueryBuilder, analyze: bool = False
    ) -> "PreparedQuery":
        """The prepared query behind one builder view or one ``EXPLAIN
        ANALYZE`` (``analyze`` puts the per-level probe on)."""
        self = cls.__new__(cls)
        self._freeze(builder, None, analyze=analyze)
        return self

    def _freeze(
        self,
        builder: QueryBuilder,
        reuse_plan: JoinPlan | None,
        analyze: bool,
    ) -> None:
        """Plan → probe → executor, under the context tracer (so the
        ``plan`` / ``stats-profile`` / ``index-build`` spans exist).
        A sharded run walks the one executor once per shard,
        concurrently in some modes, so it gets no per-level probe: its
        measurements are the per-shard ones."""
        compiled = builder._compile()
        context = builder.context
        tracer = context.tracer
        with tracer.activate() if tracer else _nullcontext():
            if reuse_plan is None:
                plan = builder.plan()
            elif compiled.residual is None:
                plan = builder._guard_plan(compiled)
            elif reuse_plan.algorithm == "none":
                # The original prepare was degenerate (a guard proved it
                # empty before planning), so there is no real plan to
                # reuse; the rebound values resurrected a residual query
                # — plan it now.
                plan = builder.plan()
            else:
                # Rebinding: same residual shape, new parameter values —
                # the frozen algorithm / order / backend stay valid, only
                # the data (and the lazily cached AGM bound) changed.
                plan = _dc_replace(
                    reuse_plan,
                    query=compiled.residual,
                    bound=compiled.bound,
                    _bound=None,
                )
            executor = probe = None
            if compiled.satisfiable and compiled.residual is not None:
                if (
                    analyze
                    and not context.parallel
                    and plan.algorithm in DESCENT_ALGORITHMS
                ):
                    probe = TelemetryProbe(plan.attribute_order)
                executor = plan.executor(
                    database=builder._execution_database(),
                    filters=compiled.filters,
                    telemetry=probe,
                )
        for name, value in (
            ("_builder", builder),
            ("_compiled", compiled),
            ("_plan", plan),
            ("_executor", executor),
            ("_probe", probe),
            ("_memos", None),
            ("_sampler", None),
        ):
            object.__setattr__(self, name, value)

    def __setattr__(self, key: str, value: object) -> None:
        raise AttributeError("PreparedQuery instances are immutable")

    # -- inspection ---------------------------------------------------------

    @property
    def plan(self) -> JoinPlan:
        """The frozen :class:`~repro.engine.planner.JoinPlan`."""
        return self._plan

    @property
    def query(self) -> QueryBuilder:
        """The builder this prepared query froze."""
        return self._builder

    @property
    def output_attributes(self) -> tuple[str, ...]:
        """The schema of the rows :meth:`stream` yields."""
        return self._builder.output_attributes

    def describe(self) -> str:
        """The frozen plan's ``explain`` rendering."""
        return self._plan.describe()

    # -- execution ----------------------------------------------------------

    def stream(self) -> Iterator[Row]:
        """Stream result rows from the pre-built executor.

        No planning and no index builds happen here — every run walks
        the indexes frozen at prepare time.  (With a parallel context,
        each run goes to the sharded driver, which runs one key per
        shard over the same executor; see the module docstring.)  Unless
        the run is measured (a probe, metrics, a tracer) the stream is
        the executor's own generator.
        """
        compiled = self._compiled
        builder = self._builder
        if not compiled.satisfiable:
            return iter(())
        if compiled.residual is None:
            constants = dict(compiled.bound)
            return builder._project(
                iter(
                    (tuple(constants[a] for a in compiled.output_attributes),)
                )
            )
        context = builder.context
        sharded = context.parallel
        if sharded:
            rows: Iterator[Row] = _parallel.shard_join(
                self._plan, self._executor, context, compiled.filters
            )
        else:
            rows = self._executor.iter_join()
        if compiled.merge is not None:
            rows = map(compiled.merge, rows)
        # The sharded driver opens its own execute span (the per-shard
        # spans nest under it) and feeds the metrics registry itself.
        if not sharded and (
            self._probe is not None
            or context.metrics is not None
            or context.tracer is not None
        ):
            rows = self._measured(rows, self._plan, self._probe)
        return builder._project(rows)

    def _texts(self) -> Iterator[str] | None:
        """:meth:`stream`'s rows as JSON array texts, written by Generic
        Join's loop nest with memos this query holds — or None where the
        stream is more than that nest (another algorithm, too), or a
        relation holds a value memoised inexactly (anything but an
        ``int`` or a ``str``: ``1 == 1.0 == True``)."""
        compiled, builder = self._compiled, self._builder
        context = builder.context
        full, selected = builder.query.attributes, builder.selected
        if (
            self._executor is None
            or self._plan.algorithm != "generic"
            or compiled.merge is not None
            or context.parallel
            or self._probe is not None
            or context.metrics is not None
            or context.tracer is not None
            or (selected is not None and set(selected) != set(full))
            or not all(
                relation._value_types() <= {int, str}
                for relation in compiled.residual.relations.values()
            )
        ):
            return None
        binding = self._executor._binding
        perm = binding.output_perm
        if selected is not None:
            perm = tuple(perm[full.index(a)] for a in selected)
        if self._memos is None:
            object.__setattr__(self, "_memos", _json_memos(len(perm)))
        return iter_texts(binding, perm, self._memos)

    def _measured(
        self, rows: Iterator[Row], plan: JoinPlan, probe
    ) -> Iterator[Row]:
        """Stream one serial run inside its ``execute`` span, then feed
        the run's measurements to the metrics registry.

        Metrics are recorded only when the stream is exhausted
        *naturally* — a consumer that stops early closed the generator,
        and its undercounted run must not inflate the registry.  The
        registry gets the probe's snapshot when one exists, the bare row
        count otherwise, and the database's cache counters.  The probe
        is shared across runs (reset here), so concurrent streams of one
        prepared query must not overlap when it is on.
        """
        context = self._builder.context
        tracer, metrics = context.tracer, context.metrics
        if probe is not None:
            probe.reset()
        with (
            tracer.span("execute", algorithm=plan.algorithm)
            if tracer
            else _nullcontext()
        ) as span:
            count = 0
            for row in rows:
                count += 1
                yield row
            if span is not None:
                span.meta["rows"] = count
            if metrics is not None:
                if probe is not None:
                    metrics.record_run(probe.snapshot(count))
                else:
                    metrics.record_rows(count)
                if context.database is not None:
                    metrics.record_cache(context.database.cache_info())

    def run(self, name: str = "J") -> Relation:
        """Execute and materialize the result as a :class:`Relation`."""
        return Relation(name, self.output_attributes, self.stream())

    # -- aggregation & sampling ----------------------------------------------

    def _aggregate(self, spec, mode: str):
        """Run one aggregate spec over the result — no re-planning —
        under a ``fold`` span when traced (a streamed fallback's
        ``execute`` span nests inside it).

        Dispatch, in order of preference:

        1. **Folded** into the level loops of the frozen executor when
           the plan runs on the descent kernel
           (:data:`~repro.engine.executors.DESCENT_ALGORITHMS`) — no rows are
           materialized and prunable subtrees contribute factorized
           counts in O(1).  Requires: no projection and no aggregate
           input read from a bound (constant) attribute.
        2. **Sharded**: per-shard partial states computed by the
           parallel driver's workers and merged by the spec's picklable
           combiner (``context.shards`` set, same conditions otherwise).
        3. **Streamed**: fold the ordinary (projected, merged, possibly
           measured) row stream — the universal fallback, exact for
           every algorithm and option combination.
        """
        missing = [a for a in spec.needs if a not in self.output_attributes]
        if missing:
            raise QueryError(
                f"aggregate reads attributes {missing!r} that are not in "
                f"the output schema {self.output_attributes!r}"
            )
        compiled = self._compiled
        builder = self._builder
        context = builder.context
        tracer = context.tracer
        with tracer.span("fold", aggregate=mode) if tracer else _nullcontext():
            if not compiled.satisfiable:
                return spec.finish(spec.start())
            foldable = (
                compiled.residual is not None
                and builder.selected is None
                and set(spec.needs) <= set(compiled.residual.attributes)
            )
            if foldable and context.parallel:
                state = _parallel.shard_fold(
                    self._plan, self._executor, spec, context, compiled.filters
                )
            elif foldable and self._plan.algorithm in DESCENT_ALGORITHMS:
                folder = Folder(spec, self._plan.attribute_order)
                self._executor.fold(folder)
                state = folder.state
            else:
                # Blocking specialists have no level loops to fold into;
                # stream their rows (still nothing is materialized at
                # once) — a run the stream records itself.
                return fold_rows(self.stream(), spec, self.output_attributes)
            # A folded run emits no rows, but it is a run: count it and
            # mirror the cache counters, as a measured stream would.
            if context.metrics is not None:
                context.metrics.record_rows(0)
                if context.database is not None:
                    context.metrics.record_cache(context.database.cache_info())
            return spec.finish(state)

    def count(self) -> int:
        """Number of result rows, folded into the frozen executor's
        level loops when the plan allows (no enumeration; see
        :meth:`QueryBuilder.count`), streamed otherwise."""
        return self._aggregate(Count(), "count")

    def sum(self, attribute: str):
        """Sum of ``attribute`` over the result rows (0 when empty)."""
        return self._aggregate(Sum(attribute), "sum")

    def min(self, attribute: str):
        """Minimum of ``attribute`` over the result (None when empty)."""
        return self._aggregate(Min(attribute), "min")

    def max(self, attribute: str):
        """Maximum of ``attribute`` over the result (None when empty)."""
        return self._aggregate(Max(attribute), "max")

    def avg(self, attribute: str):
        """Mean of ``attribute`` over the result (None when empty)."""
        return self._aggregate(Avg(attribute), "avg")

    def count_distinct(self, attribute: str) -> int:
        """Number of distinct ``attribute`` values in the result (0 when
        empty), same no-re-planning contract as :meth:`count`."""
        return self._aggregate(CountDistinct(attribute), "count_distinct")

    def group_by(self, *attributes: str) -> GroupedQuery:
        """Group the prepared result by ``attributes``; terminal methods
        on the returned :class:`~repro.query.builder.GroupedQuery` run
        against this prepared query (same no-re-planning contract as
        :meth:`count`)."""
        self._builder.group_by(*attributes)  # reuse the builder's checks
        return GroupedQuery(self, tuple(attributes))

    def sample(self, k: int, seed: int | None = None) -> list[Row]:
        """``min(k, count)`` distinct uniform result rows, an exact draw
        (see :meth:`QueryBuilder.sample`, also for what a fixed ``seed``
        repeats) over the frozen plan: a
        descent plan's sampler walks the executor's own binding — the
        plan's order, indexes and filters — so it builds nothing.  A
        pinned ``lw`` / ``nprr`` / ``arity2`` plan has no binding; its
        sampler binds the residual query in the query's order."""
        if not isinstance(k, int) or isinstance(k, bool) or k < 0:
            raise QueryError(
                f"sample size must be a non-negative int, got {k!r}"
            )
        compiled, builder = self._compiled, self._builder
        if k == 0 or not compiled.satisfiable:
            return []
        if compiled.residual is None or builder.selected is not None:
            return reservoir_sample(self.stream(), k, seed)
        context = builder.context
        tracer = context.tracer
        with (
            tracer.span("sample", k=k) if tracer else _nullcontext()
        ), (tracer.activate() if tracer else _nullcontext()):
            rows = self._join_sampler().sample(k, random.Random(seed))
        if compiled.merge is not None:
            rows = [compiled.merge(row) for row in rows]
        return rows

    def _join_sampler(self) -> JoinSampler:
        """The sampler every :meth:`sample` draws through, made on the
        first: it keeps its prefix-count table, and the indexes it
        counted over are frozen, so the table never goes stale."""
        if self._sampler is None:
            if self._plan.algorithm in DESCENT_ALGORITHMS:
                sampler = JoinSampler.over(self._executor._binding)
            else:
                sampler = JoinSampler(
                    self._compiled.residual,
                    database=self._builder._execution_database(),
                    filters=self._compiled.filters,
                )
            object.__setattr__(self, "_sampler", sampler)
        return self._sampler

    def batches(self, size: int | None = None) -> Iterator[list[Row]]:
        """Stream the result in row batches of ``size`` (default
        :data:`~repro.engine.parallel.DEFAULT_BATCH_SIZE`)."""
        if size is None:
            size = _parallel.DEFAULT_BATCH_SIZE
        return _parallel.batches(self.stream(), size)

    def astream(self, batch_size: int | None = None):
        """Async iteration for event-loop servers (``async for row in
        q.astream()``): the blocking ``next()`` runs on worker threads
        (:func:`_pump`) and rows reach the loop ``batch_size`` at a time
        (default :data:`~repro.engine.parallel.DEFAULT_BATCH_SIZE`).
        Planning and validation happen in this synchronous call."""
        batched = self.batches(batch_size)

        async def rows():
            async for batch in _pump(batched):
                for row in batch:
                    yield row

        return rows()

    # -- rebinding ----------------------------------------------------------

    def bind(self, **values: Value) -> "PreparedQuery":
        """A new prepared query with equality parameters rebound.

        Every keyword must name an attribute the original ``where``
        clauses bound — the residual query then has the *same shape*
        (same attributes, same relations), so the frozen plan is reused
        verbatim and only the relation sections (plus their private
        indexes) are rebuilt.  No statistics are rescanned and no order
        descent runs.
        """
        current = dict(self._builder.bindings)
        for attribute, value in values.items():
            if attribute not in current:
                raise QueryError(
                    f"bind() can only rebind prepared parameters; "
                    f"{attribute!r} is not among the bound attributes "
                    f"{tuple(current)!r}"
                )
            current[attribute] = value
        rebound = QueryBuilder(
            self._builder.query,
            context=self._builder.context,
            bindings=tuple(
                (a, current[a])
                for a in self._builder.query.attributes
                if a in current
            ),
            predicates=self._builder.predicates,
            selected=self._builder.selected,
        )
        return PreparedQuery(rebound, _reuse_plan=self._plan)

    def __repr__(self) -> str:
        return f"PreparedQuery({self._builder!r}, plan={self._plan.algorithm})"


class _JsonTexts(dict):
    """A text sink memo: a value's JSON text (what ``protocol.encode``
    writes) between ``opener`` and ``closer``, made on first sight."""

    __slots__ = ("opener", "closer")

    def __init__(self, opener: str, closer: str) -> None:
        self.opener, self.closer = opener, closer

    def __missing__(self, value: Value) -> str:
        text = str(value) if type(value) is int else json.dumps(value)
        text = self[value] = self.opener + text + self.closer
        return text


def _json_memos(arity: int) -> tuple:
    """The text sink's ``(head, mid, tail)``: ``[7,``, ``7,``, ``7]``."""
    tail = _JsonTexts("[" if arity == 1 else "", "]")
    return _JsonTexts("[", ","), _JsonTexts("", ","), tail


async def _pump(blocking: Generator) -> AsyncIterator:
    """Iterate a blocking generator from an event loop: the one
    loop↔worker hand-off, an ``asyncio.to_thread`` hop per item.

    Both async surfaces are this loop — :meth:`PreparedQuery.astream`
    over :meth:`PreparedQuery.batches`, the server over its encoded
    response lines — so everything ``next(blocking)`` does (descend,
    batch, encode) runs on the worker and the loop only passes items on.
    A hop starts when the consumer asks for the next item, never before:
    a consumer that waits between items (a socket that will not drain)
    holds the descent where it is.  Closing the pump closes
    ``blocking``, so an abandoned stream stops descending.
    """
    import asyncio

    done = object()
    try:
        while (
            item := await asyncio.to_thread(next, blocking, done)
        ) is not done:
            yield item
    finally:
        # A hop cancelled in flight still runs ``blocking`` on its
        # worker ("generator already executing"); that item is its last.
        with _suppress(ValueError):
            blocking.close()
