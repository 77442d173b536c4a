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

:meth:`PreparedQuery.bind` rebinds the equality parameters (``where``
values) *without re-planning*: the residual query has the same shape for
any parameter values, so the frozen algorithm / order / backend carry
over and only the sections (and their private indexes) are rebuilt —
the classical prepared-statement contract.

Sharded execution (a context with ``shards`` set) cannot reuse one
in-process executor — shard workers build their own restricted indexes
— so a parallel prepared query delegates each run to the sharded
driver; the frozen *plan* is still reused for ``describe()`` and shard
sizing.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import replace as _dc_replace

from repro.aggregate.fold import Folder, fold_rows
from repro.aggregate.specs import Avg, Count, CountDistinct, Max, Min, Sum
from repro.engine import parallel as _parallel
from repro.engine.executors import DESCENT_ALGORITHMS
from repro.engine.planner import JoinPlan
from repro.errors import QueryError
from repro.feedback.telemetry import (
    TelemetryProbe,
    estimate_divergence,
    feedback_scope,
    level_estimates,
)
from repro.query.builder import GroupedQuery, QueryBuilder, drain_async
from repro.relations.relation import Relation, Row, Value
from repro.stats.provider import resolve_provider

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
        "_replans",
    )

    def __init__(
        self, builder: QueryBuilder, _reuse_plan: JoinPlan | None = None
    ) -> None:
        compiled = builder._compile()
        if _reuse_plan is None:
            plan = builder.plan()
        elif compiled.residual is None:
            plan = builder._guard_plan(compiled)
        elif _reuse_plan.algorithm == "none":
            # The original prepare was degenerate (a guard proved it
            # empty before planning), so there is no real plan to
            # reuse; the rebound values resurrected a residual query —
            # plan it now.
            plan = builder.plan()
        else:
            # Rebinding: same residual shape, new parameter values — the
            # frozen algorithm / order / backend stay valid, only the
            # data (and the lazily cached AGM bound) changed.
            plan = _dc_replace(
                _reuse_plan,
                query=compiled.residual,
                bound=compiled.bound,
                _bound=None,
            )
        executor = None
        probe = None
        if (
            compiled.satisfiable
            and compiled.residual is not None
            and not builder.context.parallel
        ):
            if (
                builder.context.feedback is not None
                and plan.algorithm in DESCENT_ALGORITHMS
            ):
                probe = TelemetryProbe(plan.attribute_order)
            executor = plan.executor(
                database=builder._execution_database(),
                filters=compiled.filters,
                telemetry=probe,
            )
        object.__setattr__(self, "_builder", builder)
        object.__setattr__(self, "_compiled", compiled)
        object.__setattr__(self, "_plan", plan)
        object.__setattr__(self, "_executor", executor)
        object.__setattr__(self, "_probe", probe)
        object.__setattr__(self, "_replans", 0)

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

    @property
    def replans(self) -> int:
        """How many times runtime feedback re-planned this query.

        Always 0 without a feedback context.  A re-plan happens after a
        completed run whose observed per-level cardinalities diverged
        from the frozen plan's estimates by more than the configured
        ``replan_tolerance`` *and* the observation-informed planner then
        chose a different plan; the refreshed plan (and its executor)
        replace the frozen ones for subsequent runs.
        """
        return self._replans

    def describe(self) -> str:
        """The frozen plan's ``explain`` rendering."""
        return self._plan.describe()

    # -- execution ----------------------------------------------------------

    def stream(self) -> Iterator[Row]:
        """Stream result rows from the pre-built executor.

        No planning and no index builds happen here — every run walks
        the indexes frozen at prepare time.  (With a parallel context,
        runs delegate to the sharded driver instead; see the module
        docstring.)
        """
        compiled = self._compiled
        if not compiled.satisfiable:
            return iter(())
        if compiled.residual is None:
            constants = dict(compiled.bound)
            rows: Iterator[Row] = iter(
                (tuple(constants[a] for a in compiled.output_attributes),)
            )
            return self._builder._project(rows)
        if self._executor is None:
            return self._builder.stream()  # parallel context: shard per run
        if self._probe is not None:
            rows = self._observed_rows()
        else:
            rows = self._executor.iter_join()
        if compiled.merge is not None:
            rows = map(compiled.merge, rows)
        return self._builder._project(rows)

    def _observed_rows(self) -> Iterator[Row]:
        """One measured run of the prepared executor.

        On natural exhaustion the telemetry is recorded into the
        context's statistics provider and checked against the frozen
        plan's estimates; past the tolerance, the query re-plans with
        the fresh observations (see :attr:`replans`).  The probe is
        shared across runs (reset here), so concurrent streams of one
        prepared query must not overlap under feedback.
        """
        from time import perf_counter

        probe = self._probe
        probe.reset()
        started = perf_counter()
        count = 0
        for row in self._executor.iter_join():
            count += 1
            yield row
        telemetry = probe.snapshot(
            count, perf_counter() - started, complete=True
        )
        context = self._builder.context
        provider = resolve_provider(context.database, context.stats)
        provider.record_levels(
            self._plan.query,
            telemetry,
            feedback_scope(self._compiled.filters),
        )
        if context.metrics is not None:
            context.metrics.record_run(telemetry)
            if context.database is not None:
                context.metrics.record_cache(context.database.cache_info())
        self._maybe_replan(telemetry)

    def _level_estimates(self) -> tuple[tuple[str, float], ...]:
        """The frozen plan's per-level partial-size estimates (see
        :func:`~repro.feedback.telemetry.level_estimates` — shared with
        ``EXPLAIN ANALYZE``'s estimated-vs-observed table)."""
        return level_estimates(self._plan.statistics)

    def _maybe_replan(self, telemetry) -> None:
        estimates = self._level_estimates()
        if not estimates:
            return
        context = self._builder.context
        tolerance = context.feedback.replan_tolerance
        if estimate_divergence(estimates, telemetry) <= tolerance:
            return
        tracer = context.tracer
        if tracer is None:
            self._replan()
            return
        with tracer.span("replan") as span, tracer.activate():
            before = self._replans
            self._replan()
            span.meta["rebuilt"] = self._replans > before

    def _replan(self) -> None:
        plan = self._builder.plan()
        if (
            plan.algorithm == self._plan.algorithm
            and plan.attribute_order == self._plan.attribute_order
            and plan.backend == self._plan.backend
            and plan.relation_backends == self._plan.relation_backends
        ):
            if plan.statistics != self._plan.statistics:
                # Same execution strategy, fresher evidence (e.g. the
                # pinned order's estimates are now the measured counts):
                # adopt the plan, keep the executor — repeated runs then
                # observe no divergence and stop re-planning.
                object.__setattr__(self, "_plan", plan)
            return
        # Anything execution-relevant changed — order, algorithm, or a
        # backend choice flipped by the fresh evidence: rebuild.
        probe = None
        if plan.algorithm in DESCENT_ALGORITHMS:
            probe = TelemetryProbe(plan.attribute_order)
        executor = plan.executor(
            database=self._builder._execution_database(),
            filters=self._compiled.filters,
            telemetry=probe,
        )
        object.__setattr__(self, "_plan", plan)
        object.__setattr__(self, "_executor", executor)
        object.__setattr__(self, "_probe", probe)
        object.__setattr__(self, "_replans", self._replans + 1)
        metrics = self._builder.context.metrics
        if metrics is not None:
            metrics.record_replan()

    def run(self, name: str = "J") -> Relation:
        """Execute and materialize the result as a :class:`Relation`."""
        return Relation(name, self.output_attributes, self.stream())

    # -- aggregation & sampling ----------------------------------------------

    def _aggregate(self, spec, mode: str):
        """One aggregate over the prepared query — no re-planning, ever.

        The frozen executor's level loops fold the spec directly when
        the plan runs on the descent kernel
        (:data:`~repro.engine.executors.DESCENT_ALGORITHMS`),
        reusing the indexes built at prepare time; rebinding via
        :meth:`bind` keeps this path (the rebound prepared query carries
        its own executor over the re-sectioned relations).  Projection,
        feedback telemetry, or aggregate inputs outside the residual
        order fall back to folding the prepared row stream; a parallel
        context delegates to the builder (whose sharded driver merges
        per-shard partial states).
        """
        missing = [a for a in spec.needs if a not in self.output_attributes]
        if missing:
            raise QueryError(
                f"aggregate reads attributes {missing!r} that are not in "
                f"the output schema {self.output_attributes!r}"
            )
        compiled = self._compiled
        if not compiled.satisfiable:
            return spec.finish(spec.start())
        if self._executor is None and compiled.residual is not None:
            return self._builder._aggregate(spec, mode)  # parallel context
        if (
            self._executor is not None
            and self._probe is None
            and self._builder.selected is None
            and self._plan.algorithm in DESCENT_ALGORITHMS
            and set(spec.needs) <= set(self._plan.attribute_order)
        ):
            folder = Folder(spec, self._plan.attribute_order)
            self._executor.fold(folder)
            return folder.result()
        return fold_rows(self.stream(), spec, self.output_attributes)

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
        """``min(k, count)`` distinct uniform result rows (see
        :meth:`QueryBuilder.sample`).  The sampler owns its descent and
        builds trie indexes through the context database's cache, so
        delegation costs no planning."""
        return self._builder.sample(k, seed)

    def batches(self, size: int | None = None) -> Iterator[list[Row]]:
        """Stream the result in fixed-size row batches."""
        resolved = size
        if resolved is None and isinstance(
            self._builder.context.batch_size, int
        ):
            resolved = self._builder.context.batch_size
        if resolved is None and self._plan.batch_size is not None:
            resolved = self._plan.batch_size
        if resolved is None:
            resolved = _parallel.DEFAULT_BATCH_SIZE
        return _parallel.batches(self.stream(), resolved)

    def astream(self, batch_size: int | None = None):
        """Async iteration over the prepared executor (see
        :meth:`QueryBuilder.astream`)."""
        return drain_async(self.batches(batch_size))

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
