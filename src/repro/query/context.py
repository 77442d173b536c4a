"""ExecutionContext: the single carrier of execution options.

Before this object existed, every entry point in :mod:`repro.api` (and
the CLI, and :mod:`repro.engine.parallel`) re-declared the same keyword
list — ``algorithm``, ``cover``, ``attribute_order``, ``backend``,
``database``, ``shards``, ``batch_size``, the stats provider — and the
lists drifted apart with every PR.  :class:`ExecutionContext` replaces
that kwargs plumbing with one immutable value object: the fluent builder
(:mod:`repro.query.builder`) carries one, the planner unpacks one
(``plan_join(query, context=ctx)``), the parallel drivers take one,
and the keyword conveniences in ``repro.api`` build one through
``execute``.

A context answers *how* to execute — it says nothing about *what* to
compute (relations, predicates, projections live on the builder).  It is
frozen and hashable so it can key caches, and :meth:`replace` derives
variants without mutation::

    ctx = ExecutionContext(database=db, shards="auto")
    serial = ctx.replace(shards=None)
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.errors import PlanError, require_positive_int
from repro.hypergraph.covers import FractionalCover
from repro.observe.metrics import MetricsRegistry
from repro.observe.tracing import Tracer
from repro.query.shards import ShardSpec
from repro.relations.database import Database
from repro.stats.provider import StatsProvider

__all__ = ["ExecutionContext"]

#: Shard execution modes a context accepts (mirrors
#: :data:`repro.engine.parallel.SHARD_MODES`; duplicated as a literal so
#: this module stays import-light and cycle-free under the engine).
_MODES = ("auto", "process", "thread", "serial")


@dataclass(frozen=True)
class ExecutionContext:
    """Every execution option the engine consumes, in one frozen object.

    Fields mirror the planner's and parallel drivers' parameters; the
    defaults reproduce the behavior of calling ``repro.execute`` with
    no keywords.  ``None`` consistently means "the engine decides" (or, for
    ``shards``/``batch_size``, "stay serial / row-at-a-time").
    """

    #: Catalog supplying cached indexes and statistics (Remark 5.2's
    #: ahead-of-time indexing); ``None`` plans and runs standalone.
    database: Database | None = None
    #: The :class:`~repro.stats.provider.StatsProvider` plan statistics
    #: are read from and cached in; ``None``: the database's, or the
    #: process-wide default.
    stats: StatsProvider | None = None
    #: Algorithm name or ``"auto"`` (the planner's shape dispatch).
    algorithm: str = "auto"
    #: Optional fractional cover for the cover-driven algorithms.
    cover: FractionalCover | None = None
    #: Optional global attribute order (order-sensitive algorithms only).
    attribute_order: tuple[str, ...] | None = None
    #: Index backend kind, or ``None`` for the planner's choice.
    backend: str | None = None
    #: How to shard: a :class:`~repro.query.shards.ShardSpec`, or
    #: ``None`` for serial execution.  Bare positive ints and ``"auto"``
    #: are the deprecated spellings, auto-coerced to a plain spec
    #: (``ShardSpec.coerce``) so no caller breaks.
    shards: ShardSpec | int | str | None = None
    #: Rows per batch: positive int, ``"auto"``, or ``None`` for
    #: row-at-a-time delivery.
    batch_size: int | str | None = None
    #: Shard execution mode (``"auto"``/``"process"``/``"thread"``/
    #: ``"serial"``); consulted only when :attr:`shards` is set.
    mode: str = "auto"
    #: Worker-pool width for sharded modes; ``None`` = one per shard.
    workers: int | None = None
    #: A :class:`~repro.observe.tracing.Tracer` collecting nested timed
    #: spans for every execution under this context (plan,
    #: stats-profile, index-build, execute / per-shard, fold, sample).
    #: ``None`` (the default): no spans, zero overhead.
    tracer: Tracer | None = None
    #: A :class:`~repro.observe.metrics.MetricsRegistry` that measured
    #: executions feed (rows, probes, cache counters, shard imbalance).
    #: ``None`` (the default): nothing is recorded.
    metrics: MetricsRegistry | None = None
    #: The scheduler sharded execution dispatches through — anything
    #: implementing the :class:`~repro.distributed.Scheduler` protocol
    #: (``run_join(job)`` / ``run_fold(job, spec)``).  ``None`` (the
    #: default) uses the local pool, exactly as before this field
    #: existed; a :class:`~repro.distributed.DispatchScheduler` promotes
    #: the same query to a remote worker fleet.
    scheduler: object | None = None

    def __post_init__(self) -> None:
        if self.attribute_order is not None:
            object.__setattr__(
                self, "attribute_order", tuple(self.attribute_order)
            )
        if self.stats is not None and not isinstance(
            self.stats, StatsProvider
        ):
            raise PlanError(
                f"stats must be a repro.StatsProvider (or None), got "
                f"{type(self.stats).__name__}: {self.stats!r}"
            )
        if self.cover is not None and not isinstance(
            self.cover, FractionalCover
        ):
            raise PlanError(
                f"cover must be a repro.FractionalCover (or None), got "
                f"{type(self.cover).__name__}: {self.cover!r}"
            )
        # Normalize every accepted shards= spelling into a ShardSpec (or
        # None) once, here, so the planner and drivers see one type.
        object.__setattr__(self, "shards", ShardSpec.coerce(self.shards))
        if self.scheduler is not None and not hasattr(
            self.scheduler, "run_join"
        ):
            raise PlanError(
                f"scheduler must implement the Scheduler protocol "
                f"(run_join/run_fold), got {self.scheduler!r}"
            )
        if self.mode not in _MODES:
            raise PlanError(
                f"unknown shard mode {self.mode!r}; choose one of {_MODES}"
            )
        if self.workers is not None:
            require_positive_int(self.workers, "workers")
        if self.tracer is True:
            # ``tracer=True`` is a natural spelling; normalize it to a
            # fresh tracer instead of rejecting it.
            object.__setattr__(self, "tracer", Tracer())
        if self.tracer is not None and not isinstance(self.tracer, Tracer):
            raise PlanError(
                f"tracer must be a repro.Tracer (or True/None), "
                f"got {self.tracer!r}"
            )
        if self.metrics is True:
            object.__setattr__(self, "metrics", MetricsRegistry())
        if self.metrics is not None and not isinstance(
            self.metrics, MetricsRegistry
        ):
            raise PlanError(
                f"metrics must be a repro.MetricsRegistry (or True/None), "
                f"got {self.metrics!r}"
            )

    def replace(self, **changes) -> "ExecutionContext":
        """A copy of this context with ``changes`` applied (the fluent
        builder's ``using(...)`` delegates here); an unknown option
        raises :class:`~repro.errors.PlanError`."""
        unknown = changes.keys() - self.__dataclass_fields__.keys()
        if unknown:
            names = (f.name for f in dataclasses.fields(self))
            raise PlanError(
                f"unknown execution option(s) {', '.join(sorted(unknown))}; "
                f"choose from {', '.join(names)}"
            )
        return dataclasses.replace(self, **changes)

    @property
    def parallel(self) -> bool:
        """True when execution will route through the sharded driver."""
        return self.shards is not None

    def describe(self) -> str:
        """One line per non-default option (for logs and ``explain``)."""
        parts = []
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if value != f.default:
                parts.append(f"{f.name}={value!r}")
        return "ExecutionContext(" + ", ".join(parts) + ")"
