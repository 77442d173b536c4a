"""Parallel execution: batching and first-attribute sharding.

PR 1 put every algorithm behind one streaming ``iter_join()`` interface;
this module scales that interface out without touching any executor:

* :func:`batches` — the ``batches(n)`` adapter over the executor
  protocol: drive any streaming join in fixed-size row batches, so
  network sinks and downstream operators amortize per-row overhead;
* :func:`shard_join` — first-attribute sharding.  Partition the values
  of the planner-chosen first attribute into ``k`` disjoint groups
  (balanced by estimated per-value work), run the *whole engine* once
  per shard, and union the disjoint result streams.  Sharding on the
  first attribute of any WCOJ order is embarrassingly parallel and
  preserves the AGM worst-case guarantee per shard — each shard is just
  the same query over restricted relations ("Skew Strikes Back",
  arXiv:1310.3314; Ngo's survey, arXiv:1803.09930) — so the union is
  exactly the serial result, order aside.

Shard execution modes (``ExecutionContext.mode``):

``"process"``
    A ``multiprocessing`` pool, one task per shard — true parallelism
    for CPU-bound joins.  Shard queries are pickled to the workers
    (:class:`~repro.relations.relation.Relation` and
    :class:`~repro.core.query.JoinQuery` define ``__reduce__`` for
    exactly this); each worker materializes its shard and the parent
    streams the per-shard results as they arrive, in completion order.
``"thread"``
    A thread pool feeding a bounded queue — no pickling requirement and
    row-level streaming, the fallback for unpicklable values.
``"serial"``
    Shards run one after another in-process — deterministic, zero
    overhead, the baseline the parity tests compare against.
``"auto"``
    ``"process"`` when the shard payloads pickle, else ``"thread"``;
    ``"serial"`` when only one shard remains after value partitioning.

Every public function validates its arguments *eagerly* (raising
:class:`~repro.errors.PlanError` / :class:`~repro.errors.QueryError`
before returning an iterator), so misconfiguration surfaces at the call
site, not at first ``next()``; ``mode`` and ``workers`` are validated
by the :class:`~repro.query.context.ExecutionContext` that carries them.
"""

from __future__ import annotations

import itertools
import pickle
import queue as queue_module
import threading
import time
from collections import Counter
from collections.abc import Iterable, Iterator, Sequence
from contextlib import nullcontext
from dataclasses import dataclass, field

from repro.aggregate.fold import Folder, fold_state
from repro.core.query import JoinQuery
from repro.engine.executors import DESCENT_ALGORITHMS
from repro.engine.planner import plan_join
from repro.errors import PlanError, require_positive_int
from repro.feedback.resharding import ShardPlanEntry, expand_shards
from repro.feedback.telemetry import ShardObservation, feedback_scope
from repro.hypergraph.covers import FractionalCover
from repro.observe.tracing import Span, SpanContext, Tracer
from repro.relations.relation import Relation, Row, Value
from repro.stats.provider import resolve_provider

__all__ = [
    "DEFAULT_BATCH_SIZE",
    "SHARD_MODES",
    "ShardJob",
    "ShardSlice",
    "batches",
    "plan_shards",
    "shard_fold",
    "shard_join",
    "shard_query",
]

#: Rows per batch when no explicit batch size is requested.
DEFAULT_BATCH_SIZE = 1024

#: Recognized ``ExecutionContext.mode`` values.
SHARD_MODES = ("auto", "process", "thread", "serial")

#: Rows buffered per queue message in thread mode (amortizes queue
#: synchronization without delaying delivery noticeably).
_THREAD_CHUNK = 256


# ---------------------------------------------------------------------------
# Batched consumption
# ---------------------------------------------------------------------------


def batches(
    source: Iterable[Row], size: int = DEFAULT_BATCH_SIZE
) -> Iterator[list[Row]]:
    """Adapt a streaming join into fixed-size row batches.

    ``source`` is anything yielding rows — an executor (anything with
    ``iter_join()``), a :meth:`JoinPlan.iter_rows` stream, or a plain
    iterable.  Yields lists of exactly ``size`` rows, except the final
    batch which may be shorter; never yields an empty batch.  The source
    is consumed lazily, one batch ahead of the consumer, so early
    termination stops the underlying search.

    >>> batched = batches(iter([(1,), (2,), (3,)]), size=2)
    >>> [len(b) for b in batched]
    [2, 1]
    """
    require_positive_int(size, "batch size")
    rows = source.iter_join() if hasattr(source, "iter_join") else iter(source)
    return _batches(rows, size)


def _batches(rows: Iterator[Row], size: int) -> Iterator[list[Row]]:
    while True:
        batch = list(itertools.islice(rows, size))
        if not batch:
            return
        yield batch


# ---------------------------------------------------------------------------
# First-attribute sharding
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShardSlice:
    """One shard: a set of values of the sharded attribute, plus the
    planner's work estimate used to balance the partition.

    ``weight`` is the product over relations containing ``attribute`` of
    that value's tuple frequency — a cheap proxy for the top-level
    expansion work the shard will do (exact for a single-attribute
    query, an upper-bound flavor of the AGM product otherwise).
    """

    attribute: str
    values: frozenset[Value]
    weight: int


def plan_shards(
    query: JoinQuery, shards: int, attribute: str | None = None
) -> tuple[ShardSlice, ...]:
    """Partition an attribute's candidate values into balanced shards.

    The candidate set is the *intersection* of the value sets that the
    relations containing ``attribute`` present — values outside it
    cannot appear in any output row, so they are dropped outright (the
    same elimination the serial engine performs at its top level).
    Values are then distributed over at most ``shards`` groups by greedy
    longest-processing-time assignment on the per-value work estimate,
    so a skewed (Zipf-heavy) attribute does not put all its work in one
    shard.  Returns only non-empty shards; the result is deterministic.

    ``attribute`` defaults to the query's first attribute; pass
    ``plan.attribute_order[0]`` to shard on the planner's choice.
    Sharding is *correct* for any attribute — disjoint value groups give
    disjoint output slices whose union is the full join — only balance
    depends on the choice.
    """
    require_positive_int(shards, "shards")
    if attribute is None:
        attribute = query.attributes[0]
    participants = [
        rel
        for rel in query.relations.values()
        if attribute in rel.attribute_set
    ]
    if not participants:
        raise PlanError(
            f"cannot shard on {attribute!r}: no relation contains it "
            f"(query attributes: {query.attributes})"
        )

    counts: list[Counter] = []
    for rel in participants:
        position = rel.position(attribute)
        counts.append(Counter(row[position] for row in rel.tuples))
    candidates = set(counts[0])
    for counter in counts[1:]:
        candidates &= set(counter)
    if not candidates:
        return ()

    def work(value: Value) -> int:
        weight = 1
        for counter in counts:
            weight *= counter[value]
        return weight

    weights = {value: work(value) for value in candidates}
    # Greedy LPT: heaviest value first, into the currently lightest bin.
    ranked = sorted(candidates, key=lambda v: (-weights[v], repr(v)))
    bins: list[tuple[list[Value], int]] = [([], 0) for _ in range(shards)]
    for value in ranked:
        index = min(range(len(bins)), key=lambda i: bins[i][1])
        values, weight = bins[index]
        values.append(value)
        bins[index] = (values, weight + weights[value])
    return tuple(
        ShardSlice(attribute, frozenset(values), weight)
        for values, weight in bins
        if values
    )


def shard_query(query: JoinQuery, spec: ShardSlice) -> JoinQuery:
    """Restrict ``query`` to one shard's slice of the data.

    Every relation containing the sharded attribute keeps only the
    tuples whose value falls in ``spec.values``; relations not
    containing it are shared untouched.  The result is an ordinary
    :class:`JoinQuery` — same hypergraph, restricted instance — so any
    algorithm, order, and backend apply per shard unchanged.
    """
    return _shard_queries(query, (spec,))[0]


def _shard_queries(
    query: JoinQuery, specs: Sequence[ShardSlice]
) -> list[JoinQuery]:
    """Build every shard's restricted query in one pass over the data.

    Each participant relation is scanned once, bucketing rows by a
    value -> shard-index map — O(N) total instead of the O(k*N) that k
    independent :func:`shard_query` filters would cost.  Rows whose
    value belongs to no shard (outside the candidate intersection) are
    dropped, exactly as the per-spec filter drops them.

    Relations *not* containing the attribute are shared by reference
    across all shard queries — free in thread/serial mode; process mode
    still serializes them into each shard's payload (a known k-fold
    cost for non-participant relations; a pool initializer shipping the
    shared part once is the upgrade path).
    """
    if not specs:
        return []
    attribute = specs[0].attribute
    shard_of = {
        value: index
        for index, spec in enumerate(specs)
        for value in spec.values
    }
    per_shard_relations: list[list[Relation]] = [[] for _ in specs]
    for rel in query.relations.values():
        if attribute not in rel.attribute_set:
            for bucket in per_shard_relations:
                bucket.append(rel)  # shared untouched
            continue
        position = rel.position(attribute)
        rows: list[list[Row]] = [[] for _ in specs]
        for row in rel.tuples:
            index = shard_of.get(row[position])
            if index is not None:
                rows[index].append(row)
        for bucket, shard_rows in zip(per_shard_relations, rows):
            bucket.append(Relation(rel.name, rel.attributes, shard_rows))
    return [JoinQuery(relations) for relations in per_shard_relations]


@dataclass(frozen=True)
class _ShardTask:
    """A picklable unit of shard work: the restricted query plus the
    execution choices the parent already resolved.

    ``filters`` are the query layer's residual predicates; they pickle
    when their payloads do (:class:`~repro.query.predicates.ValueIn`
    always does, a lambda-backed callback does not — the driver then
    falls back to thread mode exactly as for unpicklable values).
    """

    query: JoinQuery
    algorithm: str
    cover: FractionalCover | None
    attribute_order: tuple[str, ...] | None
    backend: str | None
    filters: tuple[tuple[str, object], ...] | None = None


def _shard_rows(task: _ShardTask) -> Iterator[Row]:
    """Stream one shard in-process (the per-worker primitive).

    A shard with any empty relation joins to nothing — skip planning
    entirely (this also keeps per-shard AGM machinery away from
    zero-size inputs).  Indexes are always built fresh from the
    restricted relations; a shared :class:`Database` cache would serve
    *full*-relation indexes under the same names and break parity.
    """
    if any(len(rel) == 0 for rel in task.query.relations.values()):
        return iter(())
    plan = plan_join(
        task.query,
        task.algorithm,
        cover=task.cover,
        attribute_order=task.attribute_order,
        backend=task.backend,
    )
    filters = dict(task.filters) if task.filters else None
    return plan.iter_rows(filters=filters)


def _run_shard(task: _ShardTask) -> list[Row]:
    """Materialize one shard's result (the worker-side unit of work)."""
    return list(_shard_rows(task))


def _run_shard_pickled(payload: bytes) -> list[Row]:
    """Process-pool entry point: the parent serialized each task once
    while probing picklability, so workers receive those same bytes and
    deserialize here — the dataset never pays a second pickling pass."""
    return _run_shard(pickle.loads(payload))


def _run_shard_pickled_timed(
    indexed: tuple[int, bytes],
) -> tuple[int, list[Row], float]:
    """Measured process-pool entry point for feedback runs: results come
    back tagged with the shard index (``imap_unordered`` loses order)
    and the shard's wall time as seen by the worker."""
    index, payload = indexed
    started = time.perf_counter()
    rows = _run_shard(pickle.loads(payload))
    return index, rows, time.perf_counter() - started


def _run_shard_pickled_traced(
    indexed: tuple[int, bytes, SpanContext],
) -> tuple[int, list[Row], float, Span, SpanContext]:
    """Traced process-pool entry point.

    The worker builds its own local :class:`Tracer`, runs the shard
    under an activated ``shard`` span (so the shard's plan and
    index-build spans nest inside it), and ships the *finished* span —
    plain picklable data — back alongside the parent's
    :class:`SpanContext`, which it echoes untouched; the parent
    validates the context's trace id and stitches the span under its
    open ``execute`` span.
    """
    index, payload, span_context = indexed
    local = Tracer(name=f"shard-{index}")
    started = time.perf_counter()
    with local.activate(), local.span("shard", shard=index) as span:
        rows = _run_shard(pickle.loads(payload))
        span.meta["rows"] = len(rows)
    return (
        index,
        rows,
        time.perf_counter() - started,
        local.roots[0],
        span_context,
    )


def _iter_serial(
    tasks: list[_ShardTask],
    times: dict[int, tuple[float, int]] | None = None,
    tracer: Tracer | None = None,
) -> Iterator[Row]:
    if times is None and tracer is None:
        for task in tasks:
            yield from _shard_rows(task)
        return
    # Measured runs stay streaming: the clock spans start-to-exhaustion
    # (like the thread workers, whose emits block on a slow consumer),
    # so downstream cost shows up uniformly per row across shards and
    # relative hot-shard comparisons stay meaningful.  A traced run
    # opens one ``shard`` span per task — activated, so the shard's
    # plan and index-build spans nest inside it.
    for index, task in enumerate(tasks):
        started = time.perf_counter()
        count = 0
        if tracer is None:
            for row in _shard_rows(task):
                count += 1
                yield row
        else:
            with tracer.span("shard", shard=index) as span:
                with tracer.activate():
                    rows = _shard_rows(task)
                for row in rows:
                    count += 1
                    yield row
                span.meta["rows"] = count
        if times is not None:
            times[index] = (time.perf_counter() - started, count)


def _iter_process(
    payloads: list[bytes],
    workers: int,
    times: dict[int, tuple[float, int]] | None = None,
    tracer: Tracer | None = None,
    span_context: SpanContext | None = None,
) -> Iterator[Row]:
    import multiprocessing

    context = multiprocessing.get_context()
    with context.Pool(processes=workers) as pool:
        if tracer is not None:
            traced = [
                (index, payload, span_context)
                for index, payload in enumerate(payloads)
            ]
            for index, rows, seconds, span, echoed in pool.imap_unordered(
                _run_shard_pickled_traced, traced
            ):
                if times is not None:
                    times[index] = (seconds, len(rows))
                tracer.attach(span, echoed)
                yield from rows
            return
        if times is None:
            for rows in pool.imap_unordered(_run_shard_pickled, payloads):
                yield from rows
            return
        indexed = list(enumerate(payloads))
        for index, rows, seconds in pool.imap_unordered(
            _run_shard_pickled_timed, indexed
        ):
            times[index] = (seconds, len(rows))
            yield from rows


def _iter_thread(
    tasks: list[_ShardTask],
    workers: int,
    times: dict[int, tuple[float, int]] | None = None,
    tracer: Tracer | None = None,
) -> Iterator[Row]:
    """Row-streaming union over worker threads.

    Each worker streams its shard into a bounded queue in small chunks;
    the consumer interleaves chunks in arrival order.  Worker exceptions
    are re-raised in the consumer.  When the consumer stops early (or an
    error aborts it), the ``finally`` block raises a stop flag that
    unblocks and retires every remaining worker — no threads (or their
    shard data) outlive the generator; daemonizing is only a last line
    of defense for interpreter shutdown.
    """
    sink: queue_module.Queue = queue_module.Queue(maxsize=max(4, workers * 4))
    todo: queue_module.SimpleQueue = queue_module.SimpleQueue()
    for indexed_task in enumerate(tasks):
        todo.put(indexed_task)
    stop = threading.Event()

    def emit(item: tuple[str, object]) -> bool:
        """Enqueue unless the consumer is gone; False means abandon."""
        while not stop.is_set():
            try:
                sink.put(item, timeout=0.1)
                return True
            except queue_module.Full:
                continue
        return False

    def run() -> None:
        while not stop.is_set():
            try:
                index, task = todo.get_nowait()
            except queue_module.Empty:
                return
            try:
                started = time.perf_counter()
                count = 0
                chunk: list[Row] = []
                for row in _shard_rows(task):
                    if stop.is_set():
                        return
                    count += 1
                    chunk.append(row)
                    if len(chunk) >= _THREAD_CHUNK:
                        if not emit(("rows", chunk)):
                            return
                        chunk = []
                if chunk and not emit(("rows", chunk)):
                    return
                seconds = time.perf_counter() - started
                if not emit(("done", (index, seconds, count))):
                    return
            except BaseException as error:  # propagated to the consumer
                emit(("error", error))
                return

    # A fixed pool of `workers` threads draining the task queue — never
    # one thread per shard, so a huge shard count cannot exhaust OS
    # thread limits (or reserve a stack per shard).
    threads = [
        threading.Thread(target=run, daemon=True)
        for _ in range(min(workers, len(tasks)))
    ]
    for thread in threads:
        thread.start()
    try:
        finished = 0
        while finished < len(tasks):
            kind, payload = sink.get()
            if kind == "rows":
                yield from payload
            elif kind == "done":
                finished += 1
                if times is not None or tracer is not None:
                    index, seconds, count = payload
                    if times is not None:
                        times[index] = (seconds, count)
                    if tracer is not None:
                        # Worker threads share the process but not the
                        # tracer (it is single-driver by design): the
                        # parent synthesizes the shard span from the
                        # worker's completion report.  CPU time is
                        # unknown per thread; wall is the worker's own
                        # start-to-exhaustion clock.
                        tracer.attach(
                            Span(
                                name="shard",
                                meta={"shard": index, "rows": count},
                                wall=seconds,
                            )
                        )
            else:
                raise payload
    finally:
        stop.set()


@dataclass
class ShardJob:
    """One sharded execution, packaged for a scheduler.

    The driver functions (:func:`shard_join` / :func:`shard_fold`) plan
    the query, partition it into :class:`ShardPlanEntry` items, and hand
    a job to whatever implements the ``Scheduler`` protocol —
    :func:`_dispatch_local_join` (today's in-process pools) when the
    context carries no scheduler, or a
    :class:`~repro.distributed.DispatchScheduler` promoting the same
    shards to a remote worker fleet.

    Mutable by design: a scheduler that re-splits shards mid-run
    (work stealing) writes the *final* entry list back into
    ``entries[:]`` and their timings into ``times`` on completion, so
    the feedback/metrics wrappers downstream observe exactly what ran.
    """

    query: JoinQuery
    #: The planned shards; ``entries[i].key`` is the feedback key.
    entries: list[ShardPlanEntry]
    algorithm: str
    cover: FractionalCover | None
    attribute_order: tuple[str, ...] | None
    backend: str | None
    filters: tuple[tuple[str, object], ...] | None
    #: The plan's full attribute order — stealing splits a shard on the
    #: next attribute after its key's deepest one, exactly like the
    #: across-run ``expand_shards``.
    order: tuple[str, ...]
    mode: str = "auto"
    workers: int | None = None
    #: Shard index -> (seconds, rows); ``None`` disables timing.
    times: dict[int, tuple[float, int]] | None = None
    tracer: Tracer | None = None
    #: A :class:`~repro.query.shards.StealPolicy` (duck-typed; this
    #: module never imports the query layer) or ``None``.
    steal: object | None = None
    #: Scheduler-reported run counters (presplits, steals, retries...).
    stats: dict = field(default_factory=dict)

    def task_for(self, entry: ShardPlanEntry) -> _ShardTask:
        """The picklable worker task for one planned entry."""
        return _ShardTask(
            query=entry.query,
            algorithm=self.algorithm,
            cover=self.cover,
            attribute_order=self.attribute_order,
            backend=self.backend,
            filters=self.filters,
        )

    def tasks(self) -> list[_ShardTask]:
        return [self.task_for(entry) for entry in self.entries]


def _dispatch_local_join(job: ShardJob) -> Iterator[Row]:
    """Run a join job on the local pools (the path of a context that
    carries no scheduler)."""
    tasks = job.tasks()
    if job.mode == "serial" or len(tasks) == 1:
        return _iter_serial(tasks, job.times, job.tracer)
    # Serialize each task once, up front: every task must pickle
    # (shards partition the *values*, so one unpicklable value
    # poisons only the shard it landed in — sampling one task would
    # crash the pool mid-iteration), and the resulting bytes are
    # what the workers get, so the dataset is never pickled a
    # second time by the pool.
    payloads: list[bytes] | None = None
    resolved = job.mode
    if resolved in ("auto", "process"):
        try:
            payloads = [
                pickle.dumps(task, protocol=pickle.HIGHEST_PROTOCOL)
                for task in tasks
            ]
        except Exception:
            if resolved == "process":
                raise  # explicitly requested: surface the error now
    if resolved == "auto":
        resolved = "process" if payloads is not None else "thread"
    pool_width = min(job.workers or len(tasks), len(tasks))
    if resolved == "process":
        return _iter_process(
            payloads,
            pool_width,
            job.times,
            job.tracer,
            job.tracer.context() if job.tracer is not None else None,
        )
    return _iter_thread(tasks, pool_width, job.times, job.tracer)


def _plan_job(query: JoinQuery, context, filters, plan) -> ShardJob | None:
    """Plan ``query`` once and partition it into a :class:`ShardJob`
    (``None`` when no value of the sharded attribute can join).

    The planner resolves algorithm / order / backend / shard count
    exactly as for the serial engine — or the caller hands in the
    ``plan`` it already made, which is used as is — then the first
    attribute's candidate values are partitioned into work-balanced
    groups (:func:`plan_shards`).  Two refinements follow, both on the
    next attribute of the plan's order:

    * the feedback re-split: shards this query's earlier runs measured
      as hot (wall time above the configured multiple of their sibling
      median) are re-partitioned and their sub-shards dispatched in
      their place — the online "Skew Strikes Back" split.  Without
      recorded observations the expansion is exactly the static plan;
    * the predictive pre-split (``ShardSpec.predictive``): shards whose
      value group holds a heavy-hitter value are split at first-plan
      time, so run one of a hub-heavy query behaves the way run two
      used to after feedback.
    """
    scope = feedback_scope(filters)
    if plan is None:
        tracer = context.tracer
        # The parent's planning phase (one plan for all shards);
        # per-shard re-planning is traced inside each shard span.
        with tracer.activate() if tracer else nullcontext():
            plan = plan_join(
                query,
                context=context.replace(
                    shards=context.shards
                    if context.shards is not None
                    else "auto"
                ),
                feedback_scope=scope,
            )
    attribute = plan.attribute_order[0]
    specs = plan_shards(query, plan.shards, attribute)
    if not specs:
        return None
    entries = [
        ShardPlanEntry(
            key=((attribute, spec.values),),
            query=restricted,
            weight=spec.weight,
        )
        for spec, restricted in zip(specs, _shard_queries(query, specs))
    ]
    spec = context.shards
    predictive = spec is not None and spec.predictive
    if context.feedback is not None or predictive:
        provider = resolve_provider(context.database, context.stats)
    if context.feedback is not None:
        observed = provider.observed_shards(query, scope)
        if observed:
            entries = expand_shards(
                entries, plan.attribute_order, observed, context.feedback
            )
    presplits = 0
    if predictive:
        # Lazy import: the distributed package imports this module.
        from repro.distributed.stealing import predictive_presplit

        entries, presplits = predictive_presplit(
            entries, plan.attribute_order, provider
        )
    job = ShardJob(
        query=query,
        entries=entries,
        algorithm=plan.algorithm,
        cover=context.cover,
        attribute_order=context.attribute_order,
        backend=context.backend,
        filters=tuple(filters.items()) if filters else None,
        order=plan.attribute_order,
        mode=context.mode,
        workers=context.workers,
        steal=spec.steal if spec is not None else None,
    )
    if presplits:
        job.stats["presplits"] = presplits
    return job


def shard_join(
    query: JoinQuery, context, filters=None, plan=None
) -> Iterator[Row]:
    """Run a join sharded on the planner's first attribute; union streams.

    The whole engine runs once per shard of the :class:`ShardJob`
    :func:`_plan_job` builds.  The yielded row *set* is identical to the
    serial join — shards are disjoint slices of the output — but arrival
    order depends on shard completion order.

    context:
        The :class:`~repro.query.context.ExecutionContext` carrying
        every option: the planner reads its share, this driver reads
        ``mode`` / ``workers`` (see the module docstring), the
        ``ShardSpec`` policies, ``scheduler``, ``feedback``, ``tracer``
        and ``metrics``.  ``shards`` of ``None`` means ``"auto"`` here.
        Its database serves the *parent* plan's statistics; shard
        workers still build indexes from their restricted relations.
    filters:
        Residual per-attribute predicates (the query layer's pushdown);
        shipped to every shard worker and applied inside each shard's
        executor.
    plan:
        The parent :class:`~repro.engine.planner.JoinPlan` when the
        caller already holds one (a prepared query's frozen plan).

    All validation (unknown algorithm, incompatible backend, bad shard
    count) happens *before* this returns an iterator.
    """
    job = _plan_job(query, context, filters, plan)
    if job is None:
        return iter(())
    feedback, metrics = context.feedback, context.metrics
    tracer, scheduler = context.tracer, context.scheduler
    if feedback is not None or metrics is not None or scheduler is not None:
        job.times = {}
    job.tracer = tracer
    if scheduler is not None:
        stream = scheduler.run_join(job)
    else:
        stream = _dispatch_local_join(job)
    if feedback is not None:
        # The job's entries and times, not copies: a stealing scheduler
        # rewrites both to what actually ran before they are recorded.
        stream = _recorded_shard_stream(
            stream,
            job,
            resolve_provider(context.database, context.stats),
            feedback_scope(filters),
        )
    if metrics is not None:
        stream = _metered_shard_stream(
            stream, job.times, metrics, context.database
        )
    if tracer is not None:
        # Outermost, so the per-shard spans (opened or attached while
        # the inner streams drain) nest under this execute span.
        stream = _traced_shard_stream(tracer, stream, len(job.entries))
    return stream


def _traced_shard_stream(
    tracer: Tracer, stream: Iterator[Row], shard_count: int
) -> Iterator[Row]:
    """Drive a sharded run inside its parent ``execute`` span."""
    with tracer.span("execute", shards=shard_count) as span:
        count = 0
        for row in stream:
            count += 1
            yield row
        span.meta["rows"] = count


def _metered_shard_stream(
    stream: Iterator[Row],
    times: dict[int, tuple[float, int]],
    metrics,
    database,
) -> Iterator[Row]:
    """Drain a sharded run, then feed the metrics registry.

    Recorded only on natural exhaustion (an early-terminated consumer
    must not inflate the run counters); the shard-seconds histogram and
    imbalance gauge come from the same ``times`` the feedback loop uses.
    """
    count = 0
    for row in stream:
        count += 1
        yield row
    metrics.record_rows(count)
    if times:
        metrics.record_shards(
            seconds for seconds, _rows in times.values()
        )
    if database is not None:
        metrics.record_cache(database.cache_info())


def _recorded_shard_stream(
    stream: Iterator[Row], job: ShardJob, provider, scope: tuple
) -> Iterator[Row]:
    """Drain a sharded run, then record its per-shard observations.

    Recording happens only when every shard reported a time — an
    early-terminated consumer leaves ``times`` incomplete, and partial
    timings must not drive next-run split decisions.
    """
    yield from stream
    entries, times = job.entries, job.times
    if len(times) == len(entries):
        provider.record_shards(
            job.query,
            [
                ShardObservation(
                    key=entries[index].key,
                    seconds=seconds,
                    rows=count,
                    weight=entries[index].weight,
                )
                for index, (seconds, count) in sorted(times.items())
            ],
            scope,
        )


# ---------------------------------------------------------------------------
# Sharded aggregation
# ---------------------------------------------------------------------------


def _shard_fold_state(task: _ShardTask, spec):
    """Fold one shard into a partial aggregate state (worker primitive).

    Same skip/plan discipline as :func:`_shard_rows`; algorithms in
    :data:`~repro.engine.executors.DESCENT_ALGORITHMS` push the fold into
    their level loops, the rest fold their row stream.  Returns the *raw*
    state (not ``spec.finish``) so the parent can merge across shards.
    """
    if any(len(rel) == 0 for rel in task.query.relations.values()):
        return spec.start()
    plan = plan_join(
        task.query,
        task.algorithm,
        cover=task.cover,
        attribute_order=task.attribute_order,
        backend=task.backend,
    )
    filters = dict(task.filters) if task.filters else None
    if plan.algorithm in DESCENT_ALGORITHMS:
        executor = plan.executor(filters=filters)
        folder = Folder(spec, plan.attribute_order)
        executor.fold(folder)
        return folder.state
    return fold_state(
        plan.iter_rows(filters=filters), spec, task.query.attributes
    )


def _run_shard_fold_pickled(payload: bytes):
    """Process-pool entry point for sharded folds: ``(task, spec)`` was
    pickled together while probing picklability, so the spec rides the
    same bytes as the shard it aggregates."""
    task, spec = pickle.loads(payload)
    return _shard_fold_state(task, spec)


def shard_fold(query: JoinQuery, spec, context, filters=None, plan=None):
    """Aggregate a sharded join without materializing it anywhere.

    Plans and partitions exactly like :func:`shard_join` (same
    parameters), but each worker folds its shard into a partial
    :class:`~repro.aggregate.specs.AggregateSpec` state and ships only
    that state back; the parent merges the partials with ``spec.merge``
    and returns the merged *raw* state (callers apply ``spec.finish``).
    States are plain picklable values (ints, tuples, dicts), so process
    mode pays per-shard pickling for the inputs only — never for rows.

    Shards partition the output disjointly and every spec's ``merge``
    is associative and commutative over disjoint parts, so the merged
    state equals the serial fold's state regardless of mode or shard
    completion order.

    Feedback telemetry is *not* recorded here — per-shard row counts
    are exactly what the fold avoids computing; the query layer routes
    feedback-enabled aggregates through the recorded row stream instead.
    """
    state = spec.start()
    job = _plan_job(query, context, filters, plan)
    if job is None:
        return state
    scheduler = context.scheduler
    if scheduler is not None:
        job.times = {}
        partials = scheduler.run_fold(job, spec)
    else:
        partials = _dispatch_local_fold(job, spec)
    for partial in partials:
        state = spec.merge(state, partial)
    return state


def _dispatch_local_fold(job: ShardJob, spec) -> list:
    """Fold a job's shards on the local pools; return the partial states.

    The partials come back in no particular order — every spec's
    ``merge`` is associative and commutative over disjoint parts, so the
    caller's fold over them is order-insensitive.
    """
    tasks = job.tasks()
    resolved = "serial" if len(tasks) == 1 else job.mode
    payloads: list[bytes] | None = None
    if resolved in ("auto", "process"):
        try:
            payloads = [
                pickle.dumps((task, spec), protocol=pickle.HIGHEST_PROTOCOL)
                for task in tasks
            ]
        except Exception:
            if resolved == "process":
                raise  # explicitly requested: surface the error now
        if resolved == "auto":
            resolved = "process" if payloads is not None else "thread"
    pool_width = min(job.workers or len(tasks), len(tasks))
    if resolved == "serial":
        return [_shard_fold_state(task, spec) for task in tasks]
    if resolved == "process":
        import multiprocessing

        pool_context = multiprocessing.get_context()
        with pool_context.Pool(processes=pool_width) as pool:
            return pool.map(_run_shard_fold_pickled, payloads)
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=pool_width) as pool:
        return list(
            pool.map(lambda task: _shard_fold_state(task, spec), tasks)
        )
