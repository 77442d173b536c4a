"""Parallel execution: batching and first-attribute sharding.

PR 1 put every algorithm behind one streaming ``iter_join()`` interface;
this module scales that interface out without touching any executor:

* :func:`batches` — the ``batches(n)`` adapter over the executor
  protocol: drive any streaming join in fixed-size row batches, so
  network sinks and downstream operators amortize per-row overhead;
* :func:`shard_join` / :func:`shard_fold` — first-attribute sharding.
  Partition the values of the plan's first attribute into ``k``
  disjoint groups (balanced by estimated per-value work) and run each
  group as a *key* over the one plan the caller already made.  Sharding
  on the first attribute of any WCOJ order is embarrassingly parallel
  and preserves the AGM worst-case guarantee per shard ("Skew Strikes
  Back", arXiv:1310.3314; Ngo's survey, arXiv:1803.09930), so the union
  is exactly the serial result, order aside.

**A shard is a key, not a second engine run.**  A key is a chain of
``(attribute, value group)`` links (:data:`ShardKey`; one link for a
planned shard, one more per split, :func:`split_entry`).  The
drivers plan nothing, profile nothing and copy no relation: a
:class:`ShardRunner` holds the parent's plan and its already-built
executor, and runs a key

* for the algorithms in :data:`~repro.engine.executors.
  DESCENT_ALGORITHMS` as a walk of the *same* indexes with the key's
  value groups conjoined onto the residual filters at the depths that
  bind those attributes (:func:`repro.core.descent.narrow` — (ST1)'s
  section reached by walking, Remark 5.2's indexes built once);
* for the three blocking specialists (``lw``, ``nprr``, ``arity2``),
  which have no level to hook, over :func:`restrict`'s copy of the
  relations — the only place restricted relations are still built,
  shared with :func:`split_entry`, which weighs the next attribute's
  values under a hot key.

Shard execution modes (``ExecutionContext.mode``):

``"process"``
    A ``multiprocessing`` pool.  The runner — relations, algorithm,
    cover, order, backends, residual filters — and the fold spec are
    pickled once per run and bound once per pool process (the pool's
    initializer builds the indexes there); each task is a shard index
    and its key.  Workers materialize a shard and the parent streams the
    per-shard results as they arrive, in completion order.
``"thread"``
    A thread pool feeding a bounded queue — nothing is pickled, every
    walk shares the parent's indexes, rows stream as they are found.
``"serial"``
    Keys run one after another in-process over the parent's indexes —
    deterministic, the baseline the parity tests compare against.
``"auto"``
    ``"process"`` when the runner pickles, else ``"thread"``;
    ``"serial"`` when only one shard remains after value partitioning.

Every public function validates its arguments *eagerly* (raising
:class:`~repro.errors.PlanError` / :class:`~repro.errors.QueryError`
before returning an iterator), so misconfiguration surfaces at the call
site, not at first ``next()``; ``mode`` and ``workers`` are validated
by the :class:`~repro.query.context.ExecutionContext` that carries them.
"""

from __future__ import annotations

import copy
import itertools
import pickle
import queue as queue_module
import threading
import time
from collections.abc import Iterable, Iterator, Sequence
from contextlib import nullcontext
from dataclasses import dataclass, field, replace

from repro.aggregate.fold import Folder, fold_state
from repro.core.descent import narrow
from repro.core.query import JoinQuery
from repro.engine.executors import DESCENT_ALGORITHMS
from repro.engine.planner import JoinPlan
from repro.errors import PlanError, require_positive_int
from repro.observe.tracing import Span, Tracer
from repro.relations.relation import Relation, Row, Value
from repro.stats.profiles import ValueCounts, count_values
from repro.stats.provider import resolve_provider

__all__ = [
    "DEFAULT_BATCH_SIZE",
    "SHARD_MODES",
    "ShardJob",
    "ShardPlanEntry",
    "ShardRunner",
    "ShardSlice",
    "batches",
    "plan_shards",
    "restrict",
    "shard_fold",
    "shard_join",
    "split_entry",
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
    ``iter_join()``, such as ``plan.executor(db, filters)``) or a plain
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
    query: JoinQuery,
    shards: int,
    attribute: str | None = None,
    value_counts: ValueCounts = count_values,
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

    The per-value work estimates are read off each participant's
    value-count table of ``attribute``: ``value_counts(relation,
    (attribute,))`` counts the column unless the caller hands in the
    tables its plan was made from (``StatsProvider.value_counts``, as
    the sharded driver does).
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

    counts = [value_counts(rel, (attribute,)) for rel in participants]
    candidates = set(counts[0])
    for counter in counts[1:]:
        candidates.intersection_update(counter)
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


#: A shard's identity: the chain of ``(attribute, values)`` restrictions
#: that produced it.  Planned shards have one link; every split appends
#: one.
ShardKey = tuple[tuple[str, frozenset], ...]


@dataclass(frozen=True)
class ShardPlanEntry:
    """One dispatchable shard: its key and nothing else to run it by.

    ``key`` chains the ``(attribute, value group)`` restrictions that
    define the shard (length 1 for an unsplit planned shard) — every
    mode runs it as a walk of the one plan under those value groups —
    and ``weight`` is the LPT work estimate of the final restriction.
    """

    key: ShardKey
    weight: int


def split_entry(
    query: JoinQuery, entry: ShardPlanEntry, order: Sequence[str], factor: int
) -> list[ShardPlanEntry]:
    """Split one entry on the next attribute of the plan's order — the
    one function that turns a key into sub-keys (predictive pre-split
    and claim-time stealing both call it).

    The next attribute's values are weighed over ``query`` restricted to
    the entry's key, so the sub-keys (the key extended by one link)
    partition the entry's output slice exactly.  Returns ``[entry]``
    unchanged when the entry is at maximum depth for the order or the
    next attribute has too few candidate values under it to partition.
    """
    depth = len(entry.key)
    if depth >= len(order):
        return [entry]
    attribute = order[depth]
    slices = plan_shards(restrict(query, entry.key), factor, attribute)
    if len(slices) < 2:
        return [entry]
    return [
        ShardPlanEntry(entry.key + ((attribute, piece.values),), piece.weight)
        for piece in slices
    ]


def restrict(query: JoinQuery, key: ShardKey) -> JoinQuery:
    """Restrict ``query`` to the slice of the data under a shard key.

    Every relation keeps only the tuples whose values fall in the value
    group of each link of ``key`` that names one of its attributes;
    relations containing none of the key's attributes are shared
    untouched.  The result is an ordinary :class:`JoinQuery` — same
    hypergraph, restricted instance.  The descent algorithms never need
    it (a key is a filter on their walk); it exists for the blocking
    specialists and for weighing the next attribute's values under a
    hot key (:func:`split_entry`).
    """
    relations = []
    for rel in query.relations.values():
        tests = [
            (rel.position(attribute), values)
            for attribute, values in key
            if attribute in rel.attribute_set
        ]
        if tests:
            rel = Relation(
                rel.name,
                rel.attributes,
                [
                    row
                    for row in rel.tuples
                    if all(row[at] in values for at, values in tests)
                ],
            )
        relations.append(rel)
    return JoinQuery(relations)


class ShardRunner:
    """The one plan of a sharded run, bound once, running any key.

    ``plan`` is the parent's :class:`~repro.engine.planner.JoinPlan`,
    ``filters`` the query layer's residual predicates and ``executor``
    the executor the caller already built from both (indexes included).
    Pickling ships ``plan`` and ``filters`` only; unpickling rebuilds the
    executor, so a pool process or a worker connection binds — builds
    its indexes — exactly once, at ``pickle.loads``, and plans nothing.
    Filters pickle when their payloads do
    (:class:`~repro.query.predicates.ValueIn` always does, a
    lambda-backed callback does not — ``mode="auto"`` then falls back to
    threads exactly as for unpicklable values).
    """

    def __init__(self, plan: JoinPlan, filters=None, executor=None) -> None:
        self.plan = plan
        self.filters = filters
        # The blocking specialists run over a restriction, never over
        # the parent's executor: build none for them.
        if executor is None and plan.algorithm in DESCENT_ALGORITHMS:
            executor = plan.executor(filters=filters)
        self.executor = executor

    def __reduce__(self):
        return ShardRunner, (self.plan, self.filters)

    def stream(self, key: ShardKey, spec=None) -> Iterator:
        """The rows under ``key`` — or, given an aggregate ``spec``, the
        one *raw* partial state of folding them (not ``spec.finish``, so
        the driver can merge across shards)."""
        plan = self.plan
        if plan.algorithm in DESCENT_ALGORITHMS:
            executor = copy.copy(self.executor)
            executor._binding = narrow(executor._binding, key)
            if spec is None:
                return executor.iter_join()
            folder = Folder(spec, plan.attribute_order)
            executor.fold(folder)
            return iter((folder.state,))
        rows = (
            replace(plan, query=restrict(plan.query, key))
            .executor(filters=self.filters)
            .iter_join()
        )
        if spec is None:
            return rows
        return iter((fold_state(rows, spec, plan.query.attributes),))


#: What the pool's initializer bound in *this* pool process:
#: ``(runner, spec)``, unpickled (and so indexed) once per process.
_POOL_WORK: tuple[ShardRunner, object] | None = None


def _pool_bind(payload: bytes) -> None:
    global _POOL_WORK
    _POOL_WORK = pickle.loads(payload)


def _pool_run(
    task: tuple[int, ShardKey, bool],
) -> tuple[int, list, float, Span | None]:
    """The process pool's one entry point: run a key over the runner
    this process bound; return the shard index (``imap_unordered`` loses
    order), its rows or its one partial state, the wall seconds as seen
    here and, for a traced run, the finished ``shard`` span — plain
    picklable data the parent stitches under its ``execute`` span."""
    index, key, traced = task
    runner, spec = _POOL_WORK
    started = time.perf_counter()
    span = None
    if traced:
        local = Tracer(name=f"shard-{index}")
        with local.activate(), local.span("shard", shard=index) as span:
            items = list(runner.stream(key, spec))
            span.meta["rows"] = len(items)
    else:
        items = list(runner.stream(key, spec))
    return index, items, time.perf_counter() - started, span


def _iter_serial(job: ShardJob, spec) -> Iterator:
    # The clock spans start-to-exhaustion (like the thread workers,
    # whose emits block on a slow consumer), so downstream cost shows up
    # uniformly per row across shards and the imbalance ratio stays
    # meaningful.  A traced run opens one ``shard`` span per key —
    # activated while the stream is made, so what a blocking specialist
    # builds over its restriction nests inside it.
    runner, times, tracer = job.runner, job.times, job.tracer
    for index, entry in enumerate(job.entries):
        started = time.perf_counter()
        count = 0
        with (
            tracer.span("shard", shard=index) if tracer else nullcontext()
        ) as span:
            with tracer.activate() if tracer else nullcontext():
                items = runner.stream(entry.key, spec)
            for item in items:
                count += 1
                yield item
            if span is not None:
                span.meta["rows"] = count
        if times is not None:
            times[index] = (time.perf_counter() - started, count)


def _iter_process(job: ShardJob, payload: bytes, workers: int) -> Iterator:
    import multiprocessing

    times, tracer = job.times, job.tracer
    tasks = [
        (index, entry.key, tracer is not None)
        for index, entry in enumerate(job.entries)
    ]
    context = multiprocessing.get_context()
    # The pool lives for this run alone, so every span that comes back
    # belongs to this trace.
    with context.Pool(workers, _pool_bind, (payload,)) as pool:
        for index, items, seconds, span in pool.imap_unordered(
            _pool_run, tasks
        ):
            if times is not None:
                times[index] = (seconds, len(items))
            if span is not None:
                tracer.attach(span)
            yield from items


def _iter_thread(job: ShardJob, spec, workers: int) -> Iterator:
    """Streaming union over worker threads.

    Each worker streams its shard into a bounded queue in small chunks;
    the consumer interleaves chunks in arrival order.  Worker exceptions
    are re-raised in the consumer.  When the consumer stops early (or an
    error aborts it), the ``finally`` block raises a stop flag that
    unblocks and retires every remaining worker — no threads outlive
    the generator; daemonizing is only a last line of defense for
    interpreter shutdown.
    """
    runner, times, tracer = job.runner, job.times, job.tracer
    sink: queue_module.Queue = queue_module.Queue(maxsize=max(4, workers * 4))
    todo: queue_module.SimpleQueue = queue_module.SimpleQueue()
    for indexed_entry in enumerate(job.entries):
        todo.put(indexed_entry)
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
                index, entry = todo.get_nowait()
            except queue_module.Empty:
                return
            try:
                started = time.perf_counter()
                count = 0
                chunk: list = []
                for item in runner.stream(entry.key, spec):
                    if stop.is_set():
                        return
                    count += 1
                    chunk.append(item)
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
        threading.Thread(target=run, daemon=True) for _ in range(workers)
    ]
    for thread in threads:
        thread.start()
    try:
        finished = 0
        while finished < len(job.entries):
            kind, payload = sink.get()
            if kind == "rows":
                yield from payload
            elif kind == "done":
                finished += 1
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

    The driver functions (:func:`shard_join` / :func:`shard_fold`)
    partition the caller's plan into :class:`ShardPlanEntry` keys and
    hand a job to whatever implements the ``Scheduler`` protocol —
    :func:`_dispatch_local` (the in-process pools) when the context
    carries no scheduler, or a
    :class:`~repro.distributed.DispatchScheduler` promoting the same
    keys to a remote worker fleet.

    Mutable by design: a scheduler that re-splits shards mid-run
    (work stealing) writes the *final* entry list back into
    ``entries[:]`` and their timings into ``times`` on completion, so
    the metrics wrapper downstream observes exactly what ran.
    """

    #: The one plan, bound in this process; pickled (once per run) it is
    #: what a pool process or a fleet worker binds.
    runner: ShardRunner
    #: The planned shards; ``entries[i].key`` is all it takes to run one.
    entries: list[ShardPlanEntry]
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

    @property
    def query(self) -> JoinQuery:
        """The (residual) query every key is a slice of."""
        return self.runner.plan.query

    @property
    def order(self) -> tuple[str, ...]:
        """The plan's attribute order — a split extends a key on the
        attribute after its deepest one."""
        return self.runner.plan.attribute_order


def _dispatch_local(job: ShardJob, spec=None) -> Iterator:
    """Run a job on the local pools (the path of a context that carries
    no scheduler): its rows or, given ``spec``, one partial state per
    shard — in no particular order either way."""
    count = len(job.entries)
    mode = "serial" if count == 1 else job.mode
    if mode == "serial":
        return _iter_serial(job, spec)
    width = min(job.workers or count, count)
    if mode in ("auto", "process"):
        # Pickled once, up front: this is what every pool process binds,
        # and the probe that decides ``auto`` (one unpicklable value or
        # filter anywhere sends the whole run to threads — found here,
        # not as a crashed pool mid-iteration).
        try:
            payload = pickle.dumps(
                (job.runner, spec), protocol=pickle.HIGHEST_PROTOCOL
            )
        except Exception:
            if mode == "process":
                raise  # explicitly requested: surface the error now
        else:
            return _iter_process(job, payload, width)
    return _iter_thread(job, spec, width)


def _plan_job(plan: JoinPlan, executor, context, filters) -> ShardJob | None:
    """Partition ``plan`` into a :class:`ShardJob` of keys (``None``
    when no value of the sharded attribute can join).

    Nothing is planned here: the caller's plan fixed the algorithm,
    order, backends and shard count, and ``executor`` is the one it
    built from that plan.  The first attribute's candidate values are
    partitioned into work-balanced groups (:func:`plan_shards`).  With
    ``ShardSpec.predictive``, shards whose value group holds a
    heavy-hitter value are then split on the next attribute of the
    plan's order (:func:`split_entry`) before anything runs.

    Work stealing is a scheduler's (only ``DispatchScheduler`` claims
    shards one at a time), so ``ShardSpec.steal`` without a
    ``scheduler`` raises :class:`~repro.errors.PlanError` here, before
    any row, instead of splitting nothing.
    """
    spec = context.shards
    if spec is not None and spec.steal and context.scheduler is None:
        raise PlanError(
            f"{spec!r} asks for work stealing, which needs a scheduler: "
            "pass scheduler=DispatchScheduler([...]) (the CLI's --workers), "
            "or drop steal"
        )
    query, order = plan.query, plan.attribute_order
    # The provider the plan was made under: its cached value-count
    # tables weigh the shards, so a sharded run re-counts no column.
    provider = resolve_provider(context.database, context.stats)
    entries = [
        ShardPlanEntry(((piece.attribute, piece.values),), piece.weight)
        for piece in plan_shards(
            query, plan.shards, order[0], provider.value_counts
        )
    ]
    if not entries:
        return None
    presplits = 0
    if spec is not None and spec.predictive:
        # Lazy import: the distributed package imports this module.
        from repro.distributed.stealing import predictive_presplit

        entries, presplits = predictive_presplit(
            query, entries, order, provider
        )
    job = ShardJob(
        runner=ShardRunner(plan, filters, executor),
        entries=entries,
        mode=context.mode,
        workers=context.workers,
        steal=spec.steal if spec is not None else None,
    )
    if presplits:
        job.stats["presplits"] = presplits
    return job


def shard_join(
    plan: JoinPlan, executor, context, filters=None
) -> Iterator[Row]:
    """Run ``plan`` sharded on its first attribute; union the streams.

    Each shard of the :class:`ShardJob` :func:`_plan_job` builds is one
    key run over ``executor`` (see :class:`ShardRunner`).  The yielded
    row *set* is identical to the serial join — shards are disjoint
    slices of the output — but arrival order depends on shard completion
    order.

    plan, executor:
        The caller's :class:`~repro.engine.planner.JoinPlan` (its
        ``shards`` is the partition width) and the executor it built
        from it — :class:`~repro.query.prepared.PreparedQuery` holds
        both, so a sharded request plans once and a held prepared
        query's sharded runs plan and build nothing.
    context:
        The :class:`~repro.query.context.ExecutionContext` the plan was
        made under; this driver reads ``mode`` / ``workers`` (see the
        module docstring), the ``ShardSpec`` policies, ``scheduler``,
        ``tracer`` and ``metrics``.
    filters:
        The residual per-attribute predicates ``executor`` was built
        with (the query layer's pushdown); they ride to pool processes
        and fleet workers with the plan, and are re-applied over a
        specialist's restriction.

    Mode validation (an unpicklable runner under ``mode="process"``)
    happens *before* this returns an iterator.
    """
    job = _plan_job(plan, executor, context, filters)
    if job is None:
        return iter(())
    metrics, tracer = context.metrics, context.tracer
    scheduler = context.scheduler
    if metrics is not None or scheduler is not None:
        job.times = {}
    job.tracer = tracer
    if scheduler is not None:
        stream = scheduler.run_join(job)
    else:
        stream = _dispatch_local(job)
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
    imbalance gauge come from the job's ``times``, which a stealing
    scheduler rewrites to what actually ran.
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


# ---------------------------------------------------------------------------
# Sharded aggregation
# ---------------------------------------------------------------------------


def shard_fold(plan: JoinPlan, executor, spec, context, filters=None):
    """Aggregate a sharded join without materializing it anywhere.

    Partitions exactly like :func:`shard_join` (same parameters), but
    each key is *folded* — pushed into the level loops for the descent
    algorithms, over the row stream of a specialist's restriction — into
    a partial :class:`~repro.aggregate.specs.AggregateSpec` state, and
    only that state travels; the parent merges the partials with
    ``spec.merge`` and returns the merged *raw* state (callers apply
    ``spec.finish``).  States are plain picklable values (ints, tuples,
    dicts), so no mode ever pickles a row.

    Shards partition the output disjointly and every spec's ``merge``
    is associative and commutative over disjoint parts, so the merged
    state equals the serial fold's state regardless of mode or shard
    completion order.  The metrics registry gets the per-shard seconds
    (the same ``times`` :func:`shard_join` feeds it from); the caller
    records the run itself.
    """
    state = spec.start()
    job = _plan_job(plan, executor, context, filters)
    if job is None:
        return state
    metrics, scheduler = context.metrics, context.scheduler
    if metrics is not None or scheduler is not None:
        job.times = {}
    if scheduler is not None:
        partials = scheduler.run_fold(job, spec)
    else:
        partials = _dispatch_local(job, spec)
    for partial in partials:
        state = spec.merge(state, partial)
    if metrics is not None:
        metrics.record_shards(seconds for seconds, _n in job.times.values())
    return state
