"""Schedulers: where a sharded execution's work actually runs.

The engine's drivers (:func:`repro.engine.parallel.shard_join` /
``shard_fold``) partition the caller's plan into shard keys, package
them with the bound plan as a
:class:`~repro.engine.parallel.ShardJob`, and hand it to whatever the
:class:`~repro.query.context.ExecutionContext` carries as its
``scheduler``:

* ``None`` — the engine's own local pools (``mode`` / ``workers`` on
  the context pick and size them);
* :class:`DispatchScheduler` — a remote worker fleet with per-shard
  retry, exactly-once accounting, and within-run work stealing.

Exactly-once, in one paragraph: every shard lives on a *board* in one
of three states — pending, running (owned by exactly one driver
thread), or finished.  A driver buffers the rows of its current
attempt privately and commits them in a single critical section when
the worker's ``done`` frame arrives (a fold's one ``state`` frame is a
one-item attempt, committed the same way); commit moves the shard to
finished and releases the rows to the consumer.  A worker death
(connection drop or timeout) before ``done`` discards the buffered
rows and returns the shard to pending with a backoff stamp — the rows
never reached the consumer, so the retry cannot duplicate them; a
death *after* commit loses nothing because the shard is no longer on
the board.  Frames from an abandoned attempt are skipped by request
id.  The board knows nothing of connections: the job (the pickled plan,
once per run) is installed on a connection right after its liveness
probe, so a reconnect after a death re-sends it before the retried
shard's key.  A typed ``error`` frame is a permanent failure (the same bytes
would fail the same way everywhere) and aborts the run; exhausted
retries and a fully dead fleet abort likewise, with
:class:`~repro.errors.DistributedError` raised in the consumer.

Stealing happens at *claim* time, under the board lock, while the
parent shard is still pending — it never ran, so splitting it cannot
double rows: the claimer replaces it with sub-shards (split by
:func:`~repro.engine.parallel.split_entry`, one attribute deeper),
takes the first, and leaves the rest for idle workers.  See
:mod:`repro.distributed.stealing` for when a shard counts as hot.
"""

from __future__ import annotations

import itertools
import pickle
import queue as queue_module
import threading
import time
from collections.abc import Iterator
from typing import Protocol, runtime_checkable

from repro.distributed.stealing import RateModel
from repro.distributed.wire import ConnectionClosed
from repro.engine.parallel import ShardJob, ShardPlanEntry, split_entry
from repro.errors import DistributedError

__all__ = ["DispatchScheduler", "Scheduler"]


@runtime_checkable
class Scheduler(Protocol):
    """What ``ExecutionContext.scheduler`` must implement."""

    def run_join(self, job: ShardJob) -> Iterator:
        """Run a join job; yield its rows (any order across shards)."""

    def run_fold(self, job: ShardJob, spec) -> list:
        """Run a fold job; return the per-shard partial states."""


class _Item:
    """One shard's board entry (identity-keyed; mutable attempt state)."""

    __slots__ = ("entry", "attempts", "not_before")

    def __init__(self, entry: ShardPlanEntry) -> None:
        self.entry = entry
        self.attempts = 0
        self.not_before = 0.0


class _Run:
    """The shared board for one job: shard states, rate model, sink."""

    def __init__(
        self, job: ShardJob, spec, policy, max_retries, backoff
    ) -> None:
        self.job = job
        #: The fold spec; ``None`` for a join.
        self.spec = spec
        #: What every connection binds before its first key: the plan
        #: and the spec, pickled once per run.
        self.payload = pickle.dumps(
            (job.runner, spec), protocol=pickle.HIGHEST_PROTOCOL
        )
        self.policy = policy
        self.max_retries = max_retries
        self.backoff = backoff
        self.lock = threading.Lock()
        self.cond = threading.Condition(self.lock)
        self.pending: list[_Item] = [_Item(e) for e in job.entries]
        self.running: dict[int, _Item] = {}
        #: (entry, seconds, rows) per committed shard, completion order.
        self.finished: list[tuple[ShardPlanEntry, float, int]] = []
        self.sink: queue_module.Queue = queue_module.Queue()
        self.failure: Exception | None = None
        self.stopped = False
        self.model = RateModel()
        self.alive = 0
        self.steals = 0
        self.retries = 0
        self._rid = itertools.count(1)

    def next_rid(self) -> int:
        return next(self._rid)

    # -- driver lifecycle ---------------------------------------------------

    def driver_started(self) -> None:
        with self.cond:
            self.alive += 1

    def driver_retired(self) -> None:
        with self.cond:
            self.alive -= 1
            if (
                self.alive == 0
                and (self.pending or self.running)
                and self.failure is None
                and not self.stopped
            ):
                self._abort(
                    DistributedError(
                        f"all workers died with "
                        f"{len(self.pending) + len(self.running)} "
                        f"shard(s) still pending"
                    )
                )

    # -- claiming (and stealing) --------------------------------------------

    def claim(self) -> _Item | None:
        """Take ownership of one pending shard; ``None`` means retire.

        Claim order is lightest-first under a steal policy (warm the
        rate model on cheap shards; likely stragglers wait where they
        can still be split) and heaviest-first otherwise (classic LPT:
        start the long poles early).
        """
        with self.cond:
            while True:
                if self.failure is not None or self.stopped:
                    return None
                if not self.pending and not self.running:
                    return None
                now = time.monotonic()
                ready = [i for i in self.pending if i.not_before <= now]
                if not ready:
                    # Only backed-off (or running) work remains; sleep
                    # until the nearest retry unlocks or state changes.
                    horizon = 0.05
                    if self.pending:
                        horizon = max(
                            min(i.not_before for i in self.pending) - now,
                            0.005,
                        )
                    self.cond.wait(timeout=horizon)
                    continue
                if self.policy is not None:
                    item = min(ready, key=lambda i: i.entry.weight)
                else:
                    item = max(ready, key=lambda i: i.entry.weight)
                if (
                    self.policy is not None
                    and item.attempts == 0
                    and len(item.entry.key) <= self.policy.max_split_depth
                    and len(ready) < self.alive
                    and self.model.hot(item.entry.weight, self.policy)
                ):
                    subs = split_entry(
                        self.job.query,
                        item.entry,
                        self.job.order,
                        self.policy.split_factor,
                    )
                    if len(subs) > 1:
                        # The parent never ran: replacing it with its
                        # exact partition preserves the output multiset.
                        self.steals += 1
                        self.pending.remove(item)
                        sub_items = [_Item(e) for e in subs]
                        self.pending.extend(sub_items[1:])
                        self.cond.notify_all()
                        item = sub_items[0]
                        self.running[id(item)] = item
                        return item
                self.pending.remove(item)
                self.running[id(item)] = item
                return item

    # -- state transitions --------------------------------------------------

    def commit(self, item: _Item, items, seconds: float, span=None) -> None:
        """One shard done: release its items — its rows, or a fold's
        one partial state — exactly once."""
        with self.cond:
            if self.failure is not None or self.stopped:
                return
            self.running.pop(id(item), None)
            self.finished.append((item.entry, seconds, len(items)))
            self.model.observe(seconds, item.entry.weight)
            # The span travels with the items: the tracer is
            # single-driver, so the consuming thread attaches it, under
            # the ``execute`` span that consumer has open.
            self.sink.put(("items", (items, span)))
            if not self.pending and not self.running:
                self._complete()
            self.cond.notify_all()

    def requeue(self, item: _Item, error: Exception) -> None:
        """Transient failure: back the shard off and retry elsewhere."""
        with self.cond:
            if self.failure is not None or self.stopped:
                return
            self.running.pop(id(item), None)
            item.attempts += 1
            if item.attempts > self.max_retries:
                self._abort(
                    DistributedError(
                        f"shard {item.entry.key!r} failed "
                        f"{item.attempts} time(s), retry budget "
                        f"exhausted: {error}"
                    )
                )
                return
            self.retries += 1
            item.not_before = time.monotonic() + self.backoff * (
                2 ** (item.attempts - 1)
            )
            self.pending.append(item)
            self.cond.notify_all()

    def abort(self, error: Exception) -> None:
        with self.cond:
            self._abort(error)

    def _abort(self, error: Exception) -> None:  # caller holds the lock
        if self.failure is None and not self.stopped:
            self.failure = error
            self.sink.put(("error", error))
        self.cond.notify_all()

    def stop(self) -> None:
        """Consumer gone (early termination): retire every driver."""
        with self.cond:
            self.stopped = True
            self.cond.notify_all()

    def _complete(self) -> None:  # caller holds the lock
        # Write what actually ran back into the job, in completion
        # order, so the engine's metrics wrapper observes the
        # post-steal reality: entry[i] and times[i] describe the same
        # shard, and len(times) == len(entries) marks the run complete.
        self.job.entries[:] = [entry for entry, _s, _r in self.finished]
        if self.job.times is not None:
            self.job.times.clear()
            self.job.times.update(
                {
                    index: (seconds, rows)
                    for index, (_e, seconds, rows) in enumerate(
                        self.finished
                    )
                }
            )
        self.job.stats.update(self.summary())
        self.sink.put(("done", None))

    def summary(self) -> dict:  # caller holds the lock (or run is over)
        seconds = [s for _e, s, _r in self.finished]
        return {
            "shards": len(self.finished),
            "steals": self.steals,
            "retries": self.retries,
            "presplits": self.job.stats.get("presplits", 0),
            "shard_seconds": sum(seconds),
            "max_shard_seconds": max(seconds, default=0.0),
        }


class DispatchScheduler:
    """Run shard jobs on a worker fleet, one driver thread per slot.

    ``transports`` is a sequence of
    :class:`~repro.distributed.transport.SocketTransport` /
    ``LoopbackTransport`` (or anything with ``connect()``) — one per
    worker slot.  Each driver connects, probes with a ping, installs the
    run's job, then loops: claim a shard from the board, ship its pickled
    key, buffer the row frames, commit on ``done``.  A connection
    failure anywhere in that loop requeues the claimed shard (backoff,
    bounded by ``max_retries`` per shard) and reconnects through the
    same transport — a transport is the durable name of a slot, so a
    restarted worker resumes service transparently.

    ``steal=`` overrides the job's
    :class:`~repro.query.shards.StealPolicy` (contexts usually carry it
    on their :class:`~repro.query.shards.ShardSpec` instead).
    ``stats`` accumulates across runs; ``last_run`` holds the final
    board summary of the most recent one.
    """

    def __init__(
        self,
        transports,
        *,
        max_retries: int = 2,
        retry_backoff: float = 0.05,
        task_timeout: float = 60.0,
        steal=None,
    ) -> None:
        self.transports = list(transports)
        if not self.transports:
            raise DistributedError(
                "DispatchScheduler needs at least one transport"
            )
        if max_retries < 0:
            raise DistributedError(
                f"max_retries must be >= 0, got {max_retries!r}"
            )
        self.max_retries = max_retries
        self.retry_backoff = retry_backoff
        self.task_timeout = task_timeout
        self.steal = steal
        self.stats = {
            "runs": 0,
            "shards": 0,
            "steals": 0,
            "retries": 0,
            "presplits": 0,
        }
        self.last_run: dict = {}

    # -- Scheduler protocol -------------------------------------------------

    def run_join(self, job: ShardJob) -> Iterator:
        return self._consume(*self._start(job))

    def run_fold(self, job: ShardJob, spec) -> list:
        return list(self._consume(*self._start(job, spec)))

    # -- machinery ----------------------------------------------------------

    def _start(self, job: ShardJob, spec=None):
        policy = self.steal if self.steal is not None else job.steal
        run = _Run(job, spec, policy, self.max_retries, self.retry_backoff)
        if not job.entries:
            with run.cond:
                run._complete()
            return run, []
        width = min(len(self.transports), len(job.entries))
        threads = [
            threading.Thread(
                target=self._drive, args=(run, transport), daemon=True
            )
            for transport in self.transports[:width]
        ]
        for thread in threads:
            run.driver_started()
        for thread in threads:
            thread.start()
        return run, threads

    def _consume(self, run: _Run, threads) -> Iterator:
        try:
            while True:
                kind, payload = run.sink.get()
                if kind == "items":
                    items, span = payload
                    if span is not None and run.job.tracer is not None:
                        run.job.tracer.attach(span)
                    yield from items
                elif kind == "done":
                    return
                else:
                    raise payload
        finally:
            self._wind_down(run, threads)

    def _wind_down(self, run: _Run, threads) -> None:
        run.stop()
        for thread in threads:
            thread.join(timeout=2.0)
        self.last_run = run.summary()
        self.stats["runs"] += 1
        for key in ("shards", "steals", "retries", "presplits"):
            self.stats[key] += self.last_run.get(key, 0)

    def _connect(self, run: _Run, transport):
        """One connection attempt: a liveness probe, then the job.
        ``None`` on failure — a transient one retires this slot quietly,
        a worker that *refuses* the job aborts the run."""
        try:
            channel = transport.connect()
        except (OSError, DistributedError):
            return None
        try:
            channel.settimeout(self.task_timeout)
            channel.send({"op": "ping", "id": 0})
            header, _payload = channel.recv()
            if header.get("op") != "pong":
                raise ConnectionClosed(
                    f"expected pong, got {header.get('op')!r}"
                )
            channel.send({"op": "job", "id": 0}, run.payload)
            header, _payload = channel.recv()
            op = header.get("op")
            if op == "error":
                # Typed, so permanent; the slot still closes below.
                run.abort(_worker_error("the job", header))
            if op != "ready":
                raise ConnectionClosed(f"expected ready, got {op!r}")
        except (OSError, DistributedError):
            channel.close()
            return None
        return channel

    def _drive(self, run: _Run, transport) -> None:
        channel = None
        try:
            channel = self._connect(run, transport)
            if channel is None:
                return
            while True:
                item = run.claim()
                if item is None:
                    return
                try:
                    self._execute(run, channel, item)
                except (ConnectionClosed, OSError) as error:
                    # Transient: this worker (or its link) died mid-
                    # shard.  The buffered rows of the attempt die with
                    # this frame of the stack — nothing reached the
                    # consumer — so the retry starts from zero rows, on
                    # a connection that has been sent the job again.
                    run.requeue(item, error)
                    channel.close()
                    channel = self._connect(run, transport)
                    if channel is None:
                        return
        finally:
            if channel is not None:
                channel.close()
            run.driver_retired()

    def _execute(self, run: _Run, channel, item: _Item) -> None:
        """Ship one key — as a ``fold`` when the run carries a spec, a
        ``task`` otherwise — and buffer its answer until the frame that
        ends it commits the shard."""
        rid = run.next_rid()
        channel.send(
            {
                "op": "task" if run.spec is None else "fold",
                "id": rid,
                "trace": run.job.tracer is not None,
            },
            pickle.dumps(item.entry.key, protocol=pickle.HIGHEST_PROTOCOL),
        )
        buffered: list = []
        while True:
            header, data = channel.recv()
            if header.get("id") != rid:
                # A stale or duplicated frame from an earlier request on
                # this channel (e.g. a worker that re-sent its ack).
                # Skipping by id is what makes duplicate acks harmless.
                continue
            op = header.get("op")
            seconds = float(header.get("seconds", 0.0))
            if op == "rows":
                buffered.extend(pickle.loads(data))
            elif op == "done":
                span = (
                    pickle.loads(data) if header.get("span") and data else None
                )
                run.commit(item, buffered, seconds, span)
                return
            elif op == "state":
                run.commit(item, [pickle.loads(data)], seconds)
                return
            elif op == "error":
                run.abort(_worker_error(f"shard {item.entry.key!r}", header))
                return
            else:
                raise ConnectionClosed(f"unexpected frame op {op!r}")

    # -- fleet management ---------------------------------------------------

    def close(self, shutdown_workers: bool = False) -> None:
        """Drain the fleet.

        With ``shutdown_workers`` the scheduler connects to each slot
        once more and sends the ``shutdown`` frame — the graceful stop
        for fleets this process started (the CLI's ``--workers`` path
        leaves foreign workers running by default).
        """
        if not shutdown_workers:
            return
        for transport in self.transports:
            try:
                channel = transport.connect()
            except (OSError, DistributedError):
                continue
            try:
                channel.settimeout(5.0)
                channel.send({"op": "shutdown"})
                channel.recv()  # the "bye", best effort
            except (OSError, DistributedError):
                pass
            finally:
                channel.close()


def _worker_error(what: str, header: dict) -> DistributedError:
    error = header.get("error") or {}
    return DistributedError(
        f"worker failed {what} permanently "
        f"[{error.get('type', 'internal')}]: "
        f"{error.get('message', 'no detail')}"
    )
