"""Distributed shard fabric: the local sharded engine, fleet-scaled.

PR 1 put every algorithm behind one streaming seam; the parallel
driver scaled it to local pools; this package scales the *same shards*
to a worker fleet without changing a single caller-visible signature:

* :mod:`~repro.distributed.wire` / :mod:`~repro.distributed.transport`
  — length-prefixed frames (JSON header + pickled payload) over TCP
  (:class:`SocketTransport`) or an in-process ``socketpair``
  (:class:`LoopbackTransport`, the test and benchmark fleet);
* :mod:`~repro.distributed.worker` — the shard worker (it binds the
  driver's plan once per connection, then runs shard keys over it;
  it never profiles or plans) and the ``python -m repro worker``
  server;
* :mod:`~repro.distributed.scheduler` — the :class:`Scheduler`
  protocol (``ExecutionContext.scheduler``) and
  :class:`DispatchScheduler`: per-shard retry with
  backoff, exactly-once shard accounting, graceful drain;
* :mod:`~repro.distributed.stealing` — predictive pre-splitting of
  hub-heavy shards and the within-run steal-rate model.

Typical use::

    from repro import DispatchScheduler, ExecutionContext, ShardSpec
    from repro.distributed import SocketTransport

    fleet = DispatchScheduler(
        [SocketTransport("10.0.0.5", 7102),
         SocketTransport("10.0.0.6", 7102)]
    )
    ctx = ExecutionContext(
        shards=ShardSpec("auto", predictive=True, steal=True),
        scheduler=fleet,
    )
"""

from repro.distributed.scheduler import DispatchScheduler, Scheduler
from repro.distributed.stealing import RateModel, predictive_presplit
from repro.distributed.transport import (
    Channel,
    LoopbackTransport,
    SocketTransport,
)
from repro.distributed.wire import ConnectionClosed, recv_frame, send_frame
from repro.distributed.worker import ShardWorker, WorkerServer
from repro.query.shards import ShardSpec, StealPolicy

__all__ = [
    "Channel",
    "ConnectionClosed",
    "DispatchScheduler",
    "LoopbackTransport",
    "RateModel",
    "Scheduler",
    "ShardSpec",
    "ShardWorker",
    "SocketTransport",
    "StealPolicy",
    "WorkerServer",
    "predictive_presplit",
    "recv_frame",
    "send_frame",
]
