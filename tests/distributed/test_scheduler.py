"""Dispatch to a loopback fleet: parity, stealing, telemetry flow-back.

The acceptance gate for the fabric: a loopback fleet must yield *row-set
identical* results to a serial run across algorithms and index
backends, stealing and pre-splitting must only rearrange shard
boundaries (never rows), and worker observations must land in the same
tracer / metrics registry a local run feeds.
"""

import pytest

from repro import Q, execute
from repro.distributed import (
    DispatchScheduler,
    LoopbackTransport,
    Scheduler,
)
from repro.errors import DistributedError, PlanError
from repro.observe.metrics import MetricsRegistry
from repro.observe.tracing import Tracer
from repro.query.context import ExecutionContext
from repro.query.shards import ShardSpec, StealPolicy
from repro.workloads import generators, queries
from tests.helpers import triangle_query


def hub_query():
    return generators.hub_triangle(
        light_domain=20,
        b_domain=30,
        c_domain=100,
        r_size=150,
        s_size=250,
        t_size=500,
        seed=5,
    )


def fleet(n=2, **kwargs):
    return DispatchScheduler(
        [LoopbackTransport() for _ in range(n)], **kwargs
    )


class TestLoopbackParity:
    @pytest.mark.parametrize(
        "algorithm,backend",
        [
            ("generic", "trie"),
            ("generic", "compact"),
            ("leapfrog", "sorted"),
            ("leapfrog", "compact"),
        ],
    )
    def test_rows_identical_to_serial(self, algorithm, backend):
        query = generators.random_instance(
            queries.triangle(), 250, 25, seed=11, skew=1.0
        )
        serial = sorted(
            execute(query, algorithm=algorithm, backend=backend)
        )
        context = ExecutionContext(
            algorithm=algorithm,
            backend=backend,
            shards=ShardSpec(4),
            scheduler=fleet(),
        )
        assert sorted(execute(query, context=context)) == serial

    def test_count_folds_through_the_fleet(self):
        query = hub_query()
        expected = len(list(execute(query, algorithm="generic")))
        context = ExecutionContext(
            algorithm="generic", shards=ShardSpec(4), scheduler=fleet()
        )
        assert execute(query, context=context).count() == expected

    def test_empty_result_completes_cleanly(self):
        query = triangle_query(r_rows=((9, 9),), s_rows=((1, 1),))
        context = ExecutionContext(
            algorithm="generic", shards=ShardSpec(2), scheduler=fleet()
        )
        assert list(execute(query, context=context)) == []

    def test_early_termination_drains_the_fleet(self):
        query = hub_query()
        scheduler = fleet()
        context = ExecutionContext(
            algorithm="generic", shards=ShardSpec(4), scheduler=scheduler
        )
        stream = iter(execute(query, context=context))
        next(stream)
        stream.close()  # consumer walks away mid-run
        # The board stops; a fresh run on the same scheduler still works.
        serial = sorted(execute(query, algorithm="generic"))
        assert sorted(execute(query, context=context)) == serial


class RecordingTransport:
    """A loopback slot that notes every frame the driver sends."""

    def __init__(self) -> None:
        self.inner = LoopbackTransport()
        #: ``(op, payload bytes)`` per frame sent, in order.
        self.sent = []

    def connect(self):
        channel, sent = self.inner.connect(), self.sent
        send = channel.send

        def recording(header, payload=b""):
            sent.append((header["op"], len(payload)))
            send(header, payload)

        channel.send = recording
        return channel


class TestWhatCrossesTheWire:
    def frames(self, size):
        """One two-shard run over relations of ``size`` tuples whose
        sharded attribute always has the same four values."""
        rows = [(i % 4, i) for i in range(size)]
        query = triangle_query(
            r_rows=rows, s_rows=[(i, i) for i in range(size)], t_rows=rows
        )
        slot = RecordingTransport()
        context = ExecutionContext(
            algorithm="generic",
            attribute_order=("A", "B", "C"),
            shards=ShardSpec(2),
            scheduler=DispatchScheduler([slot]),
        )
        assert len(list(execute(query, context=context))) == size
        return slot.sent

    def test_the_job_once_per_connection_then_keys_alone(self):
        small, large = self.frames(1_000), self.frames(50_000)
        for sent in (small, large):
            assert [op for op, _n in sent] == ["ping", "job", "task", "task"]
        tasks = [
            [size for op, size in sent if op == "task"]
            for sent in (small, large)
        ]
        # Same keys over 50x the data: the task frames do not grow —
        # the relations crossed once, in the job.
        assert tasks[0] == tasks[1]
        assert max(tasks[1]) < 200
        assert dict(large)["job"] > 20 * dict(small)["job"]


class TestSchedulerProtocol:
    def test_protocol_conformance(self):
        assert isinstance(DispatchScheduler([LoopbackTransport()]), Scheduler)

    def test_context_validates_workers(self):
        with pytest.raises(PlanError):
            ExecutionContext(workers=0)

    def test_context_rejects_non_schedulers(self):
        with pytest.raises(PlanError):
            ExecutionContext(scheduler=object())


class TestStealing:
    def test_within_run_stealing_splits_the_straggler(self):
        query = hub_query()
        serial = sorted(execute(query, algorithm="generic"))
        policy = StealPolicy(hot_factor=0.01, min_completed=1)
        scheduler = fleet()
        context = ExecutionContext(
            algorithm="generic",
            shards=ShardSpec(6, steal=policy),
            scheduler=scheduler,
        )
        assert sorted(execute(query, context=context)) == serial
        assert scheduler.last_run["steals"] >= 1
        # Stealing rearranged shard boundaries, never the output: a
        # stolen shard ran as its sub-shards, so more shards ran.
        assert scheduler.last_run["shards"] > 6

    @pytest.mark.parametrize("mode", ["serial", "thread"])
    def test_steal_without_a_scheduler_is_refused_before_any_row(self, mode):
        # Only a scheduler claims shards one at a time; the local pools
        # would run the shards unsplit and say nothing.  The context is
        # still built in two steps, the scheduler joining last.
        policy = StealPolicy(hot_factor=0.01, min_completed=1)
        spec = ShardSpec(4, steal=policy)
        builder = Q(hub_query()).using(
            algorithm="generic", shards=spec, mode=mode
        )
        for view in (builder.stream, builder.count):
            with pytest.raises(PlanError, match="needs a scheduler"):
                view()
        serial = sorted(execute(hub_query(), algorithm="generic"))
        assert sorted(builder.using(scheduler=fleet())) == serial

    def test_predictive_presplit_carves_hub_shards(self):
        query = hub_query()
        serial = sorted(execute(query, algorithm="generic"))
        scheduler = fleet()
        context = ExecutionContext(
            algorithm="generic",
            shards=ShardSpec(4, predictive=True),
            scheduler=scheduler,
        )
        assert sorted(execute(query, context=context)) == serial
        assert scheduler.last_run["presplits"] >= 1
        assert scheduler.last_run["shards"] > 4

    def test_scheduler_steal_override(self):
        query = hub_query()
        scheduler = fleet(
            steal=StealPolicy(hot_factor=0.01, min_completed=1)
        )
        context = ExecutionContext(
            algorithm="generic", shards=ShardSpec(6), scheduler=scheduler
        )
        serial = sorted(execute(query, algorithm="generic"))
        assert sorted(execute(query, context=context)) == serial
        assert scheduler.last_run["steals"] >= 1

    def test_stats_accumulate_across_runs(self):
        query = triangle_query()
        scheduler = fleet()
        context = ExecutionContext(
            algorithm="generic", shards=ShardSpec(2), scheduler=scheduler
        )
        list(execute(query, context=context))
        list(execute(query, context=context))
        assert scheduler.stats["runs"] == 2
        assert scheduler.stats["shards"] >= 2


class TestTelemetryFlowBack:
    def test_worker_spans_stitch_into_the_parent_tracer(self):
        query = triangle_query()
        tracer = Tracer()
        context = ExecutionContext(
            algorithm="generic",
            shards=ShardSpec(2),
            scheduler=fleet(),
            tracer=tracer,
        )
        list(execute(query, context=context))

        def spans(roots):
            for span in roots:
                yield span
                yield from spans(span.children)

        remote = [
            s for s in spans(tracer.roots) if s.meta.get("remote") is True
        ]
        assert remote
        assert all(s.name == "shard" for s in remote)

    def test_shard_timings_reach_the_metrics_registry(self):
        query = hub_query()
        registry = MetricsRegistry()
        context = ExecutionContext(
            algorithm="generic",
            shards=ShardSpec(3),
            scheduler=fleet(),
            metrics=registry,
        )
        serial = sorted(execute(query, algorithm="generic"))
        assert sorted(execute(query, context=context)) == serial
        histogram = registry.histogram("repro_shard_seconds")
        assert 1 <= histogram.count <= 3
        assert histogram.sum >= 0.0
        rows = registry.counter("repro_rows_emitted_total").value()
        assert rows == len(serial)


class TestValidation:
    def test_empty_fleet_rejected(self):
        with pytest.raises(DistributedError):
            DispatchScheduler([])

    def test_negative_retries_rejected(self):
        with pytest.raises(DistributedError):
            DispatchScheduler([LoopbackTransport()], max_retries=-1)

    def test_shard_spec_validation(self):
        with pytest.raises(PlanError):
            ShardSpec(0)
        with pytest.raises(PlanError):
            ShardSpec("sideways")
        with pytest.raises(PlanError):
            StealPolicy(split_factor=1)
        with pytest.raises(PlanError):
            StealPolicy(hot_factor=0.0)
        assert ShardSpec.coerce(4) == ShardSpec(4)
        assert ShardSpec.coerce(None) is None
        spec = ShardSpec(2, steal=True)
        assert spec.steal == StealPolicy()
