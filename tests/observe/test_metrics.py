"""Unit tests for the metrics registry: families, ingest hooks fed from
the engine's existing instrumentation, and both export formats."""

import json

import pytest

from repro import Q, Relation
from repro.observe.metrics import (
    METRICS_FORMAT,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.relations.database import Database
from repro.version import __version__

TRIANGLE = (
    Relation("R", ("A", "B"), [(0, 1), (1, 2)]),
    Relation("S", ("B", "C"), [(1, 5), (2, 6)]),
    Relation("T", ("A", "C"), [(0, 5), (1, 6)]),
)


class TestFamilies:
    def test_counter_accumulates_per_label_set(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(2, backend="trie")
        assert counter.value() == 1
        assert counter.value(backend="trie") == 2

    def test_counter_rejects_decrease(self):
        with pytest.raises(ValueError):
            Counter("c").inc(-1)

    def test_counter_set_total_is_idempotent(self):
        counter = Counter("c")
        counter.set_total(5)
        counter.set_total(5)
        assert counter.value() == 5

    def test_gauge_moves_both_ways(self):
        gauge = Gauge("g")
        gauge.set(3.5)
        gauge.set(1.0)
        assert gauge.value() == 1.0

    def test_histogram_buckets_are_cumulative(self):
        histogram = Histogram("h", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 5.0):
            histogram.observe(value)
        assert histogram.bucket_counts() == (
            (0.1, 1),
            (1.0, 2),
            (float("inf"), 3),
        )
        assert histogram.count == 3
        assert histogram.sum == pytest.approx(5.55)

    def test_registry_get_or_create(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")
        with pytest.raises(ValueError):
            registry.gauge("x")
        assert len(registry) == 1


class TestIngest:
    def test_record_run_comes_from_telemetry(self):
        # EXPLAIN ANALYZE is the run that carries a per-level probe.
        registry = MetricsRegistry()
        analysis = (
            Q(*TRIANGLE)
            .using(algorithm="generic", metrics=registry)
            .explain(analyze=True)
        )
        assert analysis.rows == 2
        assert registry.counter("repro_rows_emitted_total").value() == 2
        assert registry.counter("repro_runs_total").value() == 1
        assert (
            registry.counter("repro_intersection_probes_total").value() > 0
        )

    def test_record_rows_fallback_without_probe(self):
        registry = MetricsRegistry()
        list(Q(*TRIANGLE).using(algorithm="lw", metrics=registry).stream())
        assert registry.counter("repro_rows_emitted_total").value() == 2
        assert registry.counter("repro_runs_total").value() == 1
        # No probe was built, so no probe-derived series appears.
        assert (
            registry.counter("repro_intersection_probes_total").value() == 0
        )

    def test_record_cache_mirrors_cache_info(self):
        registry = MetricsRegistry()
        db = Database(list(TRIANGLE))
        db.trie("R", ("A", "B"))
        db.trie("R", ("A", "B"))
        registry.record_cache(db.cache_info())
        registry.record_cache(db.cache_info())  # idempotent refresh
        assert (
            registry.counter("repro_index_cache_hits_total").value() == 1
        )
        assert (
            registry.counter("repro_index_cache_misses_total").value() == 1
        )
        info = db.cache_info()
        bytes_gauge = registry.gauge("repro_index_cache_bytes")
        assert bytes_gauge.value(backend="all") == info.bytes_total
        assert bytes_gauge.value(backend="trie") == info.bytes_total

    def test_record_shards_imbalance(self):
        registry = MetricsRegistry()
        registry.record_shards([1.0, 1.0, 4.0])
        assert registry.gauge("repro_shard_imbalance_ratio").value() == (
            pytest.approx(2.0)
        )
        assert registry.histogram("repro_shard_seconds").count == 3
        registry.record_shards([])  # no shards: nothing folded
        assert registry.histogram("repro_shard_seconds").count == 3

    def test_sharded_run_feeds_shard_metrics(self):
        registry = MetricsRegistry()
        rows = list(
            Q(*TRIANGLE)
            .using(shards=2, mode="serial", metrics=registry)
            .stream()
        )
        assert len(rows) == 2
        assert registry.counter("repro_sharded_runs_total").value() == 1
        assert registry.gauge("repro_shard_imbalance_ratio").value() >= 1.0
        assert registry.counter("repro_rows_emitted_total").value() == 2

    @pytest.mark.parametrize(
        "options",
        [
            {},
            {"shards": 2, "mode": "serial"},
            {"shards": 2, "mode": "thread"},
            {"shards": 2, "mode": "process"},
        ],
        ids=["serial", "shards-serial", "shards-thread", "shards-process"],
    )
    @pytest.mark.parametrize(
        "fold,expected",
        [
            (lambda builder: builder.count(), 2),
            (
                lambda builder: builder.group_by("A").count(),
                {(0,): 1, (1,): 1},
            ),
        ],
        ids=["count", "grouped"],
    )
    def test_a_folded_aggregate_is_a_recorded_run(
        self, options, fold, expected
    ):
        """A fold emits no rows but it is a run: the run counter and the
        cache mirror move, and a sharded fold records its shards from
        the same per-shard clocks a sharded stream does."""
        db = Database(TRIANGLE)
        registry = MetricsRegistry()
        builder = Q(*db).on(db).using(metrics=registry, **options)
        assert fold(builder) == expected
        assert registry.counter("repro_runs_total").value() == 1
        assert registry.counter("repro_rows_emitted_total").value() == 0
        assert (
            registry.counter("repro_index_cache_misses_total").value()
            == db.cache_info().misses
            > 0
        )
        sharded = registry.counter("repro_sharded_runs_total").value()
        assert sharded == (1 if options else 0)
        if options:
            assert registry.histogram("repro_shard_seconds").count == 2

    def test_context_metrics_true_sugar(self):
        builder = Q(*TRIANGLE).using(metrics=True)
        assert isinstance(builder.context.metrics, MetricsRegistry)

    def test_early_close_records_nothing(self):
        registry = MetricsRegistry()
        stream = Q(*TRIANGLE).using(metrics=registry).stream()
        next(stream)
        stream.close()
        # An abandoned run must not feed an undercounted row total.
        assert registry.counter("repro_rows_emitted_total").value() == 0
        assert registry.counter("repro_runs_total").value() == 0


class TestExport:
    def _loaded(self):
        registry = MetricsRegistry()
        registry.counter("repro_runs_total", "runs").inc(3)
        registry.gauge("repro_index_cache_bytes", "bytes").set(
            128, backend="trie"
        )
        registry.record_shards([0.01, 0.02])
        return registry

    def test_to_dict_header_and_shapes(self):
        record = self._loaded().to_dict()
        assert record["format"] == METRICS_FORMAT
        assert record["version"] == __version__
        by_name = {m["name"]: m for m in record["metrics"]}
        assert by_name["repro_runs_total"]["samples"] == [
            {"labels": {}, "value": 3}
        ]
        histogram = by_name["repro_shard_seconds"]
        assert histogram["count"] == 2
        assert histogram["buckets"][-1]["le"] == "+Inf"
        assert json.loads(self._loaded().to_json())["format"] == (
            METRICS_FORMAT
        )

    def test_prometheus_text_format(self):
        text = self._loaded().to_prometheus()
        lines = text.splitlines()
        assert lines[0] == f"# repro {__version__} ({METRICS_FORMAT})"
        assert f'repro_build_info{{version="{__version__}"}} 1' in lines
        assert "# TYPE repro_runs_total counter" in lines
        assert "repro_runs_total 3" in lines
        assert 'repro_index_cache_bytes{backend="trie"} 128' in lines
        assert 'repro_shard_seconds_bucket{le="+Inf"} 2' in lines
        assert "repro_shard_seconds_count 2" in lines
        assert text.endswith("\n")
