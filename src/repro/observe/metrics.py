"""The metrics registry: counters, gauges, histograms — no new probes.

Every number here is *fed from instrumentation that already exists*:

* rows emitted and intersection probes come from
  :class:`~repro.observe.telemetry.TelemetryProbe` snapshots
  (:meth:`MetricsRegistry.record_run`);
* index-cache hits / misses / evictions and resident bytes by backend
  mirror ``Database.cache_info()`` (:meth:`MetricsRegistry.record_cache`
  — cumulative totals are *set*, not re-counted, so refreshing is
  idempotent);
* per-shard wall times and the imbalance ratio come from the parallel
  driver's existing shard timing (:meth:`MetricsRegistry.record_shards`).

Exports: :meth:`MetricsRegistry.to_dict` / ``to_json`` (a header with
the package version and format tag, then every metric), and
:meth:`MetricsRegistry.to_prometheus` — the Prometheus text exposition
format, written dependency-free (``# HELP`` / ``# TYPE`` comment pairs,
``name{label="v"} value`` samples, histograms as cumulative ``_bucket``
series plus ``_sum`` / ``_count``).
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Mapping

from repro.version import __version__

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
]

#: Format tag stamped into every metrics export header.
METRICS_FORMAT = "repro-metrics/1"

#: Default histogram bucket upper bounds (seconds-flavored: shard wall
#: times are the only histogram the engine feeds out of the box).
DEFAULT_BUCKETS = (
    0.001,
    0.005,
    0.025,
    0.1,
    0.5,
    2.5,
    10.0,
)


def _label_key(labels: Mapping[str, str]) -> tuple[tuple[str, str], ...]:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _render_labels(key: tuple[tuple[str, str], ...]) -> str:
    if not key:
        return ""
    inner = ",".join(f'{name}="{value}"' for name, value in key)
    return "{" + inner + "}"


class Counter:
    """A monotonically non-decreasing count.

    ``inc`` adds locally observed events; ``set_total`` mirrors a
    cumulative total an existing instrumentation source already keeps
    (``cache_info().hits`` and friends) without double counting.
    """

    __slots__ = ("name", "help", "_values")

    kind = "counter"

    def __init__(self, name: str, help_text: str = "") -> None:
        self.name = name
        self.help = help_text
        self._values: dict[tuple[tuple[str, str], ...], float] = {}

    def inc(self, amount: float = 1, **labels: str) -> None:
        if amount < 0:
            raise ValueError(
                f"counter {self.name} cannot decrease (inc {amount})"
            )
        key = _label_key(labels)
        self._values[key] = self._values.get(key, 0) + amount

    def set_total(self, total: float, **labels: str) -> None:
        """Mirror an externally kept cumulative total (idempotent)."""
        self._values[_label_key(labels)] = total

    def value(self, **labels: str) -> float:
        return self._values.get(_label_key(labels), 0)

    def samples(self):
        for key, value in sorted(self._values.items()):
            yield key, value


class Gauge:
    """A value that can go up or down (resident bytes, imbalance)."""

    __slots__ = ("name", "help", "_values")

    kind = "gauge"

    def __init__(self, name: str, help_text: str = "") -> None:
        self.name = name
        self.help = help_text
        self._values: dict[tuple[tuple[str, str], ...], float] = {}

    def set(self, value: float, **labels: str) -> None:
        self._values[_label_key(labels)] = value

    def value(self, **labels: str) -> float:
        return self._values.get(_label_key(labels), 0)

    def samples(self):
        for key, value in sorted(self._values.items()):
            yield key, value


class Histogram:
    """Cumulative-bucket histogram (Prometheus semantics).

    ``buckets`` are upper bounds; every observation lands in each bucket
    whose bound is >= the value, plus the implicit ``+Inf`` bucket.
    """

    __slots__ = ("name", "help", "buckets", "_counts", "_sum", "_count")

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str = "",
        buckets: Iterable[float] = DEFAULT_BUCKETS,
    ) -> None:
        self.name = name
        self.help = help_text
        self.buckets = tuple(sorted(float(b) for b in buckets))
        if not self.buckets:
            raise ValueError(f"histogram {name} needs at least one bucket")
        self._counts = [0] * len(self.buckets)
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        self._sum += value
        self._count += 1
        # _counts is per-bucket; bucket_counts() accumulates at render
        # time, so only the first fitting bucket is charged here.
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self._counts[i] += 1
                break

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def bucket_counts(self) -> tuple[tuple[float, int], ...]:
        """Cumulative ``(upper bound, count)`` pairs, ``+Inf`` last."""
        cumulative = []
        running = 0
        for bound, in_bucket in zip(self.buckets, self._counts):
            running += in_bucket
            cumulative.append((bound, running))
        cumulative.append((float("inf"), self._count))
        return tuple(cumulative)


class MetricsRegistry:
    """Get-or-create metric families plus the engine's ingest hooks.

    One registry typically lives as long as a process (a server, a
    benchmark run); attach it to executions via
    ``ExecutionContext(metrics=registry)`` and export at scrape time.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}

    # -- families -----------------------------------------------------------

    def _get(self, factory, name: str, help_text: str, **kwargs):
        metric = self._metrics.get(name)
        if metric is None:
            metric = factory(name, help_text, **kwargs)
            self._metrics[name] = metric
        elif not isinstance(metric, factory):
            raise ValueError(
                f"metric {name!r} already registered as {metric.kind}"
            )
        return metric

    def counter(self, name: str, help_text: str = "") -> Counter:
        return self._get(Counter, name, help_text)

    def gauge(self, name: str, help_text: str = "") -> Gauge:
        return self._get(Gauge, name, help_text)

    def histogram(
        self,
        name: str,
        help_text: str = "",
        buckets: Iterable[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._get(Histogram, name, help_text, buckets=buckets)

    def __iter__(self):
        return iter(sorted(self._metrics.values(), key=lambda m: m.name))

    def __len__(self) -> int:
        return len(self._metrics)

    # -- ingest: existing instrumentation only ------------------------------

    def record_run(self, telemetry) -> None:
        """Fold one :class:`~repro.observe.telemetry.ExecutionTelemetry`
        snapshot in: rows emitted, intersection probes (the summed
        candidate enumerations), and completed-run count."""
        self.counter(
            "repro_rows_emitted_total",
            "Result rows emitted by measured executions",
        ).inc(telemetry.rows)
        self.counter(
            "repro_intersection_probes_total",
            "Candidate values enumerated across all levels "
            "(the engine's search work)",
        ).inc(telemetry.total_candidates)
        self.counter(
            "repro_runs_total", "Measured executions folded in"
        ).inc()

    def record_rows(self, rows: int) -> None:
        """Row-count-only ingest for executions without a per-level
        probe (algorithms outside ``DESCENT_ALGORITHMS``, sharded runs)."""
        self.counter(
            "repro_rows_emitted_total",
            "Result rows emitted by measured executions",
        ).inc(rows)
        self.counter(
            "repro_runs_total", "Measured executions folded in"
        ).inc()

    def record_cache(self, info) -> None:
        """Mirror a ``Database.cache_info()`` snapshot.

        Hits / misses / evictions are the catalog's own cumulative
        counters (set, not incremented — refreshing after every run is
        idempotent); resident bytes are gauged per backend kind.
        """
        self.counter(
            "repro_index_cache_hits_total", "Index lookups served cached"
        ).set_total(info.hits)
        self.counter(
            "repro_index_cache_misses_total", "Index lookups that built"
        ).set_total(info.misses)
        self.counter(
            "repro_index_cache_evictions_total",
            "Indexes evicted to stay within budget",
        ).set_total(info.evictions)
        self.gauge(
            "repro_index_cache_entries", "Indexes currently resident"
        ).set(info.entries)
        bytes_gauge = self.gauge(
            "repro_index_cache_bytes",
            "Resident index bytes by backend kind",
        )
        bytes_gauge.set(info.bytes_total, backend="all")
        for backend, nbytes in sorted(info.bytes_by_backend.items()):
            bytes_gauge.set(nbytes, backend=backend)

    def record_shards(self, seconds_by_shard: Iterable[float]) -> None:
        """Fold one sharded run's per-shard wall times in: the shard
        wall histogram and the run's imbalance ratio (max / mean — 1.0
        is a perfectly balanced partition)."""
        seconds = [float(s) for s in seconds_by_shard]
        if not seconds:
            return
        histogram = self.histogram(
            "repro_shard_seconds", "Per-shard wall seconds"
        )
        for value in seconds:
            histogram.observe(value)
        mean = sum(seconds) / len(seconds)
        ratio = (max(seconds) / mean) if mean > 0 else 1.0
        self.gauge(
            "repro_shard_imbalance_ratio",
            "max/mean shard wall time of the last sharded run",
        ).set(ratio)
        self.counter(
            "repro_sharded_runs_total", "Sharded executions folded in"
        ).inc()

    # -- export -------------------------------------------------------------

    def to_dict(self) -> dict:
        """Every metric with its samples, under the version header."""
        metrics = []
        for metric in self:
            entry: dict = {
                "name": metric.name,
                "kind": metric.kind,
                "help": metric.help,
            }
            if isinstance(metric, Histogram):
                entry["sum"] = metric.sum
                entry["count"] = metric.count
                entry["buckets"] = [
                    {
                        "le": ("+Inf" if bound == float("inf") else bound),
                        "count": count,
                    }
                    for bound, count in metric.bucket_counts()
                ]
            else:
                entry["samples"] = [
                    {"labels": dict(key), "value": value}
                    for key, value in metric.samples()
                ]
            metrics.append(entry)
        return {
            "format": METRICS_FORMAT,
            "version": __version__,
            "metrics": metrics,
        }

    def to_json(self, indent: int = 2) -> str:
        """The registry as JSON text (header included)."""
        return json.dumps(self.to_dict(), indent=indent)

    def to_prometheus(self) -> str:
        """The registry in the Prometheus text exposition format.

        The version travels as a leading comment *and* as a standard
        ``repro_build_info`` gauge (the ``_info`` idiom), so scrapes keep
        it even after comments are stripped.
        """
        lines = [
            f"# repro {__version__} ({METRICS_FORMAT})",
            "# HELP repro_build_info Engine build that produced this scrape",
            "# TYPE repro_build_info gauge",
            f'repro_build_info{{version="{__version__}"}} 1',
        ]
        for metric in self:
            lines.append(f"# HELP {metric.name} {metric.help}")
            lines.append(f"# TYPE {metric.name} {metric.kind}")
            if isinstance(metric, Histogram):
                for bound, count in metric.bucket_counts():
                    le = "+Inf" if bound == float("inf") else repr(bound)
                    lines.append(
                        f'{metric.name}_bucket{{le="{le}"}} {count}'
                    )
                lines.append(f"{metric.name}_sum {metric.sum}")
                lines.append(f"{metric.name}_count {metric.count}")
            else:
                for key, value in metric.samples():
                    lines.append(
                        f"{metric.name}{_render_labels(key)} {value:g}"
                    )
        return "\n".join(lines) + "\n"

    def __repr__(self) -> str:
        return f"MetricsRegistry({len(self)} metric(s))"
