"""Query observability: tracing spans, a metrics registry, EXPLAIN ANALYZE.

The engine plans from statistics (:mod:`repro.stats`) — this package
makes what it *did* inspectable from the outside, with zero
dependencies:

* :mod:`repro.observe.tracing` — :class:`Tracer` / :class:`Span`: nested
  wall+CPU timed records of every phase the engine runs (plan,
  stats-profile, index-build, per-shard execute, fold, sample).
  A tracer rides :class:`~repro.query.context.ExecutionContext`; spans
  from process-pool shard workers are shipped back as pickled records
  and re-stitched under the parent's execute span.
* :mod:`repro.observe.metrics` — :class:`MetricsRegistry`: counters,
  gauges, and histograms (rows emitted, intersection probes, cache
  hits/misses/evictions by backend, shard imbalance) fed by the
  *existing* :class:`~repro.observe.telemetry.TelemetryProbe` and
  ``Database.cache_info()`` — no instrumentation twins — exportable as
  JSON and Prometheus text.
* :mod:`repro.observe.telemetry` — :class:`~repro.observe.telemetry.
  TelemetryProbe`: the per-level ``partials`` / ``candidates`` /
  ``matches`` counters a descent bumps when one is attached, and the
  frozen record a completed run snapshots them into.
* :mod:`repro.observe.explain` — ``EXPLAIN ANALYZE``: execute the query
  and render estimated-vs-observed cardinalities per level beside the
  span timings (``q.explain(analyze=True)``, CLI ``explain --analyze``).

``explain`` is deliberately *not* imported here: it depends on the
query layer, which itself imports this package's tracing module — the
top-level ``repro`` namespace re-exports :class:`ExplainAnalysis` once
everything is loaded.
"""

from repro.observe.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.observe.tracing import (
    Span,
    SpanContext,
    Tracer,
    current_tracer,
    maybe_span,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "SpanContext",
    "Tracer",
    "current_tracer",
    "maybe_span",
]
