"""Runtime feedback: the execution-telemetry half of adaptivity.

The statistics subsystem (:mod:`repro.stats`) estimates before running;
this package measures *while* running and feeds the measurements back:

* :mod:`repro.feedback.telemetry` — per-level candidate/match/partial
  counters owned by the one descent kernel (off by default, and then
  not in the loop's text), frozen observation records, and the
  estimate-vs-observed divergence metric;
* :mod:`repro.feedback.config` — :class:`FeedbackConfig`, the knob
  object an :class:`~repro.query.context.ExecutionContext` carries to
  switch the loop on;
* :mod:`repro.feedback.resharding` — the online "Skew Strikes Back"
  split: shards that ran hot are re-partitioned on the next attribute
  on the following run.

Ingestion lives on :class:`~repro.stats.provider.StatsProvider`
(``record_levels`` / ``observed_levels`` / ``record_shards`` /
``observed_shards``), so observations share the statistics cache's
relation-identity keying and invalidation rules.
"""

from repro.feedback.config import FeedbackConfig
from repro.feedback.resharding import ShardPlanEntry, expand_shards
from repro.feedback.telemetry import (
    ExecutionTelemetry,
    ObservedLevel,
    ShardObservation,
    TelemetryProbe,
    estimate_divergence,
    feedback_scope,
)

__all__ = [
    "ExecutionTelemetry",
    "FeedbackConfig",
    "ObservedLevel",
    "ShardObservation",
    "ShardPlanEntry",
    "TelemetryProbe",
    "estimate_divergence",
    "expand_shards",
    "feedback_scope",
]
