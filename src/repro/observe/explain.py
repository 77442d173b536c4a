"""EXPLAIN ANALYZE: execute a query and hold the plan to account.

``explain`` shows what the planner *intended* and the statistics that
justified it; this module runs the query and lines those estimates up
against what actually happened:

* per level of the executed attribute order, the planner's estimated
  partial-result size next to the observed ``partials`` / ``candidates``
  / ``matches`` counters of a :class:`~repro.observe.telemetry.
  TelemetryProbe` attached for the run, and
* the span timings of every phase the run went through (plan,
  stats-profile, index-build, execute / per-shard, …) from a
  :class:`~repro.observe.tracing.Tracer` activated for the run.

Entry points: ``Q(...).explain(analyze=True)`` and the CLI's
``explain --analyze`` both call :func:`analyze_query`; the result is an
:class:`ExplainAnalysis` whose :meth:`~ExplainAnalysis.describe` renders
plan, estimated-vs-observed table, and span tree in one report, and
whose :meth:`~ExplainAnalysis.to_dict` is the JSON artifact CI uploads.

This module imports the query layer, which imports
:mod:`repro.observe.tracing` — so it is *not* imported from
``repro.observe.__init__`` (the top-level ``repro`` namespace re-exports
:class:`ExplainAnalysis`, and the builder imports :func:`analyze_query`
lazily).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace as _dc_replace
from time import perf_counter

from repro.observe.tracing import Tracer
from repro.version import __version__

__all__ = ["ExplainAnalysis", "LevelAnalysis", "analyze_query"]

#: Format tag stamped into every ``to_dict`` export.
EXPLAIN_FORMAT = "repro-explain/1"


@dataclass(frozen=True)
class LevelAnalysis:
    """One level of the executed order: estimate beside observation.

    ``estimated`` is the planner's partial-result size after binding the
    attribute (``None`` when the plan carried no statistics for it);
    the three counters are ``None`` when the run produced no per-level
    telemetry (sharded or non-native execution).
    """

    attribute: str
    position: int
    estimated: float | None
    partials: int | None
    candidates: int | None
    matches: int | None

    @property
    def miss_factor(self) -> float | None:
        """How far the estimate missed, as a ratio ``>= 1.0`` in either
        direction (``None`` when either side is unknown)."""
        if self.estimated is None or self.matches is None:
            return None
        actual = float(max(self.matches, 1))
        expected = max(float(self.estimated), 1.0)
        return max(actual / expected, expected / actual)

    def to_dict(self) -> dict:
        return {
            "attribute": self.attribute,
            "position": self.position,
            "estimated": self.estimated,
            "partials": self.partials,
            "candidates": self.candidates,
            "matches": self.matches,
            "miss_factor": self.miss_factor,
        }


@dataclass(frozen=True)
class ExplainAnalysis:
    """What one measured execution did, next to what the plan promised.

    ``plan`` is the executed :class:`~repro.engine.planner.JoinPlan`
    with the run's observed per-level counters folded into its
    statistics (``PlanStatistics.observed_levels``), so
    ``plan.describe(show_stats=True)`` shows them too.
    """

    plan: object
    levels: tuple[LevelAnalysis, ...]
    rows: int
    wall_seconds: float
    tracer: Tracer

    def describe(self, show_stats: bool = False) -> str:
        """The full report: plan, estimated-vs-observed, span timings.

        ``show_stats`` is forwarded to ``plan.describe`` — the executed
        plan carries the run's observed levels, so the statistics block
        then lists them too.
        """
        lines = [self.plan.describe(show_stats=show_stats)]
        lines.append("")
        lines.append(
            f"EXPLAIN ANALYZE: {self.rows} row(s) in "
            f"{self.wall_seconds * 1000:.2f} ms"
        )
        if self.levels:
            lines.append(
                "  level  attribute        estimated     observed"
                "    candidates  selectivity"
            )
            for level in self.levels:
                estimated = (
                    f"~{level.estimated:.3g}"
                    if level.estimated is not None
                    else "-"
                )
                observed = (
                    str(level.matches) if level.matches is not None else "?"
                )
                candidates = (
                    str(level.candidates)
                    if level.candidates is not None
                    else "?"
                )
                if level.candidates:
                    selectivity = f"{(level.matches or 0) / level.candidates:.3f}"
                else:
                    selectivity = "-"
                lines.append(
                    f"  {level.position:>5}  {level.attribute:<15}"
                    f"  {estimated:>10}  {observed:>11}"
                    f"  {candidates:>12}  {selectivity:>11}"
                )
        else:
            lines.append("  (no per-level observation: nothing executed)")
        lines.append("span timings:")
        rendered = self.tracer.render()
        lines.append(rendered if rendered else "  (no spans recorded)")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """The JSON artifact: header, levels, rows, wall, span tree."""
        return {
            "format": EXPLAIN_FORMAT,
            "version": __version__,
            "algorithm": self.plan.algorithm,
            "attribute_order": list(self.plan.attribute_order),
            "rows": self.rows,
            "wall_seconds": self.wall_seconds,
            "levels": [level.to_dict() for level in self.levels],
            "trace": self.tracer.to_dict(),
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def __repr__(self) -> str:
        return (
            f"ExplainAnalysis(rows={self.rows}, "
            f"levels={len(self.levels)}, "
            f"wall={self.wall_seconds * 1000:.2f}ms)"
        )


def _merge_levels(plan, telemetry) -> tuple[LevelAnalysis, ...]:
    """Line the plan's estimates up with the run's observed counters."""
    statistics = plan.statistics
    estimates = dict(statistics.order_estimates if statistics else ())
    observed = (
        {level.attribute: level for level in telemetry.levels}
        if telemetry is not None
        else {}
    )
    levels = []
    for position, attribute in enumerate(plan.attribute_order):
        level = observed.get(attribute)
        levels.append(
            LevelAnalysis(
                attribute=attribute,
                position=position,
                estimated=estimates.get(attribute),
                partials=level.partials if level is not None else None,
                candidates=level.candidates if level is not None else None,
                matches=level.matches if level is not None else None,
            )
        )
    return tuple(levels)


def _observed_statistics(plan, telemetry):
    """The plan with the run's counters folded into its statistics
    (``PlanStatistics.observed_levels``)."""
    if telemetry is None or plan.statistics is None:
        return plan
    statistics = _dc_replace(
        plan.statistics,
        observed_levels=tuple(
            (
                level.attribute,
                level.position,
                level.partials,
                level.candidates,
                level.matches,
            )
            for level in telemetry.levels
        ),
    )
    return _dc_replace(plan, statistics=statistics)


def analyze_query(builder) -> ExplainAnalysis:
    """Execute ``builder``'s query measured and traced; line estimates
    up against observations.

    The run is a one-shot prepared run with the per-level probe forced
    on, drained completely (that is what ANALYZE means) with rows only
    counted, never materialized.  The probe exists whenever the plan
    runs on the descent kernel serially.  Sharded and non-native
    executions still report rows, wall time, and spans, with per-level
    counters marked unknown.

    The context's own tracer is reused when set (the analysis then
    appends to the caller's trace); otherwise a private one is created.
    """
    from repro.query.prepared import PreparedQuery

    tracer = builder.context.tracer
    if tracer is None:
        tracer = Tracer(name="explain-analyze")
        builder = builder.using(tracer=tracer)
    prepared = PreparedQuery._one_shot(builder, analyze=True)
    started = perf_counter()
    rows = sum(1 for _ in prepared.stream())
    wall = perf_counter() - started
    probe = prepared._probe
    telemetry = probe.snapshot(rows) if probe is not None else None
    plan = _observed_statistics(prepared.plan, telemetry)
    return ExplainAnalysis(
        plan=plan,
        levels=_merge_levels(plan, telemetry),
        rows=rows,
        wall_seconds=wall,
        tracer=tracer,
    )
