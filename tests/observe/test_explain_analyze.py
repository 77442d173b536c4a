"""EXPLAIN ANALYZE: estimated-vs-observed levels, span timings, and the
builder / export surfaces."""

import json

import pytest

from repro import Q, Relation
from repro.observe.explain import (
    EXPLAIN_FORMAT,
    ExplainAnalysis,
    LevelAnalysis,
)
from repro.observe.tracing import Tracer
from repro.version import __version__
from repro.workloads import instances

TRIANGLE = (
    Relation("R", ("A", "B"), [(0, 1), (1, 2)]),
    Relation("S", ("B", "C"), [(1, 5), (2, 6)]),
    Relation("T", ("A", "C"), [(0, 5), (1, 6)]),
)


def _analysis(**options) -> ExplainAnalysis:
    return Q(*TRIANGLE).using(**options).explain(analyze=True)


class TestLevelAnalysis:
    def test_miss_factor_symmetric(self):
        over = LevelAnalysis("A", 0, estimated=8.0, partials=2,
                             candidates=2, matches=2)
        under = LevelAnalysis("A", 0, estimated=0.5, partials=2,
                              candidates=2, matches=2)
        assert over.miss_factor == pytest.approx(4.0)
        assert under.miss_factor == pytest.approx(2.0)

    def test_miss_factor_unknown(self):
        level = LevelAnalysis("A", 0, estimated=None, partials=None,
                              candidates=None, matches=None)
        assert level.miss_factor is None


class TestAnalyzeNativePath:
    def test_observed_counters_per_level(self):
        analysis = _analysis(algorithm="generic")
        assert analysis.rows == 2
        assert analysis.wall_seconds > 0
        assert [lvl.attribute for lvl in analysis.levels] == list(
            analysis.plan.attribute_order
        )
        for level in analysis.levels:
            assert level.matches is not None
            assert level.candidates is not None
            assert level.estimated is not None
        # Final-level matches equals the result cardinality.
        assert analysis.levels[-1].matches == 2

    def test_observations_folded_into_plan_statistics(self):
        analysis = _analysis(algorithm="generic")
        observed = analysis.plan.statistics.observed_levels
        assert [entry[0] for entry in observed] == list(
            analysis.plan.attribute_order
        )

    def test_spans_cover_all_phases(self):
        analysis = _analysis(algorithm="generic")
        names = {span.name for span in analysis.tracer.walk()}
        assert {"plan", "execute"} <= names
        execute = analysis.tracer.find("execute")
        assert execute.meta["rows"] == 2

    def test_reuses_context_tracer(self):
        tracer = Tracer(name="mine")
        analysis = _analysis(algorithm="generic", tracer=tracer)
        assert analysis.tracer is tracer

    def test_metrics_context_is_fed(self):
        builder = Q(*TRIANGLE).using(algorithm="generic", metrics=True)
        builder.explain(analyze=True)
        registry = builder.context.metrics
        assert registry.counter("repro_rows_emitted_total").value() == 2


class TestWorkWithinAGMThroughTheFrontDoor:
    """The paper's guarantee where a user would read it: ``auto`` on the
    paper's hard Loomis-Whitney instances runs Generic Join, and the
    candidates EXPLAIN ANALYZE reports, summed over levels, stay within
    the AGM bound the same plan estimated (tests/core/test_descent.py
    asserts this for pinned executors and every order)."""

    @pytest.mark.parametrize(
        "query",
        [
            pytest.param(instances.triangle_hard_instance(200), id="ex2.2-200"),
            pytest.param(instances.triangle_hard_instance(400), id="ex2.2-400"),
            pytest.param(instances.triangle_hard_instance(800), id="ex2.2-800"),
            pytest.param(instances.lw_hard_instance(3, 27), id="lw-3-27"),
            pytest.param(instances.lw_hard_instance(4, 81), id="lw-4-81"),
        ],
    )
    def test_auto_on_the_hard_instances(self, query):
        assert query.is_lw_instance()
        analysis = Q(query).explain(analyze=True)
        assert analysis.plan.algorithm == "generic"
        candidates = [level.candidates for level in analysis.levels]
        assert None not in candidates and len(candidates) == len(
            query.attributes
        )
        assert sum(candidates) <= analysis.plan.estimated_bound
        assert analysis.levels[-1].matches == analysis.rows


class TestAnalyzeOtherPaths:
    def test_non_native_algorithm_still_times(self):
        analysis = _analysis(algorithm="lw")
        assert analysis.rows == 2
        assert all(lvl.matches is None for lvl in analysis.levels)
        assert analysis.tracer.find("execute") is not None

    def test_sharded_run_reports_shard_spans(self):
        analysis = _analysis(shards=2, mode="serial")
        assert analysis.rows == 2
        execute = analysis.tracer.find("execute")
        shard_spans = [c for c in execute.children if c.name == "shard"]
        assert len(shard_spans) == 2

    def test_unsatisfiable_query_is_empty(self):
        analysis = Q(*TRIANGLE).where(A=99).explain(analyze=True)
        assert analysis.rows == 0

    def test_explain_without_analyze_is_the_plan(self):
        plan = Q(*TRIANGLE).explain()
        assert plan.algorithm  # a JoinPlan, nothing executed
        assert not isinstance(plan, ExplainAnalysis)


class TestRendering:
    def test_describe_contains_table_and_spans(self):
        text = _analysis(algorithm="generic").describe()
        assert "EXPLAIN ANALYZE: 2 row(s)" in text
        assert "estimated" in text and "observed" in text
        assert "span timings:" in text
        assert "execute:" in text

    def test_describe_forwards_show_stats(self):
        analysis = _analysis(algorithm="generic")
        assert len(analysis.describe(show_stats=True)) > len(
            analysis.describe()
        )

    def test_to_dict_header_and_trace(self):
        record = _analysis(algorithm="generic").to_dict()
        assert record["format"] == EXPLAIN_FORMAT
        assert record["version"] == __version__
        assert record["rows"] == 2
        assert record["trace"]["spans"]
        assert all(
            {"attribute", "estimated", "matches", "miss_factor"}
            <= set(level)
            for level in record["levels"]
        )
        json.dumps(record)  # JSON-ready end to end

    def test_repr(self):
        assert "rows=2" in repr(_analysis(algorithm="generic"))
