"""The feedback planner: self-correction, precedence, and stability."""

import pytest

from repro import Q
from repro.engine.planner import plan_join
from repro.feedback.config import FeedbackConfig
from repro.stats.provider import StatsConfig, StatsProvider
from repro.workloads import generators

#: The amplified trap: C's small domain makes it a second decoy, so the
#: min-distinct heuristic defers the payoff attribute A to the last
#: level — where its pruning is paid as dead-end enumeration.
TRAP = dict(
    nodes=600, size=1500, seed=7, match_fraction=0.05, decoy_domain=25,
    c_domain=25,
)


@pytest.fixture()
def trap():
    return generators.zipf_trap_triangle(**TRAP)


def heuristic_provider():
    return StatsProvider(config=StatsConfig(selectivities=False))


class TestSelfCorrection:
    def test_second_run_chooses_a_better_order(self, trap):
        provider = heuristic_provider()
        builder = Q(trap).using(
            algorithm="generic", stats=provider, feedback=FeedbackConfig()
        )
        first = builder.plan()
        # The heuristic walks into the trap: both decoys before the
        # payoff attribute.
        assert first.attribute_order[-1] == "A"
        assert first.statistics.source == "heuristic"
        rows_first = set(builder.stream())

        second = builder.plan()
        assert second.statistics.source == "feedback"
        assert second.attribute_order != first.attribute_order
        assert second.attribute_order[0] == "A"
        rows_second = set(builder.stream())
        assert rows_second == rows_first  # parity across re-planning

        history = provider.observed_history(trap)
        work = {order: t.total_candidates for order, t in history.items()}
        # The re-planned order did measurably less search work.
        assert work[second.attribute_order] < work[first.attribute_order]

    def test_converges_and_stays(self, trap):
        provider = heuristic_provider()
        builder = Q(trap).using(
            algorithm="generic", stats=provider, feedback=FeedbackConfig()
        )
        orders = []
        for _run in range(4):
            orders.append(builder.plan().attribute_order)
            for _row in builder.stream():
                pass
        # One exploration, then pinned: the explore margin stops the
        # greedy descent from oscillating off the measured best order.
        assert orders[1] == orders[2] == orders[3]
        assert orders[0] != orders[1]

    def test_pinned_plan_reports_measured_estimates(self, trap):
        provider = heuristic_provider()
        builder = Q(trap).using(
            algorithm="generic", stats=provider, feedback=FeedbackConfig()
        )
        for _run in range(2):
            for _row in builder.stream():
                pass
        plan = builder.plan()
        best = provider.observed_telemetry(trap)
        if plan.attribute_order == best.attribute_order:
            matches = {
                level.attribute: level.matches for level in best.levels
            }
            for attribute, estimate in plan.statistics.order_estimates:
                if not plan.statistics.baseline_estimates:
                    assert estimate == pytest.approx(matches[attribute])


class TestPrecedenceAndFallback:
    def test_observed_takes_precedence_over_estimated(self, trap):
        provider = StatsProvider()  # selectivities enabled
        builder = Q(trap).using(
            algorithm="generic", stats=provider, feedback=FeedbackConfig()
        )
        estimated_plan = Q(trap).using(
            algorithm="generic", stats=provider
        ).plan()
        assert estimated_plan.statistics.source == "exact"
        for _row in builder.stream():
            pass
        plan = builder.plan()
        assert plan.statistics.source == "feedback"
        assert plan.statistics.observed_levels

    def test_feedback_off_never_consults_observations(self, trap):
        provider = heuristic_provider()
        with_feedback = Q(trap).using(
            algorithm="generic", stats=provider, feedback=FeedbackConfig()
        )
        for _row in with_feedback.stream():
            pass
        assert provider.observed_history(trap)
        plain = Q(trap).using(algorithm="generic", stats=provider).plan()
        assert plain.statistics.source == "heuristic"

    def test_feedback_without_observations_notes_it(self, trap):
        provider = heuristic_provider()
        plan = plan_join(
            trap, "generic", stats=provider, feedback=FeedbackConfig()
        )
        assert plan.statistics.source == "heuristic"
        assert any("no observations recorded" in r for r in plan.reasons)

    def test_filtered_and_unfiltered_runs_never_share_telemetry(self, trap):
        # A where_in-filtered execution has different cardinalities
        # than the plain query over the same relations; its telemetry
        # is scoped by the filter signature and must not drive (or be
        # driven by) the unfiltered query's plans.
        provider = heuristic_provider()
        filtered = (
            Q(trap)
            .where_in("B", {0})
            .using(
                algorithm="generic",
                stats=provider,
                feedback=FeedbackConfig(),
            )
        )
        for _row in filtered.stream():
            pass
        plain = Q(trap).using(
            algorithm="generic", stats=provider, feedback=FeedbackConfig()
        )
        assert plain.plan().statistics.source == "heuristic"
        assert filtered.plan().statistics.source == "feedback"
        for _row in plain.stream():
            pass
        other_filter = (
            Q(trap)
            .where_in("B", {0, 1})
            .using(
                algorithm="generic",
                stats=provider,
                feedback=FeedbackConfig(),
            )
        )
        assert other_filter.plan().statistics.source == "heuristic"

    def test_fixed_order_bypasses_feedback(self, trap):
        provider = heuristic_provider()
        builder = Q(trap).using(
            algorithm="generic", stats=provider, feedback=FeedbackConfig()
        )
        for _row in builder.stream():
            pass
        pinned = plan_join(
            trap,
            "generic",
            attribute_order=("C", "B", "A"),
            stats=provider,
            feedback=FeedbackConfig(),
        )
        assert pinned.attribute_order == ("C", "B", "A")


class TestDescribe:
    def test_observed_vs_estimated_rendering(self, trap):
        provider = heuristic_provider()
        builder = Q(trap).using(
            algorithm="generic", stats=provider, feedback=FeedbackConfig()
        )
        for _row in builder.stream():
            pass
        text = builder.plan().describe(show_stats=True)
        assert "source: feedback" in text
        assert "observed levels (last recorded run):" in text
        assert "selectivity=" in text and "fan-out=" in text
        assert "observed vs estimated (per chosen attribute):" in text


class TestDeterminism:
    def test_same_observations_same_plan(self, trap):
        provider_a = heuristic_provider()
        provider_b = heuristic_provider()
        orders = []
        for provider in (provider_a, provider_b):
            builder = Q(trap).using(
                algorithm="generic",
                stats=provider,
                feedback=FeedbackConfig(),
            )
            for _row in builder.stream():
                pass
            orders.append(builder.plan().attribute_order)
        assert orders[0] == orders[1]
