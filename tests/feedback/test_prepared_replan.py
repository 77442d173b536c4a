"""PreparedQuery under feedback: divergence-triggered re-planning."""

import pytest

from repro import Q
from repro.feedback.config import FeedbackConfig
from repro.stats.provider import StatsConfig, StatsProvider
from repro.workloads import generators, queries

TRAP = dict(
    nodes=600, size=1500, seed=7, match_fraction=0.05, decoy_domain=25,
    c_domain=25,
)


@pytest.fixture()
def trap():
    return generators.zipf_trap_triangle(**TRAP)


def heuristic_provider():
    return StatsProvider(config=StatsConfig(selectivities=False))


class TestReplan:
    def test_diverging_plan_is_replaced_once(self, trap):
        prepared = (
            Q(trap)
            .using(
                algorithm="generic",
                stats=heuristic_provider(),
                feedback=FeedbackConfig(),
            )
            .prepare()
        )
        frozen = prepared.plan.attribute_order
        assert frozen[-1] == "A"  # the heuristic trap order
        assert prepared.replans == 0
        counts = [prepared.count() for _ in range(4)]
        assert len(set(counts)) == 1  # parity across re-planning
        assert prepared.replans == 1
        assert prepared.plan.attribute_order != frozen
        assert prepared.plan.attribute_order[0] == "A"
        assert prepared.plan.statistics.source == "feedback"

    def test_replanned_executor_serves_later_runs(self, trap):
        provider = heuristic_provider()
        prepared = (
            Q(trap)
            .using(
                algorithm="generic",
                stats=provider,
                feedback=FeedbackConfig(),
            )
            .prepare()
        )
        prepared.count()  # records + re-plans
        stable = prepared.plan.attribute_order
        prepared.count()
        prepared.count()
        assert prepared.plan.attribute_order == stable
        assert prepared.replans == 1

    def test_tolerance_blocks_replanning(self, trap):
        prepared = (
            Q(trap)
            .using(
                algorithm="generic",
                stats=heuristic_provider(),
                feedback=FeedbackConfig(replan_tolerance=1e9),
            )
            .prepare()
        )
        frozen = prepared.plan.attribute_order
        prepared.count()
        prepared.count()
        assert prepared.plan.attribute_order == frozen
        assert prepared.replans == 0

    def test_without_feedback_nothing_moves(self, trap):
        prepared = (
            Q(trap)
            .using(algorithm="generic", stats=heuristic_provider())
            .prepare()
        )
        frozen = prepared.plan.attribute_order
        prepared.count()
        prepared.count()
        assert prepared.plan.attribute_order == frozen
        assert prepared.replans == 0

    def test_replanning_converges(self):
        # Whatever the first estimates were worth, the loop settles: at
        # most one correction plus one exploration, then the
        # measured-best order stays put.
        query = generators.random_instance(
            queries.triangle(), 400, 25, seed=5
        )
        prepared = (
            Q(query)
            .using(
                algorithm="generic",
                stats=StatsProvider(),
                feedback=FeedbackConfig(),
            )
            .prepare()
        )
        counts = [prepared.count() for _ in range(3)]
        settled = prepared.plan.attribute_order
        replans = prepared.replans
        counts.append(prepared.count())
        assert prepared.plan.attribute_order == settled
        assert prepared.replans == replans <= 2
        assert len(set(counts)) == 1


class TestBindAfterReplan:
    def test_bind_reuses_the_refreshed_plan(self, trap):
        prepared = (
            Q(trap)
            .where(B=1)
            .using(
                algorithm="generic",
                stats=heuristic_provider(),
                feedback=FeedbackConfig(),
            )
            .prepare()
        )
        baseline = {
            value: set(
                Q(trap).where(B=value).using(algorithm="generic").stream()
            )
            for value in (1, 2)
        }
        assert set(prepared.stream()) == baseline[1]
        rebound = prepared.bind(B=2)
        assert set(rebound.stream()) == baseline[2]
        assert rebound.plan.algorithm == prepared.plan.algorithm
