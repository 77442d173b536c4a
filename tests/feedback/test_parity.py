"""Feedback must never change results — only plans and shard layouts.

The acceptance gate: result-set parity with non-feedback execution
across all five algorithms and serial/sharded/batched/async modes, on
every workload generator the engine ships.
"""

import asyncio

import pytest

from repro import Q, execute
from repro.api import ALGORITHMS
from repro.feedback.config import FeedbackConfig
from repro.query.context import ExecutionContext
from repro.stats.provider import StatsProvider
from repro.workloads import generators, queries


def workloads():
    return [
        (
            "uniform_triangle",
            generators.random_instance(queries.triangle(), 300, 30, seed=5),
        ),
        (
            "zipf_triangle",
            generators.random_instance(
                queries.triangle(), 400, 25, seed=23, skew=1.1
            ),
        ),
        (
            "trap_triangle",
            generators.zipf_trap_triangle(
                200, 600, seed=7, match_fraction=0.05, decoy_domain=10,
                c_domain=10,
            ),
        ),
        ("hub_triangle", generators.hub_triangle(
            light_domain=40, b_domain=50, c_domain=400, r_size=300,
            s_size=500, t_size=1200, seed=23,
        )),
        (
            "clique4",
            generators.random_instance(
                queries.clique_query(4), 300, 12, seed=24
            ),
        ),
    ]


WORKLOADS = workloads()
TRIANGLES = [w for w in WORKLOADS if w[0] != "clique4"]


class TestAlgorithmParity:
    @pytest.mark.parametrize("name,query", WORKLOADS)
    @pytest.mark.parametrize(
        "algorithm", [a for a in ALGORITHMS if a not in ("lw",)]
    )
    def test_serial_parity(self, name, query, algorithm):
        if algorithm == "arity2" and name == "clique4":
            pytest.skip("arity2 requires arity <= 2 (it applies here, "
                        "but keep the matrix small)")
        plain = set(Q(query).using(algorithm=algorithm).stream())
        provider = StatsProvider()
        observed = Q(query).using(
            algorithm=algorithm, stats=provider, feedback=FeedbackConfig()
        )
        # Two runs: the second may be re-planned from observations.
        assert set(observed.stream()) == plain
        assert set(observed.stream()) == plain

    @pytest.mark.parametrize("name,query", TRIANGLES)
    def test_lw_parity(self, name, query):
        plain = set(Q(query).using(algorithm="lw").stream())
        observed = Q(query).using(
            algorithm="lw", stats=StatsProvider(), feedback=FeedbackConfig()
        )
        assert set(observed.stream()) == plain
        assert set(observed.stream()) == plain


class TestModeParity:
    @pytest.mark.parametrize("name,query", TRIANGLES)
    @pytest.mark.parametrize("mode", ["serial", "thread", "process"])
    def test_sharded_parity(self, name, query, mode):
        plain = set(Q(query).using(algorithm="generic").stream())
        provider = StatsProvider()
        context = ExecutionContext(
            algorithm="generic",
            shards=2,
            mode=mode,
            stats=provider,
            feedback=FeedbackConfig(split_threshold=1.2),
        )
        observed = Q(query).using(context=context)
        assert set(observed.stream()) == plain
        assert set(observed.stream()) == plain  # post-split layout

    @pytest.mark.parametrize("name,query", TRIANGLES[:2])
    def test_batched_parity(self, name, query):
        plain = set(Q(query).using(algorithm="generic").stream())
        observed = Q(query).using(
            algorithm="generic",
            batch_size=64,
            stats=StatsProvider(),
            feedback=FeedbackConfig(),
        )
        rows = [row for batch in observed.batches() for row in batch]
        assert set(rows) == plain
        assert len(rows) == len(plain)

    @pytest.mark.parametrize("name,query", TRIANGLES[:2])
    def test_async_parity(self, name, query):
        plain = set(Q(query).using(algorithm="generic").stream())

        async def drain():
            collected = []
            async for row in Q(query).using(
                algorithm="generic",
                stats=StatsProvider(),
                feedback=FeedbackConfig(),
            ).astream(batch_size=128):
                collected.append(row)
            return collected

        rows = asyncio.run(drain())
        assert set(rows) == plain
        assert len(rows) == len(plain)


class TestPushdownParity:
    def test_feedback_with_where_and_select(self):
        query = generators.random_instance(
            queries.triangle(), 300, 20, seed=11
        )
        provider = StatsProvider()
        plain = set(
            Q(query).where(A=1).select("B", "C").stream()
        )
        observed = (
            Q(query)
            .where(A=1)
            .select("B", "C")
            .using(stats=provider, feedback=FeedbackConfig())
        )
        assert set(observed.stream()) == plain
        assert set(observed.stream()) == plain

    def test_feedback_with_residual_filter(self):
        query = generators.random_instance(
            queries.triangle(), 300, 20, seed=11
        )
        plain = set(Q(query).where_in("B", {1, 2, 3}).stream())
        observed = Q(query).where_in("B", {1, 2, 3}).using(
            stats=StatsProvider(), feedback=FeedbackConfig()
        )
        assert set(observed.stream()) == plain
        assert set(observed.stream()) == plain


class TestMaterializedParity:
    def test_api_join_with_feedback(self):
        query = generators.random_instance(
            queries.triangle(), 200, 20, seed=3
        )
        plain = execute(query).relation()
        observed = execute(query, feedback=FeedbackConfig()).relation()
        assert set(observed.tuples) == set(plain.tuples)
