"""Every algorithm and every delivery mode returns the oracle's rows on
the skewed workload generators — and so does a second run of the same
builder, which reuses its plan and its indexes.

The workloads are the ones whose plans are hardest to get right: a
zipf-skewed triangle, the trap triangle whose min-distinct order is a
decoy, a hub-skewed triangle and a 4-clique.
"""

import asyncio
from functools import lru_cache

import pytest

from repro import Q, execute
from repro.api import ALGORITHMS
from repro.query.context import ExecutionContext
from repro.stats.provider import StatsProvider
from repro.workloads import generators, queries
from tests.helpers import oracle_join


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


@lru_cache(maxsize=None)
def expected(name: str) -> list:
    """The oracle's rows for workload ``name``, sorted (a multiset)."""
    return sorted(oracle_join(dict(WORKLOADS)[name]))


class TestAlgorithmParity:
    @pytest.mark.parametrize("name,query", WORKLOADS)
    @pytest.mark.parametrize(
        "algorithm", [a for a in ALGORITHMS if a not in ("lw",)]
    )
    def test_serial_parity(self, name, query, algorithm):
        builder = Q(query).using(algorithm=algorithm, stats=StatsProvider())
        # Two runs: the second reuses the held builder's plan.
        assert sorted(builder.stream()) == expected(name)
        assert sorted(builder.stream()) == expected(name)

    @pytest.mark.parametrize("name,query", TRIANGLES)
    def test_lw_parity(self, name, query):
        builder = Q(query).using(algorithm="lw", stats=StatsProvider())
        assert sorted(builder.stream()) == expected(name)
        assert sorted(builder.stream()) == expected(name)


class TestModeParity:
    @pytest.mark.parametrize("name,query", TRIANGLES)
    @pytest.mark.parametrize("mode", ["serial", "thread", "process"])
    def test_sharded_parity(self, name, query, mode):
        context = ExecutionContext(
            algorithm="generic", shards=2, mode=mode, stats=StatsProvider()
        )
        builder = Q(query).using(context=context)
        assert sorted(builder.stream()) == expected(name)
        assert sorted(builder.stream()) == expected(name)

    @pytest.mark.parametrize("name,query", TRIANGLES[:2])
    def test_batched_parity(self, name, query):
        builder = Q(query).using(algorithm="generic", stats=StatsProvider())
        batches = list(builder.batches(64))
        assert all(len(batch) <= 64 for batch in batches)
        rows = [row for batch in batches for row in batch]
        assert sorted(rows) == expected(name)

    @pytest.mark.parametrize("name,query", TRIANGLES[:2])
    def test_async_parity(self, name, query):
        async def drain():
            collected = []
            async for row in Q(query).using(
                algorithm="generic", stats=StatsProvider()
            ).astream(batch_size=128):
                collected.append(row)
            return collected

        assert sorted(asyncio.run(drain())) == expected(name)


class TestPushdownParity:
    QUERY = generators.random_instance(queries.triangle(), 300, 20, seed=11)

    def test_where_and_select(self):
        oracle = {(b, c) for a, b, c in oracle_join(self.QUERY) if a == 1}
        builder = Q(self.QUERY).where(A=1).select("B", "C")
        assert set(builder.stream()) == oracle
        assert set(builder.stream()) == oracle

    def test_residual_filter(self):
        oracle = sorted(
            row for row in oracle_join(self.QUERY) if row[1] in {1, 2, 3}
        )
        builder = Q(self.QUERY).where_in("B", {1, 2, 3})
        assert sorted(builder.stream()) == oracle
        assert sorted(builder.stream()) == oracle


class TestMaterializedParity:
    def test_execute_relation(self):
        query = generators.random_instance(
            queries.triangle(), 200, 20, seed=3
        )
        result = execute(query).relation()
        assert sorted(result.tuples) == sorted(oracle_join(query))
