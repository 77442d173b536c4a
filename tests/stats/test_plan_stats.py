"""Statistics-driven planning: order, backends, shards, evidence."""

import itertools

import pytest

from repro import Q
from repro.baselines.naive import naive_join
from repro.core.query import JoinQuery
from repro.engine.planner import (
    MAX_AUTO_SHARDS,
    plan_attribute_order_selectivity,
    plan_join,
)
from repro.relations.database import Database
from repro.relations.relation import Relation
from repro.stats import PlanStatistics, StatsProvider
from repro.workloads import generators, queries

from tests.helpers import triangle_query


@pytest.fixture
def trap():
    # B: 8 distinct values (min-distinct bait) but selectivity ~1;
    # A: 20 distinct in T, and only ~5% of R's A-values match T.
    return generators.zipf_trap_triangle(400, 3000, seed=7)


class TestSelectivityOrder:
    def test_avoids_the_distinct_count_trap(self, trap):
        provider = StatsProvider()
        chosen, scores, estimates, consulted = (
            plan_attribute_order_selectivity(trap, provider)
        )
        # The decoy: fewest distinct values.
        assert scores == {"A": 20, "B": 8, "C": 400}
        assert chosen[0] == "A"  # the payoff: selectivity ~5%
        assert consulted[("R", "T")] < 0.2  # the evidence
        assert [a for a, _est in estimates] == list(chosen)

    def test_is_a_permutation(self, trap):
        order, *_rest = plan_attribute_order_selectivity(
            trap, StatsProvider()
        )
        assert sorted(order) == sorted(trap.attributes)

    def test_pinned_min_distinct_order_does_more_work_than_the_default(
        self,
    ):
        # docs/API.md's trap: two decoys, B and C, with fewer distinct
        # values than the payoff A.  The ascending-distinct-count order
        # B, C, A, pinned, enumerates 10,081 candidates; the default
        # order starts from A and enumerates 1,348.
        trap = generators.zipf_trap_triangle(
            600, 1500, seed=7, match_fraction=0.05, decoy_domain=25,
            c_domain=25,
        )
        scores = StatsProvider().attribute_scores(trap)
        assert sorted(trap.attributes, key=scores.__getitem__) == [
            "B", "C", "A"
        ]
        generic = Q(trap).using(algorithm="generic")
        pinned = generic.using(attribute_order=("B", "C", "A"))
        assert generic.plan().attribute_order == ("A", "B", "C")
        assert pinned.plan().attribute_order == ("B", "C", "A")
        assert total_candidates(pinned) > 5 * total_candidates(generic)

    def test_selectivity_plan_same_result_set(self, trap):
        base = naive_join(trap)
        plan = plan_join(trap, "generic")
        assert plan.execute().equivalent(base)

    def test_estimates_clamped_by_agm_subbounds(self):
        # Triangle: the final attribute's estimate cannot exceed the
        # covered sub-query's AGM bound (3^1.5 here, further clamped by
        # the fully-covered relations' sizes).
        q = triangle_query()
        _order, _scores, estimates, _sels = plan_attribute_order_selectivity(
            q, StatsProvider()
        )
        assert estimates[-1][1] <= 3**1.5 + 1e-9


#: The amplified trap triangles: ``(decoy_domain, c_domain)`` settings,
#: each drawn with twelve seeds.  At 16 a second decoy ``C`` pulls the
#: min-distinct order ``B, C, A`` to ~8x the best order's candidates.
TRAP_SETTINGS = [(8, None), (16, 16), (40, 40)]


def total_candidates(builder) -> int:
    """The search work of one run, read off ``EXPLAIN ANALYZE``."""
    return sum(
        level.candidates for level in builder.explain(analyze=True).levels
    )


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("decoy, c_domain", TRAP_SETTINGS)
def test_the_default_order_does_the_least_work_on_trap_instances(
    decoy, c_domain, seed
):
    # The default plan's candidates against the best of all six pinned
    # orders: the exact-selectivity descent steps around both decoys.
    query = generators.zipf_trap_triangle(
        1500, 3000, seed=seed, decoy_domain=decoy, c_domain=c_domain
    )
    generic = Q(query).using(algorithm="generic")
    best = min(
        total_candidates(generic.using(attribute_order=order))
        for order in itertools.permutations(query.attributes)
    )
    assert total_candidates(generic) <= 1.1 * best


class TestPlanStatisticsRecord:
    def test_present_for_order_sensitive_plans(self, trap):
        plan = plan_join(trap, "generic")
        stats = plan.statistics
        assert isinstance(stats, PlanStatistics)
        assert dict(stats.distinct_counts)  # every ordered attribute
        assert stats.selectivities  # the probes that drove the order
        assert stats.order_estimates

    def test_absent_when_no_statistics_consulted(self):
        # A pinned lw derives its own order and builds no index:
        # nothing data-driven was decided.
        plan = plan_join(triangle_query(), "lw")
        assert plan.algorithm == "lw"
        assert plan.statistics is None

    def test_describe_show_stats(self, trap):
        plan = plan_join(trap, "generic")
        assert "statistics:" not in plan.describe()
        text = plan.describe(show_stats=True)
        assert "statistics:" in text
        assert "selectivity: P(match in" in text

    def test_heavy_hitters_recorded_on_skewed_data(self):
        q = generators.random_instance(
            queries.triangle(), 6000, 120, seed=23, skew=1.1
        )
        plan = plan_join(q, "generic")
        assert plan.statistics.heavy_hitters


class TestAutoShardsHeavyAware:
    def test_heavy_values_boost_shard_count(self):
        q = generators.random_instance(
            queries.triangle(), 9000, 150, seed=23, skew=1.1
        )
        assert q.total_input_size() >= 4096
        plan = plan_join(q, "generic", shards="auto")
        stats = plan.statistics
        assert stats.shard_attribute == plan.attribute_order[0]
        assert stats.shard_heavy_mass >= 0.25
        assert stats.shard_cpus >= 1
        # Enough shards for each heavy value to get its own: ten heavy
        # values of A raise the count past the CPU rule to the cap.
        assert plan.shards == MAX_AUTO_SHARDS
        if stats.shard_cpus < MAX_AUTO_SHARDS:
            assert any("10 heavy value(s) carry" in r for r in plan.reasons)

    def test_uniform_data_uses_cpu_rule(self):
        q = generators.random_instance(queries.triangle(), 2500, 500, seed=9)
        assert q.total_input_size() >= 4096
        plan = plan_join(q, "generic", shards="auto")
        assert 1 <= plan.shards <= 8
        assert plan.statistics.shard_heavy_mass is not None
        assert not any("heavy value(s) carry" in r for r in plan.reasons)

    def test_small_input_stays_serial(self):
        plan = plan_join(triangle_query(), "generic", shards="auto")
        assert plan.shards == 1


class TestPerRelationBackends:
    def test_cached_index_is_reused(self):
        db = Database(
            [
                Relation("R", ("A", "B"), [(0, 1), (1, 2), (2, 0)]),
                Relation("S", ("B", "C"), [(1, 5), (2, 6), (0, 7)]),
                Relation("T", ("A", "C"), [(0, 5), (1, 6), (2, 7)]),
            ]
        )
        q = JoinQuery.from_database(db, ["R", "S", "T"])
        base = plan_join(q, "generic", database=db)
        order = base.attribute_order
        rank = {a: i for i, a in enumerate(order)}
        r_order = tuple(sorted(db["R"].attributes, key=rank.__getitem__))
        db.sorted_index("R", r_order)  # warm a sorted index for R
        plan = plan_join(q, "generic", database=db)
        assert plan.backend == "mixed"
        assert ("R", "sorted") in plan.relation_backends
        assert any("cached sorted index" in r for r in plan.reasons)
        # Mixed backends still compute the right answer, via the cache.
        assert plan.execute(database=db).equivalent(naive_join(q))

    def test_default_stays_uniform_trie(self):
        plan = plan_join(triangle_query(), "generic")
        assert plan.backend == "trie"
        assert plan.relation_backends is None

    def test_dense_first_level_gets_compact(self):
        """Density picks nothing: R's first index level (B = i % 977) is
        a full integer interval at both sizes, and only the relation the
        size rule covers gets compact."""
        import repro.engine.planner as planner_module

        def plan_for(size):
            dense = Relation(
                "R", ("A", "B"), [(i, i % 977) for i in range(size)]
            )
            small = Relation(
                "S", ("B", "C"), [(i % 977, i) for i in range(500)]
            )
            return plan_join(JoinQuery([dense, small]), "generic")

        assert 4000 < planner_module.LARGE_FLAT_RELATION <= 40000
        large = plan_for(40000)
        assert large.backend == "mixed"
        assert ("R", "compact") in large.relation_backends
        assert ("S", "trie") in large.relation_backends
        assert any("low-skew tuples" in r for r in large.reasons)
        assert not any("dense integer" in r for r in large.reasons)
        medium = plan_for(4000)
        assert medium.backend == "trie"
        assert medium.relation_backends is None

    def test_large_low_skew_relation_gets_compact(self):
        import repro.engine.planner as planner_module

        # B = (i % 977) * 5 leaves gaps: 977 distinct over a span of
        # 4881 (~20% dense) — the size rule does not look at density.
        big = Relation(
            "R", ("A", "B"), [(i, (i % 977) * 5) for i in range(40000)]
        )
        small = Relation(
            "S", ("B", "C"), [((i % 977) * 5, i) for i in range(500)]
        )
        q = JoinQuery([big, small])
        assert len(big) >= planner_module.LARGE_FLAT_RELATION
        plan = plan_join(q, "generic")
        assert plan.backend == "mixed"
        assert ("R", "compact") in plan.relation_backends
        assert ("S", "trie") in plan.relation_backends
        assert any("low-skew tuples" in r for r in plan.reasons)

    def test_unorderable_column_keeps_the_trie(self):
        """The size rule picks ``compact`` only for relations whose rows
        sort: ``B`` mixes ``int`` and ``str``, so both 40,000-tuple
        relations stay on the trie, the plan says why, and the query
        answers (it used to die in ``CompactArrayIndex.__init__``)."""

        def b(i):
            i %= 20000
            return i if i % 2 else f"b{i}"

        r = Relation("R", ("A", "B"), [(i, b(i)) for i in range(40000)])
        s = Relation("S", ("B", "C"), [(b(i), -i) for i in range(40000)])
        q = JoinQuery([r, s])
        plan = plan_join(q)
        assert (plan.algorithm, plan.backend) == ("generic", "trie")
        assert plan.relation_backends is None
        notes = [reason for reason in plan.reasons if "trie kept" in reason]
        assert len(notes) == 1
        assert "R: trie kept over compact" in notes[0]
        assert "S: trie kept over compact" in notes[0]
        assert "'B' do not order" in notes[0]
        # Every B value joins its 2 tuples of R with its 2 of S.
        rows = set(plan.execute().tuples)
        assert len(rows) == 80000
        assert {row for row in rows if row[0] in (6, 7)} == {
            (6, "b6", -6), (6, "b6", -20006), (7, 7, -7), (7, 7, -20007),
        }
        # Only the relation that cannot sort loses compact.
        t = Relation("T", ("C", "D"), [(-i, i) for i in range(40000)])
        mixed = plan_join(JoinQuery([r, s, t]), "generic")
        assert mixed.backend == "mixed"
        assert dict(mixed.relation_backends) == {
            "R": "trie", "S": "trie", "T": "compact",
        }
        assert any("R: trie kept over compact" in x for x in mixed.reasons)

    @pytest.mark.parametrize(
        "pinned",
        [
            {"algorithm": "generic", "backend": "sorted"},
            {"algorithm": "generic", "backend": "compact"},
            {"algorithm": "leapfrog", "backend": "sorted"},
            {"algorithm": "leapfrog", "backend": "compact"},
            {"algorithm": "leapfrog"},
        ],
        ids=lambda pinned: "-".join(pinned.values()),
    )
    def test_pinned_sorting_backend_over_unorderable_column_is_typed(
        self, pinned
    ):
        from repro.errors import PlanError

        q = JoinQuery(
            [
                Relation("R", ("A", "B"), [(1, 1), (2, "x")]),
                Relation("S", ("B", "C"), [(1, 5), ("x", 6)]),
            ]
        )
        with pytest.raises(PlanError, match="'R'.*'B' do not order"):
            plan_join(q, **pinned)
        # The hash trie compares nothing: the same query answers.
        assert set(plan_join(q, "generic", backend="trie").execute().tuples) == {
            (1, 1, 5), (2, "x", 6),
        }

    def test_cached_compact_index_is_reused(self):
        db = Database(
            [
                Relation("R", ("A", "B"), [(0, 1), (1, 2), (2, 0)]),
                Relation("S", ("B", "C"), [(1, 5), (2, 6), (0, 7)]),
                Relation("T", ("A", "C"), [(0, 5), (1, 6), (2, 7)]),
            ]
        )
        q = JoinQuery.from_database(db, ["R", "S", "T"])
        base = plan_join(q, "generic", database=db)
        rank = {a: i for i, a in enumerate(base.attribute_order)}
        r_order = tuple(sorted(db["R"].attributes, key=rank.__getitem__))
        db.compact_index("R", r_order)
        plan = plan_join(q, "generic", database=db)
        assert plan.backend == "mixed"
        assert ("R", "compact") in plan.relation_backends
        assert any("cached compact index" in r for r in plan.reasons)
        assert plan.execute(database=db).equivalent(naive_join(q))

    def test_caller_fixed_backend_wins(self):
        plan = plan_join(triangle_query(), "generic", backend="sorted")
        assert plan.backend == "sorted"
        assert plan.relation_backends is None

    def test_partial_mapping_labels_mixed(self):
        # A mapping that covers only some relations leaves the rest on
        # the trie default — the label must say so.
        from repro.core.generic_join import GenericJoin

        q = triangle_query()
        assert GenericJoin(q, backend={"R": "sorted"}).backend == "mixed"
        assert GenericJoin(q, backend={"R": "trie"}).backend == "trie"
        executor = GenericJoin(q, backend={"R": "sorted"})
        assert sorted(executor.iter_join()) == sorted(
            naive_join(q).reorder(q.attributes).tuples
        )


class TestSharedDefaultProvider:
    def test_repeated_adhoc_plans_do_not_rescan(self, monkeypatch):
        # plan_join without a database must reuse the process-wide
        # provider: planning the same relation objects twice counts
        # their columns once.
        import repro.stats.provider as provider_module

        calls = []
        real = provider_module.count_values

        def counting(relation, attributes):
            calls.append(relation.name)
            return real(relation, attributes)

        monkeypatch.setattr(provider_module, "count_values", counting)
        q = JoinQuery(
            [
                Relation("R", ("A", "B"), [(i, i + 1) for i in range(30)]),
                Relation("S", ("B", "C"), [(i + 1, i) for i in range(30)]),
            ]
        )
        plan_join(q, "generic")
        first = len(calls)
        assert first > 0
        plan_join(q, "generic")
        assert len(calls) == first

    def test_local_cache_is_bounded(self):
        from repro.stats.provider import LOCAL_CACHE_BUDGET

        provider = StatsProvider()
        for i in range(LOCAL_CACHE_BUDGET + 50):
            provider.profile(Relation(f"R{i}", ("A",), [(i,)]))
        assert len(provider._local) <= LOCAL_CACHE_BUDGET


class TestAiterJoinDatabase:
    def test_database_reused_for_async_plans(self):
        import asyncio

        from repro.api import execute

        db = Database(
            [
                Relation("R", ("A", "B"), [(0, 1), (1, 2), (2, 0)]),
                Relation("S", ("B", "C"), [(1, 5), (2, 6), (0, 7)]),
                Relation("T", ("A", "C"), [(0, 5), (1, 6), (2, 7)]),
            ]
        )
        q = JoinQuery.from_database(db, ["R", "S", "T"])

        async def collect():
            return {
                row
                async for row in execute(
                    q, algorithm="generic", database=db
                ).astream()
            }

        rows = asyncio.run(collect())
        assert rows == {(0, 1, 5), (1, 2, 6), (2, 0, 7)}
        assert db.cached_index_count() > 0
        assert db.cached_stats_count() > 0
