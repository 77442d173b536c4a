"""StatsProvider: identity-keyed caching, database invalidation."""

import pytest

from repro.core.query import JoinQuery
from repro.engine.planner import plan_join
from repro.relations.database import Database
from repro.relations.relation import Relation
from repro.stats import StatsConfig, StatsProvider
from repro.workloads import generators, queries


def triangle_relations():
    return [
        Relation("R", ("A", "B"), [(0, 1), (1, 2), (2, 0)]),
        Relation("S", ("B", "C"), [(1, 5), (2, 6), (0, 7)]),
        Relation("T", ("A", "C"), [(0, 5), (1, 6), (2, 7)]),
    ]


@pytest.fixture
def db():
    return Database(triangle_relations())


class TestConfig:
    def test_sampling_flag(self):
        assert StatsConfig().sampling
        assert not StatsConfig(sample_size=0).sampling

    def test_hashable(self):
        assert StatsConfig() == StatsConfig()
        assert len({StatsConfig(), StatsConfig(seed=1)}) == 2


class TestDatabaseCache:
    def test_profile_cached_in_database(self, db):
        provider = db.stats()
        first = provider.profile(db["R"])
        assert db.cached_stats_count() > 0
        assert provider.profile(db["R"]) is first

    def test_shared_across_provider_lookups(self, db):
        # db.stats() returns one provider per config.
        assert db.stats() is db.stats()
        assert db.stats(StatsConfig(seed=1)) is not db.stats()

    def test_replace_invalidates(self, db):
        provider = db.stats()
        before = provider.profile(db["R"])
        assert before.attribute("A").distinct == 3
        db.add(Relation("R", ("A", "B"), [(9, 9)]), replace=True)
        after = provider.profile(db["R"])
        assert after is not before
        assert after.attribute("A").distinct == 1

    def test_remove_invalidates(self, db):
        provider = db.stats()
        provider.profile(db["R"])
        assert db.cached_stats_count() > 0
        db.remove("R")
        assert db.cached_stats_count() == 0

    def test_same_named_adhoc_relation_does_not_hit_catalog_cache(self, db):
        provider = db.stats()
        provider.profile(db["R"])
        imposter = Relation("R", ("A", "B"), [(7, 7)])
        profile = provider.profile(imposter)
        assert profile.size == 1  # the imposter's own data
        # And the catalog's cached profile is untouched.
        assert provider.profile(db["R"]).size == 3

    def test_selectivity_cached_and_invalidated_with_target(self, db):
        provider = db.stats()
        sel = provider.selectivity(db["R"], db["T"])
        assert sel == 1.0
        cached = db.cached_stats_count()
        assert cached > 0
        # Replacing the *target* must invalidate the pair entry.
        db.add(Relation("T", ("A", "C"), [(99, 99)]), replace=True)
        assert provider.selectivity(db["R"], db["T"]) == 0.0


class TestAdhocCache:
    def test_local_cache_by_identity(self):
        provider = StatsProvider()
        rel = Relation("R", ("A",), [(1,), (2,)])
        assert provider.profile(rel) is provider.profile(rel)

    def test_equal_but_distinct_objects_not_conflated(self):
        provider = StatsProvider()
        a = Relation("R", ("A",), [(1,)])
        b = Relation("R", ("A",), [(1,), (2,)])  # same name, other data
        assert provider.profile(a).size == 1
        assert provider.profile(b).size == 2


class TestQueries:
    def test_attribute_scores_are_min_distinct(self):
        q = JoinQuery(
            [
                Relation("R", ("A", "B"), [(1, 1), (1, 2), (1, 3)]),
                Relation("S", ("B", "C"), [(1, 1), (2, 1), (3, 1)]),
            ]
        )
        assert StatsProvider().attribute_scores(q) == {
            "A": 1, "B": 3, "C": 1
        }

    def test_selectivity_requires_shared_attributes(self):
        provider = StatsProvider()
        r = Relation("R", ("A",), [(1,)])
        s = Relation("S", ("B",), [(1,)])
        with pytest.raises(ValueError):
            provider.selectivity(r, s)

    def test_heavy_hitters_sorted_by_mass(self):
        hub_r = Relation(
            "R", ("A", "B"),
            [(0, i) for i in range(64)] + [(i, 0) for i in range(1, 37)],
        )
        mild = Relation(
            "S", ("B", "C"),
            [(0, i) for i in range(30)] + [(i, i) for i in range(1, 71)],
        )
        q = JoinQuery([hub_r, mild])
        found = StatsProvider().heavy_hitters(q)
        assert found  # the hub crosses the default 25% threshold
        masses = [mass for *_ignored, mass in found]
        assert masses == sorted(masses, reverse=True)
        assert found[0][0] == "R"


class TestCoverLpSolvedOncePerCatalog:
    """The AGM sub-bounds the order descent clamps by are one exact
    simplex solve per connected relation subset — a pure function of the
    edge sets and sizes, so only the first plan over a catalog pays."""

    @pytest.fixture
    def solves(self, monkeypatch):
        from repro.hypergraph import agm, simplex

        calls = []

        def counting(costs, rows, rhs):
            calls.append(len(costs))
            return simplex.solve_min_geq(costs, rows, rhs)

        monkeypatch.setattr(agm, "solve_min_geq", counting)
        return calls

    def chain_db(self):
        return Database(
            generators.random_instance(
                queries.path_query(4), 40, 8, seed=2
            ).relations.values()
        )

    def test_second_plan_solves_no_lp(self, solves):
        db = self.chain_db()
        query = JoinQuery(list(db))
        first = plan_join(query, database=db)
        assert first.algorithm == "generic"
        assert len(solves) == 6  # connected subsets of a 4-chain
        del solves[:]
        second = plan_join(query, database=db)
        assert solves == []
        assert second.attribute_order == first.attribute_order
        assert second.statistics == first.statistics

    def test_replacing_a_relation_solves_again(self, solves):
        db = self.chain_db()
        plan_join(JoinQuery(list(db)), database=db)
        del solves[:]
        name = db.names()[0]
        smaller = Relation(
            name, db[name].attributes, sorted(db[name].tuples)[:5]
        )
        db.add(smaller, replace=True)
        plan_join(JoinQuery(list(db)), database=db)
        assert len(solves) == 6

    def test_adhoc_relations_reuse_the_providers_memo(self, solves):
        provider = StatsProvider()
        query = JoinQuery(list(self.chain_db()))
        plan_join(query, stats=provider)
        del solves[:]
        plan_join(query, stats=provider)
        assert solves == []
