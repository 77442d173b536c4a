"""StatsProvider: identity-keyed caching, database invalidation."""

import importlib.util
import pathlib

import pytest

from repro.core.query import JoinQuery
from repro.engine.planner import plan_join
from repro.relations.database import Database
from repro.relations.relation import Relation
from repro.stats import StatsProvider
from repro.stats.provider import resolve_provider
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


class TestDatabaseCache:
    def test_profile_cached_in_database(self, db):
        provider = db.stats()
        first = provider.profile(db["R"])
        assert db.cached_stats_count() > 0
        assert provider.profile(db["R"]) is first

    def test_shared_across_provider_lookups(self, db):
        # db.stats() returns one provider, made on first call.
        assert db.stats() is db.stats()
        assert db.stats().database is db

    def test_replace_invalidates(self, db):
        provider = db.stats()
        before = provider.profile(db["R"])
        table = provider.value_counts(db["R"], ("A",))
        assert before.attribute("A").distinct == 3
        assert dict(table) == {0: 1, 1: 1, 2: 1}
        # The profile read the table it is a view of: nothing recounts.
        assert provider.value_counts(db["R"], ("A",)) is table
        db.add(Relation("R", ("A", "B"), [(9, 9)]), replace=True)
        after = provider.profile(db["R"])
        assert after is not before
        assert after.attribute("A").distinct == 1
        assert dict(provider.value_counts(db["R"], ("A",))) == {9: 1}

    def test_remove_invalidates(self, db):
        provider = db.stats()
        provider.profile(db["R"])
        assert db.cached_stats_count() > 0
        db.remove("R")
        assert db.cached_stats_count() == 0

    def test_one_event_drops_everything_naming_the_relation(self, db):
        """Tables, profile and selectivities on either side: one replace
        (or remove) of ``S`` drops them all, and nothing of ``R`` /
        ``T`` that does not name ``S``."""

        def names_s(entry_key):
            return entry_key[0] == "S" or "S" in entry_key[1]

        def plan():
            return plan_join(
                JoinQuery.from_database(db, ["R", "S", "T"]), database=db
            )

        provider = db.stats()
        first = plan()
        kept = {
            key: payload
            for key, payload in db._stats_cache.items()
            if not names_s(key)
        }
        kinds = {key[1][0] for key in db._stats_cache if names_s(key)}
        assert kinds == {"value_counts", "profile", "selectivity"}
        assert provider.selectivity(db["R"], db["S"]) == 1.0
        assert provider.selectivity(db["S"], db["R"]) == 1.0
        db.add(Relation("S", ("B", "C"), [(1, 5), (8, 8)]), replace=True)
        assert not any(names_s(key) for key in db._stats_cache)
        assert all(db._stats_cache[key] is kept[key] for key in kept)
        # Recomputed against the new S, both directions.
        assert provider.selectivity(db["R"], db["S"]) == 1 / 3
        assert provider.selectivity(db["S"], db["R"]) == 1 / 2
        assert dict(provider.value_counts(db["S"], ("B",))) == {1: 1, 8: 1}
        second = plan()
        assert second.statistics != first.statistics
        assert any(names_s(key) for key in db._stats_cache)
        db.remove("S")
        assert not any(names_s(key) for key in db._stats_cache)
        assert all(db._stats_cache[key] is kept[key] for key in kept)

    def test_same_named_adhoc_relation_does_not_hit_catalog_cache(self, db):
        provider = db.stats()
        provider.profile(db["R"])
        cached = db.cached_stats_count()
        imposter = Relation("R", ("A", "B"), [(7, 7)])
        profile = provider.profile(imposter)
        assert profile.size == 1  # the imposter's own data
        assert dict(provider.value_counts(imposter, ("A",))) == {7: 1}
        assert provider.selectivity(imposter, db["T"]) == 0.0
        # Nothing of the imposter was written to the catalog's cache,
        # and the catalog's cached profile is untouched.
        assert db.cached_stats_count() == cached + 1  # T's table of A
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


def e2e_workloads():
    """``benchmarks/e2e/e2e_workloads.py``, the benchmark's four shapes
    and ``regular_chain``, loaded by path (it is not a package)."""
    path = (
        pathlib.Path(__file__).resolve().parents[2]
        / "benchmarks" / "e2e" / "e2e_workloads.py"
    )
    spec = importlib.util.spec_from_file_location("e2e_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def planned_queries():
    module = e2e_workloads()
    named = [
        (name, make(1, True)) for name, make in module.WORKLOADS.items()
    ]
    named.append(("trap", generators.zipf_trap_triangle(400, 3000, seed=7)))
    named.append(("chain6", module.regular_chain(6, 200, 3, seed=1)))
    return named


class TestAPlanSolvesNoCoverLp:
    """The order descent's estimates are capped at covered relation
    sizes, never at a cover LP's optimum (which a cap at the smallest
    covered relation is never above): a plan solves no LP, cold or warm,
    and the plan's own AGM bound is one lazy solve."""

    @pytest.fixture
    def solves(self, monkeypatch):
        from repro.hypergraph import agm, simplex

        calls = []

        def counting(costs, rows, rhs):
            calls.append(len(costs))
            return simplex.solve_min_geq(costs, rows, rhs)

        monkeypatch.setattr(agm, "solve_min_geq", counting)
        return calls

    @pytest.mark.parametrize("catalogued", [False, True])
    @pytest.mark.parametrize(
        "query", [pytest.param(q, id=name) for name, q in planned_queries()]
    )
    def test_a_plan_solves_no_lp(self, solves, query, catalogued):
        # Cold either way: a fresh catalog, or a fresh provider.
        if catalogued:
            plan = plan_join(
                query, database=Database(list(query.relations.values()))
            )
        else:
            plan = plan_join(query, stats=StatsProvider())
        assert plan.algorithm == "generic"
        assert plan.statistics.order_estimates
        assert solves == []

    def test_the_estimated_bound_is_solved_once_on_first_read(self, solves):
        query = JoinQuery(triangle_relations())
        plan = plan_join(query, stats=StatsProvider())
        assert solves == []
        assert plan.estimated_bound == pytest.approx(3**1.5)
        assert len(solves) == 1
        assert plan.estimated_bound == pytest.approx(3**1.5)
        assert len(solves) == 1

    def test_planning_threads_agree(self, solves):
        """The server plans on several threads over one catalog: they
        share its statistics cache and reach one plan, solving no LP."""
        import sys
        import threading

        db = Database(
            generators.random_instance(
                queries.path_query(4), 40, 8, seed=2
            ).relations.values()
        )
        query = JoinQuery(list(db))
        plans, errors = [], []
        start = threading.Barrier(8)

        def plan():
            try:
                start.wait(timeout=30)
                plans.append(plan_join(query, database=db))
            except Exception as error:  # surfaced by the assert below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=plan) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not errors
        assert not any(thread.is_alive() for thread in threads)
        assert len(plans) == 8
        assert len({plan.attribute_order for plan in plans}) == 1
        assert len({plan.statistics for plan in plans}) == 1
        assert solves == []


class TestResolveProvider:
    def test_explicit_provider_wins(self):
        provider = StatsProvider()
        assert resolve_provider(None, provider) is provider

    def test_database_provider_cached(self):
        db = Database(triangle_relations())
        assert resolve_provider(db, None) is db.stats()
        provider = StatsProvider()
        assert resolve_provider(db, provider) is provider

    def test_default_provider_shared(self):
        assert resolve_provider(None, None) is resolve_provider(None, None)
