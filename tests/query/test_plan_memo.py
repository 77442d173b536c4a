"""A builder reuses its plan until a write that could change it.

``QueryBuilder.plan`` memoizes its ``JoinPlan`` under the planning
generation (``repro.relations.database.planning_generation``).  Each
test here makes one of the writes that move it and checks that the next
``plan()`` of the held builder equals a fresh builder's, field by field
— and, so the check cannot pass vacuously, that the write really
changed the plan.
"""

import pytest

from repro import Database, Q, Relation, execute
from repro.engine import planner
from repro.observe.tracing import Tracer
from repro.relations import database as catalog
from repro.stats.provider import LOCAL_CACHE_BUDGET, StatsProvider

def triangle():
    r = Relation("R", ("A", "B"), [(i, (i * 3) % 7) for i in range(30)])
    s = Relation("S", ("B", "C"), [(i % 7, i % 11) for i in range(30)])
    t = Relation("T", ("A", "C"), [(i, i % 11) for i in range(30)])
    return [r, s, t]


def fields(plan):
    return (
        plan.algorithm,
        plan.attribute_order,
        plan.backend,
        plan.relation_backends,
        plan.reasons,
        plan.statistics,
        plan.describe(show_stats=True),
    )


def assert_fresh(builder):
    """``builder.plan()`` equals a fresh builder's plan of the same
    query and context; returns it."""
    plan = builder.plan()
    assert fields(plan) == fields(builder.using().plan())
    return plan


@pytest.fixture()
def plan_calls(monkeypatch):
    """Count calls of the planner's decision procedure."""
    calls = []
    original = planner._plan_join

    def counting(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(planner, "_plan_join", counting)
    return calls


def catalogued(**options):
    relations = triangle()
    database = Database(relations, **options)
    return database, Q(*relations).on(database).using(algorithm="generic")


def index_order(plan, name):
    rank = {a: i for i, a in enumerate(plan.attribute_order)}
    relation = plan.query.relation(name)
    return tuple(sorted(relation.attributes, key=rank.__getitem__))


class TestReuse:
    def test_a_warm_builder_plans_nothing(self, plan_calls):
        relations = triangle()
        database = Database(relations)
        builder = Q(*relations).on(database)
        list(execute(builder))
        builder.count()
        del plan_calls[:]
        for _ in range(10):
            list(execute(builder))
            execute(builder).count()
        assert plan_calls == []

    def test_a_memo_hit_is_the_same_plan(self, plan_calls):
        # A cold plan fills value-count tables, profiles and selectivities;
        # those writes leave the plan read before them current.
        database, builder = catalogued()
        first = builder.plan()
        assert builder.plan() is first
        assert len(plan_calls) == 1

    def test_a_builder_with_no_database(self, plan_calls):
        builder = Q(*triangle())
        list(execute(builder))
        plan = assert_fresh(builder)
        calls = len(plan_calls)
        assert builder.plan() is plan
        assert len(plan_calls) == calls

    @pytest.mark.parametrize("cache", ["database", "provider"])
    def test_a_statistics_eviction_plans_nothing(self, plan_calls, cache):
        # Statistics are a pure function of the relations: evicting a
        # catalog's or a provider's cached tables leaves the held plan
        # current, and the tables read again give the same plan.
        relations = triangle()
        database = Database(relations, stats_cache_budget=64)
        provider = StatsProvider()
        builder = {
            "database": Q(*relations).on(database),
            "provider": Q(*relations).using(stats=provider),
        }[cache].using(algorithm="generic")
        list(execute(builder))
        plan = builder.plan()
        calls, generation = len(plan_calls), catalog.planning_generation
        for filler in range(LOCAL_CACHE_BUDGET):
            if cache == "database":
                database.stats_cache_put("X", ("filler", filler), None)
            else:
                provider._local_put(("filler", filler), None, None)
        assert catalog.planning_generation == generation
        assert builder.plan() is plan
        assert len(plan_calls) == calls
        assert assert_fresh(builder) is plan


class TestInvalidation:
    def test_an_index_insert_replans(self):
        database, builder = catalogued()
        before = builder.plan()
        database.sorted_index("R", index_order(before, "R"))
        after = assert_fresh(builder)
        assert after.relation_backends == (
            ("R", "sorted"), ("S", "trie"), ("T", "trie")
        )
        assert fields(after) != fields(before)

    def test_an_index_eviction_replans(self):
        database, builder = catalogued(index_cache_budget=1)
        plan = builder.plan()
        database.sorted_index("R", index_order(plan, "R"))
        cached = builder.plan()
        assert cached.backend == "mixed"
        database.trie("S", index_order(plan, "S"))  # evicts R's index
        assert database.cache_info().evictions == 1
        after = assert_fresh(builder)
        assert after.backend == "trie"
        assert fields(after) != fields(cached)

    def test_a_replaced_relation_replans(self):
        database, builder = catalogued()
        plan = builder.plan()
        database.sorted_index("R", index_order(plan, "R"))
        cached = builder.plan()
        # The builder's R is no longer the catalogued object: its
        # cached index no longer counts for it.
        database.add(Relation("R", ("A", "B"), database["R"]), replace=True)
        after = assert_fresh(builder)
        assert after.backend == "trie"
        assert fields(after) != fields(cached)

    def test_a_removed_relation_replans(self):
        database, builder = catalogued()
        plan = builder.plan()
        database.sorted_index("R", index_order(plan, "R"))
        cached = builder.plan()
        database.remove("R")
        after = assert_fresh(builder)
        assert after.backend == "trie"
        assert fields(after) != fields(cached)

    def test_a_write_during_planning_is_not_hidden(self, monkeypatch):
        # An index lands after the planner's cached-index probe: the
        # plan made without it is stale by the generation read first.
        database, builder = catalogued()
        choose = planner._relation_backends

        def racing(query, order, *args):
            plan = choose(query, order, *args)
            rank = {a: i for i, a in enumerate(order)}
            database.sorted_index(
                "R", sorted(query.relation("R").attributes, key=rank.get)
            )
            return plan

        monkeypatch.setattr(planner, "_relation_backends", racing)
        raced = builder.plan()
        monkeypatch.setattr(planner, "_relation_backends", choose)
        assert raced.backend == "trie"
        assert assert_fresh(builder).backend == "mixed"


class TestTrace:
    def plan_spans(self, tracer):
        return [span for span in tracer.walk() if span.name == "plan"]

    def test_a_memo_hit_keeps_the_plan_span(self):
        relations = triangle()
        database = Database(relations)
        tracer = Tracer()
        builder = Q(*relations).on(database).using(tracer=tracer)
        list(execute(builder))
        list(execute(builder))  # the first run's index builds replanned
        list(execute(builder))
        cold, _replanned, hit = self.plan_spans(tracer)
        assert "memo" not in cold.meta
        assert [c.name for c in cold.children] == ["stats-profile"]
        assert hit.meta.pop("memo") == "hit"
        assert hit.meta == cold.meta
        assert hit.children == []

    def test_explain_analyze_shows_the_plan(self):
        relations = triangle()
        database = Database(relations)
        tracer = Tracer()
        builder = Q(*relations).on(database).using(tracer=tracer)
        list(execute(builder))
        builder.plan()
        report = builder.explain(analyze=True)
        hit = self.plan_spans(report.tracer)[-1]
        assert hit.meta["memo"] == "hit"
        assert hit.meta["algorithm"] == report.plan.algorithm
        assert "plan" in report.describe()
