"""PreparedQuery: plan-once/run-many, zero warm builds, rebinding."""

import json
import pickle

import pytest

from repro.api import execute
from repro.errors import PlanError, QueryError
from repro.observe.metrics import MetricsRegistry
from repro.observe.tracing import Tracer
from repro.query.builder import Q
from repro.query.prepared import PreparedQuery, _pump
from repro.query.shards import ShardSpec
from repro.relations.database import Database
from repro.relations.relation import Relation
from repro.workloads import generators, queries
from tests.helpers import SHARDED_EXECUTIONS, count_index_builds


def instance(seed=21):
    return generators.random_instance(queries.triangle(), 80, 9, seed=seed)


def catalogued(seed=21):
    query = instance(seed)
    db = Database(query.relations.values())
    return db, Q(db["R"], db["S"], db["T"]).on(db)


class TestPreparedExecution:
    def test_run_matches_unprepared(self):
        query = instance()
        prepared = Q(query).using(algorithm="generic").prepare()
        assert sorted(prepared.stream()) == sorted(execute(query).relation().tuples)

    def test_repeated_runs_agree(self):
        _db, builder = catalogued()
        prepared = builder.using(algorithm="generic").prepare()
        first = sorted(prepared.stream())
        assert all(sorted(prepared.stream()) == first for _ in range(3))

    def test_zero_index_builds_after_prepare(self):
        db, builder = catalogued()
        prepared = builder.using(algorithm="generic").prepare()
        before = db.cache_info()
        for _ in range(5):
            list(prepared.stream())
        after = db.cache_info()
        assert after.misses == before.misses
        assert after.hits == before.hits  # executor holds its indexes

    def test_zero_index_builds_on_warm_database(self):
        # The acceptance criterion: warm the catalog, then prepare+run
        # without a single index build.
        db, builder = catalogued()
        builder = builder.using(algorithm="generic")
        db.warm([builder])
        before = db.cache_info()
        prepared = db.prepare(builder)
        rows = sorted(prepared.run("J").tuples)
        after = db.cache_info()
        assert after.misses == before.misses, "a warm run built an index"
        assert rows == sorted(execute(builder.query).relation().tuples)

    def test_prepared_with_pushdown(self):
        query = instance()
        full = execute(query).relation()
        value = sorted(full.tuples)[0][0]
        prepared = (
            Q(query).where(A=value).select("B", "C").prepare()
        )
        expected = sorted(
            full.select_equals("A", value).project(("B", "C")).tuples
        )
        assert sorted(prepared.stream()) == expected
        assert prepared.output_attributes == ("B", "C")

    def test_prepared_batches_and_count(self):
        query = instance()
        prepared = Q(query).prepare()
        total = prepared.count()
        assert total == len(execute(query).relation())
        assert sum(len(b) for b in prepared.batches(16)) == total

    def test_prepared_async(self):
        import asyncio

        query = instance()
        prepared = Q(query).prepare()

        async def collect():
            return [row async for row in prepared.astream(batch_size=8)]

        assert sorted(asyncio.run(collect())) == sorted(
            execute(query).relation().tuples
        )

    def test_astream_hops_once_per_batch(self, monkeypatch):
        # astream() and the server share one pump: a worker hop per
        # batch plus the one that finds the stream exhausted.
        import asyncio

        prepared = Q(instance()).prepare()
        rows = sorted(prepared.stream())
        hops = []
        to_thread = asyncio.to_thread

        async def counting(function, *args):
            hops.append(function)
            return await to_thread(function, *args)

        monkeypatch.setattr(asyncio, "to_thread", counting)

        async def collect():
            return [row async for row in prepared.astream(batch_size=8)]

        assert sorted(asyncio.run(collect())) == rows
        assert len(hops) == -(-len(rows) // 8) + 1

    def test_abandoned_pump_closes_its_producer(self):
        import asyncio

        state = {"made": 0, "closed": False}

        def producer():
            try:
                for item in range(100):
                    state["made"] += 1
                    yield item
            finally:
                state["closed"] = True

        async def take_two():
            pump = _pump(producer())
            taken = [await anext(pump), await anext(pump)]
            await pump.aclose()
            return taken

        assert asyncio.run(take_two()) == [0, 1]
        assert state == {"made": 2, "closed": True}

    def test_pump_raises_what_the_producer_raises(self):
        import asyncio

        def producer():
            yield 1
            raise QueryError("mid-stream")

        async def collect():
            return [item async for item in _pump(producer())]

        with pytest.raises(QueryError, match="mid-stream"):
            asyncio.run(collect())

    def test_prepared_parallel_context_delegates(self):
        query = instance()
        prepared = Q(query).using(shards=2, mode="thread").prepare()
        assert sorted(prepared.stream()) == sorted(execute(query).relation().tuples)

    def test_immutable(self):
        prepared = Q(instance()).prepare()
        with pytest.raises(AttributeError):
            prepared.plan = None


class TestBind:
    def test_bind_rebinds_without_replanning(self):
        query = instance()
        full = execute(query).relation()
        values = sorted({row[0] for row in full.tuples})
        prepared = Q(query).using(algorithm="generic").where(A=values[0]).prepare()
        rebound = prepared.bind(A=values[1])
        assert prepared.plan.attribute_order == rebound.plan.attribute_order
        assert prepared.plan.algorithm == rebound.plan.algorithm
        assert rebound.plan.bound == (("A", values[1]),)
        assert sorted(rebound.stream()) == sorted(
            full.select_equals("A", values[1]).tuples
        )
        # The original prepared query is untouched.
        assert sorted(prepared.stream()) == sorted(
            full.select_equals("A", values[0]).tuples
        )

    def test_bind_unknown_parameter_rejected(self):
        prepared = Q(instance()).where(A=0).prepare()
        with pytest.raises(QueryError, match="bind"):
            prepared.bind(B=1)

    def test_bind_loop_over_parameters(self):
        # The prepared-statement workload: one plan, many parameters.
        query = instance()
        full = execute(query).relation()
        prepared = Q(query).where(A=0).select("C").prepare()
        for value in sorted({row[0] for row in full.tuples})[:4]:
            expected = sorted(
                full.select_equals("A", value).project(("C",)).tuples
            )
            assert sorted(prepared.bind(A=value).stream()) == expected

    def test_bind_resurrects_degenerate_prepared_query(self):
        # Prepared while provably empty (a residual filter rejects the
        # bound value, so no plan was ever made); rebinding to a
        # satisfying value must plan fresh instead of reusing the
        # degenerate guard plan.
        r = Relation("R", ("A", "B"), [(0, 1), (1, 2)])
        s = Relation("S", ("B", "C"), [(1, 5), (2, 6)])
        prepared = (
            Q(r, s).where(A=0).where_in("A", {1}).prepare()
        )
        assert list(prepared.stream()) == []
        resurrected = prepared.bind(A=1)
        assert resurrected.plan.algorithm != "none"
        assert sorted(resurrected.stream()) == [(1, 2, 6)]

    def test_bind_statistics_not_rescanned(self):
        db, builder = catalogued()
        prepared = builder.using(algorithm="generic").where(A=1).prepare()
        cached = db.cached_stats_count()
        prepared.bind(A=2)
        assert db.cached_stats_count() == cached


class TestDescribe:
    def test_describe_shows_bound_parameters(self):
        prepared = Q(instance()).where(A=3).prepare()
        assert "bound attributes: A=3" in prepared.describe()

    def test_plans_are_picklable(self):
        prepared = Q(instance()).where(A=3).prepare()
        clone = pickle.loads(pickle.dumps(prepared.plan))
        assert clone.bound == prepared.plan.bound


class TestDatabasePrepare:
    def test_accepts_relation_sequence(self):
        query = instance()
        db = Database(query.relations.values())
        prepared = db.prepare([db["R"], db["S"], db["T"]])
        assert sorted(prepared.stream()) == sorted(execute(query).relation().tuples)

    def test_overrides_builder_database(self):
        query = instance()
        db = Database(query.relations.values())
        other = Database()
        builder = Q(db["R"], db["S"], db["T"]).on(other)
        prepared = db.prepare(builder)
        assert prepared.query.context.database is db


def test_prepared_on_degenerate_all_bound():
    r = Relation("R", ("A", "B"), [(1, 2), (3, 4)])
    prepared = Q(r).where(A=1, B=2).prepare()
    assert list(prepared.stream()) == [(1, 2)]
    missing = prepared.bind(A=3, B=2)
    assert list(missing.stream()) == []


class TestPreparedRunsAreMeasured:
    """A prepared run reaches the context's tracer and metrics exactly
    as the builder's own run does (it used to reach neither)."""

    VIEWS = {
        "stream": (lambda b: list(b.stream()), lambda p: list(p.stream())),
        "batches": (
            lambda b: list(b.batches(16)),
            lambda p: list(p.batches(16)),
        ),
        "count": (lambda b: b.count(), lambda p: p.count()),
        "run": (lambda b: b.run(), lambda p: p.run()),
    }

    @staticmethod
    def _left_behind(context):
        spans = rows = None
        if context.tracer is not None:
            spans = sorted(span.name for span in context.tracer.walk())
        if context.metrics is not None:
            rows = context.metrics.counter(
                "repro_rows_emitted_total"
            ).value()
        return spans, rows

    @pytest.mark.parametrize("view", VIEWS)
    @pytest.mark.parametrize(
        "sinks", [("tracer",), ("metrics",), ("tracer", "metrics")]
    )
    def test_same_spans_and_rows_as_the_builder(self, sinks, view):
        on_builder, on_prepared = self.VIEWS[view]
        left = []
        for run, prepare in ((on_builder, False), (on_prepared, True)):
            _db, builder = catalogued()
            builder = builder.using(
                algorithm="generic", **{sink: True for sink in sinks}
            )
            run(builder.prepare() if prepare else builder)
            left.append(self._left_behind(builder.context))
        assert left[0] == left[1]
        spans, rows = left[0]
        if spans is not None:
            assert "plan" in spans
            assert ("fold" if view == "count" else "execute") in spans
        if rows is not None and view != "count":
            assert rows == len(execute(instance()).relation())


class TestOneBatchRule:
    """explicit size -> the plan's batch size -> the default, on every
    surface, serial or sharded."""

    #: 3 x 32 x 32 rows; the AGM bound 96 * 96 makes "auto" 96.
    RELATIONS = (
        Relation("R", ("A", "B"), [(a, b) for a in range(32) for b in range(3)]),
        Relation("S", ("B", "C"), [(b, c) for b in range(3) for c in range(32)]),
    )
    ROWS = 3 * 32 * 32

    @staticmethod
    def _lengths(batched):
        return [len(batch) for batch in batched]

    def _surfaces(self, builder):
        return {
            "builder": builder.batches,
            "prepared": builder.prepare().batches,
            "result-stream": execute(builder).batches,
        }

    @pytest.mark.parametrize("sharded", [False, True])
    @pytest.mark.parametrize(
        "spelling",
        ["explicit", "context-int", "context-auto", "spec-int", "spec-auto",
         "nothing"],
    )
    def test_every_surface_batches_alike(self, spelling, sharded):
        count = 2 if sharded else 1
        options = {"mode": "serial"}
        size = None
        if spelling == "explicit":
            size = 7
        elif spelling.startswith("context"):
            options["batch_size"] = 7 if spelling == "context-int" else "auto"
        if spelling.startswith("spec"):
            options["shards"] = ShardSpec(
                count, batch_size=7 if spelling == "spec-int" else "auto"
            )
        elif sharded:
            options["shards"] = count
        builder = Q(*self.RELATIONS).using(**options)
        lengths = {
            name: self._lengths(batches(size))
            for name, batches in self._surfaces(builder).items()
        }
        assert lengths["builder"] == lengths["prepared"]
        assert lengths["builder"] == lengths["result-stream"]
        assert sum(lengths["builder"]) == self.ROWS
        if spelling in ("explicit", "context-int", "spec-int"):
            expected = 7
        elif spelling == "nothing":
            expected = 1024
        else:
            expected = 96
        assert set(lengths["builder"][:-1]) == {expected}

    @pytest.mark.parametrize("sharded", [False, True])
    @pytest.mark.parametrize("bad", [0, -1])
    def test_non_positive_sizes_raise_alike(self, bad, sharded):
        options = {"shards": 2, "mode": "serial"} if sharded else {}
        builder = Q(*self.RELATIONS).using(**options)
        for batches in self._surfaces(builder).values():
            with pytest.raises(PlanError, match="batch size"):
                batches(bad)
        configured = builder.using(batch_size=bad)
        for run in (
            configured.batches,
            configured.prepare,
            execute(configured).batches,
        ):
            with pytest.raises(PlanError, match="batch_size"):
                run()


class TestShardedParentPlansOnce:
    """One engine run per request: the sharded drivers plan nothing and
    every shard walks the one executor's indexes."""

    @pytest.mark.parametrize("execution", SHARDED_EXECUTIONS)
    def test_a_sharded_request_plans_once(self, monkeypatch, execution):
        # Counted in the driver process; loopback workers are threads of
        # it, so a worker that planned would be counted too (what a pool
        # process does is held to account by the span-shape test in
        # tests/engine/test_shard_keys.py).
        from repro.engine import planner

        calls = []
        real = planner._plan_join

        def counting(query, *args, **kwargs):
            calls.append(query)
            return real(query, *args, **kwargs)

        monkeypatch.setattr(planner, "_plan_join", counting)
        query, options = instance(), SHARDED_EXECUTIONS[execution]
        rows = sorted(execute(query, shards=3, **options()))
        assert len(calls) == 1
        prepared = Q(query).using(shards=3, **options()).prepare()
        assert calls[1:] == [prepared.plan.query]
        assert [sorted(prepared.stream()) for _ in range(3)] == [rows] * 3
        assert prepared.count() == len(rows)
        assert len(calls) == 2  # a held query's runs plan nothing
        monkeypatch.undo()
        assert rows == sorted(execute(query).relation().tuples)

    @pytest.mark.parametrize("mode", ["serial", "thread"])
    def test_warm_database_shards_build_no_index(self, mode):
        db, builder = catalogued()
        builder = builder.using(algorithm="generic", shards=3, mode=mode)
        expected = sorted(execute(builder.using(shards=None)))
        before = db.cache_info()
        assert sorted(execute(builder)) == expected
        assert execute(builder).count() == len(expected)
        assert db.cache_info().misses == before.misses

    @pytest.mark.parametrize("catalog", [True, False])
    def test_a_held_sharded_query_builds_nothing(self, monkeypatch, catalog):
        builds = count_index_builds(monkeypatch)
        db, builder = catalogued()
        if not catalog:
            builder = Q(instance())
        prepared = builder.using(shards=3, mode="thread").prepare()
        built, before = list(builds), db.cache_info()
        # Ad-hoc relations are indexed privately, once, at prepare().
        assert len(built) == (0 if catalog else 3)
        first = sorted(prepared.stream())
        for _ in range(2):
            assert sorted(prepared.stream()) == first
        assert prepared.count() == len(first)
        assert builds == built
        assert db.cache_info() == before  # the executor holds its indexes

    def test_the_driver_partitions_by_the_frozen_plan(self, monkeypatch):
        from repro.engine import parallel

        seen = []
        real = parallel.plan_shards

        def spying(query, shards, attribute=None, *tables):
            seen.append((shards, attribute))
            return real(query, shards, attribute, *tables)

        monkeypatch.setattr(parallel, "plan_shards", spying)
        prepared = Q(instance()).using(shards=2, mode="serial").prepare()
        list(prepared.stream())
        assert seen == [
            (prepared.plan.shards, prepared.plan.attribute_order[0])
        ]


class TestRowTexts:
    """``_texts``: the rows as Generic Join's loop nest's JSON array
    texts, exactly where :meth:`PreparedQuery.stream` is that nest."""

    @staticmethod
    def texts(builder):
        prepared = builder.prepare()
        texts = prepared._texts()
        return None if texts is None else (list(texts), prepared)

    def test_the_plain_nest_and_a_permutation_write_texts(self):
        _db, builder = catalogued()
        for plain in (
            builder.using(algorithm="generic"),
            builder.using(algorithm="generic", backend="sorted"),
            builder.using(algorithm="generic").select("C", "A", "B"),
            builder.using(algorithm="generic").where_in("A", (1, 2, 3)),
        ):
            texts, prepared = self.texts(plain)
            assert [tuple(json.loads(text)) for text in texts] == list(
                prepared.stream()
            )
            # A second run reads the memos the first one filled.
            assert list(prepared._texts()) == texts

    def test_every_other_stream_takes_the_tuples(self):
        _db, builder = catalogued()
        generic = builder.using(algorithm="generic")
        value = next(iter(generic.prepare().stream()))[0]
        for fallback in (
            generic.where(A=value),  # a merge puts the bound column back
            generic.select("A", "C"),  # a deduplicating projection
            generic.using(shards=2, mode="serial"),
            generic.using(tracer=Tracer()),
            generic.using(metrics=MetricsRegistry()),
            builder.using(algorithm="leapfrog", backend="sorted"),
            builder.using(algorithm="lw"),
            builder.using(algorithm="nprr"),
        ):
            assert self.texts(fallback) is None
        # A probe (the run EXPLAIN ANALYZE makes) counts the tuples.
        probed = PreparedQuery._one_shot(generic, analyze=True)
        assert probed._probe is not None
        assert probed._texts() is None
