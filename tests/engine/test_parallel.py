"""Tests for the parallel execution layer: batching, sharding, async."""

import asyncio
import pickle
import threading
import time

import pytest

from repro.api import execute
from repro.core.generic_join import GenericJoin
from repro.core.query import JoinQuery
from repro.engine import parallel
from repro.engine.parallel import batches, plan_shards, restrict
from repro.engine.planner import plan_join
from repro.errors import PlanError
from repro.hypergraph.covers import FractionalCover
from repro.relations.relation import Relation
from repro.workloads import generators, queries


@pytest.fixture
def triangle_query():
    return JoinQuery(
        [
            Relation("R", ("A", "B"), [(0, 1), (1, 2), (2, 0)]),
            Relation("S", ("B", "C"), [(1, 5), (2, 6), (0, 7)]),
            Relation("T", ("A", "C"), [(0, 5), (1, 6), (2, 7)]),
        ]
    )


def _workload_queries():
    """The parity workloads: every generator family, kept small."""
    return [
        generators.random_instance(
            queries.triangle(), 400, 20, seed=3, skew=1.2
        ),
        generators.random_instance(queries.clique_query(4), 150, 8, seed=4),
        generators.random_instance(queries.lw_query(3), 120, 6, seed=5),
        generators.random_instance(
            generators.random_hypergraph(4, 3, 3, seed=6), 80, 5, seed=6
        ),
    ]


class TestBatches:
    def test_sizes_and_remainder(self):
        out = list(batches(iter([(i,) for i in range(10)]), 4))
        assert [len(b) for b in out] == [4, 4, 2]
        assert [row for b in out for row in b] == [(i,) for i in range(10)]

    def test_exact_multiple_has_no_empty_batch(self):
        out = list(batches(iter([(i,) for i in range(8)]), 4))
        assert [len(b) for b in out] == [4, 4]

    def test_empty_source(self):
        assert list(batches(iter([]), 3)) == []

    def test_accepts_executor(self, triangle_query):
        executor = GenericJoin(triangle_query)
        rows = {r for b in batches(executor, 2) for r in b}
        assert rows == set(GenericJoin(triangle_query).iter_join())

    def test_lazy_consumption(self):
        seen = []

        def source():
            for i in range(100):
                seen.append(i)
                yield (i,)

        stream = batches(source(), 5)
        next(stream)
        assert len(seen) <= 10  # one batch ahead at most

    @pytest.mark.parametrize("bad", [0, -1, "x", 2.5, True])
    def test_invalid_size_raises_eagerly(self, bad):
        with pytest.raises(PlanError):
            batches(iter([]), bad)


class TestPlanShards:
    def test_partitions_candidate_values(self, triangle_query):
        specs = plan_shards(triangle_query, 2, "A")
        union = set().union(*(s.values for s in specs))
        assert union == {0, 1, 2}
        assert sum(len(s.values) for s in specs) == 3  # disjoint

    def test_drops_values_outside_intersection(self):
        q = JoinQuery(
            [
                Relation("R", ("A", "B"), [(0, 1), (9, 1)]),
                Relation("T", ("A", "C"), [(0, 2), (7, 2)]),
            ]
        )
        specs = plan_shards(q, 4, "A")
        assert set().union(*(s.values for s in specs)) == {0}

    def test_more_shards_than_values(self, triangle_query):
        specs = plan_shards(triangle_query, 16, "A")
        assert 1 <= len(specs) <= 3
        assert all(s.values for s in specs)

    def test_deterministic(self, triangle_query):
        assert plan_shards(triangle_query, 3, "A") == plan_shards(
            triangle_query, 3, "A"
        )

    def test_skew_balance(self):
        # One hub value with weight ~N, many light values: LPT must not
        # stack light values onto the hub's shard.
        rows = [(0, i) for i in range(50)] + [(j, 0) for j in range(1, 26)]
        q = JoinQuery(
            [
                Relation("R", ("A", "B"), rows),
                Relation("T", ("A", "C"), rows),
            ]
        )
        specs = plan_shards(q, 2, "A")
        hub = next(s for s in specs if 0 in s.values)
        assert hub.values == {0}

    def test_zipf_skew_balance(self):
        # Every attribute Zipf-distributed: LPT keeps the planned shard
        # weights level until one value alone outweighs the mean.
        q = generators.random_instance(
            queries.triangle(), 9000, 150, seed=23, skew=1.1
        )
        for shards in (2, 4):
            weights = [s.weight for s in plan_shards(q, shards, "A")]
            assert len(weights) == shards
            assert max(weights) <= 1.01 * sum(weights) / shards
        specs = plan_shards(q, 8, "A")
        heaviest = max(specs, key=lambda s: s.weight)
        assert len(heaviest.values) == 1  # nothing stacked on the hub

    def test_unknown_attribute(self, triangle_query):
        with pytest.raises(PlanError):
            plan_shards(triangle_query, 2, "Z")

    @pytest.mark.parametrize("bad", [0, -2, "4", True])
    def test_invalid_count(self, triangle_query, bad):
        with pytest.raises(PlanError):
            plan_shards(triangle_query, bad, "A")


class TestRestrict:
    def test_restricts_only_participants(self, triangle_query):
        restricted = restrict(triangle_query, (("A", frozenset({0})),))
        assert set(restricted.relation("R").tuples) == {(0, 1)}
        assert set(restricted.relation("T").tuples) == {(0, 5)}
        # S does not contain A: shared untouched.
        assert restricted.relation("S") is triangle_query.relation("S")

    def test_same_hypergraph(self, triangle_query):
        restricted = restrict(triangle_query, (("A", frozenset({0, 1})),))
        assert restricted.attributes == triangle_query.attributes
        assert restricted.edge_ids == triangle_query.edge_ids

    def test_a_chain_conjoins_its_links(self, triangle_query):
        key = (("A", frozenset({0, 1})), ("B", frozenset({2})))
        restricted = restrict(triangle_query, key)
        # R holds both attributes, S and T one each.
        assert set(restricted.relation("R").tuples) == {(1, 2)}
        assert set(restricted.relation("S").tuples) == {(2, 6)}
        assert set(restricted.relation("T").tuples) == {(0, 5), (1, 6)}
        assert restrict(triangle_query, ()).relations == (
            triangle_query.relations
        )


class TestShardJoinParity:
    """Sharded row sets must equal a serial run on every generator."""

    @pytest.mark.parametrize("mode", ["serial", "thread", "process"])
    def test_modes_match_serial(self, mode):
        for query in _workload_queries():
            serial = set(execute(query, algorithm="generic"))
            sharded = set(
                execute(query, shards=3, algorithm="generic", mode=mode)
            )
            assert sharded == serial

    @pytest.mark.parametrize("shards", [1, 2, 4, 8])
    def test_shard_counts_match_serial(self, shards):
        query = _workload_queries()[0]
        serial = set(execute(query))
        assert set(execute(query, shards=shards, mode="serial")) == serial

    @pytest.mark.parametrize(
        "algorithm", ["nprr", "lw", "generic", "leapfrog", "arity2"]
    )
    def test_every_algorithm(self, triangle_query, algorithm):
        serial = set(execute(triangle_query, algorithm=algorithm))
        sharded = set(
            execute(
                triangle_query, shards=2, algorithm=algorithm, mode="serial"
            )
        )
        assert sharded == serial

    def test_with_cover(self, triangle_query):
        from fractions import Fraction

        cover = FractionalCover.uniform(
            triangle_query.hypergraph, Fraction(1, 2)
        )
        serial = set(execute(triangle_query, cover=cover))
        assert (
            set(
                execute(
                    triangle_query, shards=2, cover=cover, mode="serial"
                )
            )
            == serial
        )

    def test_empty_result(self):
        q = JoinQuery(
            [
                Relation("R", ("A", "B"), [(0, 1)]),
                Relation("S", ("B", "C"), [(9, 2)]),
            ]
        )
        assert list(execute(q, shards=4, mode="serial")) == []

    def test_single_relation(self):
        q = JoinQuery([Relation("R", ("A", "B"), [(0, 1), (1, 2)])])
        assert set(execute(q, shards=2, mode="serial")) == {(0, 1), (1, 2)}

    def test_auto_falls_back_to_thread_for_unpicklable(self):
        class Local:  # unpicklable: defined inside a function
            pass

        a, b = Local(), Local()
        q = JoinQuery(
            [
                Relation("R", ("A", "B"), [(a, 1), (b, 2)]),
                Relation("T", ("A", "C"), [(a, 5), (b, 6)]),
            ]
        )
        with pytest.raises(Exception):
            pickle.dumps(q)
        assert set(execute(q, shards=2, mode="auto")) == set(execute(q))

    def test_auto_mode_with_mixed_picklability(self):
        # Regression: one heavy *picklable* value monopolizes the first
        # shard, so sampling only tasks[0] would choose the process pool
        # and crash at first next() when a later shard's unpicklable
        # value hits the pickler.  Auto mode must inspect every task.
        class Local:
            pass

        a, b = Local(), Local()
        rows = [(0, i) for i in range(30)] + [(a, 0), (b, 1)]
        q = JoinQuery(
            [
                Relation("R", ("A", "B"), rows),
                Relation("T", ("A", "C"), rows),
            ]
        )
        assert set(execute(q, shards=2, mode="auto")) == set(execute(q))

    def test_workers_cap(self):
        query = _workload_queries()[0]
        serial = set(execute(query, algorithm="generic"))
        got = set(
            execute(
                query,
                shards=4,
                algorithm="generic",
                mode="thread",
                workers=2,
            )
        )
        assert got == serial

    def test_thread_mode_propagates_worker_errors(self, triangle_query, monkeypatch):
        def boom(self, key, spec=None):
            raise RuntimeError("shard exploded")

        monkeypatch.setattr(parallel.ShardRunner, "stream", boom)
        with pytest.raises(RuntimeError, match="shard exploded"):
            list(execute(triangle_query, shards=2, mode="thread"))

    def test_explicit_process_mode_rejects_unpicklable_eagerly(self):
        class Local:
            pass

        a, b = Local(), Local()
        q = JoinQuery(
            [
                Relation("R", ("A", "B"), [(a, 1), (b, 2)]),
                Relation("T", ("A", "C"), [(a, 5), (b, 6)]),
            ]
        )
        # auto falls back to threads; an explicit process request must
        # surface the pickling failure at the call site instead.
        with pytest.raises(Exception):
            iter(execute(q, shards=2, mode="process"))

    def test_thread_mode_workers_retire_on_early_close(self):
        query = generators.random_instance(
            queries.triangle(), 800, 20, seed=8, skew=1.2
        )
        before = threading.active_count()
        stream = iter(execute(query, shards=4, mode="thread"))
        next(stream)
        stream.close()
        deadline = time.monotonic() + 5.0
        while (
            threading.active_count() > before
            and time.monotonic() < deadline
        ):
            time.sleep(0.02)
        assert threading.active_count() <= before

    def test_eager_validation(self, triangle_query):
        with pytest.raises(PlanError):
            execute(triangle_query, shards=0)
        with pytest.raises(PlanError):
            execute(triangle_query, shards=2, mode="warp")
        with pytest.raises(PlanError):
            execute(triangle_query, shards=2, workers=0)
        with pytest.raises(PlanError):
            iter(
                execute(
                    triangle_query,
                    shards=2,
                    algorithm="nprr",
                    backend="sorted",
                )
            )


class TestCompactBackendParallel:
    """``backend="compact"`` matches default rows in every exec mode."""

    @pytest.mark.parametrize("algorithm", ["generic", "leapfrog"])
    @pytest.mark.parametrize("mode", ["serial", "thread", "process"])
    def test_sharded_modes(self, triangle_query, algorithm, mode):
        expected = set(execute(triangle_query, algorithm=algorithm))
        sharded = set(
            execute(
                triangle_query,
                shards=2,
                algorithm=algorithm,
                backend="compact",
                mode=mode,
            )
        )
        assert sharded == expected

    @pytest.mark.parametrize("algorithm", ["generic", "leapfrog"])
    def test_batched(self, triangle_query, algorithm):
        flat = {
            row
            for batch in execute(
                triangle_query,
                algorithm=algorithm,
                backend="compact",
            ).batches(2)
            for row in batch
        }
        assert flat == set(execute(triangle_query, algorithm=algorithm))

    @pytest.mark.parametrize("algorithm", ["generic", "leapfrog"])
    def test_async(self, triangle_query, algorithm):
        async def collect():
            stream = execute(
                triangle_query, algorithm=algorithm, backend="compact"
            ).astream()
            return {row async for row in stream}

        assert asyncio.run(collect()) == set(
            execute(triangle_query, algorithm=algorithm)
        )

    def test_workload_parity(self):
        for query in _workload_queries():
            expected = set(execute(query, algorithm="generic"))
            assert expected == set(
                execute(query, algorithm="generic", backend="compact")
            )
            assert expected == set(
                execute(
                    query,
                    shards=3,
                    algorithm="leapfrog",
                    backend="compact",
                    mode="serial",
                )
            )


class TestRestrictedRows:
    def test_streams_one_shard(self, triangle_query):
        specs = plan_shards(triangle_query, 3, "A")
        rows = set()
        for spec in specs:
            shard = restrict(triangle_query, (("A", spec.values),))
            rows |= set(plan_join(shard, "generic").executor().iter_join())
        assert rows == set(execute(triangle_query, algorithm="generic"))


class TestJoinBatched:
    def test_flattens_to_iter_join(self, triangle_query):
        flat = [
            row
            for batch in execute(triangle_query).batches(2)
            for row in batch
        ]
        assert set(flat) == set(execute(triangle_query))
        assert len(flat) == len(set(flat))

    def test_invalid_batch_size_raises_eagerly(self, triangle_query):
        with pytest.raises(PlanError):
            execute(triangle_query).batches(0)


class TestAiterJoin:
    def test_parity(self, triangle_query):
        async def collect():
            return {row async for row in execute(triangle_query).astream()}

        assert asyncio.run(collect()) == set(execute(triangle_query))

    def test_sharded(self, triangle_query):
        async def collect():
            stream = execute(triangle_query, shards=2).astream(2)
            return {row async for row in stream}

        assert asyncio.run(collect()) == set(execute(triangle_query))

    def test_eager_validation_outside_event_loop(self, triangle_query):
        # Misconfiguration must raise in the synchronous call, not at
        # first anext() inside a running loop.
        with pytest.raises(PlanError):
            execute(
                triangle_query, algorithm="leapfrog", backend="trie"
            ).astream()


class TestPlannerParallelFields:
    def test_defaults_are_serial(self, triangle_query):
        plan = plan_join(triangle_query, "generic")
        assert plan.shards == 1

    def test_fixed_by_caller(self, triangle_query):
        plan = plan_join(triangle_query, "generic", shards=4)
        assert plan.shards == 4
        assert any("shard count fixed" in r for r in plan.reasons)

    def test_auto_small_input_stays_serial(self, triangle_query):
        plan = plan_join(triangle_query, "generic", shards="auto")
        assert plan.shards == 1

    def test_auto_large_input_shards(self):
        query = generators.random_instance(queries.triangle(), 2500, 500, seed=9)
        assert query.total_input_size() >= 4096
        plan = plan_join(query, "generic", shards="auto")
        assert 1 <= plan.shards <= 8

    def test_describe_mentions_parallel_fields(self, triangle_query):
        text = plan_join(triangle_query, "generic", shards=2).describe()
        assert "shards: 2" in text
        assert "batch size" not in text

    @pytest.mark.parametrize("bad", [0, -1, 1.5, True])
    def test_invalid_shards(self, triangle_query, bad):
        with pytest.raises(PlanError):
            plan_join(triangle_query, "generic", shards=bad)



class TestPickling:
    """Process-mode sharding ships queries to workers via pickle."""

    def test_relation_roundtrip(self):
        rel = Relation("R", ("A", "B"), [(1, 2), (3, 4)])
        again = pickle.loads(pickle.dumps(rel))
        assert again == rel
        assert again.name == "R"

    def test_join_query_roundtrip(self, triangle_query):
        again = pickle.loads(pickle.dumps(triangle_query))
        assert again.edge_ids == triangle_query.edge_ids
        assert again.relations == triangle_query.relations

    def test_cover_roundtrip(self, triangle_query):
        from fractions import Fraction

        cover = FractionalCover.uniform(
            triangle_query.hypergraph, Fraction(1, 2)
        )
        assert pickle.loads(pickle.dumps(cover)) == cover
