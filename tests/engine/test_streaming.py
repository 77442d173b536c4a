"""Streaming parity: iter_join agrees with join for every algorithm.

The acceptance property of the streaming engine:
``sorted(execute(q)) == sorted(execute(q).relation().tuples)`` across
the workload generators, for all five algorithms — plus laziness and
index-cache behavior of the streaming path.
"""

import pytest

from repro.api import execute
from repro.core.generic_join import GenericJoin
from repro.core.leapfrog import LeapfrogTriejoin
from repro.core.nprr import NPRRJoin
from repro.core.query import JoinQuery
from repro.relations.database import Database
from repro.relations.relation import Relation
from repro.workloads import generators, queries

from tests.helpers import single_relation_query, triangle_query

ALL_ALGORITHMS = ("nprr", "lw", "generic", "leapfrog", "arity2")

#: (query builder, algorithms applicable to its shape)
WORKLOADS = [
    ("triangle-uniform", lambda: generators.random_instance(
        queries.triangle(), 40, 6, seed=1
    ), ALL_ALGORITHMS),
    ("triangle-skewed", lambda: generators.random_instance(
        queries.triangle(), 40, 6, seed=2, skew=1.2
    ), ALL_ALGORITHMS),
    ("lw4", lambda: generators.random_instance(
        queries.lw_query(4), 30, 3, seed=3
    ), ("nprr", "lw", "generic", "leapfrog")),
    ("cycle5", lambda: generators.random_instance(
        queries.cycle_query(5), 25, 4, seed=4
    ), ("nprr", "generic", "leapfrog", "arity2")),
    ("figure2", lambda: generators.random_instance(
        queries.paper_figure2(), 25, 3, seed=5
    ), ("nprr", "generic", "leapfrog")),
    ("random-hypergraph", lambda: generators.random_instance(
        generators.random_hypergraph(4, 4, 3, seed=6), 25, 4, seed=6
    ), ("nprr", "generic", "leapfrog")),
]


@pytest.mark.parametrize(
    "name,builder,algorithms", WORKLOADS, ids=[w[0] for w in WORKLOADS]
)
def test_streaming_parity_across_workloads(name, builder, algorithms):
    query = builder()
    for algorithm in algorithms:
        materialized = execute(query, algorithm=algorithm).relation()
        streamed = sorted(execute(query, algorithm=algorithm))
        assert streamed == sorted(materialized.tuples), (
            f"{algorithm} disagrees with itself on {name}"
        )


@pytest.mark.parametrize("algorithm", ALL_ALGORITHMS)
def test_streaming_parity_auto_vs_fixed(algorithm):
    query = triangle_query()
    assert sorted(execute(query, algorithm=algorithm)) == sorted(
        execute(query).relation().tuples
    )


def test_rows_follow_query_attribute_order():
    query = generators.random_instance(queries.triangle(), 30, 5, seed=9)
    expected = execute(query).relation()
    assert expected.attributes == query.attributes
    for algorithm in ALL_ALGORITHMS:
        rows = set(execute(query, algorithm=algorithm))
        assert rows == set(expected.tuples)


def test_single_relation_streams():
    q = single_relation_query()
    assert sorted(execute(q)) == sorted(q.relation("R").tuples)


def test_empty_input_streams_nothing():
    q = JoinQuery(
        [
            Relation("R", ("A", "B"), []),
            Relation("S", ("B", "C"), [(1, 2)]),
        ]
    )
    for algorithm in ("nprr", "generic", "leapfrog", "arity2"):
        assert list(execute(q, algorithm=algorithm)) == []


class TestLaziness:
    def test_iter_join_returns_iterator(self):
        rows = iter(execute(triangle_query(), algorithm="generic"))
        assert iter(rows) is rows
        first = next(rows)
        assert isinstance(first, tuple)
        rows.close()

    @pytest.mark.parametrize("algorithm", ["generic", "leapfrog", "nprr"])
    def test_early_stop_is_safe(self, algorithm):
        query = generators.random_instance(queries.triangle(), 50, 5, seed=11)
        rows = iter(execute(query, algorithm=algorithm))
        taken = [row for _, row in zip(range(2), rows)]
        rows.close()
        full = sorted(execute(query, algorithm=algorithm).relation().tuples)
        assert len(full) >= 2
        for row in taken:
            assert row in set(full)

    def test_leapfrog_reruns_after_abandoned_stream(self):
        # Abandoning a stream mid-way must not corrupt executor state.
        query = generators.random_instance(queries.triangle(), 50, 5, seed=12)
        executor = LeapfrogTriejoin(query)
        stream = executor.iter_join()
        next(stream)
        stream.close()
        assert sorted(executor.iter_join()) == sorted(
            executor.execute().tuples
        )


class TestSharedIndexCache:
    def test_leapfrog_uses_database_cache(self):
        query = triangle_query()
        db = Database(list(query.relations.values()))
        LeapfrogTriejoin(query, database=db).execute()
        assert db.cached_index_count("sorted") == 3
        LeapfrogTriejoin(query, database=db).execute()
        assert db.cached_index_count("sorted") == 3  # no rebuild

    def test_leapfrog_second_run_reuses_same_objects(self):
        query = triangle_query()
        db = Database(list(query.relations.values()))
        first = LeapfrogTriejoin(query, database=db)
        second = LeapfrogTriejoin(query, database=db)
        assert all(
            a is b for a, b in zip(
                first._binding.indexes, second._binding.indexes
            )
        )

    def test_generic_sorted_backend_shares_leapfrog_cache(self):
        query = triangle_query()
        db = Database(list(query.relations.values()))
        LeapfrogTriejoin(query, database=db).execute()
        GenericJoin(query, database=db, backend="sorted").execute()
        # Same (sorted, relation, order) keys: still only three indexes.
        assert db.cached_index_count("sorted") == 3

    def test_nprr_and_generic_share_trie_cache_keys(self):
        query = triangle_query()
        db = Database(list(query.relations.values()))
        NPRRJoin(query, database=db).execute()
        count = db.cached_trie_count()
        NPRRJoin(query, database=db).execute()
        assert db.cached_trie_count() == count

    def test_api_join_accepts_database(self):
        query = triangle_query()
        db = Database(list(query.relations.values()))
        first = execute(query, algorithm="leapfrog", database=db).relation()
        cached = db.cached_index_count("sorted")
        assert cached == 3
        second = execute(query, algorithm="leapfrog", database=db).relation()
        assert db.cached_index_count("sorted") == cached
        assert first.equivalent(second)
