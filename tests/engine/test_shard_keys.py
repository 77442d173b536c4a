"""A shard is a key: what a key selects, how keys partition, what a
sharded run leaves in a trace.

Every mode runs a shard as :meth:`ShardRunner.stream` of its key over
the one plan — a filtered walk of the parent's indexes for the descent
algorithms, a walk over :func:`restrict`'s copy for the blocking
specialists — so the properties are stated once, on the runner, for all
five algorithms and both level strategies over their backends.
"""

import time
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro import Database, Q, Tracer, execute
from repro.core.query import JoinQuery
from repro.engine.parallel import (
    ShardPlanEntry,
    ShardRunner,
    plan_shards,
    split_entry,
)
from repro.engine.planner import plan_join
from repro.relations.relation import Relation
from repro.workloads import generators, queries
from tests.helpers import SHARDED_EXECUTIONS, oracle_join

DOMAIN = 5
ATTRIBUTES = ("A", "B", "C")

#: (algorithm, backend): hash-probe and leapfrog levels over the
#: backends each admits, then the three blocking specialists.
CONFIGS = [
    ("generic", "trie"),
    ("generic", "compact"),
    ("leapfrog", "sorted"),
    ("leapfrog", "compact"),
    ("nprr", None),
    ("lw", None),
    ("arity2", None),
]


def _pairs():
    return st.frozensets(
        st.tuples(st.integers(0, DOMAIN - 1), st.integers(0, DOMAIN - 1)),
        min_size=1,
        max_size=16,
    )


triangles = st.tuples(_pairs(), _pairs(), _pairs()).map(
    lambda rst: JoinQuery(
        [
            Relation("R", ("A", "B"), rst[0]),
            Relation("S", ("B", "C"), rst[1]),
            Relation("T", ("A", "C"), rst[2]),
        ]
    )
)

#: A chain of one or two links over distinct attributes, any value group.
keys = st.lists(
    st.sampled_from(ATTRIBUTES), min_size=1, max_size=2, unique=True
).flatmap(
    lambda attributes: st.tuples(
        *(
            st.tuples(
                st.just(attribute),
                st.frozensets(st.integers(0, DOMAIN - 1)),
            )
            for attribute in attributes
        )
    )
)


def _even(value):
    return value % 2 == 0


def _runner(query, algorithm, backend, filters=None):
    return ShardRunner(plan_join(query, algorithm, backend=backend), filters)


@pytest.mark.parametrize("algorithm,backend", CONFIGS)
@settings(max_examples=25, deadline=None)
@given(query=triangles, key=keys)
def test_rows_under_a_key_are_the_serial_rows_in_its_groups(
    algorithm, backend, query, key
):
    runner = _runner(query, algorithm, backend)
    position = {a: i for i, a in enumerate(query.attributes)}
    expected = [
        row
        for row in oracle_join(query)
        if all(row[position[a]] in values for a, values in key)
    ]
    assert Counter(runner.stream(key)) == Counter(expected)


@pytest.mark.parametrize("filtered", [False, True])
@pytest.mark.parametrize("algorithm,backend", CONFIGS)
@settings(max_examples=20, deadline=None)
@given(query=triangles, shards=st.integers(1, 4))
def test_planned_and_split_keys_partition_the_serial_rows(
    algorithm, backend, filtered, query, shards
):
    plan = plan_join(query, algorithm, backend=backend)
    order = plan.attribute_order
    # The residual filter sits on the sharded attribute itself: a key's
    # value group is conjoined onto it, never put in its place.
    filters = {order[0]: _even} if filtered else None
    runner = ShardRunner(plan, filters)
    entries = [
        ShardPlanEntry(((order[0], piece.values),), piece.weight)
        for piece in plan_shards(query, shards, order[0])
    ]
    split = [
        piece
        for entry in entries
        for piece in split_entry(query, entry, order, 2)
    ]
    at = query.attributes.index(order[0])
    expected = Counter(
        row for row in oracle_join(query) if not filtered or _even(row[at])
    )
    for partition in (entries, split):
        rows = Counter()
        for entry in partition:
            rows.update(runner.stream(entry.key))
        assert rows == expected
    # A split really goes one attribute deeper, under the same parent.
    assert all(len(piece.key) in (1, 2) for piece in split)
    assert {piece.key[0] for piece in split} == {e.key[0] for e in entries}


def test_a_fold_under_a_key_is_the_fold_of_its_rows():
    from repro.aggregate.specs import Count, Sum

    query = generators.random_instance(queries.triangle(), 200, 12, seed=7)
    for algorithm, backend in CONFIGS:
        runner = _runner(query, algorithm, backend)
        for piece in plan_shards(query, 3, runner.plan.attribute_order[0]):
            key = ((piece.attribute, piece.values),)
            rows = list(runner.stream(key))
            assert list(runner.stream(key, Count())) == [len(rows)]
            (state,) = runner.stream(key, Sum("C"))
            assert Sum("C").finish(state) == sum(row[2] for row in rows)


# -- the span shape of a sharded run -----------------------------------------

SHARDS = 3


def _shape(tracer):
    """Every span with its children's names, clocks and metadata aside."""
    return sorted(
        (span.name, tuple(sorted(child.name for child in span.children)))
        for span in tracer.walk()
    )


def _traced(builder, mode):
    tracer = Tracer()
    options = SHARDED_EXECUTIONS[mode]()
    rows = list(execute(builder, shards=SHARDS, tracer=tracer, **options))
    return rows, tracer


@pytest.fixture(scope="module")
def instance():
    return generators.random_instance(queries.triangle(), 300, 15, seed=5)


@pytest.mark.parametrize("warm", [False, True])
def test_a_traced_sharded_run_has_one_shape_in_every_mode(instance, warm):
    """One ``plan`` holding one ``stats-profile``, ``execute`` over k
    ``shard`` spans that hold nothing — no worker plans, profiles or
    (over the parent's indexes) builds — and ``index-build`` only where
    an index was really built: three at prepare time for ad-hoc
    relations, none over a warm catalog.  (What a pool process or a
    fleet worker builds when it binds the job is not traced: it happens
    once per process or connection, outside any shard.)"""
    if warm:
        database = Database(instance.relations.values())
        builder = Q(*database).on(database)
        list(execute(builder))
    else:
        builder = Q(instance)
    expected = sorted(oracle_join(instance))
    shapes = {}
    for mode in SHARDED_EXECUTIONS:
        rows, tracer = _traced(builder, mode)
        assert sorted(rows) == expected, mode
        shapes[mode] = _shape(tracer)
        spans = Counter(span.name for span in tracer.walk())
        assert spans == {
            "plan": 1,
            "stats-profile": 1,
            "execute": 1,
            "shard": SHARDS,
            **({} if warm else {"index-build": 3}),
        }, mode
        execute_span = tracer.find("execute")
        assert [c.name for c in execute_span.children] == ["shard"] * SHARDS
        assert all(not shard.children for shard in execute_span.children)
        assert sum(
            shard.meta["rows"] for shard in execute_span.children
        ) == len(expected)
    assert len({tuple(shape) for shape in shapes.values()}) == 1, shapes


@pytest.mark.parametrize("mode", list(SHARDED_EXECUTIONS))
def test_shards_nest_under_execute_however_late_the_first_row_is_drawn(
    instance, mode
):
    """Workers may finish every shard before the consumer draws a row;
    their spans still land under the run's ``execute`` span."""
    tracer = Tracer()
    options = SHARDED_EXECUTIONS[mode]()
    rows = iter(execute(Q(instance), shards=SHARDS, tracer=tracer, **options))
    time.sleep(0.2)
    assert sorted(rows) == sorted(oracle_join(instance))
    (execute_span,) = [s for s in tracer.walk() if s.name == "execute"]
    assert [c.name for c in execute_span.children] == ["shard"] * SHARDS
    assert all(root.name != "shard" for root in tracer.roots)
