"""Aggregate parity: every algorithm, every execution style, one oracle.

Each test materializes the query's rows once via the ordinary streaming
path and checks that ``count()`` / ``sum()`` / ``min()`` / ``max()`` /
``group_by().agg()`` — which never materialize anything — agree exactly
with the brute-force oracle over those rows.  Configurations cover all
five algorithms, the three index backends, and serial / sharded /
batched / async execution, so a fold or pruning bug in any layer shows
up as a concrete count mismatch.
"""

from __future__ import annotations

import random

import pytest

from repro.query.builder import Q
from repro.relations.relation import Relation
from tests.helpers import (
    oracle_avg,
    oracle_count,
    oracle_count_distinct,
    oracle_group_by,
    oracle_max,
    oracle_min,
    oracle_sum,
)

ALGORITHMS = ("nprr", "lw", "generic", "leapfrog", "arity2")
BACKENDS = ("trie", "sorted", "compact")


def _random_rows(rng, arity, n, domain):
    return sorted(
        {tuple(rng.randrange(domain) for _ in range(arity)) for _ in range(n)}
    )


def _triangle(seed=29, n=60, domain=9):
    rng = random.Random(seed)
    return (
        Relation("R", ("A", "B"), _random_rows(rng, 2, n, domain)),
        Relation("S", ("B", "C"), _random_rows(rng, 2, n, domain)),
        Relation("T", ("A", "C"), _random_rows(rng, 2, n, domain)),
    )


def _path(seed=31, n=50, domain=8):
    # A path query has single-participant deep levels, so the fold's
    # factorized pruning actually fires (the triangle never prunes).
    rng = random.Random(seed)
    return (
        Relation("R", ("A", "B"), _random_rows(rng, 2, n, domain)),
        Relation("S", ("B", "C"), _random_rows(rng, 2, n, domain)),
        Relation("T", ("C", "D"), _random_rows(rng, 2, n, domain)),
    )


def _assert_aggregates_match(builder):
    rows = list(builder.stream())
    attrs = builder.output_attributes
    assert builder.count() == oracle_count(rows)
    assert builder.sum("B") == oracle_sum(rows, attrs, "B")
    assert builder.min("C") == oracle_min(rows, attrs, "C")
    assert builder.max("C") == oracle_max(rows, attrs, "C")
    assert builder.avg("B") == oracle_avg(rows, attrs, "B")
    assert builder.count_distinct("C") == oracle_count_distinct(
        rows, attrs, "C"
    )
    assert builder.group_by("A").agg(
        n="count",
        s=("sum", "C"),
        lo=("min", "B"),
        mean=("avg", "C"),
        uniq=("count_distinct", "B"),
    ) == oracle_group_by(
        rows,
        attrs,
        ("A",),
        n="count",
        s=("sum", "C"),
        lo=("min", "B"),
        mean=("avg", "C"),
        uniq=("count_distinct", "B"),
    )
    assert builder.group_by("A", "B").count() == {
        key: values["n"]
        for key, values in oracle_group_by(
            rows, attrs, ("A", "B"), n="count"
        ).items()
    }


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("shape", ["triangle", "path"])
def test_aggregates_match_oracle_per_algorithm(algorithm, shape):
    relations = _triangle() if shape == "triangle" else _path()
    if algorithm == "lw" and shape == "path":
        pytest.skip("lw requires a Loomis-Whitney instance")
    _assert_aggregates_match(
        Q(*relations).using(algorithm=algorithm)
    )


@pytest.mark.parametrize("backend", BACKENDS)
def test_aggregates_match_oracle_per_backend(backend):
    for relations in (_triangle(), _path()):
        _assert_aggregates_match(Q(*relations).using(backend=backend))


@pytest.mark.parametrize("mode", ["serial", "thread", "process"])
def test_aggregates_match_oracle_sharded(mode):
    _assert_aggregates_match(
        Q(*_triangle()).using(shards=3, mode=mode)
    )


def test_aggregates_agree_with_async_stream():
    builder = Q(*_triangle())
    rows = []

    async def drain():
        async for row in builder.astream(batch_size=16):
            rows.append(row)

    import asyncio

    asyncio.run(drain())
    assert builder.count() == oracle_count(rows)
    assert builder.sum("B") == oracle_sum(
        rows, builder.output_attributes, "B"
    )


@pytest.mark.parametrize("algorithm", ["generic", "leapfrog", "nprr"])
def test_aggregates_with_filters_and_bindings(algorithm):
    builder = (
        Q(*_triangle())
        .using(algorithm=algorithm)
        .where(A=4)
        .where_in("B", tuple(range(0, 9, 2)))
    )
    _assert_aggregates_match(builder)


def test_aggregates_over_projection():
    builder = Q(*_triangle()).select("A", "B")
    rows = list(builder.stream())
    attrs = builder.output_attributes
    assert builder.count() == oracle_count(rows)
    assert builder.sum("B") == oracle_sum(rows, attrs, "B")
    assert builder.group_by("A").count() == {
        key: values["n"]
        for key, values in oracle_group_by(
            rows, attrs, ("A",), n="count"
        ).items()
    }


def test_aggregates_on_empty_join():
    r = Relation("R", ("A", "B"), [(1, 2)])
    s = Relation("S", ("B", "C"), [(9, 9)])
    t = Relation("T", ("A", "C"), [(1, 9)])
    builder = Q(r, s, t)
    assert builder.count() == 0
    assert builder.sum("C") == 0
    assert builder.min("C") is None
    assert builder.max("C") is None
    assert builder.group_by("A").count() == {}


def test_aggregates_with_string_values():
    r = Relation("R", ("A", "B"), [("x", "p"), ("y", "p"), ("y", "q")])
    s = Relation("S", ("B", "C"), [("p", "u"), ("q", "v"), ("q", "w")])
    builder = Q(r, s)
    rows = list(builder.stream())
    attrs = builder.output_attributes
    assert builder.count() == oracle_count(rows)
    assert builder.min("C") == oracle_min(rows, attrs, "C")
    assert builder.max("C") == oracle_max(rows, attrs, "C")
    assert builder.group_by("A").count() == {
        key: values["n"]
        for key, values in oracle_group_by(
            rows, attrs, ("A",), n="count"
        ).items()
    }


@pytest.mark.parametrize("measure", ["plain", "stats", "tracer", "metrics"])
def test_count_folds_under_every_context(monkeypatch, measure):
    # No context option sends ``count()`` down the row stream: the fold
    # adds once per run, however the run is measured.
    from repro import MetricsRegistry, StatsProvider, Tracer
    from repro.aggregate.specs import Count

    adds = []
    add = Count.add

    def counting(self, state, values, multiplicity):
        adds.append(multiplicity)
        return add(self, state, values, multiplicity)

    options = {
        "plain": {},
        "stats": {"stats": StatsProvider()},
        "tracer": {"tracer": Tracer()},
        "metrics": {"metrics": MetricsRegistry()},
    }[measure]
    builder = Q(*_triangle()).using(algorithm="generic", **options)
    rows = list(builder.stream())
    monkeypatch.setattr(Count, "add", counting)
    assert builder.count() == oracle_count(rows) > 0
    assert adds == [len(rows)]
