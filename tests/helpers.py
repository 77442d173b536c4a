"""Shared builders, the backtracking join oracle and the brute-force
aggregate oracle for the test suite.

The oracle functions compute every aggregate the query layer offers by
plain Python over a *materialized* row list — no folds, no pruning, no
specs — so tests can assert exact equality between the engine's
``count()`` / ``sum()`` / ``group_by().agg()`` / ``sample()`` results
and an implementation too simple to share a bug with them.
"""

from __future__ import annotations

from repro.core.query import JoinQuery
from repro.relations.relation import Relation
from repro.workloads import generators, instances, queries

#: Small instances of the four benchmark workloads' shapes: the lifted
#: triangle (Lemma 6.3), a hub-skewed triangle, a 4-chain and the
#: paper's Example 2.2.
BENCHMARK_SHAPES = {
    "lifted_triangle": lambda: generators.random_instance(
        queries.beyond_lw_query(), 300, 12, seed=1
    ),
    "triangle_hub": lambda: generators.hub_triangle(
        light_domain=20, b_domain=30, c_domain=100,
        r_size=150, s_size=250, t_size=500, seed=5,
    ),
    "graph_chain": lambda: generators.random_instance(
        queries.path_query(4), 200, 40, seed=1
    ),
    "triangle_hard": lambda: instances.triangle_hard_instance(100),
}


def triangle_query(
    r_rows=((0, 1), (1, 2), (2, 0)),
    s_rows=((1, 5), (2, 6), (0, 7)),
    t_rows=((0, 5), (1, 6), (2, 7)),
) -> JoinQuery:
    """A small triangle query with configurable contents."""
    return JoinQuery(
        [
            Relation("R", ("A", "B"), r_rows),
            Relation("S", ("B", "C"), s_rows),
            Relation("T", ("A", "C"), t_rows),
        ]
    )


def oracle_join(query: JoinQuery) -> list[tuple]:
    """The join by backtracking over the raw tuples — no index, no plan,
    no cover — as a list (a multiset: a duplicated row would show), rows
    in ``query.attributes`` order."""
    relations = list(query.relations.values())
    rows: list[tuple] = []

    def extend(position: int, assignment: dict) -> None:
        if position == len(relations):
            rows.append(tuple(assignment[a] for a in query.attributes))
            return
        relation = relations[position]
        for row in relation.tuples:
            candidate = dict(assignment)
            if all(
                candidate.setdefault(attribute, value) == value
                for attribute, value in zip(relation.attributes, row)
            ):
                extend(position + 1, candidate)

    extend(0, {})
    return rows


def assert_counter_chain(probe, rows_out: int) -> None:
    """The invariants of a :class:`TelemetryProbe` after a run that
    delivered ``rows_out`` rows (complete or abandoned): the root is
    entered exactly once; each level's matches are the next level's
    partials; the last level's matches are the rows; no level matches
    more than it enumerated."""
    assert probe.partials[0] == 1
    for depth in range(1, len(probe.order)):
        assert probe.partials[depth] == probe.matches[depth - 1]
    assert probe.matches[-1] == rows_out
    for depth in range(len(probe.order)):
        assert probe.candidates[depth] >= probe.matches[depth]


def two_path_query() -> JoinQuery:
    """R(A,B) join S(B,C) — the simplest two-relation query."""
    return JoinQuery(
        [
            Relation("R", ("A", "B"), [(1, 10), (2, 10), (3, 30)]),
            Relation("S", ("B", "C"), [(10, 7), (30, 8), (40, 9)]),
        ]
    )


def single_relation_query() -> JoinQuery:
    """A one-relation query (degenerate but legal)."""
    return JoinQuery([Relation("R", ("A", "B"), [(1, 2), (3, 4)])])


# ---------------------------------------------------------------------------
# The brute-force aggregate oracle
# ---------------------------------------------------------------------------


def oracle_count(rows) -> int:
    """``COUNT(*)`` the dumb way: materialize and measure."""
    return len(list(rows))


def oracle_sum(rows, attributes, attribute):
    """``SUM(attribute)``; 0 on an empty result (Python convention)."""
    position = tuple(attributes).index(attribute)
    return sum(row[position] for row in rows)


def oracle_min(rows, attributes, attribute):
    """``MIN(attribute)``; None on an empty result."""
    position = tuple(attributes).index(attribute)
    return min((row[position] for row in rows), default=None)


def oracle_max(rows, attributes, attribute):
    """``MAX(attribute)``; None on an empty result."""
    position = tuple(attributes).index(attribute)
    return max((row[position] for row in rows), default=None)


def oracle_avg(rows, attributes, attribute):
    """``AVG(attribute)``; None on an empty result."""
    position = tuple(attributes).index(attribute)
    column = [row[position] for row in rows]
    return sum(column) / len(column) if column else None


def oracle_count_distinct(rows, attributes, attribute) -> int:
    """``COUNT(DISTINCT attribute)``; 0 on an empty result."""
    position = tuple(attributes).index(attribute)
    return len({row[position] for row in rows})


def oracle_group_by(rows, attributes, keys, **aggregates):
    """Grouped aggregates in the engine's output shape.

    ``aggregates`` maps output names to ``"count"`` or ``(kind,
    attribute)`` pairs with kind in ``sum`` / ``min`` / ``max`` /
    ``avg`` / ``count_distinct`` — the same shorthand
    :meth:`GroupedQuery.agg` accepts.  Returns
    ``{key tuple: {name: value}}`` with keys sorted, matching
    :meth:`repro.aggregate.specs.GroupBy.finish` exactly.
    """
    attributes = tuple(attributes)
    key_positions = tuple(attributes.index(a) for a in keys)
    groups: dict[tuple, list] = {}
    for row in rows:
        groups.setdefault(
            tuple(row[p] for p in key_positions), []
        ).append(row)
    result = {}
    for key in sorted(groups):
        members = groups[key]
        values = {}
        for name, what in aggregates.items():
            if what == "count":
                values[name] = len(members)
            else:
                kind, attribute = what
                position = attributes.index(attribute)
                column = [row[position] for row in members]
                if kind == "sum":
                    values[name] = sum(column)
                elif kind == "min":
                    values[name] = min(column)
                elif kind == "max":
                    values[name] = max(column)
                elif kind == "avg":
                    values[name] = sum(column) / len(column)
                elif kind == "count_distinct":
                    values[name] = len(set(column))
                else:  # pragma: no cover - test-author error
                    raise ValueError(f"unknown oracle aggregate {what!r}")
        result[key] = values
    return result


def assert_valid_sample(sample, rows, k) -> None:
    """A sample is valid iff: distinct rows, every one a result row, and
    exactly ``min(k, |distinct result|)`` of them."""
    universe = set(rows)
    assert len(sample) == len(set(sample)), "sample has duplicate rows"
    assert set(sample) <= universe, "sample contains non-result rows"
    assert len(sample) == min(k, len(universe)), (
        f"sample size {len(sample)} != min({k}, {len(universe)})"
    )


def _loopback_fleet():
    from repro.distributed import DispatchScheduler, LoopbackTransport

    return DispatchScheduler([LoopbackTransport(), LoopbackTransport()])


#: Every way a sharded request can run -> a factory of the options that
#: select it (a factory: a fleet is stateful, each run gets a fresh one).
SHARDED_EXECUTIONS = {
    "serial": lambda: {"mode": "serial"},
    "thread": lambda: {"mode": "thread"},
    "process": lambda: {"mode": "process"},
    "fleet": lambda: {"scheduler": _loopback_fleet()},
}


def count_index_builds(monkeypatch) -> list[str]:
    """Patch the descent kernel's ``build_index`` (the one every private
    index build goes through) to note the relation it indexes; returns
    the live list of names."""
    from repro.relations.database import build_index as real

    builds: list[str] = []

    def counting(relation, order, kind):
        builds.append(relation.name)
        return real(relation, order, kind)

    # bind() resolves build_index through its own module's globals.
    monkeypatch.setattr("repro.core.descent.build_index", counting)
    return builds

