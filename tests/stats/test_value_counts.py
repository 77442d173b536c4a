"""The value-count table: one counting pass, every statistic a view.

``StatsProvider.value_counts`` is the one cached primitive; exact
selectivities, profiles and shard weights read it.  Pinned here: the
selectivity equals the brute-force fraction *exactly*, the key order is
canonical (schemas listing shared attributes in opposite orders still
share one table per relation), and a cold plan scans each
``(relation, attribute set)`` once — a count of calls, not a timer.
"""

import builtins
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.stats.provider as provider_module
from repro.core.query import JoinQuery
from repro.engine.planner import plan_join
from repro.relations.database import Database
from repro.relations.relation import Relation
from repro.stats import StatsProvider
from repro.workloads import generators, queries


def brute_force(source, target):
    """``P(match in target | tuple of source)`` off the raw tuples."""
    shared = sorted(source.attribute_set & target.attribute_set)
    if not len(source):
        return 0.0
    theirs = {
        tuple(row[i] for i in target.positions(shared))
        for row in target.tuples
    }
    hits = sum(
        tuple(row[i] for i in source.positions(shared)) in theirs
        for row in source.tuples
    )
    return hits / len(source)


@pytest.fixture
def counting_passes(monkeypatch):
    """Every ``(relation name, attributes)`` the provider scanned."""
    calls = []
    real = provider_module.count_values

    def counting(relation, attributes):
        calls.append((relation.name, tuple(attributes)))
        return real(relation, attributes)

    monkeypatch.setattr(provider_module, "count_values", counting)
    return calls


VALUES = {
    "int": st.integers(0, 4),
    "str": st.sampled_from(["a", "b", "c", "d"]),
    "mixed": st.one_of(st.integers(0, 3), st.sampled_from(["a", "b", "1"])),
}


@st.composite
def relation_pairs(draw):
    shared = draw(
        st.lists(
            st.sampled_from("ABC"), min_size=1, max_size=3, unique=True
        )
    )
    kinds = {
        a: draw(st.sampled_from(sorted(VALUES))) for a in (*shared, "X", "Y")
    }

    def relation(name, private, empty):
        schema = draw(st.permutations([*shared, private]))
        rows = draw(
            st.lists(
                st.tuples(*(VALUES[kinds[a]] for a in schema)),
                max_size=0 if empty else 12,
            )
        )
        return Relation(name, tuple(schema), rows)

    # One pair in five has an empty source, one in five an empty target.
    empty = draw(st.sampled_from(["source", "target", None, None, None]))
    return (
        relation("S", "X", empty == "source"),
        relation("T", "Y", empty == "target"),
    )


class TestExactSelectivity:
    @settings(max_examples=200, deadline=None)
    @given(relation_pairs())
    def test_equals_brute_force_exactly(self, pair):
        source, target = pair
        provider = StatsProvider()
        assert provider.selectivity(source, target) == brute_force(
            source, target
        )
        assert provider.selectivity(target, source) == brute_force(
            target, source
        )

    def test_empty_source_is_zero_and_scans_nothing(self, counting_passes):
        provider = StatsProvider()
        empty = Relation("R", ("A", "B"))
        full = Relation("S", ("B", "C"), [(1, 2)])
        assert provider.selectivity(empty, full) == 0.0
        assert counting_passes == []
        assert provider.selectivity(full, empty) == 0.0


class TestSelectivityValues:
    """Hand-checkable cases (the sampled estimator's old table, now
    exact at every size)."""

    def selectivity(self, source_rows, target_rows):
        source = Relation("R", ("A", "B"), source_rows)
        target = Relation("T", ("A", "C"), target_rows)
        return StatsProvider().selectivity(source, target)

    def test_full_overlap_is_one(self):
        assert self.selectivity(
            [(i, 0) for i in range(20)], [(i, 1) for i in range(20)]
        ) == 1.0

    def test_no_overlap_is_zero(self):
        assert self.selectivity(
            [(i, 0) for i in range(20)], [(i + 100, 1) for i in range(20)]
        ) == 0.0

    def test_partial_overlap_is_the_fraction(self):
        # 5 of 20 source A-values appear in the target.
        assert self.selectivity(
            [(i, 0) for i in range(20)], [(i, 1) for i in range(5)]
        ) == 0.25

    def test_large_source_is_exact_not_estimated(self):
        # 1000 tuples, 10% match: a 128-row sample read 0.02-0.25.
        assert self.selectivity(
            [(i, 0) for i in range(1000)], [(i, 1) for i in range(100)]
        ) == 0.1

    def test_counts_tuples_not_distinct_values(self):
        # One of two A-values matches, carrying 3 of 4 tuples.
        assert self.selectivity(
            [(0, 0), (0, 1), (0, 2), (9, 0)], [(0, 5)]
        ) == 0.75


class TestValueCountTable:
    def test_one_attribute_keys_are_bare_values(self):
        rel = Relation("R", ("A", "B"), [(1, 2), (1, 3), (4, 2)])
        provider = StatsProvider()
        assert dict(provider.value_counts(rel, ("A",))) == {1: 2, 4: 1}
        assert dict(provider.value_counts(rel, ("B",))) == {2: 2, 3: 1}

    def test_several_attributes_key_by_tuple_in_sorted_name_order(self):
        rel = Relation("R", ("B", "A"), [(2, 1), (3, 1), (2, 4)])
        table = StatsProvider().value_counts(rel, ("B", "A"))
        assert dict(table) == {(1, 2): 1, (1, 3): 1, (4, 2): 1}  # (a, b)

    def test_string_and_mixed_type_columns_count(self):
        # 1 < "x" raises: nothing here sorts (or compares) values.
        rel = Relation(
            "R", ("A", "B"),
            [(i % 4, i if i % 2 else f"s{i % 6}") for i in range(40)],
        )
        table = StatsProvider().value_counts(rel, ("B",))
        assert sum(table.values()) == len(rel)
        assert table["s0"] == len(
            [row for row in rel.tuples if row[1] == "s0"]
        )

    def test_independent_of_construction_order(self):
        # Set iteration order depends on insertion history; a count
        # depends on the rows alone.
        rows = [(i * 7919 % 1000, i % 17) for i in range(300)]
        forward = Relation("R", ("A", "B"), rows)
        backward = Relation("R", ("A", "B"), reversed(rows))
        other = Relation("S", ("B", "C"), [(i, i) for i in range(0, 17, 2)])
        provider = StatsProvider()
        assert provider.value_counts(forward, ("B",)) == (
            provider.value_counts(backward, ("B",))
        )
        assert provider.selectivity(forward, other) == (
            provider.selectivity(backward, other)
        )


class TestCanonicalKey:
    """``R(A,B,D)`` and ``S(D,B,C)`` list their shared attributes in
    opposite orders: one ``(B, D)`` table per relation, ``(b, d)`` keys
    on both sides, both directions exact."""

    def relations(self):
        rng = random.Random(4)
        r = Relation(
            "R", ("A", "B", "D"),
            [(rng.randrange(9), rng.randrange(5), rng.randrange(7))
             for _ in range(120)],
        )
        s = Relation(
            "S", ("D", "B", "C"),
            [(rng.randrange(7), rng.randrange(5), rng.randrange(9))
             for _ in range(60)],
        )
        return r, s

    def test_one_table_per_relation_both_directions_exact(
        self, counting_passes
    ):
        r, s = self.relations()
        provider = StatsProvider()
        forward = provider.selectivity(r, s)
        backward = provider.selectivity(s, r)
        assert counting_passes == [("R", ("B", "D")), ("S", ("B", "D"))]
        assert forward == brute_force(r, s)
        assert backward == brute_force(s, r)
        assert 0.0 < forward < 1.0  # (b, d) met (b, d), not (d, b)

    def test_any_spelling_of_the_attribute_set_is_one_table(
        self, counting_passes
    ):
        r, _s = self.relations()
        provider = StatsProvider()
        table = provider.value_counts(r, ("D", "B"))
        assert provider.value_counts(r, ("B", "D")) is table
        assert provider.value_counts(r, {"B", "D"}) is table
        assert counting_passes == [("R", ("B", "D"))]
        b, d = next(iter(table))
        assert (b, d) in {(row[1], row[2]) for row in r.tuples}
        assert sum(table.values()) == len(r)

    def test_tables_are_read_only(self):
        r, _s = self.relations()
        table = StatsProvider().value_counts(r, ("A",))
        with pytest.raises(TypeError):
            table[0] = 99


class TestOneCountingPass:
    """A cold plan reads each ``(relation, attribute set)`` once and a
    warm plan reads nothing."""

    def lifted_shape(self):
        rng = random.Random(11)

        def rows(n):
            return [
                (rng.randrange(30), rng.randrange(30), rng.randrange(6))
                for _ in range(n)
            ]

        return [
            Relation("R", ("A", "B", "D"), rows(600)),
            Relation("S", ("B", "C", "D"), rows(600)),
            Relation("T", ("A", "C", "D"), rows(600)),
        ]

    @pytest.fixture
    def sorted_lengths(self, monkeypatch):
        lengths = []
        real = builtins.sorted

        def recording(iterable, **kwargs):
            items = list(iterable)
            lengths.append(len(items))
            return real(items, **kwargs)

        monkeypatch.setattr(builtins, "sorted", recording)
        return lengths

    @pytest.mark.parametrize(
        "shape, passes", [("binary", 6), ("lifted", 15)]
    )
    def test_cold_plan_counts_each_table_once_warm_plan_none(
        self, shape, passes, counting_passes, sorted_lengths
    ):
        if shape == "binary":
            relations = list(
                generators.random_instance(
                    queries.triangle(), 600, 40, seed=3
                ).relations.values()
            )
        else:
            relations = self.lifted_shape()
        db = Database(relations)
        query = JoinQuery(list(db))
        del sorted_lengths[:]
        first = plan_join(query, database=db)
        planning_sorts = list(sorted_lengths)
        assert first.statistics.source == "exact"
        assert len(counting_passes) == passes
        assert len(set(counting_passes)) == passes  # no table twice
        # Nothing relation-sized was sorted: the tables are counted,
        # and what is ordered afterwards is O(distinct) or O(top-k).
        smallest = min(len(relation) for relation in relations)
        assert smallest >= 300
        assert max(planning_sorts) < smallest // 4
        del counting_passes[:]
        second = plan_join(query, database=db)
        assert counting_passes == []
        assert second.statistics == first.statistics

    def test_sharded_run_weighs_shards_from_the_plans_tables(
        self, counting_passes
    ):
        from repro.api import execute, iter_join

        db = Database(self.lifted_shape())
        query = JoinQuery(list(db))
        serial = set(iter_join(query, database=db))
        del counting_passes[:]
        sharded = set(execute(query, database=db, shards=3, mode="serial"))
        assert sharded == serial
        assert counting_passes == []

    def test_plan_shards_without_tables_counts_for_itself(self):
        from repro.engine.parallel import plan_shards

        query = JoinQuery(self.lifted_shape())
        provider = StatsProvider()
        alone = plan_shards(query, 3, "D")
        handed = plan_shards(query, 3, "D", provider.value_counts)
        assert alone == handed
        assert sum(piece.weight for piece in alone) > 0
