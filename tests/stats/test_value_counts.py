"""The value-count table: one counting pass, every statistic a view.

``StatsProvider.value_counts`` is the one cached primitive; exact
selectivities, profiles and shard weights read it.  Pinned here: the
selectivity equals the brute-force fraction *exactly*, the key order is
canonical (schemas listing shared attributes in opposite orders still
share one table per relation), a table summed out of a wider one is the
scanned table item for item and in order, and a cold plan scans each
declared ``(relation, attribute set)`` once and sums the rest — a count
of calls, not a timer.
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
from repro.stats.profiles import count_values
from repro.workloads import generators, queries
from tests.helpers import BENCHMARK_SHAPES


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


@pytest.fixture
def pair_passes(monkeypatch):
    """The two tables of every pair pass the provider ran."""
    calls = []
    real = provider_module._shared_counts

    def counting(mine, theirs):
        calls.append((mine, theirs))
        return real(mine, theirs)

    monkeypatch.setattr(provider_module, "_shared_counts", counting)
    return calls


def cached_selectivity(db, source, target):
    shared = tuple(sorted(source.attribute_set & target.attribute_set))
    return db.stats_cache_get(
        source.name, ("selectivity", target.name, shared)
    )


class TestOnePassPerPair:
    """Both directions of a pair are one walk of the smaller table,
    each direction cached under its own key and by the same rule as
    the other: in the catalog when both relations are catalogued, in
    the provider's identity-checked cache otherwise."""

    @settings(max_examples=200, deadline=None)
    @given(
        relation_pairs(),
        st.booleans(),  # catalogued
        st.booleans(),  # the reverse direction asked first
    )
    def test_both_directions_equal_brute_force(
        self, pair, catalogued, reverse_first
    ):
        source, target = pair
        db = Database([source, target]) if catalogued else None
        provider = db.stats() if catalogued else StatsProvider()
        real, calls = provider_module._shared_counts, []

        def counting(mine, theirs):
            calls.append(1)
            return real(mine, theirs)

        provider_module._shared_counts = counting
        try:
            first, second = (target, source) if reverse_first else pair
            asked = provider.selectivity(first, second)
            answered = provider.selectivity(second, first)
            again = provider.selectivity(first, second)
        finally:
            provider_module._shared_counts = real
        assert asked == again == brute_force(first, second)
        assert answered == brute_force(second, first)
        # One pass for both directions, none where a side is empty.
        assert len(calls) == (1 if source and target else 0)
        if catalogued:
            assert cached_selectivity(db, first, second) == asked
            assert cached_selectivity(db, second, first) == answered

    def test_the_reverse_is_cached_when_the_forward_is_computed(
        self, pair_passes
    ):
        r = Relation("R", ("A", "B"), [(0, 1), (1, 1), (2, 5)])
        s = Relation("S", ("B", "C"), [(1, 0), (7, 0)])
        db = Database([r, s])
        assert db.stats().selectivity(r, s) == 2 / 3
        assert cached_selectivity(db, s, r) == 1 / 2
        assert db.stats().selectivity(s, r) == 1 / 2
        assert len(pair_passes) == 1
        # An ad-hoc pair: the provider's cache, by identity.
        provider = StatsProvider()
        assert provider.selectivity(s, r) == 1 / 2
        assert provider.selectivity(r, s) == 2 / 3
        assert len(pair_passes) == 2
        twin = Relation("R", ("A", "B"), r.tuples)  # equal, not identical
        assert provider.selectivity(twin, s) == 2 / 3
        assert len(pair_passes) == 3

    @pytest.mark.parametrize("change", ["replace", "drop"])
    @pytest.mark.parametrize("side", ["R", "S"])
    def test_replacing_or_dropping_either_side_invalidates_both(
        self, change, side, pair_passes
    ):
        r = Relation("R", ("A", "B"), [(0, 1), (1, 1), (2, 5)])
        s = Relation("S", ("B", "C"), [(1, 0), (7, 0)])
        db = Database([r, s])
        provider = db.stats()
        provider.selectivity(r, s)
        assert cached_selectivity(db, r, s) is not None
        assert cached_selectivity(db, s, r) is not None
        if change == "drop":
            db.remove(side)
        else:
            rows = [(5, 5)] if side == "R" else [(5, 0), (1, 3)]
            db.add(Relation(side, ("A", "B") if side == "R" else ("B", "C"),
                            rows), replace=True)
        assert cached_selectivity(db, r, s) is None
        assert cached_selectivity(db, s, r) is None
        if change == "replace":
            new_r, new_s = db["R"], db["S"]
            assert provider.selectivity(new_s, new_r) == brute_force(
                new_s, new_r
            )
            assert provider.selectivity(new_r, new_s) == brute_force(
                new_r, new_s
            )
            assert len(pair_passes) == 2

    @pytest.mark.parametrize("shape", [*BENCHMARK_SHAPES, "lw4"])
    def test_cold_plan_passes_each_pair_once_warm_plan_none(
        self, shape, pair_passes
    ):
        if shape == "lw4":
            query = generators.random_instance(
                queries.lw_query(4), 600, 12, seed=3
            )
        else:
            query = BENCHMARK_SHAPES[shape]()
        db = Database(list(query.relations.values()))
        first = plan_join(JoinQuery(list(db)), database=db)
        consulted = first.statistics.selectivities
        pairs = {frozenset((src, dst)) for src, dst, _sel in consulted}
        assert len(pairs) >= 2
        assert len(pair_passes) == len(pairs)
        tables = {frozenset(map(id, tables)) for tables in pair_passes}
        assert len(tables) == len(pairs)  # no pair twice
        for src, dst, selectivity in consulted:
            assert selectivity == brute_force(db[src], db[dst])
            assert cached_selectivity(db, db[dst], db[src]) == brute_force(
                db[dst], db[src]
            )
        del pair_passes[:]
        second = plan_join(JoinQuery(list(db)), database=db)
        assert pair_passes == []
        assert second.statistics == first.statistics


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
    """A cold plan scans a relation once per table the order stage
    declared — its tables over the attribute sets it shares with each
    other relation, when two or more — and sums every narrower table
    out of one of them; a warm plan reads nothing."""

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

    def relations(self, shape):
        if shape == "binary":
            query = generators.random_instance(
                queries.triangle(), 600, 40, seed=3
            )
        elif shape == "lifted":
            return self.lifted_shape()
        else:  # 144 keys per pair table, under half of ~500 tuples
            query = generators.random_instance(
                queries.lw_query(4), 600, 12, seed=3
            )
        return list(query.relations.values())

    @pytest.mark.parametrize(
        "shape, passes", [("binary", 6), ("lifted", 6), ("lw4", 12)]
    )
    def test_cold_plan_counts_each_table_once_warm_plan_none(
        self, shape, passes, counting_passes, sorted_lengths
    ):
        relations = self.relations(shape)
        db = Database(relations)
        query = JoinQuery(list(db))
        del sorted_lengths[:]
        first = plan_join(query, database=db)
        planning_sorts = list(sorted_lengths)
        assert first.statistics.order_estimates
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

    @pytest.mark.parametrize("shape, passes", [("lifted", 15), ("lw4", 24)])
    def test_without_sums_every_table_is_a_scan(
        self, shape, passes, counting_passes, scans_only
    ):
        db = Database(self.relations(shape))
        plan_join(JoinQuery(list(db)), database=db)
        assert len(counting_passes) == len(set(counting_passes)) == passes

    def test_planning_threads_sum_from_one_shared_record(self):
        """The server plans on several threads over one catalog: they
        share each relation's record of tables while it is summed from
        and added to; every plan and every table still match a lone
        plan's and a scan."""
        import sys
        import threading

        relations = self.relations("lw4")
        alone = plan_join(JoinQuery(relations), stats=StatsProvider())
        db = Database(relations)
        plans, errors = [], []
        start = threading.Barrier(8)

        def plan():
            try:
                start.wait(timeout=30)
                plans.append(plan_join(JoinQuery(list(db)), database=db))
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
        assert not errors and not any(t.is_alive() for t in threads)
        assert len(plans) == 8
        assert {plan.statistics for plan in plans} == {alone.statistics}
        for relation in db:
            tables = db.stats_cache_get(relation.name, ("value_counts",))
            assert len(tables) == 6  # 3 pair tables, 3 columns
            for attributes, table in tables.items():
                scanned = count_values(relation, attributes)
                assert list(table.items()) == list(scanned.items())

    def test_a_table_is_summed_whenever_a_wider_one_is_held(
        self, counting_passes
    ):
        # (A, B) holds a key per tuple, the most a wider table can.
        rel = Relation("R", ("A", "B", "C"), [(i, i, 0) for i in range(400)])
        provider = StatsProvider()
        provider.value_counts(rel, ("A", "B"))
        provider.value_counts(rel, ("C",))  # no wider table over C held
        summed = provider.value_counts(rel, ("A",))
        assert counting_passes == [("R", ("A", "B")), ("R", ("C",))]
        assert list(summed.items()) == list(count_values(rel, ("A",)).items())

    def test_a_summed_table_reads_like_a_scanned_one(self):
        rel = Relation("R", ("A", "B"), [(1, 2), (1, 3), (4, 2)])
        provider = StatsProvider()
        scanned = provider.value_counts(rel, ("B",))
        provider.value_counts(rel, ("A", "B"))
        summed = provider.value_counts(rel, ("A",))
        assert (summed[9], scanned[9]) == (0, 0)  # a Counter's absent key
        assert type(summed.copy()) is type(scanned.copy())

    def test_sharded_run_weighs_shards_from_the_plans_tables(
        self, counting_passes
    ):
        from repro.api import execute

        db = Database(self.lifted_shape())
        query = JoinQuery(list(db))
        serial = set(execute(query, database=db))
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


@pytest.fixture
def scans_only(monkeypatch):
    """The provider with its sum-out rule bypassed: every table scanned."""
    monkeypatch.setattr(
        provider_module,
        "_count",
        lambda relation, attributes, _tables: provider_module.count_values(
            relation, attributes
        ),
    )


LW_SHAPES = {
    f"lw{n}": (lambda n=n: generators.random_instance(
        queries.lw_query(n), 300, 6, seed=n
    ))
    for n in (3, 4, 5)
}


def plan_of(query):
    db = Database(query.relations.values())
    plan = plan_join(JoinQuery(list(db)), database=db)
    return (
        plan.algorithm,
        plan.attribute_order,
        plan.backend,
        plan.relation_backends,
        plan.statistics,
    )


SHAPES = {**BENCHMARK_SHAPES, **LW_SHAPES}


@pytest.mark.parametrize("shape", SHAPES)
def test_summed_tables_plan_as_scanned_ones(shape, request):
    summed = plan_of(SHAPES[shape]())
    request.getfixturevalue("scans_only")
    assert plan_of(SHAPES[shape]()) == summed


@pytest.mark.parametrize("shape", BENCHMARK_SHAPES)
def test_a_pinned_order_plan_reads_no_statistics(shape, counting_passes):
    """With the order pinned, a serial ``auto`` plan decides nothing
    from the data: the backend stage reads which indexes the catalog
    holds, not the tables.  No table is scanned or cached, and the plan
    carries no statistics, with or without a held index."""
    query = BENCHMARK_SHAPES[shape]()
    db = Database(query.relations.values())
    pinned = JoinQuery(list(db))
    order = tuple(reversed(pinned.attributes))
    plan = plan_join(pinned, attribute_order=order, database=db)
    assert (plan.backend, plan.relation_backends) == ("trie", None)
    assert plan.statistics is None
    name, index_order, _kind = plan.index_requirements()[0]
    db.sorted_index(name, index_order)
    held = plan_join(pinned, attribute_order=order, database=db)
    assert (name, "sorted") in held.relation_backends
    assert held.statistics is None
    assert counting_passes == []
    assert db.cached_stats_count() == 0


@st.composite
def relations_and_chains(draw):
    arity = draw(st.integers(1, 4))
    schema = tuple(draw(st.permutations("ABCD"))[:arity])
    kind = draw(st.sampled_from(sorted(VALUES)))
    rows = draw(
        st.lists(st.tuples(*[VALUES[kind]] * arity), max_size=40)
    )
    # A chain of supersets: drop one attribute at a time, any order.
    chain = [tuple(sorted(schema))]
    for attribute in draw(st.permutations(chain[0]))[:-1]:
        chain.append(tuple(a for a in chain[-1] if a != attribute))
    return Relation("R", schema, rows), chain


@settings(max_examples=300, deadline=None)
@given(relations_and_chains())
def test_a_summed_table_is_the_scanned_table(case):
    """Same items, same iteration order, for every link of a chain of
    supersets — summed from the link above, and through the provider
    (which scans the first link and sums the rest) alike."""
    relation, chain = case
    provider = StatsProvider()
    above = None
    for held, attributes in zip([None] + chain, chain):
        scanned = list(count_values(relation, attributes).items())
        if held is not None:
            summed = provider_module._sum_out(above, held, attributes)
            assert list(summed.items()) == scanned
        above = provider.value_counts(relation, attributes)
        assert list(above.items()) == scanned
