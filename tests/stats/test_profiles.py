"""Profiles: distinct counts, heavy/light split, deterministic top-k."""

import pickle
import random
from collections import Counter

import pytest

import repro.stats.profiles as profiles_module
from repro.core.query import JoinQuery
from repro.distributed.stealing import _holds_heavy_value
from repro.engine.planner import LARGE_FLAT_RELATION, plan_join
from repro.errors import PlanError
from repro.relations.database import Database
from repro.relations.relation import Relation
from repro.stats import StatsProvider
from repro.stats.profiles import (
    DEFAULT_TOP_K,
    AttributeProfile,
    RelationProfile,
    heavy_threshold,
    profile_relation,
)
from repro.workloads import generators
from tests.helpers import BENCHMARK_SHAPES


def skewed_relation(size=400, domain=50, exponent=1.2, seed=3):
    return generators.zipf_relation(
        "Z", ("A", "B"), size, domain, random.Random(seed), exponent
    )


class TestHeavyThreshold:
    def test_sqrt_rule(self):
        assert heavy_threshold(100) == 10
        assert heavy_threshold(10000) == 100

    def test_clamped_for_tiny_relations(self):
        # sqrt(1) = 1 would make every singleton value "heavy".
        assert heavy_threshold(0) == 2
        assert heavy_threshold(1) == 2
        assert heavy_threshold(3) == 2


class TestAttributeProfile:
    def test_distinct_and_total(self):
        rel = Relation("R", ("A", "B"), [(1, 1), (1, 2), (2, 3)])
        profile = profile_relation(rel)
        assert profile.size == 3
        assert profile.attribute("A").distinct == 2
        assert profile.attribute("B").distinct == 3
        assert profile.attribute("A").total == 3

    def test_top_is_most_frequent_first(self):
        rel = Relation(
            "R",
            ("A", "B"),
            [(9, i) for i in range(4)] + [(1, 0), (2, 0)],
        )
        top = profile_relation(rel).attribute("A").top
        assert top[0] == (9, 4)

    def test_top_ties_break_on_repr(self):
        rel = Relation("R", ("A",), [(v,) for v in (3, 1, 2)])
        top = profile_relation(rel).attribute("A").top
        assert top == ((1, 1), (2, 1), (3, 1))

    def test_top_k_limits_table(self):
        rel = Relation("R", ("A",), [(v,) for v in range(100)])
        assert len(profile_relation(rel, top_k=5).attribute("A").top) == 5

    def test_no_heavy_values_in_uniform_data(self):
        rel = Relation("R", ("A", "B"), [(i, i) for i in range(100)])
        profile = profile_relation(rel).attribute("A")
        assert profile.heavy_count == 0
        assert profile.heavy_mass == 0.0

    def test_heavy_values_detected_under_skew(self):
        # One hub value with frequency far above sqrt(N).
        hub = [(0, i) for i in range(64)]
        tail = [(i, 0) for i in range(1, 37)]
        rel = Relation("R", ("A", "B"), hub + tail)
        profile = profile_relation(rel).attribute("A")
        assert profile.total == 100
        assert profile.heavy_threshold == 10
        assert profile.heavy_count == 1
        assert profile.heavy_mass == 0.64
        assert profile.top[0] == (0, 64)

    def test_zipf_relation_is_skewed(self):
        profile = profile_relation(skewed_relation())
        assert any(p.heavy_count for p in profile.attributes)

    def test_empty_relation(self):
        profile = profile_relation(Relation("R", ("A", "B")))
        assert profile.size == 0
        a = profile.attribute("A")
        assert a.distinct == 0
        assert a.heavy_mass == 0.0
        assert a.top == ()

    def test_describe_mentions_heavy_split(self):
        rel = Relation(
            "R", ("A", "B"), [(0, i) for i in range(64)]
            + [(i, 0) for i in range(1, 37)]
        )
        text = profile_relation(rel).attribute("A").describe()
        assert "1 heavy" in text
        assert "64%" in text

    def test_determinism(self):
        rel = skewed_relation()
        assert profile_relation(rel) == profile_relation(rel)


def reference_profile_relation(relation, top_k=DEFAULT_TOP_K):
    """The pre-ISSUE-13 ``profile_relation``, kept as the reference: one
    Python-level pass over the rows, then a full sort of every column's
    distinct values by ``(-count, repr(value))``."""
    total = len(relation)
    counters = [Counter() for _ in relation.attributes]
    for row in relation.tuples:
        for counter, value in zip(counters, row):
            counter[value] += 1
    threshold = heavy_threshold(total)
    profiles = []
    for attribute, counter in zip(relation.attributes, counters):
        ranked = sorted(
            counter.items(), key=lambda item: (-item[1], repr(item[0]))
        )
        heavy = [count for _value, count in ranked if count >= threshold]
        try:
            sorted(counter)
            orderable = True
        except TypeError:
            orderable = False
        profiles.append(
            AttributeProfile(
                attribute=attribute,
                distinct=len(counter),
                total=total,
                top=tuple(ranked[:top_k]),
                heavy_threshold=threshold,
                heavy_count=len(heavy),
                heavy_mass=(sum(heavy) / total) if total else 0.0,
                orderable=orderable,
            )
        )
    return RelationProfile(
        name=relation.name, size=total, attributes=tuple(profiles)
    )


def _differential_corpus():
    rng = random.Random(13)
    yield "empty", Relation("E", ("A", "B"))
    yield "nullary", Relation("N", (), [()])
    yield "single-row", Relation("O", ("A",), [(7,)])
    yield "zipf", skewed_relation()
    yield "keys", Relation("K", ("A", "B"), [(i, -i) for i in range(300)])
    # Few values, many rows each: the top-k cut falls inside a tie.
    yield "duplicate-heavy", Relation(
        "D",
        ("A", "B", "C"),
        [(i % 3, i % 20, i) for i in range(600)],
    )
    yield "ties-at-cut", Relation(
        "T", ("A", "B"), [(i % 12, i) for i in range(48)]
    )
    yield "strings", Relation(
        "S",
        ("A", "B"),
        [
            (f"a{rng.randrange(40)}", f"b{rng.randrange(9)}")
            for _ in range(400)
        ],
    )
    yield "mixed-types", Relation(
        "M",
        ("A", "B"),
        [
            (rng.choice([1, "1", 1.5, None, (1, 2), True]), rng.randrange(5))
            for _ in range(200)
        ],
    )
    yield "bools-are-ints", Relation(
        "B", ("A", "B"), [(i % 2 == 0, i % 5) for i in range(50)]
    )
    yield "floats", Relation(
        "F", ("A",), [(rng.randrange(30) / 4,) for _ in range(200)]
    )


class TestOrderable:
    """``orderable`` says whether sorting the column can raise — what the
    planner asks before it hands a relation to a backend that sorts."""

    @pytest.mark.parametrize(
        "values, orderable",
        [
            ([], True),
            ([3, 1, 2], True),
            ([1, 2.5, True], True),  # numbers order across types
            (["b", "a"], True),
            ([b"b", b"a"], True),
            ([(1, 2), (0, 5)], True),  # found by sorting
            ([None], True),  # one value: nothing to compare
            ([1, "1"], False),
            ([None, 0], False),
            ([(1, "a"), (1, 2)], False),  # one type, values still clash
            ([1j, 2j], False),
        ],
    )
    def test_matches_what_sorting_does(self, values, orderable):
        rel = Relation("R", ("A", "B"), [(v, 0) for v in values])
        profile = profile_relation(rel)
        assert profile.attribute("A").orderable is orderable
        assert profile.attribute("B").orderable is True


class TestOneScanMatchesReference:
    """The one-scan pass must yield a byte-identical ``RelationProfile``
    to the reference (plans, explain output and goldens depend on it)."""

    @pytest.mark.parametrize(
        "relation",
        [pytest.param(rel, id=label) for label, rel in _differential_corpus()],
    )
    @pytest.mark.parametrize("top_k", [0, 1, 3, DEFAULT_TOP_K, 1000])
    def test_identical_profile(self, relation, top_k):
        new = profile_relation(relation, top_k)
        old = reference_profile_relation(relation, top_k)
        assert new == old
        assert pickle.dumps(new) == pickle.dumps(old)
        for new_attr, old_attr in zip(new.attributes, old.attributes):
            # == treats 1, 1.0 and True alike; the tables must not.
            assert repr(new_attr.top) == repr(old_attr.top)

    def test_random_relations(self):
        rng = random.Random(99)
        for _ in range(60):
            arity = rng.randrange(1, 4)
            domain = rng.choice([2, 5, 50])
            rel = generators.random_relation(
                "R",
                tuple("ABC"[:arity]),
                rng.randrange(0, 120),
                domain,
                rng,
            )
            top_k = rng.randrange(0, 12)
            assert profile_relation(rel, top_k) == reference_profile_relation(
                rel, top_k
            )


class TestTopIsDerivedOnFirstRead:
    """No default plan reads ``AttributeProfile.top``: a cold plan never
    ranks a column's values (nor takes the ``repr`` of those tied at the
    cut-off); whoever reads the table gets it — a count of calls."""

    @pytest.fixture
    def rankings(self, monkeypatch):
        calls = []
        real = profiles_module._top_values

        def counting(counter, k):
            calls.append(len(counter))
            return real(counter, k)

        monkeypatch.setattr(profiles_module, "_top_values", counting)
        return calls

    @pytest.mark.parametrize("shape", BENCHMARK_SHAPES)
    def test_a_cold_plan_ranks_no_column(self, shape, rankings):
        query = BENCHMARK_SHAPES[shape]()
        database = Database(query.relations.values())
        plan = plan_join(JoinQuery(list(database)), database=database)
        assert plan.statistics is not None
        assert rankings == []

    def test_presplit_still_gets_its_table(self, rankings):
        query = BENCHMARK_SHAPES["triangle_hub"]()
        provider = StatsProvider()
        plan_join(query, stats=provider)
        assert rankings == []
        assert _holds_heavy_value(query, "A", frozenset({0}), provider)
        assert not _holds_heavy_value(query, "A", frozenset({7}), provider)
        # Derived once per column read, then kept.
        assert 1 <= len(rankings) <= 2
        profile = provider.profile(query.relations["R"]).attribute("A")
        value, count = profile.top[0]
        assert value == 0 and count > 5 * profile.total / profile.distinct
        assert len(rankings) <= 2

    def test_a_deferred_table_compares_prints_and_pickles_as_the_tuple(
        self, rankings
    ):
        rel = skewed_relation()
        deferred = profile_relation(rel)
        eager = reference_profile_relation(rel)
        assert rankings == []
        assert repr(deferred) == repr(eager)
        assert deferred == eager and hash(deferred) == hash(eager)
        assert len(rankings) == len(rel.attributes)
        clone = pickle.loads(pickle.dumps(profile_relation(rel)))
        assert clone == eager
        assert not any(
            callable(value)
            for profile in clone.attributes
            for value in vars(profile).values()
        )


class TestTypeFieldsAreDerivedOnFirstRead:
    """``orderable`` is read by no default stage on these shapes: a cold
    plan types no column.
    The stages that do read them — a pinned sorting backend, the size
    rule past ``LARGE_FLAT_RELATION`` — still get them."""

    @pytest.fixture
    def derivations(self, monkeypatch):
        calls = []
        real_orderable = profiles_module._orderable

        def orderable(values):
            calls.append("orderable")
            return real_orderable(values)

        monkeypatch.setattr(profiles_module, "_orderable", orderable)
        return calls

    @pytest.mark.parametrize("shape", BENCHMARK_SHAPES)
    def test_a_cold_plan_derives_none(self, shape, derivations):
        query = BENCHMARK_SHAPES[shape]()
        database = Database(query.relations.values())
        plan = plan_join(JoinQuery(list(database)), database=database)
        assert plan.statistics is not None
        assert derivations == []

    @pytest.mark.parametrize("backend", ["compact", "sorted"])
    def test_a_pinned_sorting_backend_over_mixed_types_is_typed(
        self, backend, derivations
    ):
        query = JoinQuery(
            [
                Relation("R", ("A", "B"), [(1, "x"), ("y", 2)]),
                Relation("S", ("B", "C"), [("x", 3), (2, 4)]),
            ]
        )
        with pytest.raises(PlanError, match="do not order"):
            plan_join(query, backend=backend, stats=StatsProvider())
        assert "orderable" in derivations

    def test_a_large_flat_relation_has_orderable_read(self, derivations):
        big = Relation(
            "R", ("A", "B"), [(i, i) for i in range(LARGE_FLAT_RELATION)]
        )
        small = Relation("S", ("B", "C"), [(i, -i) for i in range(97)])
        plan = plan_join(JoinQuery([big, small]), stats=StatsProvider())
        assert dict(plan.relation_backends) == {"R": "compact", "S": "trie"}
        assert derivations == ["orderable", "orderable"]  # R's A and B

    def test_the_constructor_keeps_its_defaults(self):
        profile = AttributeProfile("A", 1, 1, ((0, 1),), 2, 0, 0.0)
        assert profile.orderable is True
        assert profile == AttributeProfile(
            "A", 1, 1, lambda: ((0, 1),), 2, 0, 0.0, orderable=lambda: True
        )
