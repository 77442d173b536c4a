"""The compact packed-array backend: parity, seeks, pickling, telemetry.

The compact backend must be *observationally identical* to the hash trie
and the sorted flat array through the ``IndexBackend`` protocol — every
walk, descend, child, count, and paths answer, over every relation shape
hypothesis can dream up.  Beyond the protocol it must also keep the
engine's telemetry twins honest: an instrumented run over compact indexes
counts exactly what the same run counts over the other backends, because
the counters track *logical* search events, not physical probes.
"""

import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.generic_join import GenericJoin
from repro.core.leapfrog import LeapfrogTriejoin
from repro.core.query import JoinQuery
from repro.engine.compact import (
    DENSITY_THRESHOLD,
    CompactArrayIndex,
    CompactTrieIterator,
)
from repro.errors import QueryError
from repro.observe.telemetry import TelemetryProbe
from repro.relations.relation import Relation
from repro.relations.sorted_index import SortedArrayIndex
from repro.relations.trie import TrieIndex

BACKENDS = (TrieIndex, SortedArrayIndex, CompactArrayIndex)

# Small domains force duplicate-heavy relations; a string column
# exercises the unpacked (tuple-levels) fallback.  Columns stay
# type-homogeneous: the sort-based backends (sorted, compact) need
# orderable values within each level, just like ``sorted()`` does.
int_rows = st.lists(
    st.tuples(
        st.integers(0, 7), st.integers(-3, 3), st.integers(0, 5)
    ),
    max_size=40,
)
string_rows = st.lists(
    st.tuples(
        st.sampled_from(["u", "v", "w", "x", "y"]),
        st.integers(0, 4),
    ),
    max_size=30,
)


def _indexes(rows, attributes):
    relation = Relation("R", attributes, rows)
    return [cls(relation, attributes) for cls in BACKENDS]


def _assert_agreement(indexes, arity, miss=99):
    trie, flat, compact = indexes
    assert len(trie) == len(flat) == len(compact)
    for depth in range(arity + 1):
        paths = sorted(trie.paths(trie.root, depth))
        assert sorted(flat.paths(flat.root, depth)) == paths
        assert sorted(compact.paths(compact.root, depth)) == paths
    prefixes = {p for p in trie.paths(trie.root, arity)}
    prefixes |= {p[:d] for p in prefixes for d in range(arity)}
    # A miss value comparable with the first column's values: the
    # sort-based backends binary-search it against real keys.
    prefixes |= {(miss,)}
    for prefix in sorted(prefixes, key=repr):
        nodes = [index.walk(prefix) for index in indexes]
        missing = [node is None for node in nodes]
        assert missing == [missing[0]] * 3
        for depth in range(arity - len(prefix) + 1):
            counts = [
                index.count(node, depth)
                for index, node in zip(indexes, nodes)
            ]
            assert counts == [counts[0]] * 3
        if len(prefix) < arity:
            fanouts = [
                index.fanout(node) for index, node in zip(indexes, nodes)
            ]
            assert fanouts == [fanouts[0]] * 3
            items = [
                sorted(
                    (value for value, _child in index.items(node)),
                    key=repr,
                )
                if node is not None
                else []
                for index, node in zip(indexes, nodes)
            ]
            assert items == [items[0]] * 3


class TestPropertyParity:
    @settings(max_examples=60, deadline=None)
    @given(int_rows)
    def test_integer_relations(self, rows):
        indexes = _indexes(rows, ("A", "B", "C"))
        _assert_agreement(indexes, 3)

    @settings(max_examples=40, deadline=None)
    @given(string_rows)
    def test_string_key_relations(self, rows):
        indexes = _indexes(rows, ("A", "B"))
        _assert_agreement(indexes, 2, miss="zz")

    @settings(max_examples=40, deadline=None)
    @given(int_rows, st.lists(st.integers(-5, 12), max_size=8))
    def test_child_and_descend_on_probes(self, rows, probes):
        trie, flat, compact = _indexes(rows, ("A", "B", "C"))
        for value in probes:
            t = trie.child(trie.root, value)
            c = compact.child(compact.root, value)
            assert (t is None) == (c is None)
            if t is not None:
                assert trie.count(t, 2) == compact.count(c, 2)
            t2 = trie.descend(trie.root, (value,))
            c2 = compact.descend(compact.root, (value,))
            assert (t2 is None) == (c2 is None)

    def test_empty_relation(self):
        trie, flat, compact = _indexes([], ("A", "B"))
        assert len(compact) == 0
        assert compact.fanout(compact.root) == 0
        assert list(compact.paths(compact.root, 2)) == []
        assert compact.count(compact.root, 0) == trie.count(trie.root, 0)
        assert compact.child(compact.root, 1) is None

    def test_single_row(self):
        _, _, compact = _indexes([(4, 2)], ("A", "B"))
        assert list(compact.paths(compact.root, 2)) == [(4, 2)]
        node = compact.walk((4,))
        assert compact.count(node, 1) == 1
        assert compact.fanout_hint(node) == 1

    def test_duplicate_heavy(self):
        rows = [(1, 2, 3)] * 50 + [(1, 2, 4)] * 50
        trie, flat, compact = _indexes(rows, ("A", "B", "C"))
        assert len(compact) == 2  # distinct tuples
        _assert_agreement((trie, flat, compact), 3)


class TestSeeks:
    def test_dense_radix_levels(self):
        # A fully dense first level: span == length, the radix path.
        rows = [(i, i % 7) for i in range(500)]
        index = CompactArrayIndex(Relation("R", ("A", "B"), rows), ("A", "B"))
        for value in (0, 123, 499):
            node = index.child(index.root, value)
            assert node is not None
            assert index.count(node, 1) == 1
        assert index.child(index.root, 500) is None
        assert index.child(index.root, -1) is None

    def test_near_dense_interpolated(self):
        # Gaps but within DENSITY_THRESHOLD: interpolated start + gallop.
        rows = [(i * 3, 0) for i in range(200)]
        index = CompactArrayIndex(Relation("R", ("A", "B"), rows), ("A", "B"))
        span = 3 * 199 + 1
        assert span <= DENSITY_THRESHOLD * 200
        assert index.child(index.root, 300) is not None
        assert index.child(index.root, 301) is None

    def test_sparse_gallop(self):
        rows = [(i * 1000, i) for i in range(100)]
        index = CompactArrayIndex(Relation("R", ("A", "B"), rows), ("A", "B"))
        hits = [0, 57000, 99000]
        for value in hits:
            assert index.child(index.root, value) is not None
        assert index.child(index.root, 57001) is None

    def test_monotone_probe_sequence_uses_hints(self):
        # The per-level hint must never change answers, only start
        # positions — probe ascending, descending, and random orders.
        rows = [(v, 0) for v in range(0, 4000, 7)]
        index = CompactArrayIndex(Relation("R", ("A", "B"), rows), ("A", "B"))
        values = [v for v, _ in rows]
        rng = random.Random(11)
        shuffled = values[:]
        rng.shuffle(shuffled)
        for sequence in (values, values[::-1], shuffled):
            for value in sequence:
                assert index.child(index.root, value) is not None
                assert index.child(index.root, value + 1) is None


class TestCursor:
    def test_open_next_seek_up(self):
        rows = [(1, 10), (1, 20), (5, 30), (9, 40)]
        index = CompactArrayIndex(Relation("R", ("A", "B"), rows), ("A", "B"))
        cursor = index.cursor()
        assert isinstance(cursor, CompactTrieIterator)
        cursor.open()
        assert cursor.key() == 1
        cursor.seek(4)
        assert cursor.key() == 5
        cursor.open()
        assert cursor.key() == 30
        cursor.up()
        cursor.next()
        assert cursor.key() == 9
        cursor.seek(100)
        assert cursor.at_end

    def test_leapfrog_runs_on_compact_cursors(self):
        R = Relation("R", ("A", "B"), [(i, (i * 3) % 40) for i in range(200)])
        S = Relation("S", ("B", "C"), [((i * 3) % 40, i % 9) for i in range(200)])
        q = JoinQuery([R, S])
        base = sorted(LeapfrogTriejoin(q).iter_join())
        compact = sorted(LeapfrogTriejoin(q, backend="compact").iter_join())
        assert base == compact

    def test_leapfrog_rejects_non_cursor_backend(self):
        q = JoinQuery([Relation("R", ("A",), [(1,)])])
        with pytest.raises(QueryError):
            LeapfrogTriejoin(q, backend="trie")


class TestPickle:
    def test_round_trip_preserves_answers(self):
        rows = [(i % 13, (i * 7) % 11, i % 5) for i in range(300)]
        relation = Relation("R", ("A", "B", "C"), rows)
        index = CompactArrayIndex(relation, ("A", "B", "C"))
        clone = pickle.loads(pickle.dumps(index))
        assert clone.attributes == index.attributes
        assert len(clone) == len(index)
        assert clone.nbytes() == index.nbytes()
        assert sorted(clone.paths(clone.root, 3)) == sorted(
            index.paths(index.root, 3)
        )
        node = clone.walk((1, 7))
        assert node is not None
        assert clone.count(node, 1) == index.count(index.walk((1, 7)), 1)

    def test_round_trip_unpacked_levels(self):
        relation = Relation("R", ("A", "B"), [("x", 1), ("y", 2)])
        index = CompactArrayIndex(relation, ("A", "B"))
        clone = pickle.loads(pickle.dumps(index))
        assert sorted(clone.paths(clone.root, 2)) == [("x", 1), ("y", 2)]

    def test_round_trip_empty(self):
        index = CompactArrayIndex(Relation("R", ("A",), []), ("A",))
        clone = pickle.loads(pickle.dumps(index))
        assert len(clone) == 0
        assert list(clone.paths(clone.root, 1)) == []


class TestTelemetryTwins:
    """Backends must be invisible to the telemetry counters."""

    @staticmethod
    def _query():
        rng = random.Random(21)
        rows = lambda: [  # noqa: E731
            (rng.randrange(30), rng.randrange(30)) for _ in range(250)
        ]
        return JoinQuery(
            [
                Relation("R", ("A", "B"), rows()),
                Relation("S", ("B", "C"), rows()),
                Relation("T", ("A", "C"), rows()),
            ]
        )

    def test_generic_counts_match_trie(self):
        q = self._query()
        order = q.attributes
        counters = {}
        for kind in ("trie", "compact"):
            probe = TelemetryProbe(order)
            rows = sorted(
                GenericJoin(
                    q, order, backend=kind, telemetry=probe
                ).iter_join()
            )
            counters[kind] = (
                probe.partials[:],
                probe.candidates[:],
                probe.matches[:],
                rows,
            )
        assert counters["trie"] == counters["compact"]

    def test_leapfrog_counts_match_sorted(self):
        q = self._query()
        order = q.attributes
        counters = {}
        for kind in ("sorted", "compact"):
            probe = TelemetryProbe(order)
            rows = sorted(
                LeapfrogTriejoin(
                    q, order, backend=kind, telemetry=probe
                ).iter_join()
            )
            counters[kind] = (
                probe.partials[:],
                probe.candidates[:],
                probe.matches[:],
                rows,
            )
        assert counters["sorted"] == counters["compact"]


class TestFanoutHint:
    def test_compact_hint_is_exact(self):
        rows = [(i % 9, i) for i in range(100)]
        index = CompactArrayIndex(Relation("R", ("A", "B"), rows), ("A", "B"))
        assert index.fanout_hint(index.root) == index.fanout(index.root) == 9
        node = index.child(index.root, 3)
        assert index.fanout_hint(node) == index.fanout(node)

    def test_sorted_hint_tightens_on_dense_levels(self):
        # 100 rows but only 9 distinct first-level values: the span-based
        # hint must not report the raw row width.
        rows = [(i % 9, i) for i in range(100)]
        index = SortedArrayIndex(Relation("R", ("A", "B"), rows), ("A", "B"))
        assert index.fanout_hint(index.root) == 9

    def test_sorted_hint_never_underestimates(self):
        rng = random.Random(5)
        rows = sorted(
            {(rng.randrange(50), rng.randrange(10)) for _ in range(120)}
        )
        index = SortedArrayIndex(Relation("R", ("A", "B"), rows), ("A", "B"))
        node = index.root
        assert index.fanout_hint(node) >= index.fanout(node)
        for value, child in index.items(node):
            assert index.fanout_hint(child) >= index.fanout(child)
