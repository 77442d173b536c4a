"""Unit tests for the (ST1)-(ST3) trie index."""

import pytest

from repro.errors import SchemaError
from repro.relations.relation import Relation
from repro.relations.trie import TrieIndex


@pytest.fixture
def relation():
    return Relation(
        "R",
        ("A", "B", "C"),
        [(1, 1, 1), (1, 1, 2), (1, 2, 1), (2, 1, 1), (2, 2, 2)],
    )


@pytest.fixture
def trie(relation):
    return TrieIndex(relation, ("A", "B", "C"))


class TestConstruction:
    def test_len(self, trie):
        assert len(trie) == 5

    def test_arity(self, trie):
        assert trie.arity == 3

    def test_order_must_be_permutation(self, relation):
        with pytest.raises(SchemaError):
            TrieIndex(relation, ("A", "B"))
        with pytest.raises(SchemaError):
            TrieIndex(relation, ("A", "B", "Z"))

    def test_reordered_levels(self, relation):
        trie = TrieIndex(relation, ("C", "B", "A"))
        assert trie.contains_prefix((1, 1, 1))
        assert trie.contains_prefix((2, 1, 1))  # (C,B,A) = reversed (1,1,2)
        assert not trie.contains_prefix((9,))

    def test_empty_relation(self):
        trie = TrieIndex(Relation("R", ("A",)), ("A",))
        assert len(trie) == 0
        assert trie.count(trie.root, 1) == 0


class TestST1:
    def test_walk_root(self, trie):
        assert trie.walk(()) is trie.root

    def test_walk_prefix(self, trie):
        node = trie.walk((1,))
        assert node is not None
        assert set(trie.children(node)) == {1, 2}

    def test_walk_missing(self, trie):
        assert trie.walk((9,)) is None
        assert trie.walk((1, 9)) is None

    def test_contains_prefix(self, trie):
        assert trie.contains_prefix((1, 2))
        assert trie.contains_prefix((1, 2, 1))
        assert not trie.contains_prefix((1, 2, 2))

    def test_descend_resumes(self, trie):
        node = trie.walk((1,))
        assert trie.descend(node, (1, 2)) is not None
        assert trie.descend(node, (9,)) is None


class TestST2:
    def test_count_at_root(self, trie):
        # Distinct prefixes at each depth: A values, (A,B) pairs, tuples.
        assert trie.count(trie.root, 0) == 1
        assert trie.count(trie.root, 1) == 2
        assert trie.count(trie.root, 2) == 4
        assert trie.count(trie.root, 3) == 5

    def test_count_below_prefix(self, trie):
        node = trie.walk((1,))
        assert trie.count(node, 1) == 2  # B values under A=1
        assert trie.count(node, 2) == 3  # (B,C) pairs under A=1

    def test_count_none_node(self, trie):
        assert trie.count(None, 1) == 0

    def test_count_beyond_depth(self, trie):
        assert trie.count(trie.root, 4) == 0

    def test_prefix_count(self, trie):
        assert trie.prefix_count((1, 1), 1) == 2
        assert trie.prefix_count((9,), 1) == 0


class TestST3:
    def test_paths_full(self, trie, relation):
        assert set(trie.paths(trie.root, 3)) == relation.tuples

    def test_paths_prefix(self, trie):
        node = trie.walk((1,))
        assert set(trie.paths(node, 1)) == {(1,), (2,)}
        assert set(trie.paths(node, 2)) == {(1, 1), (1, 2), (2, 1)}

    def test_paths_zero_depth(self, trie):
        assert list(trie.paths(trie.root, 0)) == [()]

    def test_paths_none(self, trie):
        assert list(trie.paths(None, 2)) == []

    def test_paths_match_counts(self, trie):
        for depth in range(4):
            assert len(list(trie.paths(trie.root, depth))) == trie.count(
                trie.root, depth
            )

    def test_tuples_roundtrip(self, trie, relation):
        assert set(trie.tuples()) == relation.tuples

    def test_to_relation(self, trie, relation):
        assert trie.to_relation().equivalent(relation)

    def test_to_relation_reordered(self, relation):
        trie = TrieIndex(relation, ("B", "A", "C"))
        assert trie.to_relation().equivalent(relation)


class TestCounts:
    def test_counts_consistency_random(self):
        import random

        rng = random.Random(7)
        rows = {
            tuple(rng.randrange(4) for _ in range(4)) for _ in range(60)
        }
        rel = Relation("R", ("A", "B", "C", "D"), rows)
        trie = TrieIndex(rel, ("A", "B", "C", "D"))
        # Every node's counts[d] equals the number of distinct paths.
        for prefix_len in range(4):
            prefixes = {row[:prefix_len] for row in rows}
            for prefix in prefixes:
                node = trie.walk(prefix)
                for depth in range(4 - prefix_len + 1):
                    expected = len(
                        {
                            row[prefix_len : prefix_len + depth]
                            for row in rows
                            if row[:prefix_len] == prefix
                        }
                    )
                    assert trie.count(node, depth) == expected


class TestDeepTraversal:
    def test_paths_beyond_recursion_limit(self):
        """High-arity tries must traverse iteratively (explicit stack):
        a depth well past sys.getrecursionlimit() cannot rely on call
        recursion."""
        import sys

        arity = sys.getrecursionlimit() + 200
        attrs = tuple(f"A{i}" for i in range(arity))
        rows = [tuple(range(arity)), tuple(range(1, arity + 1))]
        rel = Relation("Deep", attrs, rows)
        trie = TrieIndex(rel, attrs)
        assert sorted(trie.paths(trie.root, arity)) == sorted(rows)
        assert len(trie) == 2
