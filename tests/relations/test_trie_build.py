"""The trie build kernel against the build it replaced.

``TrieIndex`` builds nested ``TrieNode`` dicts in one pass, shares one
leaf node below every full tuple and fills ``counts`` in one bottom-up
sweep.  The build it replaced — one node, one dict and one counts list
per tuple, then a post-order counts pass — is kept here, test-local, as
the reference: both must describe the same tree node for node.
"""

import pickle
import random
import tracemalloc

import pytest

from repro.core.query import JoinQuery
from repro.engine.planner import plan_join
from repro.relations import trie as trie_module
from repro.relations.database import Database
from repro.relations.relation import Relation
from repro.relations.trie import TrieIndex, TrieNode
from repro.workloads import generators, instances


class OldNode:
    __slots__ = ("children", "counts")

    def __init__(self):
        self.children = {}
        self.counts = [1]


def old_build(relation, order):
    """The per-tuple build: insert every row node by node, then fill
    every node's counts bottom-up."""
    root = OldNode()
    idx = relation.positions(order)
    for row in relation.tuples:
        node = root
        for i in idx:
            child = node.children.get(row[i])
            if child is None:
                child = node.children[row[i]] = OldNode()
            node = child
    stack = [(root, False)]
    while stack:
        node, done = stack.pop()
        if not done:
            stack.append((node, True))
            stack.extend((child, False) for child in node.children.values())
        elif node.children:
            width = max(len(c.counts) for c in node.children.values())
            counts = [1] + [0] * width
            for child in node.children.values():
                for depth, count in enumerate(child.counts):
                    counts[depth + 1] += count
            node.counts = counts
    return root


def _corpus():
    rng = random.Random(16)
    deep = 2000
    mixed = [0, 1, -1, 2.5, "a", "", None, ("t", 1), True, "0"]
    return {
        "empty": Relation("R", ("A", "B")),
        "nullary": Relation("R", (), [()]),
        "unary": Relation("R", ("A",), [(i,) for i in range(50)]),
        "binary": Relation(
            "R",
            ("A", "B"),
            {(rng.randrange(40), rng.randrange(300)) for _ in range(1500)},
        ),
        "ternary": Relation(
            "R",
            ("A", "B", "C"),
            {
                (rng.randrange(12), rng.randrange(20), rng.randrange(30))
                for _ in range(2000)
            },
        ),
        "duplicate_heavy": Relation(
            "R",
            ("A", "B", "C"),
            [(i % 3, i % 2, i % 5) for i in range(3000)],
        ),
        "mixed_types": Relation(
            "R",
            ("A", "B", "C"),
            {
                (rng.choice(mixed), rng.choice(mixed), rng.choice(mixed))
                for _ in range(400)
            },
        ),
        "arity_2000": Relation(
            "R",
            tuple(f"A{i}" for i in range(deep)),
            [
                tuple(range(deep)),
                tuple(range(1, deep + 1)),
                (*range(deep - 1), -1),
            ],
        ),
    }


CORPUS = _corpus()


def _orders(relation):
    attrs = relation.attributes
    return {attrs, attrs[::-1]}


def assert_same_tree(index, old_root):
    """Node for node: same keys, same counts vector, same fan-out."""
    stack = [(index.root, old_root)]
    visited = 0
    while stack:
        node, old = stack.pop()
        visited += 1
        assert list(node.counts) == old.counts
        assert index.fanout(node) == len(old.children)
        assert index.fanout_hint(node) == len(old.children)
        assert set(node.children) == set(old.children)
        for value, child in index.items(node):
            assert index.child(node, value) is child
            stack.append((child, old.children[value]))
    return visited


def old_paths(node, depth):
    if depth == 0:
        return [()]
    level = [((), node)]
    for _ in range(depth):
        level = [
            ((*prefix, value), child)
            for prefix, parent in level
            for value, child in parent.children.items()
        ]
    return [prefix for prefix, _node in level]


@pytest.mark.parametrize("name", sorted(CORPUS))
class TestBuildMatchesThePerTupleBuild:
    def test_node_for_node(self, name):
        relation = CORPUS[name]
        for order in _orders(relation):
            index = TrieIndex(relation, order)
            old_root = old_build(relation, order)
            visited = assert_same_tree(index, old_root)
            assert visited >= 1
            arity = len(order)
            assert len(index) == (
                old_root.counts[arity] if arity < len(old_root.counts) else 0
            )
            if relation.attributes:
                assert len(index) == len(relation)

    def test_paths_and_counts_at_every_depth(self, name):
        relation = CORPUS[name]
        order = relation.attributes
        index = TrieIndex(relation, order)
        old_root = old_build(relation, order)
        depths = range(len(order) + 2)
        if len(order) > 10:
            depths = (0, 1, 2, len(order) - 1, len(order), len(order) + 1)
        for depth in depths:
            expected = old_paths(old_root, depth) if depth <= len(order) else []
            assert sorted(
                index.paths(index.root, depth), key=repr
            ) == sorted(expected, key=repr)
            assert index.count(index.root, depth) == len(expected)
        for value, old_child in old_root.children.items():
            node = index.walk((value,))
            for depth in range(min(len(order), 3)):
                assert sorted(index.paths(node, depth), key=repr) == sorted(
                    old_paths(old_child, depth), key=repr
                )
        assert set(index.tuples()) == relation.tuples

    def test_pickle_round_trip(self, name):
        relation = CORPUS[name]
        if len(relation.attributes) > 100:
            pytest.skip("pickle recurses per level, as it always did")
        order = relation.attributes[::-1]
        index = TrieIndex(relation, order)
        clone = pickle.loads(pickle.dumps(index))
        assert clone.attributes == index.attributes
        assert len(clone) == len(index)
        assert clone.nbytes() == index.nbytes()
        assert_same_tree(clone, old_build(relation, order))
        assert set(clone.tuples()) == set(index.tuples())

    def test_a_pickled_trie_is_trie_nodes_over_one_leaf(self, name):
        # What crosses the process-pool and fleet boundaries: a node is
        # a dict subclass with a slot, and both must survive the trip.
        relation = CORPUS[name]
        arity = len(relation.attributes)
        if arity > 100:
            pytest.skip("pickle recurses per level, as it always did")
        index = TrieIndex(relation, relation.attributes)
        clone = pickle.loads(pickle.dumps(index))
        leaves = set()
        stack = [(clone.root, index.root, 0)]
        while stack:
            node, original, depth = stack.pop()
            assert type(node) is TrieNode and node.children is node
            assert node.counts == original.counts
            assert node.keys() == original.keys()
            if depth == arity and arity:
                leaves.add(id(node))
            stack.extend(
                (child, original[value], depth + 1)
                for value, child in node.items()
            )
        # One leaf object per unpickled trie — its own, not the module's.
        assert len(leaves) == (1 if relation.tuples and arity else 0)
        assert id(trie_module._LEAF) not in leaves
        assert set(clone.tuples()) == set(index.tuples())

    def test_shared_leaf_is_never_written(self, name):
        relation = CORPUS[name]
        order = relation.attributes
        index = TrieIndex(relation, order)
        leaf = trie_module._LEAF

        def untouched():
            return leaf.children == {} and leaf.counts == [1]

        assert untouched()
        rows = list(index.tuples())
        assert untouched()
        for row in rows[:50]:
            node = index.walk(row)
            if order:
                assert node is leaf
            assert index.contains_prefix(row)
            assert index.child(node, "absent") is None
            assert list(index.items(node)) == []
            assert index.fanout(node) == index.fanout_hint(node) == 0
            assert index.count(node, 0) == 1 and index.count(node, 1) == 0
            assert list(index.paths(node, 0)) == [()]
            assert list(index.paths(node, 1)) == []
            assert index.descend(node, ()) is node
            assert index.descend(node, ("absent",)) is None
            assert index.prefix_count(row, 0) == 1
            assert untouched()
        index.to_relation()
        index.nbytes()
        if len(order) <= 100:
            pickle.loads(pickle.dumps(index))
        assert untouched()


class TestNbytesEstimate:
    """The GreedyDual-Size index cache ranks evictions by ``nbytes()``:
    it has to be the right size, not just monotone."""

    @staticmethod
    def measured(relation, order):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            index = TrieIndex(relation, order)
            after = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        return index, after - before

    @pytest.mark.parametrize("reverse", [False, True])
    def test_binary_10k(self, reverse):
        rng = random.Random(3)
        rows = set()
        while len(rows) < 10_000:
            rows.add((rng.randrange(400), rng.randrange(5000)))
        relation = Relation("R", ("A", "B"), rows)
        order = ("B", "A") if reverse else ("A", "B")
        index, actual = self.measured(relation, order)
        assert actual / 2 <= index.nbytes() <= actual * 2

    @pytest.mark.parametrize("reverse", [False, True])
    def test_ternary_8k(self, reverse):
        rng = random.Random(4)
        rows = set()
        while len(rows) < 8_000:
            rows.add(
                (rng.randrange(48), rng.randrange(64), rng.randrange(500))
            )
        relation = Relation("R", ("A", "B", "C"), rows)
        order = ("C", "B", "A") if reverse else ("A", "B", "C")
        index, actual = self.measured(relation, order)
        assert actual / 2 <= index.nbytes() <= actual * 2

    @pytest.mark.parametrize(
        "shape", ["lifted_triangle", "triangle_hub", "triangle_hard"]
    )
    def test_within_a_tenth_on_the_benchmark_shapes(self, shape):
        """``benchmarks/e2e``'s seed-1 instances, the three tries of the
        generic plan: the cache's byte budget and the planner's size
        rule rank backends by this number."""
        if shape == "lifted_triangle":
            rng = random.Random(1)
            domains = {"A": 48, "B": 64, "C": 80, "D": 12}
            query = JoinQuery(
                [
                    Relation(
                        eid,
                        attrs,
                        {
                            tuple(rng.randrange(domains[a]) for a in attrs)
                            for _ in range(8000)
                        },
                    )
                    for eid, attrs in (
                        ("R", ("A", "B", "D")),
                        ("S", ("B", "C", "D")),
                        ("T", ("A", "C", "D")),
                    )
                ]
            )
        elif shape == "triangle_hub":
            query = generators.hub_triangle(seed=1)
        else:
            query = instances.triangle_hard_instance(2000)
        relations = list(query.relations.values())
        requirements = plan_join(
            query, "generic", database=Database(relations)
        ).index_requirements()
        estimated = actual = 0
        for name, order, _kind in requirements:
            index, traced = self.measured(query.relations[name], order)
            estimated += index.nbytes()
            actual += traced
        assert 0.9 * actual <= estimated <= 1.1 * actual

    def test_leaf_level_is_not_charged_per_tuple(self):
        """One first-level value over n tuples: two interior nodes and
        n + 1 edges, however large n is."""
        relation = Relation("R", ("A", "B"), [(0, i) for i in range(1000)])
        index = TrieIndex(relation, ("A", "B"))
        assert index.nbytes() == (
            2 * trie_module._NODE_BYTES + 1001 * trie_module._EDGE_BYTES
        )
