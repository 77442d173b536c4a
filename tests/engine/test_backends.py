"""Backend parity: all index implementations honor the same protocol."""

import random

import pytest

from repro.engine.backends import (
    INDEX_BACKENDS,
    CompactArrayIndex,
    IndexBackend,
    backend_kinds,
    build_index,
    validate_backend,
)
from repro.errors import DatabaseError, SchemaError
from repro.relations.database import Database
from repro.relations.relation import Relation
from repro.relations.sorted_index import SortedArrayIndex
from repro.relations.trie import TrieIndex
from repro.workloads import generators


def _random_relation(seed: int, arity: int = 3, size: int = 40) -> Relation:
    rng = random.Random(seed)
    attrs = tuple(f"A{i}" for i in range(arity))
    return generators.random_relation("R", attrs, size, 5, rng)


@pytest.fixture(params=range(4))
def relation(request):
    return _random_relation(request.param)


class TestProtocol:
    def test_registry(self):
        assert set(backend_kinds()) == {"trie", "sorted", "compact"}
        assert INDEX_BACKENDS["trie"] is TrieIndex
        assert INDEX_BACKENDS["sorted"] is SortedArrayIndex
        assert INDEX_BACKENDS["compact"] is CompactArrayIndex

    @pytest.mark.parametrize("kind", ["trie", "sorted", "compact"])
    def test_instances_satisfy_protocol(self, kind):
        rel = Relation("R", ("A", "B"), [(1, 2)])
        index = build_index(rel, ("A", "B"), kind)
        assert isinstance(index, IndexBackend)
        assert index.kind == kind

    def test_unknown_backend_rejected(self):
        rel = Relation("R", ("A",), [(1,)])
        with pytest.raises(DatabaseError):
            build_index(rel, ("A",), "quantum")
        with pytest.raises(DatabaseError):
            validate_backend("quantum")

    @pytest.mark.parametrize("kind", ["trie", "sorted", "compact"])
    def test_bad_order_rejected(self, kind):
        rel = Relation("R", ("A", "B"), [(1, 2)])
        with pytest.raises(SchemaError):
            build_index(rel, ("A",), kind)
        with pytest.raises(SchemaError):
            build_index(rel, ("A", "Z"), kind)


class TestParity:
    """The sorted backend answers exactly like the hash trie."""

    def test_len(self, relation):
        trie = TrieIndex(relation, relation.attributes)
        flat = SortedArrayIndex(relation, relation.attributes)
        assert len(trie) == len(flat) == len(relation)

    def test_walk_and_counts(self, relation):
        order = relation.attributes
        trie = TrieIndex(relation, order)
        flat = SortedArrayIndex(relation, order)
        arity = len(order)
        prefixes = {row[:d] for row in relation.tuples for d in range(arity)}
        prefixes |= {(99, 99)[:d] for d in range(1, 3)}  # misses
        for prefix in prefixes:
            t_node = trie.walk(prefix)
            f_node = flat.walk(prefix)
            assert (t_node is None) == (f_node is None)
            for depth in range(arity - len(prefix) + 1):
                assert trie.count(t_node, depth) == flat.count(f_node, depth)

    def test_paths(self, relation):
        order = relation.attributes
        trie = TrieIndex(relation, order)
        flat = SortedArrayIndex(relation, order)
        arity = len(order)
        for depth in range(arity + 1):
            assert sorted(trie.paths(trie.root, depth)) == sorted(
                flat.paths(flat.root, depth)
            )

    def test_items_child_fanout(self, relation):
        order = relation.attributes
        trie = TrieIndex(relation, order)
        flat = SortedArrayIndex(relation, order)
        t_items = dict(trie.items(trie.root))
        f_items = dict(flat.items(flat.root))
        assert sorted(t_items) == sorted(f_items)
        assert trie.fanout(trie.root) == flat.fanout(flat.root)
        for value in t_items:
            t_child = trie.child(trie.root, value)
            f_child = flat.child(flat.root, value)
            assert trie.count(t_child, 1) == flat.count(f_child, 1)
        assert flat.child(flat.root, -1) is None  # value below every key
        assert trie.child(None, 1) is None
        assert flat.child(None, 1) is None

    @pytest.mark.parametrize("kind", ["trie", "sorted", "compact"])
    def test_children_is_batch_child(self, relation, kind):
        """``children(node, values)`` holds every one of ``values`` that
        ``child`` finds (maybe more) and where it leads; without
        ``values`` it is the node's own ``items``; a failed walk has
        none."""
        index = build_index(relation, relation.attributes, kind)
        first = sorted(dict(index.items(index.root)))
        for node in (index.root, index.child(index.root, first[0])):
            below = dict(index.items(node))
            for values in ([], first, [-5, *below, 10**6], set(below)):
                kids = index.children(node, values)
                assert kids.keys() & values == set(values) & set(below)
                assert all(kids[v] == below[v] for v in kids.keys() & values)
            assert index.children(node) == below
            assert len(below) == index.fanout_hint(node)
        assert not index.children(None) and not index.children(None, first)

    def test_sorted_paths_are_sorted(self, relation):
        flat = SortedArrayIndex(relation, relation.attributes)
        full = list(flat.paths(flat.root, len(relation.attributes)))
        assert full == sorted(full)

    def test_to_relation_roundtrip(self, relation):
        flat = SortedArrayIndex(relation, relation.attributes)
        assert flat.to_relation().equivalent(relation)


class TestCursorSharing:
    def test_cursor_shares_sorted_array(self):
        rel = _random_relation(7)
        index = SortedArrayIndex(rel, rel.attributes)
        first = index.cursor()
        second = index.cursor()
        assert first.rows is index.rows
        assert second.rows is index.rows
        assert first is not second

    def test_cursor_state_is_private(self):
        rel = Relation("R", ("A", "B"), [(1, 1), (2, 2)])
        index = SortedArrayIndex(rel, ("A", "B"))
        a, b = index.cursor(), index.cursor()
        a.open()
        a.next()
        b.open()
        assert b.key() == 1
        assert a.key() == 2


class TestDatabaseIndexCache:
    @pytest.fixture
    def db(self):
        return Database(
            [
                Relation("R", ("A", "B"), [(1, 2), (3, 4)]),
                Relation("S", ("B", "C"), [(2, 5)]),
            ]
        )

    def test_kinds_cached_separately(self, db):
        trie = db.index("R", ("A", "B"), "trie")
        flat = db.index("R", ("A", "B"), "sorted")
        assert isinstance(trie, TrieIndex)
        assert isinstance(flat, SortedArrayIndex)
        assert db.cached_index_count() == 2
        assert db.cached_trie_count() == 1
        assert db.cached_index_count("sorted") == 1

    def test_cache_hit_per_kind(self, db):
        assert db.sorted_index("R", ("A", "B")) is db.index(
            "R", ("A", "B"), "sorted"
        )
        assert db.trie("R", ("A", "B")) is db.index("R", ("A", "B"), "trie")

    def test_replace_invalidates_all_kinds(self, db):
        db.trie("R", ("A", "B"))
        db.sorted_index("R", ("A", "B"))
        db.add(Relation("R", ("A", "B"), [(9, 9)]), replace=True)
        assert db.cached_index_count() == 0
        assert len(db.sorted_index("R", ("A", "B"))) == 1

    def test_compact_cached_and_measured(self, db):
        index = db.compact_index("R", ("A", "B"))
        assert isinstance(index, CompactArrayIndex)
        assert db.index("R", ("A", "B"), "compact") is index
        info = db.cache_info()
        assert info.bytes_by_backend["compact"] == index.nbytes() > 0
        assert info.bytes_total == sum(info.bytes_by_backend.values())

    def test_unknown_kind_rejected(self, db):
        with pytest.raises(DatabaseError):
            db.index("R", ("A", "B"), "quantum")
