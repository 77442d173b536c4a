"""Extended hypothesis property suites across subsystems.

These complement the per-module property files with cross-cutting
invariants: the arity-2 decomposition, Yannakakis, the QP tree on random
hypergraphs, the leapfrog iterator against a trie model, and the
tightening transformation.
"""

import math
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from repro.baselines.naive import naive_join
from repro.baselines.yannakakis import is_acyclic, yannakakis_join
from repro.core.arity_two import arity_two_join, is_half_integral
from repro.core.leapfrog import SortedTrieIterator
from repro.core.nprr import nprr_join
from repro.core.qptree import QPTree
from repro.core.query import JoinQuery
from repro.core.relaxed import relaxed_join, relaxed_join_reference
from repro.hypergraph.agm import optimal_fractional_cover
from repro.hypergraph.covers import FractionalCover, tighten_cover
from repro.relations.relation import Relation
from repro.relations.trie import TrieIndex


def binary_rows(domain=5, max_size=12):
    return st.frozensets(
        st.tuples(st.integers(0, domain - 1), st.integers(0, domain - 1)),
        max_size=max_size,
    )


def path_instances():
    return st.tuples(binary_rows(), binary_rows(), binary_rows()).map(
        lambda rs: JoinQuery(
            [
                Relation("R", ("A", "B"), rs[0]),
                Relation("S", ("B", "C"), rs[1]),
                Relation("U", ("C", "D"), rs[2]),
            ]
        )
    )


def cycle4_instances():
    return st.tuples(
        binary_rows(), binary_rows(), binary_rows(), binary_rows()
    ).map(
        lambda rs: JoinQuery(
            [
                Relation("R1", ("A", "B"), rs[0]),
                Relation("R2", ("B", "C"), rs[1]),
                Relation("R3", ("C", "D"), rs[2]),
                Relation("R4", ("D", "A"), rs[3]),
            ]
        )
    )


@given(cycle4_instances())
@settings(max_examples=40, deadline=None)
def test_arity_two_equals_naive_on_c4(query):
    assert arity_two_join(query).equivalent(naive_join(query))


@given(cycle4_instances())
@settings(max_examples=25, deadline=None)
def test_lp_vertices_half_integral_on_c4(query):
    cover = optimal_fractional_cover(query.hypergraph, query.sizes())
    assert is_half_integral(cover)


@given(path_instances())
@settings(max_examples=40, deadline=None)
def test_yannakakis_equals_naive_on_paths(query):
    assert is_acyclic(query.hypergraph)
    assert yannakakis_join(query).equivalent(naive_join(query))


@given(path_instances())
@settings(max_examples=25, deadline=None)
def test_yannakakis_equals_nprr_on_paths(query):
    assert yannakakis_join(query).equivalent(nprr_join(query))


@given(path_instances(), st.integers(0, 3))
@settings(max_examples=25, deadline=None)
def test_relaxed_join_matches_definition(query, relaxation):
    left = relaxed_join(query, relaxation)
    right = relaxed_join_reference(query, relaxation)
    assert left.equivalent(right)


@given(
    st.frozensets(
        st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)),
        max_size=20,
    )
)
@settings(max_examples=40, deadline=None)
def test_leapfrog_iterator_matches_trie_model(rows):
    """The sorted-array iterator enumerates exactly the trie's structure."""
    relation = Relation("R", ("A", "B", "C"), rows)
    trie = TrieIndex(relation, ("A", "B", "C"))
    iterator = SortedTrieIterator(relation, ("A", "B", "C"))
    if not rows:
        assert iterator.at_end
        return

    def collect(node, it, depth):
        """Recursively compare children at every level."""
        expected = sorted(trie.children(node))
        it.open()
        seen = []
        while not it.at_end:
            seen.append(it.key())
            if depth < 2:
                collect(trie.child(node, seen[-1]), it, depth + 1)
            it.next()
        it.up()
        assert seen == expected

    collect(trie.root, iterator, 0)


@given(
    st.frozensets(
        st.tuples(st.integers(0, 9), st.integers(0, 9)), min_size=1, max_size=25
    ),
    st.integers(0, 12),
)
@settings(max_examples=50, deadline=None)
def test_leapfrog_seek_semantics(rows, target):
    """seek(t) lands on the first key >= t at the open level."""
    relation = Relation("R", ("A", "B"), rows)
    iterator = SortedTrieIterator(relation, ("A", "B"))
    iterator.open()
    iterator.seek(target)
    keys = sorted({row[0] for row in rows})
    expected = [k for k in keys if k >= target]
    if expected:
        assert not iterator.at_end
        assert iterator.key() == expected[0]
    else:
        assert iterator.at_end


@given(path_instances())
@settings(max_examples=25, deadline=None)
def test_tightening_on_random_paths(query):
    hypergraph = query.hypergraph
    cover = FractionalCover.all_ones(hypergraph)
    relations = dict(query.relations)
    new_h, new_cover, new_rels = tighten_cover(hypergraph, cover, relations)
    assert new_cover.is_tight(new_h)
    before = sum(
        float(cover.get(eid)) * math.log(max(1, len(relations[eid])))
        for eid in hypergraph.edges
    )
    after = sum(
        float(new_cover.get(eid)) * math.log(max(1, len(new_rels[eid])))
        for eid in new_h.edges
    )
    assert after <= before + 1e-9


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_qptree_invariants_random(data):
    """TO1/TO2 and total-order completeness on random hypergraphs."""
    n_vertices = data.draw(st.integers(2, 6))
    vertices = tuple(f"A{i}" for i in range(n_vertices))
    n_edges = data.draw(st.integers(1, 5))
    edges = {}
    for j in range(n_edges):
        size = data.draw(st.integers(1, n_vertices))
        members = data.draw(
            st.permutations(vertices).map(lambda p: tuple(p[:size]))
        )
        edges[f"R{j}"] = members
    from repro.hypergraph.hypergraph import Hypergraph

    hypergraph = Hypergraph(vertices, edges)
    if not hypergraph.covers_vertices():
        return
    tree = QPTree(hypergraph)
    assert sorted(tree.total_order) == sorted(vertices)
    assert tree.check_to1()
    assert tree.check_to2()
