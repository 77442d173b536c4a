"""Tests for subgraph pattern matching."""

import itertools

import pytest

from repro.core.patterns import (
    DIAMOND,
    SQUARE,
    TRIANGLE,
    TWO_PATH,
    count_pattern,
    find_pattern,
    pattern_bound,
    pattern_query,
)
from repro.errors import QueryError
from repro.relations.relation import Relation


@pytest.fixture
def toy_graph():
    # A directed triangle 0->1->2->0 plus a tail 2->3.
    return [(0, 1), (1, 2), (2, 0), (2, 3)]


def brute_force_matches(edges, pattern):
    edge_set = set(edges)
    variables = []
    for src, dst in pattern:
        for var in (src, dst):
            if var not in variables:
                variables.append(var)
    vertices = {v for e in edges for v in e}
    out = set()
    for values in itertools.product(vertices, repeat=len(variables)):
        binding = dict(zip(variables, values))
        if all(
            (binding[src], binding[dst]) in edge_set for src, dst in pattern
        ):
            out.add(tuple(binding[v] for v in variables))
    return out


class TestFindPattern:
    def test_triangle_rotations(self, toy_graph):
        matches = find_pattern(toy_graph, TRIANGLE)
        assert set(matches.tuples) == {(0, 1, 2), (1, 2, 0), (2, 0, 1)}

    def test_two_path(self, toy_graph):
        matches = find_pattern(toy_graph, TWO_PATH)
        assert set(matches.tuples) == brute_force_matches(toy_graph, TWO_PATH)

    @pytest.mark.parametrize("pattern", [TRIANGLE, SQUARE, DIAMOND, TWO_PATH])
    def test_matches_bruteforce_random(self, pattern):
        import random

        rng = random.Random(3)
        edges = {
            (rng.randrange(8), rng.randrange(8)) for _ in range(30)
        }
        matches = find_pattern(edges, pattern)
        assert set(matches.tuples) == brute_force_matches(edges, pattern)

    @pytest.mark.parametrize("algorithm", ["nprr", "generic", "leapfrog"])
    def test_algorithms_agree(self, toy_graph, algorithm):
        matches = find_pattern(toy_graph, TRIANGLE, algorithm=algorithm)
        assert len(matches) == 3

    def test_relation_input(self, toy_graph):
        rel = Relation("Follows", ("src", "dst"), toy_graph)
        matches = find_pattern(rel, TRIANGLE)
        assert len(matches) == 3

    def test_column_order_is_variable_order(self, toy_graph):
        matches = find_pattern(toy_graph, DIAMOND)
        assert matches.attributes == ("x", "y", "z", "w")

    def test_homomorphic_semantics(self):
        """A single undirected-style edge pair matches the square pattern
        with repeated vertices (homomorphism, not isomorphism)."""
        edges = [(0, 1), (1, 0)]
        matches = find_pattern(edges, SQUARE)
        assert (0, 1, 0, 1) in matches

    def test_injective_filter(self):
        edges = [(0, 1), (1, 0)]
        matches = find_pattern(edges, SQUARE).select(
            lambda t: len(set(t.values())) == len(t)
        )
        assert matches.is_empty()


class TestCountAndBound:
    def test_count(self, toy_graph):
        assert count_pattern(toy_graph, TRIANGLE) == 3

    def test_bound_shape(self, toy_graph):
        bound = pattern_bound(toy_graph, TRIANGLE)
        assert bound == pytest.approx(len(toy_graph) ** 1.5, rel=1e-4)

    def test_square_bound(self, toy_graph):
        bound = pattern_bound(toy_graph, SQUARE)
        assert bound == pytest.approx(len(toy_graph) ** 2, rel=1e-4)

    def test_count_never_exceeds_bound(self):
        import random

        rng = random.Random(5)
        edges = {(rng.randrange(10), rng.randrange(10)) for _ in range(40)}
        for pattern in (TRIANGLE, SQUARE, DIAMOND):
            assert count_pattern(edges, pattern) <= pattern_bound(
                edges, pattern
            ) + 1e-6


class TestValidation:
    def test_empty_pattern_rejected(self, toy_graph):
        with pytest.raises(QueryError):
            pattern_query(toy_graph, [])

    def test_self_loop_rejected(self, toy_graph):
        with pytest.raises(QueryError):
            pattern_query(toy_graph, [("x", "x")])

    def test_ternary_relation_rejected(self):
        rel = Relation("R", ("a", "b", "c"), [])
        with pytest.raises(QueryError):
            pattern_query(rel, TRIANGLE)


def test_pattern_helpers_run_clean_under_warnings_as_errors():
    # Library code must not trip over the library's own deprecations.
    import warnings

    edges = [(0, 1), (1, 2), (2, 0), (2, 3)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert count_pattern(edges, TRIANGLE) == 3
        assert len(find_pattern(edges, TRIANGLE)) == 3
