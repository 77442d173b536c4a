"""Unit tests for AGM bounds and the optimal-cover LP."""

import math
import random
from fractions import Fraction

import pytest

from repro import Relation, execute, output_bound
from repro.errors import QueryError
from repro.hypergraph.agm import (
    agm_bound,
    agm_log_bound,
    best_agm_bound,
    minimum_integral_cover,
    optimal_fractional_cover,
)
from repro.hypergraph.covers import FractionalCover
from repro.hypergraph.hypergraph import Hypergraph
from repro.workloads import queries
from repro.workloads.generators import random_hypergraph


@pytest.fixture
def triangle():
    return queries.triangle()


class TestBoundEvaluation:
    def test_triangle_half_cover(self, triangle):
        sizes = {"R": 100, "S": 100, "T": 100}
        cover = FractionalCover.uniform(triangle, Fraction(1, 2))
        assert agm_bound(triangle, sizes, cover) == pytest.approx(1000.0)

    def test_empty_relation_zeroes_bound(self, triangle):
        sizes = {"R": 0, "S": 100, "T": 100}
        cover = FractionalCover.uniform(triangle, Fraction(1, 2))
        assert agm_bound(triangle, sizes, cover) == 0.0
        assert agm_log_bound(triangle, sizes, cover) == -math.inf

    def test_zero_weight_edge_ignored(self, triangle):
        sizes = {"R": 0, "S": 4, "T": 4}
        cover = FractionalCover({"R": 0, "S": 1, "T": 1})
        assert agm_bound(triangle, sizes, cover) == pytest.approx(16.0)

    def test_size_one_contributes_nothing(self, triangle):
        sizes = {"R": 1, "S": 1, "T": 1}
        cover = FractionalCover.all_ones(triangle)
        assert agm_bound(triangle, sizes, cover) == pytest.approx(1.0)

    # ``exp(sum x_e log N_e)`` read these one ulp low (7.999999999999998,
    # 63.99999999999998, 27.999999999999996): a bound below an output
    # that really occurs.
    @pytest.mark.parametrize("size, bound", [(4, 8.0), (16, 64.0)])
    def test_a_square_size_gives_the_triangle_its_exact_bound(
        self, triangle, size, bound
    ):
        sizes = dict.fromkeys(("R", "S", "T"), size)
        cover = FractionalCover.uniform(triangle, Fraction(1, 2))
        assert agm_bound(triangle, sizes, cover) == bound

    def test_an_integral_cover_gives_the_exact_product(self):
        cycle = queries.cycle_query(4)
        sizes = {"R1": 2, "R2": 15, "R3": 14, "R4": 5}
        cover = FractionalCover({"R1": 1, "R2": 0, "R3": 1, "R4": 0})
        assert agm_bound(cycle, sizes, cover) == 28.0

    def test_the_tight_product_instance_meets_its_bound(self):
        pairs = [(a, b) for a in range(2) for b in range(2)]
        relations = [
            Relation(name, attributes, pairs)
            for name, attributes in (
                ("R", ("A", "B")), ("S", ("B", "C")), ("T", ("A", "C"))
            )
        ]
        assert len(list(execute(relations))) == 8
        assert output_bound(relations) == 8.0

    def test_an_inexact_root_is_the_log_formula(self, triangle):
        sizes = {"R": 5, "S": 7, "T": 11}
        cover = FractionalCover.uniform(triangle, Fraction(1, 2))
        assert agm_bound(triangle, sizes, cover) == math.exp(
            agm_log_bound(triangle, sizes, cover)
        )


class TestOptimalCover:
    def test_triangle_uniform_sizes(self, triangle):
        cover = optimal_fractional_cover(triangle, {"R": 64, "S": 64, "T": 64})
        # The optimum is the all-1/2 cover with bound 64^{3/2} = 512.
        assert cover.is_valid(triangle)
        assert agm_bound(
            triangle, {"R": 64, "S": 64, "T": 64}, cover
        ) == pytest.approx(512.0, rel=1e-6)

    def test_skewed_sizes_choose_cheap_relations(self, triangle):
        # Tiny S and T: cover A,B,C with S and T alone (weight 1 each,
        # bound 4) rather than touching the huge R.
        sizes = {"R": 10**6, "S": 2, "T": 2}
        cover = optimal_fractional_cover(triangle, sizes)
        assert cover["R"] == 0
        assert agm_bound(triangle, sizes, cover) == pytest.approx(4.0, rel=1e-6)

    def test_lw_cover_is_uniform(self):
        h = queries.lw_query(4)
        sizes = {eid: 1000 for eid in h.edge_ids}
        cover = optimal_fractional_cover(h, sizes)
        bound = agm_bound(h, sizes, cover)
        assert bound == pytest.approx(1000 ** (4 / 3), rel=1e-5)

    def test_no_sizes_minimizes_cover_number(self, triangle):
        cover = optimal_fractional_cover(triangle)
        assert cover.total_weight() == Fraction(3, 2)

    def test_uncoverable_rejected(self):
        h = Hypergraph(("A", "B"), {"R": ("A",)})
        with pytest.raises(QueryError):
            optimal_fractional_cover(h)

    def test_exact_vertex_feasibility(self):
        """Feasibility of the returned cover is exact even though the
        objective is a rational approximation of the logs."""
        h = queries.paper_figure2()
        sizes = {eid: 17 + i for i, eid in enumerate(h.edge_ids)}
        cover = optimal_fractional_cover(h, sizes)
        for vertex in h.vertices:
            assert cover.coverage(h, vertex) >= 1  # exact Fraction compare

    def test_beats_integral_cover(self, triangle):
        sizes = {"R": 100, "S": 100, "T": 100}
        fractional = optimal_fractional_cover(triangle, sizes)
        integral = minimum_integral_cover(triangle, sizes)
        assert agm_bound(triangle, sizes, fractional) < agm_bound(
            triangle, sizes, integral
        )


class TestIntegralCover:
    def test_triangle_needs_two_edges(self, triangle):
        cover = minimum_integral_cover(triangle)
        assert cover.total_weight() == 2
        assert cover.is_valid(triangle)

    def test_respects_sizes(self, triangle):
        sizes = {"R": 1000, "S": 2, "T": 2}
        cover = minimum_integral_cover(triangle, sizes)
        assert cover["R"] == 0

    def test_single_edge_query(self):
        h = Hypergraph(("A", "B"), {"R": ("A", "B")})
        cover = minimum_integral_cover(h)
        assert cover["R"] == 1

    def test_uncoverable_rejected(self):
        h = Hypergraph(("A", "B"), {"R": ("A",)})
        with pytest.raises(QueryError):
            minimum_integral_cover(h)


class TestBestBound:
    def test_returns_pair(self, triangle):
        cover, bound = best_agm_bound(triangle, {"R": 4, "S": 4, "T": 4})
        assert cover.is_valid(triangle)
        assert bound == pytest.approx(8.0, rel=1e-6)


class TestBoundIsAtLeastTheSmallestRelation:
    """At any attribute ``v`` the cover puts weight at least 1 on the
    relations holding ``v``, so with every size at least 1 the bound is
    at least ``min_{e ∋ v} N_e``, hence at least the smallest relation.
    This is why the planner caps partial-result estimates at covered
    relation sizes and never solves a cover LP for them: the cap is
    never above the AGM bound of the relations it covers."""

    @pytest.mark.parametrize("seed", range(120))
    def test_lower_bounds(self, seed):
        rng = random.Random(seed)
        h = random_hypergraph(
            rng.randint(1, 6), rng.randint(1, 6), 3, seed=seed
        )
        pool = [0, 1, rng.randint(2, 40), rng.randint(2, 40), 1000]
        sizes = {eid: rng.choice(pool) for eid in h.edges}
        bound = agm_bound(h, sizes, optimal_fractional_cover(h, sizes))
        assert bound >= min(sizes.values()) * (1 - 1e-9)
        # An empty relation may take weight for free (its cost is 0)
        # and zero the bound: the join is empty.  Otherwise every
        # attribute's relations bound it from below.
        assert bound > 0 or 0 in sizes.values()
        if bound > 0:
            per_vertex = max(
                min(sizes[eid] for eid, members in h.edges.items()
                    if v in members)
                for v in h.vertices
            )
            assert bound >= per_vertex * (1 - 1e-9)
