"""The AGM fractional-cover bound and the LP that optimizes it.

Atserias, Grohe, and Marx: for any fractional edge cover ``x`` of the query
hypergraph, ``|join| <= prod_e N_e^{x_e}`` (inequality (2) of the paper).
Given the sizes ``N_e``, the tightest such bound minimizes the linear
objective ``sum_e (log N_e) x_e`` over the cover polytope — this module
solves that LP with the exact simplex of :mod:`repro.hypergraph.simplex`.

Because ``log N_e`` is irrational, the objective is approximated by
``Fraction(log N_e).limit_denominator(10**6)`` before the exact solve.  The
returned point is an *exact vertex of the exact polytope* — feasibility (and
hence validity of the bound) is never approximate — and is optimal for the
perturbed objective, which can differ from the true optimum only through tie
breaking among near-optimal vertices.  This never affects correctness of any
algorithm, only (possibly) the constant factor of a bound.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Mapping
from fractions import Fraction

from repro.errors import CoverError, QueryError
from repro.hypergraph.covers import FractionalCover
from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.simplex import solve_min_geq

#: Denominator cap used when approximating log-sizes by rationals.
LOG_DENOMINATOR_LIMIT = 10**6

#: Bits past which :func:`agm_bound` stops forming the exact product.
EXACT_BOUND_BITS = 4096


def agm_log_bound(
    hypergraph: Hypergraph,
    sizes: Mapping[str, int],
    cover: FractionalCover,
) -> float:
    """``sum_e x_e * log N_e`` — the log of the AGM bound.

    Returns ``-inf`` when a positively-weighted relation is empty (the join
    is provably empty then).
    """
    total = 0.0
    for eid in hypergraph.edges:
        weight = cover.get(eid)
        if weight == 0:
            continue
        size = sizes[eid]
        if size == 0:
            return -math.inf
        total += float(weight) * math.log(size)
    return total


def agm_bound(
    hypergraph: Hypergraph,
    sizes: Mapping[str, int],
    cover: FractionalCover,
) -> float:
    """The AGM bound ``prod_e N_e^{x_e}`` as a float.

    Computed from the cover's exact weights: with ``L`` the least
    common denominator, the bound is the ``L``-th root of the integer
    ``prod_e N_e^{x_e L}``, exact whenever that root is an integer — an
    integral cover's product, the triangle's ``N^{3/2}`` at square
    ``N`` — so a tight instance never reads below its own output.
    Otherwise (or past :data:`EXACT_BOUND_BITS`) it is
    ``exp`` of :func:`agm_log_bound`, which is also the function to use
    when sizes are huge enough to overflow a float.
    """
    powers = []
    for eid in hypergraph.edges:
        weight = cover.get(eid)
        if weight == 0:
            continue
        if sizes[eid] == 0:
            return 0.0
        powers.append((sizes[eid], Fraction(weight)))
    root = math.lcm(*(weight.denominator for _size, weight in powers))
    exponents = [(size, int(weight * root)) for size, weight in powers]
    bits = sum(e * size.bit_length() for size, e in exponents)
    if bits <= EXACT_BOUND_BITS:
        product = math.prod(size**e for size, e in exponents)
        guess = round(math.exp(math.log(product) / root))
        for candidate in (guess - 1, guess, guess + 1):
            if candidate**root == product:
                return float(candidate)
    return math.exp(agm_log_bound(hypergraph, sizes, cover))


def cover_lp_rows(
    hypergraph: Hypergraph,
) -> tuple[list[list[int]], list[int], tuple[str, ...]]:
    """The cover polytope as ``(A, b, variable order)`` with ``A x >= b``.

    One row per vertex: coefficient 1 for each edge containing it; ``b`` is
    all ones.  Variables follow ``hypergraph.edge_ids`` order.
    """
    edge_ids = hypergraph.edge_ids
    rows = [
        [1 if vertex in hypergraph.edges[eid] else 0 for eid in edge_ids]
        for vertex in hypergraph.vertices
    ]
    rhs = [1] * len(hypergraph.vertices)
    return rows, rhs, edge_ids


def optimal_fractional_cover(
    hypergraph: Hypergraph,
    sizes: Mapping[str, int] | None = None,
    denominator_limit: int = LOG_DENOMINATOR_LIMIT,
) -> FractionalCover:
    """The cover minimizing ``sum_e (log N_e) x_e``, as an exact LP vertex.

    With ``sizes=None`` every relation is treated as the same size, i.e. the
    objective becomes ``sum_e x_e`` (minimum fractional edge cover number).
    Sizes of 0 or 1 contribute cost 0 (``log 1 = 0``; an empty relation makes
    the join empty regardless, and charging it nothing keeps the LP
    well-defined).

    Raises
    ------
    QueryError
        If some vertex lies in no edge (no cover exists).
    """
    if not hypergraph.covers_vertices():
        raise QueryError(
            "no fractional cover exists: some attribute is in no relation"
        )
    rows, rhs, edge_ids = cover_lp_rows(hypergraph)
    if sizes is None:
        costs = [Fraction(1)] * len(edge_ids)
    else:
        costs = []
        for eid in edge_ids:
            size = sizes[eid]
            if size < 0:
                raise CoverError(f"negative size for edge {eid!r}")
            log_size = math.log(size) if size > 1 else 0.0
            costs.append(
                Fraction(log_size).limit_denominator(denominator_limit)
            )
    result = solve_min_geq(costs, rows, rhs)
    return FractionalCover(dict(zip(edge_ids, result.x)))


def optimal_vertex_cover_support(
    hypergraph: Hypergraph,
    sizes: Mapping[str, int],
) -> frozenset[str]:
    """``BFS(S)`` of Section 7.2: the support of the optimal LP vertex.

    Determinism matters here ("pick any one in a consistent manner"): the
    exact simplex with Bland's rule is deterministic given the hypergraph's
    edge order, so equal subproblems always yield the same support.
    """
    return optimal_fractional_cover(hypergraph, sizes).support()


def best_agm_bound(
    hypergraph: Hypergraph,
    sizes: Mapping[str, int],
) -> tuple[FractionalCover, float]:
    """Optimal cover together with its (float) AGM bound."""
    cover = optimal_fractional_cover(hypergraph, sizes)
    return cover, agm_bound(hypergraph, sizes, cover)


def minimum_integral_cover(
    hypergraph: Hypergraph,
    sizes: Mapping[str, int] | None = None,
) -> FractionalCover:
    """The best 0/1 (set-style) edge cover, by exhaustive search.

    This is the classical "cover" that yields bounds like ``N^2`` for the
    triangle query in the paper's introduction — the object fractional
    covers strictly improve upon.  Exponential in ``|E|``; intended for the
    small query hypergraphs of the paper, baselines, and ablations.
    """
    if not hypergraph.covers_vertices():
        raise QueryError(
            "no integral cover exists: some attribute is in no relation"
        )
    edge_ids = hypergraph.edge_ids
    vertex_set = set(hypergraph.vertices)
    best: tuple[float, int, frozenset[str]] | None = None
    for r in range(1, len(edge_ids) + 1):
        for subset in itertools.combinations(edge_ids, r):
            covered: set[str] = set()
            for eid in subset:
                covered |= hypergraph.edges[eid]
            if covered != vertex_set:
                continue
            if sizes is None:
                cost = float(r)
            else:
                cost = sum(
                    math.log(sizes[eid]) if sizes[eid] > 1 else 0.0
                    for eid in subset
                )
            key = (cost, r, frozenset(subset))
            if best is None or key < best:
                best = key
        if best is not None and sizes is None:
            break  # all covers of this (minimal) size cost the same
    if best is None:
        raise QueryError("no integral cover found (unreachable)")
    chosen = best[2]
    return FractionalCover(
        {eid: Fraction(1 if eid in chosen else 0) for eid in edge_ids}
    )
