"""The sparse simplex against the dense textbook tableau it replaced.

Exact rationals make a sparse pivot the dense one: same entering and
leaving columns, so the same vertex and the same final basis.  Checked
as ``SimplexResult`` equality on thousands of seeded cover LPs — the
paper's shapes (Loomis-Whitney, the lifted triangle, chains, stars,
cycles) under log-size, equal and zero costs, and random 0/1 matrices
with degenerate right-hand sides.
"""

import math
import random
from fractions import Fraction

import pytest

from repro.errors import InfeasibleProgramError, UnboundedProgramError
from repro.hypergraph.agm import LOG_DENOMINATOR_LIMIT, cover_lp_rows
from repro.hypergraph.simplex import SimplexResult, solve_min_geq
from repro.workloads import queries


def dense_solve(costs, rows, rhs):
    """The dense two-phase tableau simplex with Bland's rule: every pivot
    rewrites every entry, reduced costs are recomputed from the basis."""
    c = [Fraction(v) for v in costs]
    a = [[Fraction(v) for v in row] for row in rows]
    b = [Fraction(v) for v in rhs]
    n, k = len(c), len(a)
    width = n + 2 * k
    tableau = []
    for i in range(k):
        row = a[i] + [Fraction(0)] * (2 * k) + [b[i]]
        row[n + i] = Fraction(-1)
        if b[i] < 0:
            row = [-v for v in row]
        row[n + k + i] = Fraction(1)
        tableau.append(row)
    basis = [n + k + i for i in range(k)]

    def pivot(r, col):
        factor = tableau[r][col]
        tableau[r] = [v / factor for v in tableau[r]]
        for i, other in enumerate(tableau):
            coeff = other[col]
            if i != r and coeff:
                tableau[i] = [
                    o - coeff * p for o, p in zip(other, tableau[r])
                ]
        basis[r] = col

    def reduced_costs(costs):
        reduced = list(costs)
        for i, var in enumerate(basis):
            for j in range(width):
                reduced[j] -= costs[var] * tableau[i][j]
        return reduced

    def optimize(costs, limit):
        while True:
            reduced = reduced_costs(costs)
            entering = next((j for j in range(limit) if reduced[j] < 0), -1)
            if entering < 0:
                return
            leaving, best = -1, None
            for i, row in enumerate(tableau):
                if row[entering] > 0:
                    ratio = row[width] / row[entering]
                    if (
                        best is None
                        or ratio < best
                        or (ratio == best and basis[i] < basis[leaving])
                    ):
                        best, leaving = ratio, i
            if leaving < 0:
                raise UnboundedProgramError("unbounded")
            pivot(leaving, entering)

    optimize([Fraction(0)] * (n + k) + [Fraction(1)] * k, width)
    if sum(tableau[i][width] for i in range(k) if basis[i] >= n + k) > 0:
        raise InfeasibleProgramError("infeasible")
    i = 0
    while i < len(tableau):
        if basis[i] < n + k:
            i += 1
            continue
        col = next((j for j in range(n + k) if tableau[i][j] != 0), None)
        if col is None:
            del tableau[i]
            del basis[i]
            continue
        pivot(i, col)
        i += 1
    optimize(c + [Fraction(0)] * (2 * k), n + k)
    x = [Fraction(0)] * n
    for r, var in enumerate(basis):
        if var < n:
            x[var] = tableau[r][width]
    objective = sum((ci * xi for ci, xi in zip(c, x)), start=Fraction(0))
    return SimplexResult(tuple(x), objective, tuple(basis))


SHAPES = (
    [queries.lw_query(n) for n in (3, 4, 5, 6)]
    + [queries.beyond_lw_query(), queries.triangle()]
    + [queries.path_query(k) for k in (2, 3, 4, 6)]
    + [queries.star_query(k) for k in (2, 3, 5)]
    + [queries.cycle_query(k) for k in (4, 5)]
)


def shape_lp(rng):
    rows, rhs, edges = cover_lp_rows(rng.choice(SHAPES))
    kind = rng.choice(("log", "log", "equal", "zero", "mixed"))
    if kind == "equal":
        costs = [Fraction(rng.randint(1, 3))] * len(edges)
    elif kind == "zero":
        costs = [Fraction(0)] * len(edges)
    else:
        costs = [
            Fraction(math.log(rng.choice((1, 2, 8, 100, 1000, 8000))))
            .limit_denominator(LOG_DENOMINATOR_LIMIT)
            for _ in edges
        ]
        if kind == "mixed":
            costs = [cost if rng.random() < 0.6 else 0 for cost in costs]
    return costs, rows, rhs


def random_lp(rng):
    n = rng.randint(1, 6)
    rows = []
    for _ in range(rng.randint(1, 6)):
        row = [rng.randint(0, 1) for _ in range(n)]
        row[rng.randrange(n)] = 1
        rows.append(row)
    rhs = [rng.choice((0, 1, 1, 1, 2)) for _ in rows]  # 0: degenerate
    costs = [rng.choice((0, 1, 1, 2, Fraction(1, 3), 5)) for _ in range(n)]
    return costs, rows, rhs


def outcome(solve, costs, rows, rhs):
    try:
        return solve(costs, rows, rhs)
    except (InfeasibleProgramError, UnboundedProgramError) as error:
        return type(error)


@pytest.mark.parametrize("family", [shape_lp, random_lp])
def test_sparse_pivots_are_the_dense_pivots(family):
    rng = random.Random(family.__name__)
    for _ in range(1200):
        costs, rows, rhs = family(rng)
        sparse = outcome(solve_min_geq, costs, rows, rhs)
        assert sparse == outcome(dense_solve, costs, rows, rhs), (
            costs, rows, rhs
        )
        assert isinstance(sparse, SimplexResult)
