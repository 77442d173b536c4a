"""An exact two-phase simplex solver over ``fractions.Fraction``.

The paper needs linear programming in three places, each requiring a
*vertex* (basic feasible solution), not merely an optimal value:

* the optimal fractional edge cover minimizing ``sum_e (log N_e) x_e``
  (Section 2) — any optimal point works for correctness, a vertex is used
  for determinism;
* Lemma 7.2's half-integrality argument, which is a statement about *basic*
  feasible solutions of the cover polyhedron of a graph;
* ``BFS(S)`` in the relaxed-join machinery (Section 7.2), defined as the
  support of "an optimal basic feasible solution ... picked in a consistent
  manner".

Floating-point LP solvers return points polluted by tolerance thresholds,
which would break the half-integrality and support-equality checks, so we
implement the textbook two-phase tableau simplex with Bland's anti-cycling
rule over exact rationals.  Cover LPs are tiny (``m`` variables, ``n``
constraints) and mostly zeros: a pivot touches the pivot row's non-zero
columns only, the reduced-cost row included, and divides only by a pivot
other than 1.  Exact arithmetic keeps every pivot, vertex and basis the
dense textbook method's.

Only the standard form is supported::

    minimize    c . x
    subject to  A x >= b,   x >= 0

which is exactly the fractional edge cover polytope's shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from collections.abc import Iterable, Sequence

from repro.errors import InfeasibleProgramError, UnboundedProgramError

#: Anything convertible to Fraction.
Rational = Fraction | int


@dataclass(frozen=True)
class SimplexResult:
    """Outcome of an exact LP solve.

    Attributes
    ----------
    x:
        Optimal vertex, one Fraction per original variable.
    objective:
        Exact optimal objective value.
    basis:
        Indices (into the extended variable space) of the final basic
        variables; exposed mostly for tests and debugging.
    """

    x: tuple[Fraction, ...]
    objective: Fraction
    basis: tuple[int, ...]

    def support(self) -> tuple[int, ...]:
        """Indices of strictly positive coordinates of the vertex."""
        return tuple(i for i, v in enumerate(self.x) if v > 0)


def solve_min_geq(
    costs: Sequence[Rational],
    rows: Sequence[Sequence[Rational]],
    rhs: Sequence[Rational],
) -> SimplexResult:
    """Solve ``min c.x  s.t.  A x >= b, x >= 0`` exactly.

    Parameters
    ----------
    costs:
        Objective coefficients ``c`` (length = number of variables).
    rows:
        Constraint matrix ``A``, one row per ``>=`` constraint.
    rhs:
        Right-hand sides ``b``.

    Returns
    -------
    SimplexResult
        An optimal basic feasible solution (vertex of the polyhedron).

    Raises
    ------
    InfeasibleProgramError
        If no point satisfies the constraints.
    UnboundedProgramError
        If the objective is unbounded below.
    """
    c = [Fraction(v) for v in costs]
    a = [[Fraction(v) for v in row] for row in rows]
    b = [Fraction(v) for v in rhs]
    n = len(c)
    k = len(a)
    for i, row in enumerate(a):
        if len(row) != n:
            raise ValueError(
                f"constraint row {i} has {len(row)} coefficients, expected {n}"
            )
    if len(b) != k:
        raise ValueError(f"{len(b)} right-hand sides for {k} constraints")

    # Convert A x >= b into equalities  A x - s = b  with surplus s >= 0,
    # then normalize rows so every right-hand side is non-negative (flip
    # the sign of rows with negative b, turning -s into +slack).
    # Extended variable layout: [x (n) | s (k) | artificial (k)].
    width = n + 2 * k
    tableau: list[list[Fraction]] = []
    for i in range(k):
        row = a[i] + [Fraction(0)] * (2 * k) + [b[i]]
        row[n + i] = Fraction(-1)  # surplus
        if b[i] < 0:
            row = [-v for v in row]
        row[n + k + i] = Fraction(1)  # artificial
        tableau.append(row)
    basis = [n + k + i for i in range(k)]

    # ---- Phase 1: minimize the sum of artificials. -------------------------
    phase1_costs = [Fraction(0)] * (n + k) + [Fraction(1)] * k
    _optimize(tableau, basis, phase1_costs, width)
    infeasibility = sum(
        tableau[i][width] for i in range(len(tableau)) if basis[i] >= n + k
    )
    if infeasibility > 0:
        raise InfeasibleProgramError(
            f"phase-1 optimum {infeasibility} > 0: constraints are infeasible"
        )
    _expel_artificials(tableau, basis, n + k)

    # ---- Phase 2: original objective over x and s (artificials cost 0 and
    # are barred from re-entering by the column filter below). -------------
    phase2_costs = c + [Fraction(0)] * (2 * k)
    _optimize(tableau, basis, phase2_costs, width, forbidden_from=n + k)

    x = [Fraction(0)] * n
    for row_index, var in enumerate(basis):
        if var < n:
            x[var] = tableau[row_index][width]
    objective = sum(
        (ci * xi for ci, xi in zip(c, x)), start=Fraction(0)
    )
    return SimplexResult(tuple(x), objective, tuple(basis))


def _optimize(
    tableau: list[list[Fraction]],
    basis: list[int],
    costs: list[Fraction],
    width: int,
    forbidden_from: int | None = None,
) -> None:
    """Run primal simplex with Bland's rule until optimal.

    Mutates ``tableau`` and ``basis`` in place.  ``forbidden_from`` bars all
    columns with index >= it from entering (used to keep artificial
    variables out during phase 2).
    """
    rows = len(tableau)
    reduced = _reduced_costs(tableau, basis, costs)
    limit = width if forbidden_from is None else forbidden_from
    while True:
        entering = -1
        for j in range(limit):
            if reduced[j] < 0:
                entering = j  # Bland: first (lowest-index) negative column
                break
        if entering < 0:
            return
        # Ratio test; Bland's tie-break = lowest basic variable index.
        leaving = -1
        best_ratio: Fraction | None = None
        for i in range(rows):
            coeff = tableau[i][entering]
            if coeff > 0:
                ratio = tableau[i][width] / coeff
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[i] < basis[leaving])
                ):
                    best_ratio = ratio
                    leaving = i
        if leaving < 0:
            raise UnboundedProgramError(
                f"column {entering} has no positive pivot: objective unbounded"
            )
        # The reduced costs are one more row of the pivot.
        _pivot(tableau + [reduced], basis, leaving, entering)


def _reduced_costs(
    tableau: list[list[Fraction]],
    basis: list[int],
    costs: list[Fraction],
) -> list[Fraction]:
    """The objective row: ``c_j - c_B . (column j of B^-1 A)`` for every
    column j, then ``-c_B . B^-1 b``."""
    reduced = list(costs) + [Fraction(0)]
    for i, var in enumerate(basis):
        c_basic = costs[var]
        if c_basic == 0:
            continue
        for j, value in enumerate(tableau[i]):
            if value:
                reduced[j] -= c_basic * value
    return reduced


def _pivot(
    tableau: list[list[Fraction]],
    basis: list[int],
    pivot_row: int,
    pivot_col: int,
) -> None:
    """Gauss-Jordan pivot on (pivot_row, pivot_col), in place, over the
    pivot row's non-zero columns only."""
    row = tableau[pivot_row]
    support = [j for j, value in enumerate(row) if value]
    factor = row[pivot_col]
    if factor != 1:
        for j in support:
            row[j] /= factor
    for i, other in enumerate(tableau):
        coeff = other[pivot_col]
        if coeff and i != pivot_row:
            one = coeff == 1  # the usual 0/1 cover entry: no product
            for j in support:
                other[j] -= row[j] if one else coeff * row[j]
    basis[pivot_row] = pivot_col


def _expel_artificials(
    tableau: list[list[Fraction]],
    basis: list[int],
    first_artificial: int,
) -> None:
    """Pivot zero-level artificial variables out of the basis.

    After a feasible phase 1, any artificial still basic sits at level 0.
    We pivot each one out on any non-artificial column with a non-zero
    coefficient; if none exists the row is a redundant 0 = 0 constraint and
    is dropped.
    """
    i = 0
    while i < len(tableau):
        if basis[i] < first_artificial:
            i += 1
            continue
        pivot_col = next(
            (
                j
                for j in range(first_artificial)
                if tableau[i][j] != 0
            ),
            None,
        )
        if pivot_col is None:
            del tableau[i]
            del basis[i]
            continue
        _pivot(tableau, basis, i, pivot_col)
        i += 1


def feasible_point_check(
    rows: Sequence[Sequence[Rational]],
    rhs: Sequence[Rational],
    point: Iterable[Rational],
) -> bool:
    """Exact check that ``point`` satisfies ``A x >= b`` and ``x >= 0``."""
    x = [Fraction(v) for v in point]
    if any(v < 0 for v in x):
        return False
    for row, bound in zip(rows, rhs):
        total = sum(
            (Fraction(coef) * xi for coef, xi in zip(row, x)),
            start=Fraction(0),
        )
        if total < Fraction(bound):
            return False
    return True
