"""Cardinality estimation from AGM bounds: the paper's motivating use.

The introduction frames AGM's inequality as "previously unknown,
nontrivial methods to estimate the cardinality of a query result — a
fundamental problem to support efficient query processing".  This module
packages that use: given a query (or any sub-query of it), produce
worst-case output estimates that are *guaranteed upper bounds*, unlike the
independence-assumption estimators the paper's related work criticizes
[18].

Three estimators, in increasing tightness:

* :func:`product_bound` — the trivial ``prod_e N_e``;
* :func:`integral_cover_bound` — the best join-only "cover" bound
  (``N^2`` for the triangle);
* :func:`agm_estimate` — the fractional cover bound (``N^{3/2}``), with
  the certificate cover attached.

:func:`subquery_estimates` applies the AGM estimator to every connected
sub-query, the shape a Selinger-style optimizer would consume, and
:func:`estimate_report` renders the comparison.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Collection
from dataclasses import dataclass

from repro.core.query import JoinQuery
from repro.hypergraph.agm import (
    agm_log_bound,
    minimum_integral_cover,
    optimal_fractional_cover,
)
from repro.hypergraph.covers import FractionalCover


@dataclass(frozen=True)
class Estimate:
    """One output-size estimate with its certificate."""

    method: str
    log_bound: float
    cover: FractionalCover | None = None

    @property
    def bound(self) -> float:
        if self.log_bound == -math.inf:
            return 0.0
        return math.exp(self.log_bound)

    def __str__(self) -> str:
        return f"{self.method}: <= {self.bound:.4g}"


def product_bound(query: JoinQuery) -> Estimate:
    """``prod_e N_e`` — what a cross product could produce."""
    log_total = 0.0
    for relation in query.relations.values():
        if len(relation) == 0:
            return Estimate("product", -math.inf)
        log_total += math.log(len(relation))
    return Estimate("product", log_total)


def integral_cover_bound(query: JoinQuery) -> Estimate:
    """The best 0/1 cover bound (the classical join-based estimate)."""
    cover = minimum_integral_cover(query.hypergraph, query.sizes())
    log_bound = agm_log_bound(query.hypergraph, query.sizes(), cover)
    return Estimate("integral cover", log_bound, cover)


def agm_estimate(query: JoinQuery) -> Estimate:
    """The AGM fractional-cover bound — tight in the worst case."""
    cover = optimal_fractional_cover(query.hypergraph, query.sizes())
    log_bound = agm_log_bound(query.hypergraph, query.sizes(), cover)
    return Estimate("AGM fractional cover", log_bound, cover)


def connected_estimate(
    query: JoinQuery, subset: Collection[str], min_relations: int = 2
) -> Estimate | None:
    """The AGM estimate of the sub-query over the edge ids ``subset``,
    or ``None`` when it has fewer than ``min_relations`` relations or
    is not attribute-connected (a cross product, whose bound factorizes
    anyway).  One exact cover LP, posed over the relations in the
    query's own order whatever order ``subset`` iterates in."""
    if len(subset) < min_relations:
        return None
    sub_query = JoinQuery(
        [query.relation(eid) for eid in query.edge_ids if eid in subset]
    )
    components = sub_query.hypergraph.connected_components()
    if len([c for c in components if c.edges]) != 1:
        return None
    return agm_estimate(sub_query)


def subquery_estimates(
    query: JoinQuery, min_relations: int = 2
) -> dict[frozenset[str], Estimate]:
    """AGM estimates for every *attribute-connected* relation subset
    (see :func:`connected_estimate`): one LP per subset, all up front.
    """
    out: dict[frozenset[str], Estimate] = {}
    edge_ids = query.edge_ids
    for r in range(min_relations, len(edge_ids) + 1):
        for subset in itertools.combinations(edge_ids, r):
            estimate = connected_estimate(query, subset, min_relations)
            if estimate is not None:
                out[frozenset(subset)] = estimate
    return out


def estimate_report(query: JoinQuery) -> str:
    """A human-readable comparison of the three whole-query estimators."""
    estimates = [
        product_bound(query),
        integral_cover_bound(query),
        agm_estimate(query),
    ]
    lines = [f"query: {query!r}"]
    lines.extend(f"  {estimate}" for estimate in estimates)
    ratio = estimates[1].log_bound - estimates[2].log_bound
    if math.isfinite(ratio) and ratio > 0:
        lines.append(
            f"  (fractional beats integral by {math.exp(ratio):.4g}x)"
        )
    return "\n".join(lines)
