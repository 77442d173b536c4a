"""The four workloads of the end-to-end benchmark.

Each workload is one seeded instance whose *request* is the full natural
join of all its relations, all attributes out.  Sizes are fixed by the
time contract in ``BENCHMARK.json`` (one run measures ``run_seconds`` and
must leave room for 92 runs in 57 minutes), so they sit below the sizes
ISSUE 12 sketched; the README records the scaling.  ``smoke`` sizes exist
only for ``test_e2e_smoke.py``.
"""

from __future__ import annotations

import random

from repro.core.query import JoinQuery
from repro.relations.relation import Relation
from repro.workloads import generators, instances, queries


def regular_chain(edges: int, nodes: int, degree: int, seed: int) -> JoinQuery:
    """A path query whose every relation is the union of ``degree``
    seeded random perfect matchings on ``[0, nodes)``.

    ``random_instance`` on a 250-row chain moves the output size by ~12%
    and the run time by more from seed to seed (degree variance), which is
    wider than any regression bound.  Matchings keep every fan-out at
    ``degree`` (up to the rare duplicate edge), so seeds change *which*
    values join, not how much work the join is.
    """
    rng = random.Random(seed)
    hypergraph = queries.path_query(edges)
    relations = {}
    for eid, members in hypergraph.edges.items():
        attributes = tuple(a for a in hypergraph.vertices if a in members)
        rows: set[tuple[int, int]] = set()
        for _ in range(degree):
            targets = list(range(nodes))
            rng.shuffle(targets)
            rows.update(enumerate(targets))
        relations[eid] = Relation(eid, attributes, rows)
    return JoinQuery.from_hypergraph(hypergraph, relations)


def lifted_triangle(size: int, domains: dict[str, int], seed: int) -> JoinQuery:
    """``R(A,B,D) * S(B,C,D) * T(A,C,D)`` with ``size`` uniform draws per
    relation and a different domain per attribute.

    With one shared domain (``random_instance``) the four attributes are
    statistically alike, the planner's sampled order differs from seed to
    seed, and the sharded and fleet timings split into two groups by
    whether ``D`` came first (137-161 ms vs 175-206 ms).  Distinct domains
    give every seed the same order — smallest domain first — so seeds
    vary the data, not the plan.
    """
    rng = random.Random(seed)
    hypergraph = queries.beyond_lw_query()
    relations = {}
    for eid, members in hypergraph.edges.items():
        attributes = tuple(a for a in hypergraph.vertices if a in members)
        rows = {
            tuple(rng.randrange(domains[a]) for a in attributes)
            for _ in range(size)
        }
        relations[eid] = Relation(eid, attributes, rows)
    return JoinQuery.from_hypergraph(hypergraph, relations)


def _lifted_triangle(seed: int, smoke: bool) -> JoinQuery:
    if smoke:
        return lifted_triangle(400, {"A": 8, "B": 10, "C": 12, "D": 4}, seed)
    return lifted_triangle(8000, {"A": 48, "B": 64, "C": 80, "D": 12}, seed)


def _triangle_hub(seed: int, smoke: bool) -> JoinQuery:
    if smoke:
        return generators.hub_triangle(
            light_domain=30, b_domain=50, c_domain=600,
            r_size=300, s_size=600, t_size=1500, seed=seed,
        )
    return generators.hub_triangle(seed=seed)


def _graph_chain(seed: int, smoke: bool) -> JoinQuery:
    return regular_chain(4, 30 if smoke else 125, 2, seed)


def _triangle_hard(seed: int, smoke: bool) -> JoinQuery:
    # The paper's Example 2.2 is one fixed instance per N: seed-free.
    return instances.triangle_hard_instance(100 if smoke else 2000)


#: name -> ``(seed, smoke) -> JoinQuery``; the same seed gives the same
#: inputs.  Why each is here, and which layers it loads, is recorded in
#: ``BENCHMARK.json`` and the README's workload table.
WORKLOADS = {
    "lifted_triangle": _lifted_triangle,
    "triangle_hub": _triangle_hub,
    "graph_chain": _graph_chain,
    "triangle_hard": _triangle_hard,
}
