"""Seeded random instance generators for tests and benchmarks.

Everything is driven by :class:`random.Random` with an explicit seed, so
tests and benchmark tables are reproducible.  NumPy is deliberately not
required — the library itself stays dependency-free.
"""

from __future__ import annotations

import random
from collections.abc import Sequence

from repro.core.query import JoinQuery
from repro.errors import QueryError
from repro.hypergraph.hypergraph import Hypergraph
from repro.relations.relation import Relation


def random_relation(
    name: str,
    attributes: Sequence[str],
    size: int,
    domain: int,
    rng: random.Random,
) -> Relation:
    """A uniform random relation: ``size`` draws from ``[0, domain)^k``.

    Duplicates collapse, so the realized size can be slightly below
    ``size`` when ``domain**k`` is small.
    """
    attrs = tuple(attributes)
    rows = {
        tuple(rng.randrange(domain) for _ in attrs) for _ in range(size)
    }
    return Relation(name, attrs, rows)


def zipf_relation(
    name: str,
    attributes: Sequence[str],
    size: int,
    domain: int,
    rng: random.Random,
    exponent: float = 1.2,
) -> Relation:
    """A skewed relation: values drawn from a Zipf-like distribution.

    Low values are heavily over-represented — the fan-out skew that
    motivates the paper's heavy/light split (and [36]'s production trick).
    """
    weights = [1.0 / (v + 1) ** exponent for v in range(domain)]
    values = list(range(domain))
    rows = {
        tuple(rng.choices(values, weights=weights)[0] for _ in attributes)
        for _ in range(size)
    }
    return Relation(name, tuple(attributes), rows)


def random_instance(
    hypergraph: Hypergraph,
    size: int,
    domain: int,
    seed: int = 0,
    skew: float | None = None,
) -> JoinQuery:
    """Bind every edge of ``hypergraph`` to a random relation."""
    rng = random.Random(seed)
    relations = {}
    for eid, members in hypergraph.edges.items():
        attrs = tuple(a for a in hypergraph.vertices if a in members)
        if skew is None:
            relations[eid] = random_relation(eid, attrs, size, domain, rng)
        else:
            relations[eid] = zipf_relation(
                eid, attrs, size, domain, rng, exponent=skew
            )
    return JoinQuery.from_hypergraph(hypergraph, relations)


def random_hypergraph(
    n_vertices: int,
    n_edges: int,
    max_arity: int,
    seed: int = 0,
) -> Hypergraph:
    """A random connected-ish hypergraph in which every vertex is covered.

    Each edge picks an arity in ``[1, max_arity]`` and a random vertex
    subset; uncovered vertices are then patched into random edges so a
    fractional cover always exists.
    """
    if n_vertices < 1 or n_edges < 1:
        raise QueryError("need at least one vertex and one edge")
    rng = random.Random(seed)
    vertices = tuple(f"A{i}" for i in range(1, n_vertices + 1))
    edges: dict[str, set[str]] = {}
    for j in range(1, n_edges + 1):
        arity = rng.randint(1, min(max_arity, n_vertices))
        edges[f"R{j}"] = set(rng.sample(vertices, arity))
    covered = set().union(*edges.values())
    for vertex in vertices:
        if vertex in covered:
            continue
        # Patch into an edge with spare arity, else add a singleton edge.
        candidates = [
            eid for eid, e in sorted(edges.items()) if len(e) < max_arity
        ]
        if candidates:
            edges[rng.choice(candidates)].add(vertex)
        else:
            edges[f"R{len(edges) + 1}"] = {vertex}
    return Hypergraph(vertices, {eid: tuple(sorted(e)) for eid, e in edges.items()})


def dense_triangle(
    nodes: int,
    degree: int = 4,
    seed: int = 0,
) -> JoinQuery:
    """A triangle instance over a *dense* consecutive-integer domain.

    Every vertex id in ``[0, nodes)`` appears in every column of every
    edge relation: each node gets one deterministic "ring" out-edge
    (guaranteeing full coverage of both columns) plus ``degree - 1``
    random extras.  First index levels are therefore exact integer
    intervals — density 1.0, the regime where the compact backend's
    radix seeks replace hashing and galloping outright.  This is the
    dense-domain workload of the compact benchmark
    (``benchmarks/bench_compact.py``).
    """
    if nodes < 2 or degree < 1:
        raise QueryError("dense_triangle needs nodes >= 2 and degree >= 1")
    rng = random.Random(seed)

    def edge_rows(shift: int) -> set[tuple[int, int]]:
        rows = set()
        for u in range(nodes):
            rows.add((u, (u + shift) % nodes))
            rows.add(((u + shift) % nodes, u))
            for _ in range(degree - 1):
                rows.add((u, rng.randrange(nodes)))
        return rows

    return JoinQuery(
        [
            Relation("R", ("A", "B"), edge_rows(1)),
            Relation("S", ("B", "C"), edge_rows(2)),
            Relation("T", ("A", "C"), edge_rows(3)),
        ]
    )


def zipf_trap_triangle(
    nodes: int,
    size: int,
    seed: int = 0,
    match_fraction: float = 0.05,
    decoy_domain: int = 8,
    exponent: float = 1.1,
    c_domain: int | None = None,
) -> JoinQuery:
    """A triangle where the min-distinct heuristic starts at the wrong
    attribute — the workload the statistics benchmark is built on.

    ``B`` is the *decoy*: it has only ``decoy_domain`` distinct values
    (so ascending-distinct-count puts it first) drawn Zipf-skewed (so a
    few hub values dominate), but every ``B`` value of ``R`` appears in
    ``S`` — binding ``B`` first prunes nothing and fans out through the
    hubs.  ``A`` is the *payoff*: it has more distinct values, but
    ``T`` only contains the first ``match_fraction`` of them, so a plan
    that binds ``A`` first kills ~``1 - match_fraction`` of the search
    at depth one.  Sampled conditional selectivities see exactly this
    (``P(match in T | tuple of R) ~= match_fraction``); distinct counts
    cannot.

    ``c_domain`` (default: ``nodes``) shrinks ``C``'s domain
    independently.  With ``c_domain`` between ``decoy_domain`` and the
    matched ``A`` count, ``C`` becomes a *second* decoy: the
    min-distinct heuristic then defers the payoff ``A`` to the very
    last level (order ``B, C, A``), where the pruning it would have
    done at depth one is paid as dead-end enumeration at depth three —
    the amplified trap the exact-selectivity descent must step around
    (``tests/stats/test_plan_stats.py`` checks that it does).
    """
    rng = random.Random(seed)
    weights = [1.0 / (v + 1) ** exponent for v in range(decoy_domain)]
    decoys = list(range(decoy_domain))
    matched = max(1, int(nodes * match_fraction))
    c_values = nodes if c_domain is None else c_domain
    r_rows = {
        (rng.randrange(nodes), rng.choices(decoys, weights=weights)[0])
        for _ in range(size)
    }
    s_rows = {
        (rng.choices(decoys, weights=weights)[0], rng.randrange(c_values))
        for _ in range(size)
    }
    t_rows = {
        (rng.randrange(matched), rng.randrange(c_values)) for _ in range(size)
    }
    return JoinQuery(
        [
            Relation("R", ("A", "B"), r_rows),
            Relation("S", ("B", "C"), s_rows),
            Relation("T", ("A", "C"), t_rows),
        ]
    )


def hub_triangle(
    light_domain: int = 300,
    b_domain: int = 500,
    c_domain: int = 12000,
    r_size: int = 3000,
    s_size: int = 8000,
    t_size: int = 24000,
    r_hub: float = 0.8,
    t_hub: float = 0.92,
    seed: int = 0,
) -> JoinQuery:
    """A triangle with one extreme hub value — the hot-shard splitting
    workload (Zipf skew taken to its limit).

    Value ``0`` of attribute ``A`` carries ``r_hub`` of ``R``'s and
    ``t_hub`` of ``T``'s probability mass; the remaining mass spreads
    over ``light_domain - 1`` light values.  First-attribute sharding
    can give the hub its own shard (the offline heavy-hitter split) but
    can never subdivide it — a single value is atomic under value
    partitioning — so the hub shard's deep work (``R[0] ⋈ S ⋈ T[0]``,
    fanning through ``b_domain × c_domain``) dominates the critical
    path however many shards are planned.  Splitting the hub shard on
    the *next* attribute of the order is the only remedy, and because
    ``S`` and ``T`` contain that attribute, the split also halves their
    per-shard index builds.  That is precisely what predictive
    pre-splitting and within-run stealing do
    (:func:`~repro.engine.parallel.split_entry`) — this generator exists
    to measure them.
    """
    rng = random.Random(seed)

    def a_value(hub_mass: float) -> int:
        if rng.random() < hub_mass:
            return 0
        return rng.randrange(1, light_domain)

    r_rows = {
        (a_value(r_hub), rng.randrange(b_domain)) for _ in range(r_size)
    }
    s_rows = {
        (rng.randrange(b_domain), rng.randrange(c_domain))
        for _ in range(s_size)
    }
    t_rows = {
        (a_value(t_hub), rng.randrange(c_domain)) for _ in range(t_size)
    }
    return JoinQuery(
        [
            Relation("R", ("A", "B"), r_rows),
            Relation("S", ("B", "C"), s_rows),
            Relation("T", ("A", "C"), t_rows),
        ]
    )


def tripartite_triangle_instance(
    nodes: int,
    edges_per_pair: int,
    seed: int = 0,
    hub: bool = False,
) -> JoinQuery:
    """Triangle listing on a random tripartite graph (benchmark E9).

    Parts ``A``, ``B``, ``C`` each have ``nodes`` vertices; every pair of
    parts gets ``edges_per_pair`` random edges.  With ``hub=True``, one
    vertex per part is additionally connected to *everything* in the next
    part — the skew that cripples binary plans.
    """
    rng = random.Random(seed)

    def edge_set(extra_hub: bool) -> set[tuple[int, int]]:
        out = set()
        while len(out) < min(edges_per_pair, nodes * nodes):
            out.add((rng.randrange(nodes), rng.randrange(nodes)))
        if extra_hub:
            out |= {(0, v) for v in range(nodes)}
            out |= {(v, 0) for v in range(nodes)}
        return out

    return JoinQuery(
        [
            Relation("R", ("A", "B"), edge_set(hub)),
            Relation("S", ("B", "C"), edge_set(hub)),
            Relation("T", ("A", "C"), edge_set(hub)),
        ]
    )
