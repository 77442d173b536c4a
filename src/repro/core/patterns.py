"""Subgraph pattern matching: the flagship WCOJ application, packaged.

Worst-case optimal joins became the engine of graph pattern matching
(EmptyHeaded, LogicBlox, Kuzu descend from this paper) because a pattern
query is a self-join of the edge table — precisely the cyclic, skew-prone
workload where binary plans lose.  This module provides that workflow
directly:

>>> edges = [(0, 1), (1, 2), (2, 0), (2, 3)]
>>> matches = find_pattern(edges, [("x", "y"), ("y", "z"), ("z", "x")])
>>> sorted(matches.tuples)  # the directed triangle, all rotations
[(0, 1, 2), (1, 2, 0), (2, 0, 1)]

The pattern is a list of directed edges over variable names; each pattern
edge becomes one renamed copy of the data relation (a multiset hyperedge,
Section 7.3), and the join runs through any of the library's worst-case
optimal engines.  The AGM bound specializes to the known pattern bounds:
``|E|^{3/2}`` for triangles, ``|E|^2`` for 4-cycles, and so on.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.core.query import JoinQuery
from repro.errors import QueryError
from repro.hypergraph.agm import best_agm_bound
from repro.relations.relation import Relation, Row

#: A pattern edge: a pair of variable names.
PatternEdge = tuple[str, str]


def pattern_query(
    edges: Iterable[Row] | Relation,
    pattern: Sequence[PatternEdge],
    edge_attributes: tuple[str, str] = ("src", "dst"),
) -> JoinQuery:
    """Build the self-join query matching ``pattern`` against ``edges``.

    Parameters
    ----------
    edges:
        The data graph: an iterable of (source, target) pairs, or an
        existing binary relation.
    pattern:
        Directed pattern edges over variable names, e.g.
        ``[("x","y"), ("y","z"), ("z","x")]`` for the directed triangle.
    edge_attributes:
        Attribute names of a supplied edge relation (ignored for raw
        pairs).
    """
    if isinstance(edges, Relation):
        if len(edges.attributes) != 2:
            raise QueryError(
                f"the data graph must be binary, got {edges.attributes!r}"
            )
        base = edges.reorder(
            edge_attributes if set(edge_attributes) == edges.attribute_set
            else edges.attributes
        )
    else:
        base = Relation("E", ("src", "dst"), edges)
    if not pattern:
        raise QueryError("a pattern needs at least one edge")
    relations = []
    for index, (src_var, dst_var) in enumerate(pattern):
        if src_var == dst_var:
            raise QueryError(
                f"pattern edge {index} is a self-loop ({src_var!r}); "
                "use select_equals on the edge relation instead"
            )
        renamed = base.rename(
            {base.attributes[0]: src_var, base.attributes[1]: dst_var}
        ).with_name(f"E{index}")
        relations.append(renamed)
    return JoinQuery(relations)


def find_pattern(
    edges: Iterable[Row] | Relation,
    pattern: Sequence[PatternEdge],
    algorithm: str = "generic",
    name: str = "Matches",
) -> Relation:
    """All homomorphic matches of ``pattern`` in the data graph.

    One output column per pattern variable (order of first appearance).
    Matches are *homomorphisms*: distinct variables may map to the same
    vertex; filter with ``.select`` for injective (isomorphic) matches.
    """
    # Imported here: repro.api imports repro.core, so a module-level import
    # would be circular.
    from repro.api import execute

    query = pattern_query(edges, pattern)
    return execute(query, algorithm=algorithm).relation(name)


def count_pattern(
    edges: Iterable[Row] | Relation,
    pattern: Sequence[PatternEdge],
    algorithm: str = "generic",
) -> int:
    """Number of homomorphic matches."""
    return len(find_pattern(edges, pattern, algorithm=algorithm))


def pattern_bound(
    edges: Iterable[Row] | Relation,
    pattern: Sequence[PatternEdge],
) -> float:
    """The AGM bound on the number of matches (e.g. ``|E|^{3/2}`` for the
    triangle pattern)."""
    query = pattern_query(edges, pattern)
    _cover, bound = best_agm_bound(query.hypergraph, query.sizes())
    return bound


#: Common named patterns (directed).
TRIANGLE: tuple[PatternEdge, ...] = (("x", "y"), ("y", "z"), ("z", "x"))
SQUARE: tuple[PatternEdge, ...] = (
    ("x", "y"),
    ("y", "z"),
    ("z", "w"),
    ("w", "x"),
)
DIAMOND: tuple[PatternEdge, ...] = (
    ("x", "y"),
    ("x", "z"),
    ("y", "w"),
    ("z", "w"),
)
TWO_PATH: tuple[PatternEdge, ...] = (("x", "y"), ("y", "z"))
