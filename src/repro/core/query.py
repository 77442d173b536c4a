"""Natural join queries: the binding of relations to a query hypergraph.

A natural join query (Section 2) is just a finite set of relations; its
hypergraph has the union of their attributes as vertices and one edge per
relation.  :class:`JoinQuery` packages that binding with validation and the
bookkeeping every algorithm in this library consumes: deterministic edge
order (``e_1, ..., e_m`` for Algorithm 3), sizes (``N_e``), and the output
attribute order.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence

from repro.errors import QueryError
from repro.hypergraph.covers import FractionalCover
from repro.hypergraph.hypergraph import Hypergraph
from repro.relations.database import Database
from repro.relations.relation import Relation


class JoinQuery:
    """A natural join query ``join_{i in q} R_i``.

    Parameters
    ----------
    relations:
        The relations to join, in the edge order the algorithms will use.
        Relation names become edge ids and must be unique; use
        :meth:`Relation.with_name` to join the same relation twice
        (Section 7.3's multiset hypergraphs).  Each needs an attribute:
        a nullary relation is ``{()}`` or ``{}``, a guard on the answer
        rather than an edge of the hypergraph.
    """

    __slots__ = ("relations", "hypergraph")

    def __init__(self, relations: Sequence[Relation]) -> None:
        rels = list(relations)
        if not rels:
            raise QueryError("a join query needs at least one relation")
        by_id: dict[str, Relation] = {}
        for relation in rels:
            if relation.name in by_id:
                raise QueryError(
                    f"duplicate relation name {relation.name!r}; rename one "
                    "occurrence to join a relation with itself"
                )
            if not relation.attributes:
                raise QueryError(
                    f"relation {relation.name!r} has no attributes: a "
                    "nullary relation is a guard, not a join operand"
                )
            by_id[relation.name] = relation
        # Attribute universe in order of first appearance.
        vertices: list[str] = []
        seen: set[str] = set()
        for relation in rels:
            for attribute in relation.attributes:
                if attribute not in seen:
                    seen.add(attribute)
                    vertices.append(attribute)
        edges = {
            relation.name: relation.attributes for relation in rels
        }
        object.__setattr__(self, "relations", by_id)
        object.__setattr__(self, "hypergraph", Hypergraph(vertices, edges))

    def __setattr__(self, key: str, value: object) -> None:
        raise AttributeError("JoinQuery instances are immutable")

    def __reduce__(self):
        # Rebuild through __init__ (slot-based pickling would hit the
        # immutability guard); lets queries cross process boundaries for
        # sharded parallel execution.
        return (JoinQuery, (list(self.relations.values()),))

    # -- accessors ---------------------------------------------------------

    @property
    def edge_ids(self) -> tuple[str, ...]:
        """Edge (= relation) ids in the fixed order ``e_1, ..., e_m``."""
        return self.hypergraph.edge_ids

    @property
    def attributes(self) -> tuple[str, ...]:
        """All attributes, in order of first appearance (the output order)."""
        return self.hypergraph.vertices

    def relation(self, edge_id: str) -> Relation:
        """The relation bound to an edge id."""
        try:
            return self.relations[edge_id]
        except KeyError:
            raise QueryError(f"unknown relation {edge_id!r}") from None

    def sizes(self) -> dict[str, int]:
        """``{edge id: N_e}``, the size vector of the AGM machinery."""
        return {eid: len(rel) for eid, rel in self.relations.items()}

    def total_input_size(self) -> int:
        """``sum_e N_e`` — the input-reading term of Definition 2.1."""
        return sum(len(rel) for rel in self.relations.values())

    def __len__(self) -> int:
        return len(self.relations)

    def __repr__(self) -> str:
        inner = " * ".join(
            f"{rel.name}({','.join(rel.attributes)})"
            for rel in self.relations.values()
        )
        return f"JoinQuery({inner})"

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_database(
        cls, database: Database, names: Iterable[str]
    ) -> "JoinQuery":
        """Build a query over catalogued relations."""
        return cls([database[name] for name in names])

    @classmethod
    def from_hypergraph(
        cls,
        hypergraph: Hypergraph,
        relations: Mapping[str, Relation],
    ) -> "JoinQuery":
        """Bind relations to an existing hypergraph (order and attribute
        sets must match edge ids exactly)."""
        rels = []
        for eid in hypergraph.edge_ids:
            if eid not in relations:
                raise QueryError(f"no relation supplied for edge {eid!r}")
            relation = relations[eid]
            if relation.attribute_set != hypergraph.edges[eid]:
                raise QueryError(
                    f"relation {eid!r} has attributes "
                    f"{sorted(relation.attribute_set)}, edge declares "
                    f"{sorted(hypergraph.edges[eid])}"
                )
            rels.append(relation.with_name(eid))
        return cls(rels)

    # -- validation helpers -------------------------------------------------------

    def validate_cover(self, cover: FractionalCover) -> None:
        """Raise unless ``cover`` is a valid fractional cover of this query."""
        cover.validate(self.hypergraph)

    def is_lw_instance(self) -> bool:
        """True when the query matches the Loomis-Whitney shape (Section 4)."""
        return self.hypergraph.is_lw_instance()

    def empty_output(self, name: str = "J") -> Relation:
        """An empty relation with the query's output schema."""
        return Relation(name, self.attributes, ())
