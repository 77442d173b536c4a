"""Immutable relations and the relational-algebra operations of the paper.

A :class:`Relation` is a named set of tuples over an ordered schema of
distinct attribute names (Section 2 of the paper).  The class implements
exactly the operators the paper's algorithms are built from:

* projection ``pi_S(R)``  — :meth:`Relation.project`
* the ``t_S``-section ``R[t_S] = pi_{A \\ S}(R semijoin {t_S})``
  — :meth:`Relation.section`
* semijoin ``R x S`` — :meth:`Relation.semijoin`
* natural join ``R join S`` (hash based) — :meth:`Relation.natural_join`
* cross product, rename, selection, attribute reordering.

Relations are value-immutable: every operation returns a new relation.
Tuples are plain Python tuples whose positions align with ``attributes``.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Mapping
from itertools import chain
from typing import Any

from repro.errors import SchemaError

#: A value stored in a relation.  Any hashable object works; the paper's
#: instances use integers.
Value = Any

#: A tuple of a relation, aligned with the relation's attribute order.
Row = tuple[Value, ...]


class Relation:
    """A named, immutable set of tuples over an ordered attribute schema.

    Parameters
    ----------
    name:
        Human-readable name (``"R"``, ``"S"``...).  Names are cosmetic: they
        never affect algebraic operations.
    attributes:
        Ordered, distinct attribute names.
    tuples:
        Iterable of tuples, each of arity ``len(attributes)``.  Duplicates
        collapse (set semantics, as in the paper).
    """

    __slots__ = ("name", "attributes", "tuples", "_positions", "_types")

    def __init__(
        self,
        name: str,
        attributes: Iterable[str],
        tuples: Iterable[Row] = (),
    ) -> None:
        attrs = tuple(attributes)
        if len(set(attrs)) != len(attrs):
            raise SchemaError(f"duplicate attribute names in schema {attrs!r}")
        arity = len(attrs)
        rows = frozenset(tuple(row) for row in tuples)
        for row in rows:
            if len(row) != arity:
                raise SchemaError(
                    f"tuple {row!r} has arity {len(row)}, schema {attrs!r} "
                    f"expects {arity}"
                )
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "attributes", attrs)
        object.__setattr__(self, "tuples", rows)
        object.__setattr__(
            self, "_positions", {a: i for i, a in enumerate(attrs)}
        )

    # -- basic protocol ----------------------------------------------------

    def __setattr__(self, key: str, value: Any) -> None:
        raise AttributeError("Relation instances are immutable")

    def __reduce__(self):
        # Rebuild through __init__: the default slot-based pickling would
        # call __setattr__, which immutability forbids.  This also makes
        # relations shippable to worker processes for sharded execution.
        return (Relation, (self.name, self.attributes, self.tuples))

    def _value_types(self) -> frozenset[type]:
        """The exact types of the values held, scanned once."""
        if not hasattr(self, "_types"):
            types = frozenset(map(type, chain.from_iterable(self.tuples)))
            object.__setattr__(self, "_types", types)
        return self._types

    def __len__(self) -> int:
        return len(self.tuples)

    def __iter__(self) -> Iterator[Row]:
        return iter(self.tuples)

    def __contains__(self, row: Row) -> bool:
        return tuple(row) in self.tuples

    def __eq__(self, other: object) -> bool:
        """Strict equality: same attribute order and same tuple set."""
        if not isinstance(other, Relation):
            return NotImplemented
        return self.attributes == other.attributes and self.tuples == other.tuples

    def __hash__(self) -> int:
        return hash((self.attributes, self.tuples))

    def __repr__(self) -> str:
        return (
            f"Relation({self.name!r}, attributes={self.attributes!r}, "
            f"|tuples|={len(self.tuples)})"
        )

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_assignments(
        cls,
        name: str,
        attributes: Iterable[str],
        assignments: Iterable[Mapping[str, Value]],
    ) -> "Relation":
        """Build a relation from attribute->value mappings."""
        attrs = tuple(attributes)
        rows = [tuple(mapping[a] for a in attrs) for mapping in assignments]
        return cls(name, attrs, rows)

    def with_name(self, name: str) -> "Relation":
        """Return the same relation under a different name."""
        return Relation(name, self.attributes, self.tuples)

    # -- schema helpers ----------------------------------------------------

    @property
    def attribute_set(self) -> frozenset[str]:
        """The schema as an (unordered) set of attribute names."""
        return frozenset(self.attributes)

    def position(self, attribute: str) -> int:
        """Index of ``attribute`` within the schema order."""
        try:
            return self._positions[attribute]
        except KeyError:
            raise SchemaError(
                f"attribute {attribute!r} not in schema {self.attributes!r}"
            ) from None

    def positions(self, attributes: Iterable[str]) -> tuple[int, ...]:
        """Indices of several attributes, in the order given."""
        return tuple(self.position(a) for a in attributes)

    def assignment(self, row: Row) -> dict[str, Value]:
        """View a tuple as an attribute->value mapping."""
        return dict(zip(self.attributes, row))

    def iter_assignments(self) -> Iterator[dict[str, Value]]:
        """Iterate over tuples as attribute->value mappings."""
        for row in self.tuples:
            yield dict(zip(self.attributes, row))

    # -- relational algebra ------------------------------------------------

    def project(self, attributes: Iterable[str]) -> "Relation":
        """Projection ``pi_S(R)`` onto ``attributes`` (kept in given order)."""
        attrs = tuple(attributes)
        idx = self.positions(attrs)
        rows = {tuple(row[i] for i in idx) for row in self.tuples}
        return Relation(f"pi({self.name})", attrs, rows)

    def section(self, binding: Mapping[str, Value]) -> "Relation":
        """The ``t_S``-section ``R[t_S]`` (Section 2 of the paper).

        ``binding`` fixes values for a subset ``S`` of the schema; the result
        is a relation on the remaining attributes holding every completion:
        ``R[t_S] = { t_{A\\S} | (t_S, t_{A\\S}) in R }``.  With an empty
        binding this returns ``R`` itself (``R[t_emptyset] = R``).
        """
        for a in binding:
            self.position(a)  # raises SchemaError on unknown attributes
        keep = tuple(a for a in self.attributes if a not in binding)
        keep_idx = self.positions(keep)
        fixed = [(self.position(a), v) for a, v in binding.items()]
        rows = {
            tuple(row[i] for i in keep_idx)
            for row in self.tuples
            if all(row[i] == v for i, v in fixed)
        }
        return Relation(f"{self.name}[...]", keep, rows)

    def select(self, predicate: Callable[[dict[str, Value]], bool]) -> "Relation":
        """Keep tuples whose assignment satisfies ``predicate``."""
        rows = [
            row
            for row in self.tuples
            if predicate(dict(zip(self.attributes, row)))
        ]
        return Relation(f"sigma({self.name})", self.attributes, rows)

    def select_equals(self, attribute: str, value: Value) -> "Relation":
        """Keep tuples with ``attribute == value`` (schema unchanged)."""
        i = self.position(attribute)
        rows = [row for row in self.tuples if row[i] == value]
        return Relation(f"sigma({self.name})", self.attributes, rows)

    def rename(self, mapping: Mapping[str, str]) -> "Relation":
        """Rename attributes; names absent from ``mapping`` are unchanged."""
        for a in mapping:
            self.position(a)
        attrs = tuple(mapping.get(a, a) for a in self.attributes)
        return Relation(self.name, attrs, self.tuples)

    def reorder(self, attributes: Iterable[str]) -> "Relation":
        """Reorder the schema to ``attributes`` (must be a permutation)."""
        attrs = tuple(attributes)
        if set(attrs) != set(self.attributes) or len(attrs) != len(self.attributes):
            raise SchemaError(
                f"{attrs!r} is not a permutation of {self.attributes!r}"
            )
        idx = self.positions(attrs)
        rows = {tuple(row[i] for i in idx) for row in self.tuples}
        return Relation(self.name, attrs, rows)

    def semijoin(self, other: "Relation") -> "Relation":
        """Semijoin ``R x S``: tuples of ``R`` matching some tuple of ``S``.

        ``R x S = { t in R : exists u in S with t and u equal on the shared
        attributes }`` — the paper's Section 2 definition.  With no shared
        attributes the result is ``R`` when ``S`` is non-empty, else empty.
        """
        shared = [a for a in self.attributes if a in other._positions]
        if not shared:
            rows = self.tuples if other.tuples else frozenset()
            return Relation(self.name, self.attributes, rows)
        my_idx = self.positions(shared)
        their_idx = other.positions(shared)
        keys = {tuple(row[i] for i in their_idx) for row in other.tuples}
        rows = [
            row
            for row in self.tuples
            if tuple(row[i] for i in my_idx) in keys
        ]
        return Relation(self.name, self.attributes, rows)

    def natural_join(self, other: "Relation") -> "Relation":
        """Natural (hash) join.  Output schema: self's attributes, then
        other's attributes that are not shared, in their original orders.

        Runs in ``O(|R| + |S| + |R join S|)`` expected time, the model
        assumed by the paper (footnote 3).
        """
        shared = [a for a in self.attributes if a in other._positions]
        out_attrs = self.attributes + tuple(
            a for a in other.attributes if a not in self._positions
        )
        extra_idx = other.positions(
            [a for a in other.attributes if a not in self._positions]
        )
        if not shared:
            rows = [
                left + tuple(right[i] for i in extra_idx)
                for left in self.tuples
                for right in other.tuples
            ]
            return Relation(f"({self.name}*{other.name})", out_attrs, rows)
        my_idx = self.positions(shared)
        their_idx = other.positions(shared)
        # Build the hash table on the smaller side.
        buckets: dict[Row, list[Row]] = {}
        for right in other.tuples:
            buckets.setdefault(
                tuple(right[i] for i in their_idx), []
            ).append(right)
        rows = []
        for left in self.tuples:
            key = tuple(left[i] for i in my_idx)
            for right in buckets.get(key, ()):
                rows.append(left + tuple(right[i] for i in extra_idx))
        return Relation(f"({self.name}*{other.name})", out_attrs, rows)

    def cross(self, other: "Relation") -> "Relation":
        """Cross product (the two schemas must be disjoint)."""
        overlap = self.attribute_set & other.attribute_set
        if overlap:
            raise SchemaError(
                f"cross product requires disjoint schemas; shared: {overlap}"
            )
        return self.natural_join(other)

    # -- comparisons used by tests ------------------------------------------

    def equivalent(self, other: "Relation") -> bool:
        """Equality up to attribute order (and ignoring names)."""
        if self.attribute_set != other.attribute_set:
            return False
        return self.tuples == other.reorder(self.attributes).tuples

    def is_empty(self) -> bool:
        """True when the relation holds no tuples."""
        return not self.tuples


def union_all(name: str, relations: Iterable[Relation]) -> Relation:
    """Union of relations over the same attribute set (first order wins)."""
    rels = list(relations)
    if not rels:
        raise SchemaError("union_all of zero relations is undefined")
    first = rels[0]
    rows: set[Row] = set(first.tuples)
    for rel in rels[1:]:
        if rel.attribute_set != first.attribute_set:
            raise SchemaError(
                f"union over different schemas: {rel.attributes!r} vs "
                f"{first.attributes!r}"
            )
        rows.update(rel.reorder(first.attributes).tuples)
    return Relation(name, first.attributes, rows)
