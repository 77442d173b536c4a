"""Full conjunctive queries (Section 7.3): constants, repeated variables,
repeated subgoals — reduced to a natural join.

A full conjunctive query ``R(x_0) <- R_{i_1}(u_1) and ... and R_{i_m}(u_m)``
may repeat a relation across subgoals, repeat a variable inside a subgoal,
and use constants.  The paper's *reduction* builds, per subgoal, a new
relation in one scan: keep tuples satisfying the constants and the repeated
variables, project to the distinct variables.  The reduced query is a plain
natural join over a **multiset** hypergraph (two subgoals over the same
variables stay distinct edges), which Algorithm 2 processes worst-case
optimally — giving worst-case optimal evaluation for all full conjunctive
queries.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence
from typing import Any

from repro.core.nprr import NPRRJoin
from repro.core.query import JoinQuery
from repro.errors import QueryError
from repro.relations.database import Database
from repro.relations.relation import Relation


@dataclass(frozen=True)
class Var:
    """A query variable (identified by name)."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Const:
    """A constant term (a selection)."""

    value: Any

    def __str__(self) -> str:
        return repr(self.value)


Term = Var | Const


@dataclass(frozen=True)
class Atom:
    """One subgoal ``R(t_1, ..., t_k)``."""

    relation: str
    terms: tuple[Term, ...]

    def variables(self) -> list[str]:
        """Distinct variable names, in order of first occurrence."""
        seen: list[str] = []
        for term in self.terms:
            if isinstance(term, Var) and term.name not in seen:
                seen.append(term.name)
        return seen

    def __str__(self) -> str:
        inner = ", ".join(str(t) for t in self.terms)
        return f"{self.relation}({inner})"


class ConjunctiveQuery:
    """A *full* conjunctive query: every body variable appears in the head.

    Parameters
    ----------
    head:
        Head variable names (a permutation of the body's variables —
        fullness is validated).
    body:
        The subgoals.
    """

    def __init__(self, head: Sequence[str], body: Sequence[Atom]) -> None:
        self.head = tuple(head)
        self.body = tuple(body)
        if not self.body:
            raise QueryError("a conjunctive query needs at least one subgoal")
        if len(set(self.head)) != len(self.head):
            raise QueryError(f"duplicate head variables in {self.head!r}")
        body_vars: set[str] = set()
        for atom in self.body:
            body_vars.update(atom.variables())
        head_vars = set(self.head)
        if head_vars != body_vars:
            missing = body_vars - head_vars
            extra = head_vars - body_vars
            raise QueryError(
                "query is not full: "
                + (f"body variables {sorted(missing)} missing from head; " if missing else "")
                + (f"head variables {sorted(extra)} not in body" if extra else "")
            )

    def __str__(self) -> str:
        body = " AND ".join(str(a) for a in self.body)
        return f"Q({', '.join(self.head)}) <- {body}"

    # -- the reduction ---------------------------------------------------------

    def reduce(self, database: Database) -> JoinQuery:
        """The paper's reduced query: one scan per subgoal.

        Each subgoal with a variable becomes a fresh relation (named
        ``{rel}@{index}`` so repeated subgoals stay distinct edges)
        holding the tuples that satisfy its constants and repeated
        variables, projected onto its distinct variables and renamed to
        variable names.  An all-constant subgoal binds no variable: it
        is a guard :meth:`evaluate` checks, not an edge.
        """
        derived: list[Relation] = []
        for index, atom in enumerate(self.body):
            source = self._source(atom, database)
            variables = atom.variables()
            if not variables:
                continue
            # First column position of each distinct variable.
            first_pos: dict[str, int] = {}
            for pos, term in enumerate(atom.terms):
                if isinstance(term, Var) and term.name not in first_pos:
                    first_pos[term.name] = pos
            rows = []
            for row in source.tuples:
                if self._matches(atom, row):
                    rows.append(
                        tuple(row[first_pos[v]] for v in variables)
                    )
            derived.append(
                Relation(f"{atom.relation}@{index}", tuple(variables), rows)
            )
        return JoinQuery(derived)

    @staticmethod
    def _source(atom: Atom, database: Database) -> Relation:
        """The relation ``atom`` reads; its arity must be the atom's."""
        source = database[atom.relation]
        if len(atom.terms) != len(source.attributes):
            raise QueryError(
                f"subgoal {atom} has {len(atom.terms)} terms but "
                f"relation {atom.relation!r} has arity "
                f"{len(source.attributes)}"
            )
        return source

    @staticmethod
    def _matches(atom: Atom, row: tuple) -> bool:
        bound: dict[str, Any] = {}
        for term, value in zip(atom.terms, row):
            if isinstance(term, Const):
                if value != term.value:
                    return False
            else:
                existing = bound.get(term.name, _UNBOUND)
                if existing is _UNBOUND:
                    bound[term.name] = value
                elif existing != value:
                    return False
        return True

    # -- evaluation --------------------------------------------------------------

    def evaluate(self, database: Database, name: str = "Q") -> Relation:
        """Check the guards, reduce, run Algorithm 2, and order columns
        by the head.  A guard (an all-constant subgoal) no tuple matches
        empties the answer; guards alone answer ``{()}`` or ``{}``."""
        for atom in self.body:
            source = self._source(atom, database)
            if not atom.variables() and not any(
                self._matches(atom, row) for row in source.tuples
            ):
                return Relation(name, self.head, ())
        if not self.head:  # full: no head variable, no body variable
            return Relation(name, (), [()])
        reduced = self.reduce(database)
        result = NPRRJoin(reduced).execute(name)
        return result.reorder(self.head).with_name(name)


class _Unbound:
    __slots__ = ()


_UNBOUND = _Unbound()
