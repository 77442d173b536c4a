"""Search-tree ("trie") indexes with the paper's (ST1)-(ST3) properties.

Section 5.3.2 of the paper requires, for every relation ``R_e``, a search
tree whose levels follow the relation's attributes *in the total order*
computed from the query-plan tree, supporting:

* **(ST1)** deciding ``t_{a_1..a_i} in pi_{a_1..a_i}(R_e)`` in ``O(i)`` time
  — :meth:`TrieIndex.walk` / :meth:`TrieIndex.contains_prefix`;
* **(ST2)** querying ``|pi_{a_{i+1}..a_j}(R_e[t_{a_1..a_i}])|`` in ``O(i)``
  time — :meth:`TrieIndex.count` after a walk (the counts vectors are
  precomputed at build time);
* **(ST3)** listing ``pi_{a_{i+1}..a_j}(R_e[t_{a_1..a_i}])`` in time linear
  in the output — :meth:`TrieIndex.paths`.

The trie is a nested-dictionary structure (hash-based, matching the paper's
hash-index remark in Section 5.1).  Building one relation's trie costs
``O(arity * N)``, so indexing a whole database for one total order costs the
paper's ``O(n^2 sum_e N_e)`` preprocessing term.

A node *is* its ``value -> child`` mapping, an exact ``dict`` and
nothing more, so the descent kernel reads it where it stands, through
CPython's specialised exact-dict lookup: ``node[value]`` is the (ST1)
step, ``len(node)`` the fanout, ``a.keys() & b.keys()`` a level
intersection.  A leaf parent's (ST2) counts vector is ``(1,
len(node))``; the index's ``count_table`` maps ``id(node)`` to the
vectors of the root and of the nodes two or more levels up (a binary
trie's root, a ternary one's top two levels), for a fold's loop nest to
read in line, and is rebuilt when the index is unpickled.

A cold request pays the build before the join does any work, so it
allocates one object per *interior* node and none per tuple: one pass
inserts every row into nested dicts whose last level maps each value
to one shared childless leaf, then one bottom-up sweep fills the table.
The pass is a loop generated once per index shape (:func:`_build`) —
about 0.13 microseconds per tuple of a 3,000-tuple binary relation,
0.3 at 50,000, against 0.18 and 0.39 for the generic per-level loop it
replaced (CPython 3.11, one x86-64 Xeon core, alternating runs' minima).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from functools import lru_cache

from repro.errors import SchemaError
from repro.relations.relation import Relation, Row, Value

#: Bytes per interior node, fitted to ``tracemalloc`` on binary and
#: ternary relations: the dict object, the fixed part of its key table
#: (header, index bytes and the slack of the minimum 8-slot table) and,
#: spread over the nodes, the index's counts table.  CPython 3.11, 64-bit.
_NODE_BYTES = 208

#: Bytes per parent->child edge, same fit: a 24-byte dict entry and its
#: index slot, at the mean load of CPython's doubling tables.  Keys are
#: the relation's own value objects and cost nothing here.
_EDGE_BYTES = 28

#: The node below every full tuple of every trie, which nothing writes
#: to (a pickled trie carries one copy of its own).
_LEAF: dict = {}


class TrieIndex:
    """A search tree over a relation, with one level per attribute.

    Parameters
    ----------
    relation:
        The relation to index.
    attribute_order:
        The order the trie levels follow.  Must be a permutation of the
        relation's attributes; in Algorithm 2 this is the relation's
        attributes sorted by the query's total order.
    """

    __slots__ = ("attributes", "root", "_source_name", "count_table")

    #: Backend registry key (see :mod:`repro.engine.backends`).
    kind = "trie"

    def __init__(self, relation: Relation, attribute_order: Iterable[str]) -> None:
        attrs = tuple(attribute_order)
        if set(attrs) != relation.attribute_set or len(attrs) != len(
            relation.attributes
        ):
            raise SchemaError(
                f"attribute order {attrs!r} is not a permutation of "
                f"{relation.attributes!r}"
            )
        self.attributes = attrs
        self._source_name = relation.name
        self.root = root = {}
        _build(relation.positions(attrs))(relation.tuples, root, _LEAF)
        self.count_table = _count_table(root, len(attrs))

    # Pickled without the counts table, keyed by node identity: rebuilt.
    def __getstate__(self) -> tuple:
        return self.attributes, self.root, self._source_name

    def __setstate__(self, state: tuple) -> None:
        self.attributes, self.root, self._source_name = state
        self.count_table = _count_table(self.root, len(self.attributes))

    # -- basic protocol ----------------------------------------------------

    @property
    def arity(self) -> int:
        """Number of levels (= attributes) of the trie."""
        return len(self.attributes)

    def __len__(self) -> int:
        """Number of indexed tuples (distinct full paths)."""
        counts, depth = self.count_table[id(self.root)], self.arity
        return counts[depth] if depth < len(counts) else 0

    def __repr__(self) -> str:
        return (
            f"TrieIndex({self._source_name!r}, order={self.attributes!r}, "
            f"|tuples|={len(self)})"
        )

    # -- (ST1): prefix membership -------------------------------------------

    def walk(self, prefix: Iterable[Value]) -> dict | None:
        """Follow ``prefix`` values from the root; ``None`` if absent.

        ``prefix`` must align with ``self.attributes[:len(prefix)]``.  This is
        the paper's "stepping down the tree" primitive (ST1).
        """
        return self.descend(self.root, prefix)

    def contains_prefix(self, prefix: Iterable[Value]) -> bool:
        """(ST1) membership of a prefix tuple in the projected relation."""
        return self.walk(prefix) is not None

    def child(self, node: dict | None, value: Value) -> dict | None:
        """The child of ``node`` under ``value`` (one (ST1) step)."""
        return None if node is None else node.get(value)

    def items(self, node: dict | None) -> Iterator[tuple[Value, dict]]:
        """``(value, child)`` pairs below ``node`` (hash order)."""
        return iter(()) if node is None else iter(node.items())

    def children(self, node: dict | None, values=None) -> dict:
        """The node itself — it is its own ``value -> child`` dict —
        whatever ``values`` asks for: O(1), no copy, not to be mutated.
        Its key view does the narrowing — ``keys() & values`` intersects
        in C, iterating the smaller side."""
        return {} if node is None else node

    def fanout(self, node: dict | None) -> int:
        """Number of distinct next-level values below ``node``."""
        return 0 if node is None else len(node)

    #: Already O(1) and exact (the descent kernel reads ``len(node)``).
    fanout_hint = fanout

    def descend(self, node: dict, values: Iterable[Value]) -> dict | None:
        """Continue a walk from an interior ``node`` (ST1, resumed)."""
        for value in values:
            node = node.get(value)  # type: ignore[assignment]
            if node is None:
                return None
        return node

    # -- (ST2): projected-section cardinality ---------------------------------

    def count(self, node: dict | None, depth: int) -> int:
        """(ST2) number of distinct length-``depth`` paths below ``node``.

        Equals ``|pi_{next 'depth' attributes}(R[prefix])|`` for the prefix
        that led to ``node``.  A ``None`` node (failed walk) counts 0.
        """
        if node is None:
            return 0
        # A leaf parent or the leaf, outside the table: one level at most.
        counts = self.count_table.get(id(node)) or (1, len(node))
        return counts[depth] if depth < len(counts) else 0

    def prefix_count(self, prefix: Iterable[Value], depth: int) -> int:
        """(ST1)+(ST2) in one call: walk ``prefix`` then count at ``depth``."""
        return self.count(self.walk(prefix), depth)

    # -- (ST3): enumeration ---------------------------------------------------

    def paths(self, node: dict | None, depth: int) -> Iterator[Row]:
        """(ST3) yield every distinct length-``depth`` tuple below ``node``.

        Output-linear: each yielded tuple costs ``O(depth)``.  The
        traversal keeps an explicit stack of child iterators, so arity is
        bounded by memory, not by Python's recursion limit.
        """
        if node is None or depth < 0:
            return
        if depth == 0:
            yield ()
            return
        prefix: list[Value] = []
        stack: list[Iterator[tuple[Value, dict]]] = [iter(node.items())]
        while stack:
            entry = next(stack[-1], None)
            if entry is None:
                stack.pop()
                if prefix:
                    prefix.pop()
                continue
            value, child = entry
            if len(stack) == depth:
                yield (*prefix, value)
            else:
                prefix.append(value)
                stack.append(iter(child.items()))

    def tuples(self) -> Iterator[Row]:
        """All indexed tuples, in trie attribute order."""
        return self.paths(self.root, self.arity)

    def nbytes(self) -> int:
        """Estimated resident bytes of the trie structure.

        Every path (``count(root, d)`` at depth ``d``) is an edge, and
        every path shorter than a full tuple ends in an interior node of
        its own (full tuples end in the shared leaf).  Fitted to
        ``tracemalloc`` (the dict-heavy layout has no exact cheap
        measure), so the cache's byte accounting ranks backends fairly.
        """
        counts = [self.count(self.root, d) for d in range(self.arity + 1)]
        interior = 1 + sum(counts[1:-1])
        edges = sum(counts[1:])
        return _NODE_BYTES * interior + _EDGE_BYTES * edges

    def to_relation(self, name: str | None = None) -> Relation:
        """Materialize the trie back into a :class:`Relation`."""
        name = self._source_name if name is None else name
        return Relation(name, self.attributes, self.tuples())


#: Index shapes kept compiled: a constant, so that a server fed hostile
#: schemas recompiles the oldest shape instead of growing.
_BUILDS_MAX = 256


@lru_cache(maxsize=_BUILDS_MAX)
def _build(positions: tuple[int, ...]):
    """``build(rows, root, leaf)``, the insert loop of an index whose
    levels read the row ``positions`` (so of its arity too): a row
    unpacked into locals ``r<i>``, its levels stepped in straight-line
    code (``n<k> = n<k-1>.get(r<p>)``, a new dict where absent), its last
    value mapped to ``leaf``."""
    arity = len(positions)
    nodes = ["root", *(f"n{k}" for k in range(arity - 1))]
    lines = ["def build(rows, root, leaf):",
             f" for ({''.join(f'r{i}, ' for i in range(arity))}) in rows:"]
    for parent, node, p in zip(nodes, nodes[1:], positions):
        lines += [f"  {node} = {parent}.get(r{p})",
                  f"  if {node} is None: {node} = {parent}[r{p}] = {{}}"]
    lines.append(f"  {nodes[-1]}[r{positions[-1]}] = leaf" if arity else "  pass")
    exec(compile("\n".join(lines), "<repro trie build>", "exec"), namespace := {})
    return namespace["build"]


def _count_table(root: dict, arity: int) -> dict[int, tuple[int, ...]]:
    """A new trie's ``count_table``: ``counts[d]`` distinct length-``d``
    paths below, deepest level first, each vector its children's column
    sums shifted one level; not recursive (arity may pass the limit)."""
    table: dict[int, tuple[int, ...]] = {}
    levels = [[root]]
    for _ in range(arity - 2):
        levels.append([kid for node in levels[-1] for kid in node.values()])
    for node in levels.pop():
        table[id(node)] = (1, len(node), sum(map(len, node.values())))
    while levels:
        for node in levels.pop():
            columns = zip(*[table[id(kid)] for kid in node.values()])
            table[id(node)] = (1, *map(sum, columns))
    return table
