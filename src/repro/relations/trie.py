"""Search-tree ("trie") indexes with the paper's (ST1)-(ST3) properties.

Section 5.3.2 of the paper requires, for every relation ``R_e``, a search
tree whose levels follow the relation's attributes *in the total order*
computed from the query-plan tree, supporting:

* **(ST1)** deciding ``t_{a_1..a_i} in pi_{a_1..a_i}(R_e)`` in ``O(i)`` time
  — :meth:`TrieIndex.walk` / :meth:`TrieIndex.contains_prefix`;
* **(ST2)** querying ``|pi_{a_{i+1}..a_j}(R_e[t_{a_1..a_i}])|`` in ``O(i)``
  time — :meth:`TrieIndex.count` after a walk (the per-node ``counts``
  vector is precomputed at build time);
* **(ST3)** listing ``pi_{a_{i+1}..a_j}(R_e[t_{a_1..a_i}])`` in time linear
  in the output — :meth:`TrieIndex.paths`.

The trie is a nested-dictionary structure (hash-based, matching the paper's
hash-index remark in Section 5.1).  Building one relation's trie costs
``O(arity * N)``, so indexing a whole database for one total order costs the
paper's ``O(n^2 sum_e N_e)`` preprocessing term.

A node *is* its ``value -> child`` mapping — :class:`TrieNode` is a
``dict`` with one slot — so the descent kernel reads it where it stands:
``node[value]`` is the (ST1) step, ``len(node)`` the fanout,
``a.keys() & b.keys()`` a level intersection.  The build is what a cold
request pays before the join does any work, so it allocates one object
per *interior* node and none per tuple: one pass inserts every row into
nested nodes whose last level maps each value to one shared childless
leaf, and one bottom-up sweep fills in their ``counts`` — about 0.2
microseconds per tuple of a binary relation.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from repro.errors import SchemaError
from repro.relations.relation import Relation, Row, Value

#: Bytes per interior TrieNode, fitted to ``tracemalloc`` on binary and
#: ternary relations: the dict with its one slot (72), its counts list
#: (~80) and the fixed part of its key table (header, index bytes and
#: the slack of the minimum 8-slot table).  CPython 3.10-3.12, 64-bit.
_NODE_BYTES = 256

#: Bytes per parent->child edge, same fit: one 24-byte dict entry and
#: its index slot at the ~2/3 mean load of CPython's doubling tables.
#: Keys are the relation's own value objects and cost nothing here.
_EDGE_BYTES = 32


class TrieNode(dict):
    """One node of a :class:`TrieIndex`: the mapping of an attribute
    value to the child node below it.

    ``counts[d]`` is the number of *distinct* value-paths of length
    exactly ``d`` below this node (``counts[0] == 1`` by convention).
    The counts vector is what makes property (ST2) an O(1) lookup after
    the (ST1) walk.  Nodes are built once by :class:`TrieIndex` and
    never mutated afterwards.
    """

    __slots__ = ("counts",)

    @property
    def children(self) -> TrieNode:
        """The ``value -> child`` mapping: the node itself."""
        return self

    def __repr__(self) -> str:
        return f"TrieNode(fanout={len(self)}, counts={self.counts})"


#: The node below every full tuple, shared by all last-level values of
#: all tries: no children, one empty path, and nothing writes to a node
#: after the build.  (A pickled trie carries one copy of its own.)
_LEAF = TrieNode()
_LEAF.counts = [1]


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

    __slots__ = ("attributes", "root", "_source_name")

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
        root = TrieNode()
        if attrs:
            *inner, last = relation.positions(attrs)
            for row in relation.tuples:
                level = root
                for i in inner:
                    value = row[i]
                    child = level.get(value)
                    if child is None:
                        child = level[value] = TrieNode()
                    level = child
                level[row[last]] = _LEAF
        _fill_counts(root, len(attrs))
        self.root = root

    # -- basic protocol ----------------------------------------------------

    @property
    def arity(self) -> int:
        """Number of levels (= attributes) of the trie."""
        return len(self.attributes)

    def __len__(self) -> int:
        """Number of indexed tuples (distinct full paths)."""
        depth = self.arity
        counts = self.root.counts
        return counts[depth] if depth < len(counts) else 0

    def __repr__(self) -> str:
        return (
            f"TrieIndex({self._source_name!r}, order={self.attributes!r}, "
            f"|tuples|={len(self)})"
        )

    # -- (ST1): prefix membership -------------------------------------------

    def walk(self, prefix: Iterable[Value]) -> TrieNode | None:
        """Follow ``prefix`` values from the root; ``None`` if absent.

        ``prefix`` must align with ``self.attributes[:len(prefix)]``.  This is
        the paper's "stepping down the tree" primitive (ST1).
        """
        node: TrieNode | None = self.root
        for value in prefix:
            node = node.get(value)  # type: ignore[union-attr]
            if node is None:
                return None
        return node

    def contains_prefix(self, prefix: Iterable[Value]) -> bool:
        """(ST1) membership of a prefix tuple in the projected relation."""
        return self.walk(prefix) is not None

    def child(self, node: TrieNode | None, value: Value) -> TrieNode | None:
        """The child of ``node`` under ``value`` (one (ST1) step)."""
        if node is None:
            return None
        return node.get(value)

    def items(self, node: TrieNode | None) -> Iterator[tuple[Value, TrieNode]]:
        """``(value, child)`` pairs below ``node`` (hash order)."""
        if node is None:
            return iter(())
        return iter(node.items())

    def children(self, node: TrieNode | None, values=None) -> dict:
        """The node itself — it is its own ``value -> child`` dict —
        whatever ``values`` asks for: O(1), no copy, not to be mutated.
        Its key view does the narrowing — ``keys() & values`` intersects
        in C, iterating the smaller side."""
        return {} if node is None else node

    def fanout(self, node: TrieNode | None) -> int:
        """Number of distinct next-level values below ``node``."""
        return 0 if node is None else len(node)

    #: Already O(1) and exact (the descent kernel reads ``len(node)``).
    fanout_hint = fanout

    def descend(self, node: TrieNode, values: Iterable[Value]) -> TrieNode | None:
        """Continue a walk from an interior ``node`` (ST1, resumed)."""
        current: TrieNode | None = node
        for value in values:
            current = current.get(value)  # type: ignore[union-attr]
            if current is None:
                return None
        return current

    # -- (ST2): projected-section cardinality ---------------------------------

    def count(self, node: TrieNode | None, depth: int) -> int:
        """(ST2) number of distinct length-``depth`` paths below ``node``.

        Equals ``|pi_{next 'depth' attributes}(R[prefix])|`` for the prefix
        that led to ``node``.  A ``None`` node (failed walk) counts 0.
        """
        if node is None:
            return 0
        counts = node.counts
        return counts[depth] if depth < len(counts) else 0

    def prefix_count(self, prefix: Iterable[Value], depth: int) -> int:
        """(ST1)+(ST2) in one call: walk ``prefix`` then count at ``depth``."""
        return self.count(self.walk(prefix), depth)

    # -- (ST3): enumeration ---------------------------------------------------

    def paths(self, node: TrieNode | None, depth: int) -> Iterator[Row]:
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
        stack: list[Iterator[tuple[Value, TrieNode]]] = [
            iter(node.items())
        ]
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

        Node and edge totals come from the root's precomputed counts
        vector (``counts[d]`` = distinct paths at depth ``d``): every
        path is an edge, and every path shorter than a full tuple ends
        in an interior node of its own (full tuples end in the shared
        leaf).  An estimate, fitted to ``tracemalloc`` (usually within
        10%) — the dict-heavy layout has no exact cheap measure — so
        the cache's byte accounting ranks backends fairly.
        """
        counts = self.root.counts
        interior = 1 + sum(counts[1:-1])
        edges = sum(counts[1:])
        return _NODE_BYTES * interior + _EDGE_BYTES * edges

    def to_relation(self, name: str | None = None) -> Relation:
        """Materialize the trie back into a :class:`Relation`."""
        return Relation(
            name if name is not None else self._source_name,
            self.attributes,
            self.tuples(),
        )


def _fill_counts(root: TrieNode, arity: int) -> None:
    """Give every interior node of a freshly built trie its ``counts``,
    deepest level first: a node's vector is the column-wise sum of its
    children's, shifted one level.  Level by level, not recursive: arity
    may exceed Python's recursion limit."""
    if not root:
        root.counts = [1]
        return
    levels = [[root]]
    for _ in range(arity - 1):
        levels.append([kid for node in levels[-1] for kid in node.values()])
    for node in levels.pop():
        node.counts = [1, len(node)]
    while levels:
        for node in levels.pop():
            columns = zip(*[child.counts for child in node.values()])
            node.counts = [1, *map(sum, columns)]
