"""Sorted flat-array trie indexes: the ``"sorted"`` engine backend.

The paper's search-tree requirements (Section 5.3.2, properties
(ST1)-(ST3)) are satisfied by any structure that can walk attribute
prefixes, count projected sections, and enumerate them output-linearly.
:mod:`repro.relations.trie` realizes them with hash dictionaries (the
paper's Section 5.1 hashing remark); this module realizes them with a
*single lexicographically sorted tuple array* — the representation of
Leapfrog Triejoin (Veldhuizen, ICDT 2014) and of "Worst-Case Optimal
Radix Triejoin" (Fekete et al.), where a flat sorted/flat index is shown
to beat pointer-chasing tries on cache behaviour.

Two classes:

* :class:`SortedArrayIndex` — the cacheable index object.  It pays the
  ``O(N log N)`` sort once per (relation, attribute order) pair and then
  answers the same protocol as :class:`~repro.relations.trie.TrieIndex`
  (``walk`` / ``descend`` / ``count`` / ``paths`` / ``child`` / ``items``
  / ``fanout``), with a "node" being a half-open row range ``(lo, hi,
  depth)`` instead of a pointer.  Per footnote 3 of the paper, lookups
  cost an extra ``O(log N)`` factor over hashing.
* :class:`SortedTrieIterator` — Veldhuizen's stateful ``open / up / next
  / seek`` cursor over the same sorted array, used by the leapfrog
  intersection.  :meth:`SortedArrayIndex.cursor` hands out fresh cursors
  that *share* the sorted array, so repeated queries never re-sort.
"""

from __future__ import annotations

import sys

from array import array
from collections.abc import Iterable, Iterator, Sequence

from repro.errors import SchemaError
from repro.relations.relation import Relation, Row, Value

#: A position in a :class:`SortedArrayIndex`: the half-open row range
#: ``[lo, hi)`` of tuples sharing the first ``depth`` values.
RangeNode = tuple[int, int, int]


class SortedTrieIterator:
    """Iterator over one relation viewed as a sorted trie.

    The relation's tuples are sorted lexicographically (after reordering
    columns to the global attribute order).  The iterator maintains, per
    open level, the half-open range ``[lo, hi)`` of rows sharing the
    current prefix, plus the current position inside it.

    The methods follow Veldhuizen's interface:

    * :meth:`open` — descend to the first key of the next level;
    * :meth:`up` — pop back to the parent level;
    * :meth:`key` — current key at the open level;
    * :meth:`next` — advance to the next *distinct* key at this level;
    * :meth:`seek` — gallop forward to the first key ``>= target``;
    * :attr:`at_end` — no more keys at this level.
    """

    __slots__ = ("rows", "attributes", "_stack", "_pos", "_end", "at_end")

    def __init__(self, relation: Relation, attribute_order: Sequence[str]) -> None:
        ordered = relation.reorder(tuple(attribute_order))
        self._bind(sorted(ordered.tuples), tuple(attribute_order))

    @classmethod
    def from_sorted_rows(
        cls, rows: list[Row], attributes: tuple[str, ...]
    ) -> "SortedTrieIterator":
        """A cursor over an *already sorted* shared row array (no copy)."""
        iterator = cls.__new__(cls)
        iterator._bind(rows, attributes)
        return iterator

    def _bind(self, rows: list[Row], attributes: tuple[str, ...]) -> None:
        self.rows = rows
        self.attributes = attributes
        # Stack of (lo, hi, pos, end) saved per open ancestor level.
        self._stack: list[tuple[int, int, int, int]] = []
        self._pos = 0
        self._end = len(rows)
        self.at_end = not rows

    @property
    def depth(self) -> int:
        """Number of currently open levels (0 = at the root)."""
        return len(self._stack)

    def key(self):
        """The key at the current position of the open level."""
        return self.rows[self._pos][self.depth - 1]

    def open(self) -> None:
        """Descend into the first child range of the current position."""
        depth = self.depth
        lo = self._pos
        hi = self._run_end(lo, self._end, depth) if depth else self._end
        self._stack.append((lo, hi, self._pos, self._end))
        self._pos = lo
        self._end = hi
        self.at_end = self._pos >= self._end

    def up(self) -> None:
        """Return to the parent level (restoring its position)."""
        _lo, _hi, self._pos, self._end = self._stack.pop()
        self.at_end = False

    def next(self) -> None:
        """Advance past every row sharing the current key."""
        depth = self.depth
        self._pos = self._run_end(self._pos, self._end, depth)
        self.at_end = self._pos >= self._end

    def seek(self, target) -> None:
        """Gallop to the first row whose key is ``>= target``."""
        depth = self.depth
        column = depth - 1
        lo = self._pos
        if lo >= self._end or self.rows[lo][column] >= target:
            self.at_end = lo >= self._end
            return
        # Exponential probe, then binary search within the bracket.
        step = 1
        probe = lo
        while probe < self._end and self.rows[probe][column] < target:
            lo = probe + 1
            probe += step
            step *= 2
        hi = min(probe, self._end)
        while lo < hi:
            mid = (lo + hi) // 2
            if self.rows[mid][column] < target:
                lo = mid + 1
            else:
                hi = mid
        self._pos = lo
        self.at_end = self._pos >= self._end

    def _run_end(self, pos: int, end: int, depth: int) -> int:
        """First row index past the run sharing ``rows[pos][:depth]``."""
        if pos >= end:
            return end
        column = depth - 1
        value = self.rows[pos][column]
        # Galloping run-length detection keeps next() cheap on long runs.
        step = 1
        lo = pos + 1
        probe = pos + 1
        while probe < end and self.rows[probe][column] == value:
            lo = probe + 1
            probe += step
            step *= 2
        hi = min(probe, end)
        while lo < hi:
            mid = (lo + hi) // 2
            if self.rows[mid][column] == value:
                lo = mid + 1
            else:
                hi = mid
        return lo


def seek_children(self, node, values: Iterable[Value] | None = None) -> dict:
    """:meth:`~repro.engine.backends.IndexBackend.children` over a
    sorted layout (the method of both of them): a fresh ``value -> child
    node`` dict — the node's run when ``values`` is None, else what one
    ``child`` seek per value handed in found; the run itself is never
    scanned."""
    if values is None:
        return dict(self.items(node))
    child = self.child
    found = {}
    for value in values:
        below = child(node, value)
        if below is not None:
            found[value] = below
    return found


class SortedArrayIndex:
    """A search tree over a relation stored as one sorted tuple array.

    Implements the same (ST1)-(ST3) protocol as
    :class:`~repro.relations.trie.TrieIndex` so the two are pluggable
    behind :class:`repro.engine.backends.IndexBackend`; a node is the
    half-open range ``(lo, hi, depth)`` of rows sharing a length-``depth``
    prefix.  Compared with the hash trie: build is ``O(N log N)`` (one
    sort), point lookups cost ``O(log N)`` (binary search) instead of
    ``O(1)``, but the flat array is cheap to cache and is what the
    leapfrog cursors consume directly.
    """

    __slots__ = ("attributes", "rows", "_source_name", "_distinct")

    #: Backend registry key (see :mod:`repro.engine.backends`).
    kind = "sorted"

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
        idx = relation.positions(attrs)
        self.rows: list[Row] = sorted(
            tuple(row[i] for i in idx) for row in relation.tuples
        )
        # Lazy per-column cumulative distinct-prefix tallies backing the
        # exact O(1) fanout_hint; built on first use (see _distinct_runs).
        self._distinct: list | None = None

    # -- basic protocol ----------------------------------------------------

    @property
    def arity(self) -> int:
        """Number of levels (= attributes) of the index."""
        return len(self.attributes)

    @property
    def root(self) -> RangeNode:
        """The whole-array range: every row shares the empty prefix."""
        return (0, len(self.rows), 0)

    def __len__(self) -> int:
        """Number of indexed tuples (rows are distinct by construction)."""
        return len(self.rows)

    def __repr__(self) -> str:
        return (
            f"SortedArrayIndex({self._source_name!r}, "
            f"order={self.attributes!r}, |tuples|={len(self)})"
        )

    def cursor(self) -> SortedTrieIterator:
        """A fresh leapfrog cursor sharing this index's sorted array."""
        return SortedTrieIterator.from_sorted_rows(self.rows, self.attributes)

    # -- (ST1): prefix membership -------------------------------------------

    def child(self, node: RangeNode | None, value: Value) -> RangeNode | None:
        """The sub-range of ``node`` whose next column equals ``value``."""
        if node is None:
            return None
        lo, hi, depth = node
        start = self._lower_bound(lo, hi, depth, value)
        if start >= hi or self.rows[start][depth] != value:
            return None
        return (start, self._run_end(start, hi, depth), depth + 1)

    def walk(self, prefix: Iterable[Value]) -> RangeNode | None:
        """Follow ``prefix`` values from the root; ``None`` if absent."""
        return self.descend(self.root, prefix)

    def contains_prefix(self, prefix: Iterable[Value]) -> bool:
        """(ST1) membership of a prefix tuple in the projected relation."""
        return self.walk(prefix) is not None

    def descend(
        self, node: RangeNode | None, values: Iterable[Value]
    ) -> RangeNode | None:
        """Continue a walk from an interior ``node`` (ST1, resumed)."""
        current = node
        for value in values:
            current = self.child(current, value)
            if current is None:
                return None
        return current

    # -- (ST2): projected-section cardinality ---------------------------------

    def count(self, node: RangeNode | None, depth: int) -> int:
        """(ST2) number of distinct length-``depth`` paths below ``node``.

        Unlike the hash trie's precomputed ``counts`` vector this runs one
        gallop per distinct path — ``O(result * log N)`` rather than
        ``O(1)``; the planner prefers the hash backend for count-driven
        algorithms (NPRR's per-tuple case analysis).
        """
        if node is None or depth < 0:
            return 0
        lo, hi, at = node
        if depth == 0:
            return 1
        target = at + depth
        if target > self.arity:
            return 0
        total = 0
        pos = lo
        while pos < hi:
            total += 1
            pos = self._prefix_run_end(pos, hi, target)
        return total

    def prefix_count(self, prefix: Iterable[Value], depth: int) -> int:
        """(ST1)+(ST2) in one call: walk ``prefix`` then count at ``depth``."""
        return self.count(self.walk(prefix), depth)

    # -- (ST3): enumeration ---------------------------------------------------

    def items(self, node: RangeNode | None) -> Iterator[tuple[Value, RangeNode]]:
        """``(value, child range)`` pairs below ``node``, in sorted order."""
        if node is None:
            return
        lo, hi, depth = node
        if depth >= self.arity:
            return
        pos = lo
        rows = self.rows
        while pos < hi:
            end = self._run_end(pos, hi, depth)
            yield rows[pos][depth], (pos, end, depth + 1)
            pos = end

    children = seek_children

    def fanout(self, node: RangeNode | None) -> int:
        """Number of distinct next-column values below ``node``."""
        return self.fanout_hint(node)

    def _distinct_runs(self, column: int):
        """Cumulative distinct-prefix tallies for ``column`` (lazy).

        ``runs[r]`` is the zero-based ordinal of the run of equal
        ``(column + 1)``-prefixes that row ``r`` belongs to; within any
        node range the distinct next-column count is then
        ``runs[hi - 1] - runs[lo] + 1`` (rows of a node share the
        length-``column`` prefix, so run boundaries inside the range are
        exactly the next-value changes).  One ``array('q')`` per column,
        built on first use in a single pass over the rows.
        """
        if self._distinct is None:
            self._distinct = [None] * len(self.attributes)
        runs = self._distinct[column]
        if runs is None:
            plen = column + 1
            runs = array("q", bytes(8 * len(self.rows)))
            previous = None
            tally = -1
            for r, row in enumerate(self.rows):
                key = row[:plen]
                if key != previous:
                    tally += 1
                    previous = key
                runs[r] = tally
            self._distinct[column] = runs
        return runs

    def fanout_hint(self, node: RangeNode | None) -> int:
        """O(1) **exact** fanout — identical to :meth:`fanout`.

        Hints used to be upper bounds (range width capped by the integer
        endpoint span), which over-counted long duplicate runs and any
        non-integer column.  Exactness matters beyond ranking quality
        now: the aggregate fold prunes subtrees into counts, and its
        smallest-first descent must agree bit-for-bit with the trie and
        compact backends (both already exact) for cross-backend
        telemetry and probe parity.  The first call per column pays one
        O(N) pass to build the cumulative run tallies
        (:meth:`_distinct_runs`); every call after is two array reads.
        """
        if node is None:
            return 0
        lo, hi, depth = node
        if hi - lo <= 1 or depth >= self.arity:
            return hi - lo if depth < self.arity else 0
        runs = self._distinct_runs(depth)
        return runs[hi - 1] - runs[lo] + 1

    def paths(self, node: RangeNode | None, depth: int) -> Iterator[Row]:
        """(ST3) yield every distinct length-``depth`` tuple below ``node``.

        Paths come out in sorted order; each costs ``O(depth + log N)``.
        """
        if node is None or depth < 0:
            return
        if depth == 0:
            yield ()
            return
        lo, hi, at = node
        target = at + depth
        if target > self.arity:
            return
        rows = self.rows
        pos = lo
        while pos < hi:
            yield rows[pos][at:target]
            pos = self._prefix_run_end(pos, hi, target)

    def tuples(self) -> Iterator[Row]:
        """All indexed tuples, in index attribute order (sorted)."""
        return iter(self.rows)

    def nbytes(self) -> int:
        """Estimated resident bytes of the sorted row array.

        The list container plus one tuple object per row (rows share an
        arity, so the first row's size stands for all).  Value objects
        are excluded — they are shared with the source relation — which
        keeps the figure comparable with the other backends' measures.
        """
        total = sys.getsizeof(self.rows)
        if self.rows:
            total += len(self.rows) * sys.getsizeof(self.rows[0])
        if self._distinct is not None:
            for runs in self._distinct:
                if runs is not None:
                    total += sys.getsizeof(runs)
        return total

    def to_relation(self, name: str | None = None) -> Relation:
        """Materialize the index back into a :class:`Relation`."""
        return Relation(
            name if name is not None else self._source_name,
            self.attributes,
            self.rows,
        )

    # -- range arithmetic ------------------------------------------------------

    def _lower_bound(self, lo: int, hi: int, column: int, value: Value) -> int:
        """First row index in ``[lo, hi)`` with ``row[column] >= value``."""
        rows = self.rows
        while lo < hi:
            mid = (lo + hi) // 2
            if rows[mid][column] < value:
                lo = mid + 1
            else:
                hi = mid
        return lo

    def _run_end(self, pos: int, end: int, column: int) -> int:
        """First row index past the run sharing ``rows[pos][column]``."""
        rows = self.rows
        value = rows[pos][column]
        step = 1
        lo = pos + 1
        probe = pos + 1
        while probe < end and rows[probe][column] == value:
            lo = probe + 1
            probe += step
            step *= 2
        hi = min(probe, end)
        while lo < hi:
            mid = (lo + hi) // 2
            if rows[mid][column] == value:
                lo = mid + 1
            else:
                hi = mid
        return lo

    def _prefix_run_end(self, pos: int, end: int, plen: int) -> int:
        """First row index past the run sharing ``rows[pos][:plen]``."""
        rows = self.rows
        prefix = rows[pos][:plen]
        step = 1
        lo = pos + 1
        probe = pos + 1
        while probe < end and rows[probe][:plen] == prefix:
            lo = probe + 1
            probe += step
            step *= 2
        hi = min(probe, end)
        while lo < hi:
            mid = (lo + hi) // 2
            if rows[mid][:plen] == prefix:
                lo = mid + 1
            else:
                hi = mid
        return lo
