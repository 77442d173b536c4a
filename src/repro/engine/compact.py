"""Compact flat-array trie indexes: the ``"compact"`` engine backend.

The hash trie (:mod:`repro.relations.trie`) realizes the paper's
search-tree properties (ST1)-(ST3) with one Python object and one dict
per node — every ``child`` probe chases pointers and every node costs
hundreds of bytes.  The sorted backend
(:mod:`repro.relations.sorted_index`) flattens the relation into one
tuple array but still pays a whole-array binary search per probe and
stores every row as a Python tuple.  This module takes the
representation the radix/compact-trie literature argues for ("Worst-Case
Optimal Radix Triejoin", Fekete et al.; "Optimal Joins using Compact
Data Structures", Arroyuelo et al.): **one contiguous value run per trie
level** plus **child-offset arrays** stitching adjacent levels together
— the classic CSR (compressed sparse row) encoding of the trie.

Layout
------
For an index over attributes ``(A_1, .., A_k)``:

* ``levels[i]`` is a flat ``array('q')`` holding, for every distinct
  length-``i`` prefix, the sorted run of distinct ``A_{i+1}`` values
  extending it — runs are concatenated in lexicographic prefix order.
  Columns with non-integer (or overflowing) values fall back to a plain
  tuple holding the original objects; everything else is identical.
* ``offsets[i]`` (``i < k-1``) maps a *position* ``p`` in ``levels[i]``
  to the half-open slice ``levels[i+1][offsets[i][p] : offsets[i][p+1]]``
  of its children.

There are **no per-node objects**: a node is the slice ``(level, lo,
hi)`` meaning "the children of this prefix occupy ``levels[level][lo:
hi]``".  The root is ``(0, 0, len(levels[0]))``; a full path ends in the
sentinel ``(k, p, p)``.  Because every position holds one *distinct*
child value, ``fanout`` is the exact ``hi - lo`` in O(1) — the compact
backend is the only one whose :meth:`~CompactArrayIndex.fanout_hint` is
both exact *and* free, and (ST2) counts project a slice through the
offset arrays in O(depth) arithmetic, no per-path galloping.

Seeks
-----
``child`` locates a value inside a run with, in order of preference:

1. **radix lookup** — when the run is *dense* (``max - min + 1 ==
   length``, only possible for packed integer runs) the value's position
   is ``lo + (value - min)``: direct offset indexing, no search at all;
2. **interpolated gallop** — when the run's value span is within
   :data:`DENSITY_THRESHOLD` times its length, the probe starts at the
   interpolated position and gallops to bracket the value;
3. **galloping binary search** — exponential probing from the last hit
   at this level (the leapfrog seek pattern), finished by
   :func:`bisect.bisect_left` inside the bracket.

The per-level last-hit hint is a *starting position only*: a stale or
concurrently clobbered hint changes the number of probes, never the
answer, so sharing one index across threads stays correct.

:class:`CompactTrieIterator` provides the same ``open/up/key/next/seek``
cursor protocol as :class:`~repro.relations.sorted_index.
SortedTrieIterator`, so Leapfrog Triejoin runs over compact indexes
unchanged — ``next()`` is a bare position increment (values in a run are
already distinct; no run-end galloping) and ``seek`` uses the same
dense-run radix shortcut as ``child``.

The class is registered in the engine's backend registry by
:mod:`repro.engine.backends` (imported by any ``import repro``), under
the kind string ``"compact"``.
"""

from __future__ import annotations

import sys
from array import array
from bisect import bisect_left
from collections.abc import Iterable, Iterator, Sequence

from repro.errors import SchemaError
from repro.relations.relation import Relation, Row, Value
from repro.relations.sorted_index import seek_children

__all__ = [
    "DENSITY_THRESHOLD",
    "CompactArrayIndex",
    "CompactTrieIterator",
]

#: A position in a :class:`CompactArrayIndex`: ``(level, lo, hi)`` — the
#: node's children occupy ``levels[level][lo:hi]``.
SliceNode = tuple[int, int, int]

#: A run whose integer value span is at most this many times its length
#: is "near-dense": ``child`` starts from the interpolated position
#: instead of the last-hit hint.  A span *equal* to the length means the
#: run is exactly the integer interval ``[min, max]`` and lookups become
#: direct offset arithmetic (the radix fast path).
DENSITY_THRESHOLD = 4


def _rebuild_compact(attributes, source_name, size, levels, packed, offsets):
    """Pickle constructor: reattach prebuilt arrays, skip the build."""
    index = CompactArrayIndex.__new__(CompactArrayIndex)
    index.attributes = attributes
    index._source_name = source_name
    index._size = size
    index._levels = levels
    index._packed = packed
    index._offsets = offsets
    index._hints = [0] * len(attributes)
    return index


class CompactArrayIndex:
    """A search tree stored as packed per-level value runs (CSR trie).

    Implements the same (ST1)-(ST3) protocol as
    :class:`~repro.relations.trie.TrieIndex` and
    :class:`~repro.relations.sorted_index.SortedArrayIndex`, pluggable
    behind :class:`repro.engine.backends.IndexBackend`.  Build cost is
    one ``O(N log N)`` sort plus one linear pass; the resident footprint
    is 8 bytes per distinct prefix per level (plus the offset arrays)
    instead of per-node Python objects, and :meth:`nbytes` reports it
    exactly from ``array.buffer_info``.
    """

    __slots__ = (
        "attributes",
        "_levels",
        "_packed",
        "_offsets",
        "_hints",
        "_source_name",
        "_size",
    )

    #: Backend registry key (see :mod:`repro.engine.backends`).
    kind = "compact"

    def __init__(
        self, relation: Relation, attribute_order: Iterable[str]
    ) -> None:
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
        rows = sorted(tuple(row[i] for i in idx) for row in relation.tuples)
        self._size = len(rows)
        arity = len(attrs)
        # CSR build: walk the sorted distinct rows once; at the first
        # column where a row differs from its predecessor, every deeper
        # column opens a fresh run.  ``starts[i][p]`` records where the
        # children of levels[i]'s position p begin in levels[i+1].
        levels: list[list[Value]] = [[] for _ in range(arity)]
        starts: list[list[int]] = [[] for _ in range(max(arity - 1, 0))]
        previous: Row | None = None
        for row in rows:
            if previous is None:
                diverge = 0
            else:
                diverge = arity
                for i in range(arity):
                    if row[i] != previous[i]:
                        diverge = i
                        break
            for i in range(diverge, arity):
                if i < arity - 1:
                    starts[i].append(len(levels[i + 1]))
                levels[i].append(row[i])
            previous = row
        packed: list[bool] = []
        columns: list[Sequence[Value]] = []
        for column in levels:
            try:
                # array('q') packs plain ints (bools coerce to 0/1 —
                # identical under the engine's set semantics, where
                # True and 1 already collapse in Relation storage).
                columns.append(array("q", column))
                packed.append(True)
            except (TypeError, OverflowError):
                columns.append(tuple(column))
                packed.append(False)
        self._levels = tuple(columns)
        self._packed = tuple(packed)
        self._offsets = tuple(
            array("q", starts[i] + [len(levels[i + 1])])
            for i in range(arity - 1)
        )
        self._hints = [0] * arity

    # -- basic protocol ----------------------------------------------------

    @property
    def arity(self) -> int:
        """Number of levels (= attributes) of the index."""
        return len(self.attributes)

    @property
    def root(self) -> SliceNode:
        """The whole first-level run (children of the empty prefix)."""
        if not self._levels:
            return (0, 0, 0)
        return (0, 0, len(self._levels[0]))

    def __len__(self) -> int:
        """Number of indexed tuples (rows are distinct by construction)."""
        return self._size

    def __repr__(self) -> str:
        return (
            f"CompactArrayIndex({self._source_name!r}, "
            f"order={self.attributes!r}, |tuples|={len(self)})"
        )

    def __reduce__(self):
        # Ship the prebuilt arrays (they pickle as raw machine words),
        # not the source relation: shard workers reattach without
        # re-sorting.  Hints are probe-start state, not data — reset.
        return (
            _rebuild_compact,
            (
                self.attributes,
                self._source_name,
                self._size,
                self._levels,
                self._packed,
                self._offsets,
            ),
        )

    def cursor(self) -> "CompactTrieIterator":
        """A fresh leapfrog cursor sharing this index's level arrays."""
        return CompactTrieIterator(self)

    def nbytes(self) -> int:
        """Resident bytes of the level and offset arrays.

        Exact (``buffer_info``) for packed columns; unpacked columns
        report their tuple container only — the value objects are
        shared with the source relation, mirroring how the other
        backends' estimates exclude them.
        """
        total = 0
        for column, packed in zip(self._levels, self._packed):
            if packed:
                _address, length = column.buffer_info()
                total += length * column.itemsize
            else:
                total += sys.getsizeof(column)
        for offsets in self._offsets:
            _address, length = offsets.buffer_info()
            total += length * offsets.itemsize
        return total

    # -- (ST1): prefix membership -------------------------------------------

    def child(self, node: SliceNode | None, value: Value) -> SliceNode | None:
        """The child of ``node`` along ``value`` (one (ST1) step)."""
        if node is None:
            return None
        level, lo, hi = node
        if level >= len(self.attributes):
            return None
        position = self._find(level, lo, hi, value)
        if position < 0:
            return None
        nxt = level + 1
        if nxt == len(self.attributes):
            return (nxt, position, position)
        offsets = self._offsets[level]
        return (nxt, offsets[position], offsets[position + 1])

    def walk(self, prefix: Iterable[Value]) -> SliceNode | None:
        """Follow ``prefix`` values from the root; ``None`` if absent."""
        return self.descend(self.root, prefix)

    def contains_prefix(self, prefix: Iterable[Value]) -> bool:
        """(ST1) membership of a prefix tuple in the projected relation."""
        return self.walk(prefix) is not None

    def descend(
        self, node: SliceNode | None, values: Iterable[Value]
    ) -> SliceNode | None:
        """Continue a walk from an interior ``node`` (ST1, resumed)."""
        current = node
        for value in values:
            current = self.child(current, value)
            if current is None:
                return None
        return current

    # -- (ST2): projected-section cardinality ---------------------------------

    def count(self, node: SliceNode | None, depth: int) -> int:
        """(ST2) number of distinct length-``depth`` paths below ``node``.

        O(depth): project the slice bounds through the offset arrays —
        no per-path work, unlike the sorted backend's gallop-per-path.
        """
        if node is None or depth < 0:
            return 0
        if depth == 0:
            return 1
        level, lo, hi = node
        if level + depth > len(self.attributes):
            return 0
        offsets = self._offsets
        for i in range(level, level + depth - 1):
            table = offsets[i]
            lo = table[lo]
            hi = table[hi]
        return hi - lo

    def prefix_count(self, prefix: Iterable[Value], depth: int) -> int:
        """(ST1)+(ST2) in one call: walk ``prefix`` then count at ``depth``."""
        return self.count(self.walk(prefix), depth)

    # -- (ST3): enumeration ---------------------------------------------------

    def items(
        self, node: SliceNode | None
    ) -> Iterator[tuple[Value, SliceNode]]:
        """``(value, child slice)`` pairs below ``node``, in sorted order."""
        if node is None:
            return
        level, lo, hi = node
        arity = len(self.attributes)
        if level >= arity:
            return
        column = self._levels[level]
        if level + 1 == arity:
            for position in range(lo, hi):
                yield column[position], (level + 1, position, position)
        else:
            offsets = self._offsets[level]
            for position in range(lo, hi):
                yield column[position], (
                    level + 1,
                    offsets[position],
                    offsets[position + 1],
                )

    children = seek_children

    def fanout(self, node: SliceNode | None) -> int:
        """Number of distinct next-level values below ``node`` (exact)."""
        if node is None:
            return 0
        _level, lo, hi = node
        return hi - lo

    def fanout_hint(self, node: SliceNode | None) -> int:
        """O(1) *exact* fanout: each slice position is one distinct child.

        The compact layout makes the hint and the true fanout the same
        number, so smallest-first ranking over compact indexes matches
        the hash trie's exactly — which is what keeps telemetry counts
        identical across the two backends.
        """
        if node is None:
            return 0
        _level, lo, hi = node
        return hi - lo

    def paths(self, node: SliceNode | None, depth: int) -> Iterator[Row]:
        """(ST3) yield every distinct length-``depth`` tuple below ``node``.

        Output-linear, sorted order; an explicit frame stack bounds
        arity by memory, not Python's recursion limit.
        """
        if node is None or depth < 0:
            return
        if depth == 0:
            yield ()
            return
        level, lo, hi = node
        if level + depth > len(self.attributes):
            return
        levels = self._levels
        offsets = self._offsets
        target = level + depth
        prefix: list[Value] = []
        stack: list[list[int]] = [[level, lo, hi]]
        while stack:
            frame = stack[-1]
            at, position, end = frame
            if position >= end:
                stack.pop()
                if prefix:
                    prefix.pop()
                continue
            frame[1] = position + 1
            value = levels[at][position]
            if at + 1 == target:
                yield (*prefix, value)
            else:
                prefix.append(value)
                table = offsets[at]
                stack.append([at + 1, table[position], table[position + 1]])

    def tuples(self) -> Iterator[Row]:
        """All indexed tuples, in index attribute order (sorted)."""
        if not self.attributes:
            return iter([()] * self._size)
        return self.paths(self.root, len(self.attributes))

    def to_relation(self, name: str | None = None) -> Relation:
        """Materialize the index back into a :class:`Relation`."""
        return Relation(
            name if name is not None else self._source_name,
            self.attributes,
            self.tuples(),
        )

    # -- run search ------------------------------------------------------------

    def _find(self, level: int, lo: int, hi: int, value: Value) -> int:
        """Position of ``value`` in ``levels[level][lo:hi]``, or ``-1``.

        Dense runs answer by offset arithmetic; near-dense runs start
        from the interpolated position; everything else gallops from the
        level's last hit.  The hint update is best-effort shared state —
        it biases the next probe's start, never its result.
        """
        if lo >= hi:
            return -1
        column = self._levels[level]
        if self._packed[level] and isinstance(value, int):
            minimum = column[lo]
            if value < minimum or value > column[hi - 1]:
                return -1
            length = hi - lo
            span = column[hi - 1] - minimum + 1
            if span == length:
                # Dense run == the integer interval [min, max]: the
                # value's position is determined, no search at all.
                return lo + (value - minimum)
            if span <= DENSITY_THRESHOLD * length:
                start = lo + (value - minimum) * (length - 1) // span
            else:
                start = self._hints[level]
        else:
            start = self._hints[level]
        position = self._gallop(column, lo, hi, start, value)
        if position < hi and column[position] == value:
            self._hints[level] = position
            return position
        self._hints[level] = position if position < hi else hi - 1
        return -1

    def _seek_position(
        self, level: int, lo: int, hi: int, start: int, value: Value
    ) -> int:
        """Leftmost position in ``[start, hi)`` with ``column >= value``
        (the cursor seek primitive; dense runs skip the search)."""
        column = self._levels[level]
        if self._packed[level] and isinstance(value, int):
            minimum = column[lo]
            if value > column[hi - 1]:
                return hi
            if value <= minimum:
                return start
            if column[hi - 1] - minimum + 1 == hi - lo:
                position = lo + (value - minimum)
                return position if position > start else start
        return self._gallop(column, lo, hi, start, value)

    @staticmethod
    def _gallop(
        column: Sequence[Value], lo: int, hi: int, start: int, value: Value
    ) -> int:
        """Leftmost index in ``[lo, hi]`` with ``column[index] >= value``.

        Exponential probing outward from ``start`` brackets the value in
        O(log distance) steps, then :func:`bisect.bisect_left` finishes
        inside the bracket (at C speed for packed arrays).
        """
        if start < lo:
            start = lo
        elif start >= hi:
            start = hi - 1
        if column[start] < value:
            step = 1
            low = start + 1
            probe = start + 1
            while probe < hi and column[probe] < value:
                low = probe + 1
                probe += step
                step <<= 1
            high = probe if probe < hi else hi
        else:
            step = 1
            high = start
            probe = start - 1
            while probe >= lo and column[probe] >= value:
                high = probe
                probe -= step
                step <<= 1
            low = probe + 1 if probe >= lo else lo
        return bisect_left(column, value, low, high)


class CompactTrieIterator:
    """Veldhuizen-style ``open/up/key/next/seek`` cursor over a
    :class:`CompactArrayIndex`.

    State per open level is the run slice ``[lo, hi)`` plus the current
    position.  Because a run holds *distinct* values, :meth:`next` is a
    bare increment — the sorted-array cursor's run-end galloping has no
    counterpart here — and :meth:`seek` gallops (or radix-jumps, on
    dense runs) forward from the current position, the leapfrog pattern.
    """

    __slots__ = ("_index", "_stack", "_lo", "_hi", "_pos", "at_end")

    def __init__(self, index: CompactArrayIndex) -> None:
        self._index = index
        # Stack of (lo, hi, pos) saved per open ancestor level.
        self._stack: list[tuple[int, int, int]] = []
        self._lo = 0
        self._hi = 0
        self._pos = 0
        self.at_end = len(index) == 0

    @property
    def depth(self) -> int:
        """Number of currently open levels (0 = at the root)."""
        return len(self._stack)

    def key(self):
        """The key at the current position of the open level."""
        return self._index._levels[self.depth - 1][self._pos]

    def open(self) -> None:
        """Descend into the children run of the current position."""
        index = self._index
        depth = self.depth
        if depth == 0:
            root = index.root
            lo, hi = root[1], root[2]
        elif depth < len(index.attributes):
            offsets = index._offsets[depth - 1]
            lo, hi = offsets[self._pos], offsets[self._pos + 1]
        else:  # opening past the last level: an empty run
            lo = hi = 0
        self._stack.append((self._lo, self._hi, self._pos))
        self._lo = lo
        self._hi = hi
        self._pos = lo
        self.at_end = self._pos >= self._hi

    def up(self) -> None:
        """Return to the parent level (restoring its position)."""
        self._lo, self._hi, self._pos = self._stack.pop()
        self.at_end = False

    def next(self) -> None:
        """Advance to the next distinct key (a position increment)."""
        self._pos += 1
        self.at_end = self._pos >= self._hi

    def seek(self, target) -> None:
        """Gallop (or radix-jump) to the first key ``>= target``."""
        pos = self._pos
        if pos >= self._hi:
            self.at_end = True
            return
        level = self.depth - 1
        if self._index._levels[level][pos] >= target:
            return
        self._pos = self._index._seek_position(
            level, self._lo, self._hi, pos, target
        )
        self.at_end = self._pos >= self._hi
