"""The IndexBackend protocol: one index interface, pluggable storage.

Section 5.3.2 of the paper specifies what a join executor needs from its
per-relation indexes — the search-tree properties (ST1) prefix walking,
(ST2) projected-section counting, and (ST3) output-linear enumeration.
:class:`IndexBackend` captures that contract as a structural protocol so
executors are written once and run over any conforming storage layout.

Three implementations ship with the engine, all cached uniformly by
:class:`~repro.relations.database.Database` under (kind, relation, order)
keys:

``"trie"``
    :class:`~repro.relations.trie.TrieIndex` — nested hash dictionaries,
    the paper's own Section 5.1 hashing model: O(1) child lookups and a
    precomputed (ST2) counts vector.  Best for NPRR's count-driven
    per-tuple case analysis.
``"sorted"``
    :class:`~repro.relations.sorted_index.SortedArrayIndex` — one flat
    lexicographically sorted tuple array, the layout of Leapfrog Triejoin
    (Veldhuizen, ICDT 2014) and of "Worst-Case Optimal Radix Triejoin"
    (Fekete et al.).  Lookups pay a log factor (footnote 3 of the paper)
    but the array sorts once, caches cheaply, and hands out the
    ``open/up/next/seek`` cursors the leapfrog intersection needs.
``"compact"``
    :class:`~repro.engine.compact.CompactArrayIndex` — each trie level
    packed into one contiguous ``array('q')`` value run plus child-offset
    arrays (a CSR trie, no per-node objects).  Probes gallop from the
    last hit or, on dense integer runs, radix-index directly; leapfrog
    cursors work too.  The leanest resident footprint (8 bytes per
    distinct prefix per level, measured exactly by ``nbytes()``).

Executors that only navigate (Generic Join) accept any backend; the
planner (:mod:`repro.engine.planner`) picks per algorithm and — for
Generic Join — per relation, from skew and density statistics.

Registration note: ``CompactArrayIndex`` lives in the engine layer (it
is the engine's performance backend, not a relations primitive), so it
is registered into :data:`INDEX_BACKENDS` here rather than in
:mod:`repro.relations.database` — importing this module (which any
``import repro`` does) makes ``"compact"`` available everywhere,
including :func:`build_index` and the ``Database`` cache.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping
from typing import Any, Protocol, runtime_checkable

from repro.engine.compact import CompactArrayIndex, CompactTrieIterator
from repro.errors import DatabaseError
from repro.relations.database import (
    DEFAULT_BACKEND,
    INDEX_BACKENDS,
    build_index,
)
from repro.relations.relation import Row, Value
from repro.relations.sorted_index import SortedArrayIndex, SortedTrieIterator
from repro.relations.trie import TrieIndex

__all__ = [
    "DEFAULT_BACKEND",
    "INDEX_BACKENDS",
    "CompactArrayIndex",
    "CompactTrieIterator",
    "IndexBackend",
    "SortedArrayIndex",
    "SortedTrieIterator",
    "TrieIndex",
    "backend_kinds",
    "build_index",
    "validate_backend",
]

# The compact backend registers here (see the module docstring): the
# registry dict itself lives in repro.relations.database, and this
# mutation is visible to build_index and every Database instance.
INDEX_BACKENDS.setdefault(CompactArrayIndex.kind, CompactArrayIndex)


@runtime_checkable
class IndexBackend(Protocol):
    """What a join executor may assume about a per-relation index.

    A *node* is backend-defined (a plain ``dict`` for the hash trie, a
    ``(lo, hi, depth)`` row range for the sorted array) and the methods
    below are how executors touch one — except that a node which is a
    ``Mapping`` of value to child (the hash trie's) may be read as one,
    as the descent kernel does.  ``None`` denotes a failed walk and is
    accepted everywhere a node is (no children, zero paths).
    """

    #: Registry key of this backend ("trie", "sorted", ...).
    kind: str

    #: The index's level order (a permutation of the relation's schema).
    attributes: tuple[str, ...]

    @property
    def root(self) -> Any:
        """The node every walk starts from (the empty prefix)."""

    def __len__(self) -> int:
        """Number of indexed tuples."""

    # (ST1) — prefix membership in O(prefix) steps.
    def walk(self, prefix: Iterable[Value]) -> Any | None:
        """The node reached from :attr:`root` by following ``prefix``
        values level by level, or ``None`` if no indexed tuple starts
        with that prefix.  Cost is O(len(prefix)) lookups — the paper's
        (ST1) search-tree property."""

    def descend(self, node: Any, values: Iterable[Value]) -> Any | None:
        """Like :meth:`walk`, but starting from an arbitrary ``node``
        instead of the root (``None`` nodes propagate to ``None``)."""

    def child(self, node: Any, value: Value) -> Any | None:
        """The single-step descent: the child of ``node`` along
        ``value``, or ``None`` when no indexed tuple extends the node's
        prefix with that value."""

    def children(
        self, node: Any, values: Iterable[Value] | None = None
    ) -> Mapping[Value, Any]:
        """The batch form of :meth:`child`, and the one operation the
        descent kernel's level intersection is built from: a read-only
        ``value -> child node`` mapping that holds every value of
        ``values`` present below ``node`` — every child, when ``values``
        is None — and possibly more, so ``children(node, values).keys()
        & values`` is the subset of ``values`` below ``node``.  Called
        for array nodes only (the result takes the node's place: the
        step down is ``children[value]``); a ``Mapping`` node is its
        own answer and is read directly.

        Given ``values`` the cost is **proportional to the values handed
        in** (times a log factor on the sorted layouts), never to the
        node's fanout: the node is probed, not enumerated.  Narrowing
        the smallest participant's values through the others this way
        costs Õ(the smallest participant) — the primitive the AGM bound
        is proved from.  The hash trie hands out the node's own dict in
        O(1), whatever ``values`` is (its key view intersects in C,
        iterating the smaller side); the sorted layouts seek once per
        value and hand out what they found."""

    # (ST2) — projected-section cardinality.
    def count(self, node: Any, depth: int) -> int:
        """How many *distinct* length-``depth`` paths continue below
        ``node`` — ``|pi_{next depth attrs}(R[prefix])|``, the paper's
        (ST2) property, which NPRR's per-tuple case analysis queries on
        every split.  The hash trie answers from a precomputed vector in
        O(1); the sorted backend gallops per distinct path."""

    def fanout(self, node: Any) -> int:
        """Number of immediate children of ``node`` (= ``count(node, 1)``);
        0 for ``None`` or a leaf."""

    def fanout_hint(self, node: Any) -> int:
        """``fanout`` in O(1), exact on all three shipped backends: the
        descent kernel ranks a level's participants by it (by ``len``,
        for a ``Mapping`` node) and counts the smallest as the level's
        candidates, so backends must agree on it exactly."""

    # (ST3) — output-linear enumeration.
    def items(self, node: Any) -> Iterator[tuple[Value, Any]]:
        """Iterate ``(value, child node)`` pairs below ``node``, in the
        backend's native order (hash order for tries, sorted order for
        flat arrays).  Executors must not rely on the order."""

    def paths(self, node: Any, depth: int) -> Iterator[Row]:
        """Enumerate every distinct ``depth``-level path below ``node``
        as a tuple, in time linear in the number of paths emitted — the
        paper's (ST3) output-linear enumeration property."""


def backend_kinds() -> tuple[str, ...]:
    """Names of every registered index backend."""
    return tuple(INDEX_BACKENDS)


def validate_backend(kind: str) -> str:
    """Return ``kind`` if registered, else raise ``DatabaseError``."""
    if kind not in INDEX_BACKENDS:
        raise DatabaseError(
            f"unknown index backend {kind!r}; choose one of {backend_kinds()}"
        )
    return kind


