"""Leapfrog Triejoin: a worst-case optimal join over sorted-array tries.

**Extension beyond the paper.**  Leapfrog Triejoin (Veldhuizen, ICDT 2014;
contemporaneous with the paper) is the engine of LogicBlox and the third
classic WCOJ algorithm next to NPRR and Generic Join.  Like Generic Join it
proceeds attribute-at-a-time, but it represents each relation as a *sorted*
tuple array with iterator state per trie level, intersecting via leapfrog
seeks (galloping/exponential search) instead of hash probes.  Its run time
matches the AGM bound up to a log factor — the paper's footnote 3 makes the
same hashing-vs-sorting remark about its own model.

The sorted representation lives in
:class:`~repro.relations.sorted_index.SortedArrayIndex` (the engine's
``"sorted"`` backend) and is obtained through the
:class:`~repro.relations.database.Database` index cache when a catalog is
supplied — repeated queries over the same relations never re-sort.  The
packed ``"compact"`` backend (:mod:`repro.engine.compact`) is accepted as
an alternative layout: it exposes the same ``open/up/key/next/seek``
cursor protocol over contiguous ``array('q')`` level runs, turning many
seeks into radix arithmetic.  Each run creates fresh cursors that *share*
the cached arrays; :class:`LeapfrogTriejoin` coordinates one leapfrog
intersection per attribute level and streams result rows via
:meth:`LeapfrogTriejoin.iter_join` — the same compiled loop nest
(:func:`~repro.core.descent.iter_rows`) as Generic Join; a level's
``survivors`` is here the generator of the keys the leapfrog emits.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Mapping, Sequence

from repro.core.descent import bind, iter_rows, leapfrog_levels
from repro.core.query import JoinQuery
from repro.errors import QueryError
from repro.relations.database import Database
from repro.relations.relation import Relation, Row, Value
from repro.relations.sorted_index import SortedArrayIndex, SortedTrieIterator

__all__ = [
    "CURSOR_BACKENDS",
    "LeapfrogTriejoin",
    "SortedTrieIterator",
    "leapfrog_join",
]

#: Index kinds exposing the ``open/up/key/next/seek`` cursor protocol —
#: the layouts Leapfrog Triejoin can run over.
CURSOR_BACKENDS = ("sorted", "compact")


class LeapfrogTriejoin:
    """Executor coordinating one leapfrog intersection per attribute.

    Parameters
    ----------
    query:
        The natural join query.
    attribute_order:
        Global variable order (defaults to the query's attribute order).
    database:
        Optional catalog supplying cached sorted-array indexes (Remark
        5.2's ahead-of-time indexing).  When omitted, indexes are built
        privately — and re-sorted on every construction, so supply a
        database for repeated queries.
    backend:
        Index layout to run over: ``"sorted"`` (default; per-row tuple
        arrays) or ``"compact"`` (packed per-level ``array('q')`` runs
        with radix/galloping seeks).  Both expose the cursor protocol
        the leapfrog intersection needs; any other kind raises
        :class:`~repro.errors.QueryError`.
    filters:
        Optional mapping of attribute name to a single-value predicate
        (the query layer's residual selections).  A key surviving the
        leapfrog intersection is tested against its level's filter
        before recursing, pruning the subtree without seeking into it.
    telemetry:
        Optional :class:`~repro.observe.telemetry.TelemetryProbe`
        matching this executor's order.  Instrumented runs count
        partials, candidates, and matches per level; a candidate here is
        a key the leapfrog intersection *emitted* (values the seeks
        skipped were never enumerated), so unfiltered levels observe
        ``candidates == matches`` and ``matches / partials`` is the
        informative number.  ``None`` (default) skips the counting
        branches.
    """

    def __init__(
        self,
        query: JoinQuery,
        attribute_order: Sequence[str] | None = None,
        database: Database | None = None,
        filters: Mapping[str, Callable[[Value], bool]] | None = None,
        telemetry=None,
        backend: str = SortedArrayIndex.kind,
    ) -> None:
        self.query = query
        if backend not in CURSOR_BACKENDS:
            raise QueryError(
                f"leapfrog needs a cursor-capable backend; got {backend!r}"
                f" (supported: {CURSOR_BACKENDS})"
            )
        self.backend = backend
        self._binding = bind(
            query, attribute_order, backend, database, filters
        )
        self.order = self._binding.order
        if telemetry is not None and tuple(telemetry.order) != self.order:
            raise QueryError(
                f"telemetry probe order {telemetry.order!r} does not match "
                f"the executor's attribute order {self.order!r}"
            )
        self.telemetry = telemetry

    def iter_join(self) -> Iterator[Row]:
        """Stream the join's rows (query attribute order, no repeats).

        Every call opens fresh cursors over the shared sorted arrays, so
        an executor can be run repeatedly and generators can be abandoned
        mid-stream without corrupting state.
        """
        return iter_rows(*self._descent(), self.telemetry)

    def _descent(self) -> tuple:
        """``(levels, root, perm)`` over fresh cursors: what every run's
        loop nest walks."""
        binding = self._binding
        return leapfrog_levels(binding), (), binding.output_perm

    def execute(self, name: str = "J") -> Relation:
        """Run the triejoin; returns the join in query attribute order."""
        return Relation(name, self.query.attributes, self.iter_join())

    def fold(self, folder):
        """Fold an aggregate through the level loops, skipping rows.

        The sorted and compact layouts implement the full node protocol
        (``fanout_hint``/``children``/``count``) alongside their cursor
        protocol, so the shared folding descent of
        :func:`repro.aggregate.fold.fold_executor` (the loop nest's
        fold sink) runs directly over this executor's indexes: seeks
        become range bisections, and prunable suffixes collapse to
        factorized counts instead of being leapfrogged through.
        """
        # Lazy: repro.core must not import repro.aggregate at module
        # load (the aggregate package reaches back into repro.core).
        from repro.aggregate.fold import fold_executor

        return fold_executor(self, folder)


def leapfrog_join(
    query: JoinQuery,
    attribute_order: Sequence[str] | None = None,
    name: str = "J",
    database: Database | None = None,
    backend: str = SortedArrayIndex.kind,
) -> Relation:
    """One-shot convenience wrapper for Leapfrog Triejoin."""
    return LeapfrogTriejoin(
        query, attribute_order, database, backend=backend
    ).execute(name)
