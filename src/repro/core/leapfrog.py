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
:meth:`LeapfrogTriejoin.iter_join` — a recursion of its own, one
generator per open level, whose cursors go ``up()`` deepest first
however the stream ends.  Everything else it inherits from
:class:`~repro.core.generic_join.GenericJoin`: its folds run Generic
Join's compiled loop nest (:func:`~repro.core.descent.fold`) over the
same cursor layouts.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Mapping, Sequence
from operator import itemgetter

from repro.core.descent import Binding
from repro.core.generic_join import GenericJoin
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
#: the layouts Leapfrog Triejoin can run over, its native one first (the
#: ``backends`` of its :data:`~repro.engine.executors.EXECUTORS` record).
CURSOR_BACKENDS = ("sorted", "compact")


class LeapfrogTriejoin(GenericJoin):
    """Executor coordinating one leapfrog intersection per attribute.

    The parameters are :class:`~repro.core.generic_join.GenericJoin`'s;
    two read differently here.

    Parameters
    ----------
    backend:
        Index layout to run over: ``"sorted"`` (default; per-row tuple
        arrays) or ``"compact"`` (packed per-level ``array('q')`` runs
        with radix/galloping seeks).  Both expose the cursor protocol
        the leapfrog intersection needs; any other kind raises
        :class:`~repro.errors.QueryError`.
    telemetry:
        A candidate is a key the leapfrog intersection *emitted* (values
        the seeks skipped were never enumerated), so unfiltered levels
        observe ``candidates == matches`` and ``matches / partials`` is
        the informative number.
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
        if backend not in CURSOR_BACKENDS:
            raise QueryError(
                f"leapfrog needs a cursor-capable backend; got {backend!r}"
                f" (supported: {CURSOR_BACKENDS})"
            )
        super().__init__(
            query, attribute_order, database, backend, filters, telemetry
        )

    def iter_join(self) -> Iterator[Row]:
        """Stream the join's rows (query attribute order, no repeats).

        Every call opens fresh cursors over the shared sorted arrays, so
        an executor can be run repeatedly and generators can be abandoned
        mid-stream without corrupting state.
        """
        return _triejoin(self._binding, self.telemetry)


def _triejoin(binding: Binding, probe) -> Iterator[Row]:
    """The rows of ``binding`` over fresh cursors: at each depth open the
    participants' cursors, leapfrog their keys, keep those the level's
    filter passes and recurse per key.  One generator per open level,
    each ``up()``-ing its cursors in a ``finally``: a closed stream or a
    raising predicate unwinds the levels deepest first."""
    cursors = [index.cursor() for index in binding.indexes]
    levels = [([cursors[i] for i in ids], keep)
              for ids, keep in zip(binding.participants, binding.filters)]
    last, prefix = len(levels) - 1, [None] * len(levels)
    # A row in the query's schema (one index's ``itemgetter`` is no tuple).
    row = itemgetter(*binding.output_perm) if last else lambda p: (p[0],)

    def descend(depth: int) -> Iterator[Row]:
        participants, keep = levels[depth]
        if probe is not None:
            probe.partials[depth] += 1
        for cursor in participants:
            cursor.open()
        try:
            if any(cursor.at_end for cursor in participants):
                return
            for value in _leapfrog(participants):
                if probe is not None:
                    probe.candidates[depth] += 1
                if keep is not None and not keep(value):
                    continue
                if probe is not None:
                    probe.matches[depth] += 1
                prefix[depth] = value
                if depth == last:
                    yield row(prefix)
                else:
                    yield from descend(depth + 1)
        finally:
            for cursor in participants:
                cursor.up()

    return descend(0)


def _leapfrog(cursors: Sequence):
    """Yield every key present in all cursors at the open level."""
    ordered = sorted(cursors, key=lambda it: it.key())
    k = len(ordered)
    p = 0
    current_max = ordered[k - 1].key()
    while True:
        it = ordered[p]
        key = it.key()
        if key == current_max:
            yield key
            it.next()
        else:
            it.seek(current_max)
        if it.at_end:
            return
        current_max = it.key()
        p = (p + 1) % k


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
