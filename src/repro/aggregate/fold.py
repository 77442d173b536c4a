"""Fold aggregates into the level loops of a worst-case optimal search.

The enumeration executors (:class:`~repro.core.generic_join.GenericJoin`,
:class:`~repro.core.leapfrog.LeapfrogTriejoin`) descend one attribute
per level, intersecting candidate values across the participating
relations.  To *count* instead of enumerate, the same descent runs
under a different sink:

1. **No rows.**  Nothing is permuted or yielded; a :class:`Folder`
   accumulates the aggregate state in place, so a surviving prefix costs
   an ``add`` call instead of a tuple per completion.
2. **Subtree pruning.**  At the first depth where every remaining level
   has exactly one participating relation and no residual filter, the
   number of completions *factorizes*: each remaining attribute is
   constrained by one relation only, so completions are the cross
   product of each participant's remaining distinct paths —
   ``prod_i count_i(node_i, remaining levels of i)``.  The walk stops at
   that depth and the whole subtree collapses to one multiplication per
   participant (``count`` is O(1) on the trie and compact backends:
   precomputed subtree tallies and CSR offset projection respectively).
   Correctness: the remaining attribute sets of distinct participants
   are disjoint, so the completions are exactly the cross product — no
   intersection is skipped.
3. **Leaf batches.**  When nothing can be pruned (the deepest level has
   several participants — a triangle's last attribute — or a residual
   filter) the fold is the full-depth nest's *batches* sink: one leaf
   batch per parent, the deepest level's surviving values in one piece.
   If the spec reads the deepest value it gets one ``add`` per value;
   if not, every completion below the parent shares the same
   needed-values tuple, so the batch is **one** ``add`` with its length
   as the multiplicity — exactly equivalent to the per-value adds it
   replaces, and what makes ``count()`` on a dense triangle cheaper than
   enumeration though the intersections are identical.

Pruning never starts above the *cutoff*: the deepest level whose value
the aggregate spec reads (``1 + max rank of spec.needs``).  A ``count()``
has cutoff 0 and prunes as early as the query shape allows; ``sum("C")``
with C at rank 2 keeps enumerating through rank 2, then prunes below.

The fold is a sink over the descent kernel's compiled loop nest
(:func:`repro.core.descent.walk` over hash-probe levels): it reads the
executor's :class:`~repro.core.descent.Binding`, the *states* sink hands
it every relation's real index node at the prune frontier, and it needs
only ``count`` of them — which is why one implementation serves
GenericJoin over any backend *and* Leapfrog over its cursor layouts.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from operator import itemgetter

from repro.aggregate.specs import AggregateSpec
from repro.core.descent import hash_levels, walk
from repro.errors import QueryError

__all__ = ["Folder", "fold_executor", "fold_rows", "fold_state"]


class Folder:
    """Binds an :class:`AggregateSpec` to an execution attribute order.

    ``add(prefix, multiplicity)`` receives the search's prefix list in
    *execution* order and the number of join rows completing it; the
    folder extracts the spec's needed values by position and advances
    the state.  ``cutoff`` is the shallowest depth at which the spec has
    seen every value it needs — the fold may prune below it.
    """

    __slots__ = ("spec", "order", "cutoff", "state", "_needed")

    def __init__(self, spec: AggregateSpec, order: Sequence[str]) -> None:
        order = tuple(order)
        missing = [a for a in spec.needs if a not in order]
        if missing:
            raise QueryError(
                f"aggregate needs attributes {missing!r} absent from the "
                f"execution order {order!r}"
            )
        self.spec = spec
        self.order = order
        positions = tuple(order.index(a) for a in spec.needs)
        # ``prefix -> tuple(prefix[p] for p in positions)``, as one
        # C-level call wherever ``itemgetter`` returns a tuple.
        if len(positions) > 1:
            self._needed = itemgetter(*positions)
        elif positions:
            (position,) = positions
            self._needed = lambda prefix: (prefix[position],)
        else:
            self._needed = lambda prefix: ()
        self.cutoff = 1 + max(positions) if positions else 0
        self.state = spec.start()

    def add(self, prefix: Sequence[object], multiplicity: int) -> None:
        self.state = self.spec.add(
            self.state, self._needed(prefix), multiplicity
        )

    def result(self):
        return self.spec.finish(self.state)


def _prune_depth(participants, filters, cutoff: int, total: int) -> int:
    """Shallowest depth from which every level is prunable.

    A level is prunable when exactly one relation participates and no
    residual filter guards it; the returned depth is never above the
    folder's cutoff (the spec still needs those values).
    """
    depth = total
    while (
        depth > cutoff
        and len(participants[depth - 1]) == 1
        and filters[depth - 1] is None
    ):
        depth -= 1
    return depth


def fold_executor(executor, folder: Folder) -> Folder:
    """Run the folding descent over an executor's indexes.

    The executor must expose ``order`` and its descent ``_binding``
    (GenericJoin and LeapfrogTriejoin both do).  The folder's order must
    match the executor's.
    """
    if folder.order != tuple(executor.order):
        raise QueryError(
            f"folder order {folder.order!r} does not match the "
            f"executor's attribute order {tuple(executor.order)!r}"
        )
    binding = executor._binding
    indexes = binding.indexes
    participants = binding.participants
    total = len(folder.order)
    prune = _prune_depth(participants, binding.filters, folder.cutoff, total)
    levels = hash_levels(binding)
    root = binding.roots()
    add = folder.add
    if prune < total or not total:
        # Remaining-level tally per relation at the prune frontier:
        # relation i contributes count(node_i, tail[i]) completions.
        tally: dict[int, int] = {}
        for depth in range(prune, total):
            position = participants[depth][0]
            tally[position] = tally.get(position, 0) + 1
        tail = tuple(tally.items())
        for prefix, nodes in walk(levels, root, prune):
            multiplicity = 1
            for position, remaining in tail:
                multiplicity *= indexes[position].count(
                    nodes[position], remaining
                )
            if multiplicity:
                add(prefix, multiplicity)
    else:
        # Nothing to prune: one leaf batch per parent.  Its completions
        # share the parent's prefix, so unless the spec reads the
        # deepest value the batch is one multiplicity-weighted add.
        reads_deepest = folder.cutoff == total
        for prefix, values in walk(levels, root, total):
            if reads_deepest:
                for prefix[-1] in values:
                    add(prefix, 1)
            else:
                add(prefix, len(values))
    return folder


def fold_state(
    rows: Iterable[Sequence[object]],
    spec: AggregateSpec,
    attributes: Sequence[str],
):
    """Fold a materialized row stream; returns the raw (picklable) state.

    The brute-force twin of :func:`fold_executor`: every row counts with
    multiplicity 1.  Shard workers use this (or the executor fold) and
    ship the state back for the parent to merge.
    """
    folder = Folder(spec, attributes)
    for row in rows:
        folder.add(row, 1)
    return folder.state


def fold_rows(
    rows: Iterable[Sequence[object]],
    spec: AggregateSpec,
    attributes: Sequence[str],
):
    """Fold a materialized row stream and finish it to the user value."""
    return spec.finish(fold_state(rows, spec, attributes))
