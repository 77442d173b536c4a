"""Fold aggregates into the level loops of a worst-case optimal search.

The enumeration executors (:class:`~repro.core.generic_join.GenericJoin`,
:class:`~repro.core.leapfrog.LeapfrogTriejoin`) descend one attribute
per level, intersecting candidate values across the participating
relations.  To *count* instead of enumerate, Generic Join's descent
compiles to another loop nest — :func:`repro.core.descent.fold` — whose four
savings are lines of its text:

1. **No rows.**  Below the *cutoff* — the depth under the deepest value
   the spec reads (``1 + max rank of spec.needs``) — the nest sums the
   completions in a local, ``acc``; after the loops below a cutoff
   prefix it calls the spec's ``add`` once, if ``acc`` is non-zero.  A
   ``count()`` has cutoff 0: one ``add`` per run.
2. **Subtree pruning.**  From the first depth at or below the cutoff
   where every remaining level has one participating relation and no
   residual filter, completions *factorize*: each remaining attribute is
   constrained by one relation only, so they are the cross product of
   each participant's distinct remaining paths (their attribute sets are
   disjoint: no intersection is skipped).  The nest stops searching
   there: ``acc += len(n3_4)`` for one trie level, else an O(1) (ST2)
   count: ``tab2[id(n2_1)][2]`` from a trie's precomputed tallies,
   ``tally2(n2_1, 2)`` over a CSR offset projection.
3. **Counted leaf batches.**  When nothing prunes (a triangle's last
   attribute has several participants) and the spec does not read the
   deepest value, that level is counted, not descended: it loops the
   smaller node as enumeration does, but adds its hits in the other,
   ``if v2 in big2: acc += 1``, with no set per parent, and builds no
   row — what makes ``count()`` on a dense triangle cheaper than
   enumeration though the intersections are identical.
4. **Memoised subtrees.**  At or below the cutoff, a level's subtree
   counts the same for every prefix that agrees on the values its
   remaining relations read — the level's *key*.  Where the key is
   shorter than the prefix (an acyclic query: on a path, the previous
   attribute's value alone) the nest looks the key up before the level,
   ``acc = memo3.get(v2)``, and on a miss counts the subtree once and
   stores it — so each subtree is searched once per key, not once per
   prefix (Capelli–Irwin–Salvati's caching), and a ``count()`` on a path
   visits at most one search node per input tuple.  A cyclic query's
   keys are its prefixes: no memo.

The fold reads the executor's :class:`~repro.core.descent.Binding` over
hash-probe levels and needs only ``count`` of the frontier's index
nodes — which is why one implementation serves GenericJoin over any
backend *and* Leapfrog over its cursor layouts.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from operator import itemgetter

from repro.aggregate.specs import AggregateSpec
from repro.core.descent import fold
from repro.errors import QueryError

__all__ = ["Folder", "fold_executor", "fold_rows", "fold_state"]


class Folder:
    """Binds an :class:`AggregateSpec` to an execution attribute order.

    ``positions`` are the depths of the values the spec reads, in
    ``spec.needs`` order; ``cutoff`` is the shallowest depth at which
    the spec has seen every value it needs — the fold may prune below
    it; ``state`` is the spec's state, which a fold advances.
    """

    __slots__ = ("spec", "order", "positions", "cutoff", "state")

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
        self.positions = tuple(order.index(a) for a in spec.needs)
        self.cutoff = 1 + max(self.positions, default=-1)
        self.state = spec.start()

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
    prune = _prune_depth(
        binding.participants, binding.filters, folder.cutoff, len(folder.order)
    )
    folder.state = fold(
        binding, prune, folder.positions, folder.spec.add, folder.state
    )
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
    positions, add, state = folder.positions, spec.add, folder.state
    # ``row -> tuple(row[p] for p in positions)``, as one C-level call
    # wherever ``itemgetter`` returns a tuple.
    if len(positions) > 1:
        needed = itemgetter(*positions)
    elif positions:
        (position,) = positions
        needed = lambda row: (row[position],)
    else:
        needed = lambda row: ()
    for row in rows:
        state = add(state, needed(row), 1)
    return state


def fold_rows(
    rows: Iterable[Sequence[object]],
    spec: AggregateSpec,
    attributes: Sequence[str],
):
    """Fold a materialized row stream and finish it to the user value."""
    return spec.finish(fold_state(rows, spec, attributes))
