"""The descent kernel: one binding, one walk, one row sink, two levels.

Generic Join and Leapfrog Triejoin are the same recursion over a global
attribute order — at each level, intersect the candidate values of the
relations containing the attribute, then descend per surviving value —
and enumeration, per-level counting, aggregate folding and the sampler's
exact fallback differ only in what happens at a node (Capelli, Irwin and
Salvati, "A Simple Algorithm for Worst-Case Optimal Join and Sampling").
This module holds the pieces every such search shares:

* :func:`bind` resolves a query, an attribute order, index backends and
  residual filters into an immutable :class:`Binding` — the only place
  that validates the order and consults the catalog's index cache
  (:func:`narrow` derives a shard's binding from it: one more value
  filter per key link, nothing rebuilt);
* :func:`walk` is the one loop: it owns depth, prefix, backtracking and
  every state, and at full depth yields one *leaf batch* per parent;
  :func:`iter_rows` is the one sink that turns batches into rows;
* :class:`HashLevel` and :class:`LeapfrogLevel` are the two ways to
  intersect one level — the only code that differs between the
  algorithms — behind :func:`walk`'s one contract (``participants`` +
  ``survivors``).  A :class:`HashLevel` is one batch intersection,
  Õ(the smallest participant), the one primitive the AGM bound needs
  ("Skew Strikes Back"), at one Python call per search node.

The callers (:class:`~repro.core.generic_join.GenericJoin`,
:class:`~repro.core.leapfrog.LeapfrogTriejoin`,
:func:`~repro.aggregate.fold.fold_executor`,
:class:`~repro.aggregate.sampling.JoinSampler`) are sinks over
:func:`walk`.  Nothing here imports ``repro.engine`` or
``repro.aggregate``: both reach back into ``repro.core``.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Mapping, Sequence
from operator import itemgetter
from typing import NamedTuple

from repro.core.filters import per_position_filters
from repro.core.query import JoinQuery
from repro.errors import QueryError
from repro.relations.database import DEFAULT_BACKEND, Database, build_index
from repro.relations.relation import Value

Filter = Callable[[Value], bool]


class Binding(NamedTuple):
    """A query bound to an attribute order and per-relation indexes."""

    #: The global attribute order (a permutation of the query's schema).
    order: tuple[str, ...]
    #: One index per relation, in ``query.edge_ids`` order, each levelled
    #: by the relation's attributes sorted into :attr:`order`.
    indexes: tuple
    #: Per depth, the positions (into :attr:`indexes`) of the relations
    #: containing that depth's attribute; never empty.
    participants: tuple[tuple[int, ...], ...]
    #: Per depth, the residual filter on that attribute (None = none).
    filters: tuple[Filter | None, ...]
    #: Permutation taking an order-aligned row to the query's schema.
    output_perm: tuple[int, ...]

    def roots(self) -> list:
        """Every index's root node: the hash-probe walk's root state."""
        return [index.root for index in self.indexes]


def bind(
    query: JoinQuery,
    attribute_order: Sequence[str] | None,
    backend: str | Mapping[str, str],
    database: Database | None,
    filters: Mapping[str, Filter] | None,
) -> Binding:
    """Resolve everything a descent needs before its first step.

    ``attribute_order`` defaults to the query's; ``backend`` is one index
    kind for every relation or a mapping of relation name to kind
    (absent relations get the default kind).
    """
    order = (
        tuple(attribute_order)
        if attribute_order is not None
        else query.attributes
    )
    if set(order) != set(query.attributes) or len(order) != len(
        query.attributes
    ):
        raise QueryError(
            f"attribute order {order!r} is not a permutation of "
            f"{query.attributes!r}"
        )
    rank = {a: i for i, a in enumerate(order)}
    indexes = []
    participants: list[list[int]] = [[] for _ in order]
    for position, eid in enumerate(query.edge_ids):
        relation = query.relation(eid)
        kind = (
            backend.get(eid, DEFAULT_BACKEND)
            if isinstance(backend, Mapping)
            else backend
        )
        index_order = tuple(sorted(relation.attributes, key=rank.__getitem__))
        # The catalog cache is consulted per relation, and only for
        # the exact object catalogued under the name (identity, not
        # equality): an ad-hoc relation — e.g. a section created by
        # equality pushdown — that shares a catalog name must never
        # be served (or store) the full relation's index.
        if database is not None and database.is_catalogued(relation):
            index = database.index(eid, index_order, kind)
        else:
            index = build_index(relation, index_order, kind)
        indexes.append(index)
        for attribute in index_order:
            participants[rank[attribute]].append(position)
    for attribute, level in zip(order, participants):
        if not level:
            # Impossible for validated queries; checked once, here.
            raise QueryError(f"attribute {attribute!r} is in no relation")
    return Binding(
        order,
        tuple(indexes),
        tuple(tuple(level) for level in participants),
        tuple(per_position_filters(filters, order, query.attributes)),
        tuple(rank[a] for a in query.attributes),
    )


def narrow(binding: Binding, key: Sequence[tuple[str, frozenset]]) -> Binding:
    """``binding`` under a shard key: the same order and the same
    indexes, with each ``(attribute, value group)`` link of ``key``
    conjoined onto the residual filter at the depth that binds the
    attribute.  A walk of the result visits exactly the subtrees whose
    values lie in every link's group — (ST1)'s section reached by
    walking, never by copying tuples — so the walks of a partition of
    an attribute's values partition the full walk's rows."""
    rank = {attribute: depth for depth, attribute in enumerate(binding.order)}
    filters = list(binding.filters)
    for attribute, values in key:
        depth = rank[attribute]
        keep, member = filters[depth], values.__contains__
        filters[depth] = (
            member
            if keep is None
            else lambda value, member=member, keep=keep: (
                member(value) and keep(value)
            )
        )
    return binding._replace(filters=tuple(filters))


def walk(
    levels: Sequence, root: Sequence, stop: int, probe=None
) -> Iterator[tuple[list, object]]:
    """Yield the search nodes at depth ``stop``: ``(prefix, state)``
    below full depth, one **leaf batch** ``(prefix, values)`` per parent
    at full depth (``stop == len(levels)``).

    A level is two names: ``levels[d].survivors(state, candidates)``
    iterates the values surviving level ``d`` below ``state`` (and may
    open ``state``'s array nodes in place), and the walk makes each
    child's state — a copy of the parent's with ``state[i] =
    parent[i][value]`` for ``i`` in ``levels[d].participants``.
    ``levels[-1].leaf`` is the deepest level's survivors as one sized
    batch: nothing can use the states below them, so a full-depth walk
    yields them in one piece (parents with none are skipped).

    The walk owns depth, prefix, backtracking — an explicit stack of
    ``(iterator over the values, parent state)`` — and every state:
    ``root`` is copied, never written.  ``prefix`` is one list of
    length ``stop`` reused across yields (a leaf batch leaves its last
    slot to the consumer): copy what you keep.

    With a ``TelemetryProbe`` the walk owns ``partials[d]`` (openings of
    level ``d``) and ``matches[d]`` (the values that survived it — a
    leaf batch counts at once), and hands ``candidates[d]`` to the level
    to bump by the values it enumerates.  Every level still open when
    the consumer abandons the walk (or a filter raises) is closed,
    deepest first.
    """
    prefix: list = [None] * stop
    state = list(root)
    if stop == 0:
        yield prefix, state
        return
    counting = probe is not None
    if counting:
        partials, matches = probe.partials, probe.matches
    candidates = probe.candidates if counting else None
    survivors = [level.survivors for level in levels[:stop]]
    movers = [level.participants for level in levels[:stop]]
    last = stop - 1
    leaf = levels[last].leaf if stop == len(levels) else None
    stack: list = []
    depth = 0
    try:
        while True:
            if counting:
                partials[depth] += 1
            if depth == last and leaf is not None:
                values = leaf(state, candidates)
                if values:
                    if counting:
                        matches[depth] += len(values)
                    yield prefix, values
            else:
                values = survivors[depth](state, candidates)
                stack.append((iter(values), state))
            # Step the deepest open level that still has a survivor.
            while stack:
                values, parent = stack[-1]
                for value in values:
                    break
                else:
                    stack.pop()
                    continue
                depth = len(stack) - 1
                if counting:
                    matches[depth] += 1
                prefix[depth] = value
                state = parent.copy()
                for i in movers[depth]:
                    state[i] = parent[i][value]
                if depth == last:
                    yield prefix, state
                    continue
                depth += 1
                break
            else:
                return
    finally:
        for values, _parent in reversed(stack):
            if hasattr(values, "close"):  # a generator holding cursors
                values.close()


def picker(positions: Sequence[int]) -> Callable[[Sequence], tuple]:
    """``prefix -> tuple(prefix[p] for p in positions)``, as one C-level
    call wherever :func:`operator.itemgetter` returns a tuple."""
    if len(positions) > 1:
        return itemgetter(*positions)
    if positions:
        (position,) = positions
        return lambda prefix: (prefix[position],)
    return lambda prefix: ()


def iter_rows(
    levels: Sequence, root: Sequence, perm: Sequence[int], probe=None
) -> Iterator[tuple]:
    """The row sink: a full-depth :func:`walk` as rows in output order
    (``perm`` is :attr:`Binding.output_perm`).

    Each value of a leaf batch is stored into the prefix's last slot and
    the row read off in one C-level pick: one generator hop per row,
    whatever the depth.  A batch the consumer abandons part-way gives
    its undelivered rows back to ``probe.matches``.
    """
    if not perm:
        yield ()  # the nullary query: one empty row
        return
    row_of = picker(perm)
    last = len(perm) - 1
    values = ()
    try:
        for prefix, values in walk(levels, root, len(perm), probe):
            for prefix[last] in values:
                yield row_of(prefix)
            values = ()
    finally:
        if probe is not None and values:
            delivered = 1 + list(values).index(prefix[last])
            probe.matches[last] -= len(values) - delivered


class HashLevel:
    """Generic Join's level: the values below every participant's node
    that pass the filter — a sized, unordered batch, so ``leaf`` is
    ``survivors``.  State is the list of every relation's current index
    node; the level keeps none, so concurrent walks may share one.
    How a node is read is decided once, from its index's root type: a
    :class:`~collections.abc.Mapping` node (the hash trie's) is its own
    ``value -> child`` dict, read where it stands; any other (an array
    range) goes through its index's ``fanout_hint`` / ``children`` and
    is *opened in place* — replaced in the state by the dict of what
    the seeks found — so ``parent[i][value]`` steps down every backend.
    """

    __slots__ = ("participants", "survivors", "leaf")

    def __init__(
        self,
        indexes: Sequence,
        participants: Sequence[int],
        keep: Filter | None,
        depth: int,
    ) -> None:
        self.participants = participants
        # (position, exact O(1) fanout, batch opener — None: a mapping).
        operands = [
            (i, len, None)
            if isinstance(indexes[i].root, Mapping)
            else (i, indexes[i].fanout_hint, indexes[i].children)
            for i in participants
        ]
        standing = {1: _only, 2: _pair}.get(len(participants))
        if standing and all(opener is None for *_, opener in operands):
            meet = standing(depth, *participants)
        else:
            meet = _smallest_first(depth, operands)
        if keep is not None:
            def meet(state, candidates, unfiltered=meet):
                return list(filter(keep, unfiltered(state, candidates)))
        self.survivors = self.leaf = meet


def _only(depth: int, i: int):
    """One mapping participant: the node is the batch."""
    def survivors(state, candidates):
        if candidates is not None:
            candidates[depth] += len(state[i])
        return state[i]
    return survivors


def _pair(depth: int, i: int, j: int):
    """Two mapping participants: one key-view ``&`` — Õ(min), exactly."""
    def survivors(state, candidates):
        a, b = state[i], state[j]
        if candidates is not None:
            candidates[depth] += min(len(a), len(b))
        return b.keys() & a.keys()  # iterates the smaller; on a tie, a
    return survivors


def _smallest_first(depth: int, operands: list):
    """Any other level: the smallest node's values (exact fanout, first
    wins a tie) are the candidates; each other participant narrows them
    with its children's key view, probed by value, never enumerated."""
    def survivors(state, candidates):
        smallest = None
        for i, hint, opener in operands:
            size = hint(state[i])
            if smallest is None or size < least:
                smallest, least, first = i, size, opener
        if candidates is not None:
            candidates[depth] += least
        values = state[smallest]
        if first is not None:
            values = state[smallest] = first(values)
        for i, _hint, opener in operands:
            if not values:
                break
            if i != smallest:
                kids = state[i]
                if opener is not None:
                    kids = state[i] = opener(kids, values)
                values = kids.keys() & values
        return values
    return survivors


def hash_levels(binding: Binding) -> list[HashLevel]:
    """One :class:`HashLevel` per depth; walk from ``binding.roots()``."""
    levels = zip(binding.participants, binding.filters)
    return [
        HashLevel(binding.indexes, ids, keep, depth)
        for depth, (ids, keep) in enumerate(levels)
    ]


class LeapfrogLevel:
    """Leapfrog Triejoin's level: open the participants' cursors, emit
    the keys all of them hold, restore them.  State lives in the
    cursors: no position of the walk's state (``()``) moves."""

    __slots__ = ("cursors", "keep", "depth")
    participants = ()

    def __init__(
        self, cursors: Sequence, keep: Filter | None, depth: int
    ) -> None:
        self.cursors = cursors
        self.keep = keep
        self.depth = depth

    def survivors(self, state: Sequence, candidates: list[int] | None):
        """Generate the keys the leapfrog emits and the filter keeps
        (cursors open while suspended); a candidate is an *emitted* key."""
        cursors, keep, depth = self.cursors, self.keep, self.depth
        for cursor in cursors:
            cursor.open()
        try:
            if not any(cursor.at_end for cursor in cursors):
                for value in _leapfrog(cursors):
                    if candidates is not None:
                        candidates[depth] += 1
                    if keep is None or keep(value):
                        yield value
        finally:
            for cursor in cursors:
                cursor.up()

    def leaf(self, state: Sequence, candidates: list[int] | None) -> list:
        """The keys :meth:`survivors` generates, in one batch."""
        return list(self.survivors(state, candidates))


def leapfrog_levels(binding: Binding) -> list[LeapfrogLevel]:
    """One :class:`LeapfrogLevel` per depth over *fresh* cursors sharing
    the binding's indexes; the walk's root state is ``()``."""
    cursors = [index.cursor() for index in binding.indexes]
    levels = zip(binding.participants, binding.filters)
    return [
        LeapfrogLevel([cursors[i] for i in ids], keep, depth)
        for depth, (ids, keep) in enumerate(levels)
    ]


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
