"""The descent kernel: one binding, one compiled loop nest, two levels.

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
* :func:`walk` and :func:`iter_rows` are the one descent, as the loop
  nest the paper prints — one ``for`` per attribute — *generated* per
  **shape**: all the loop's text depends on (per level its participants
  and ``how`` it is read, the number of relations, the stop depth, the
  sink, whether a probe counts) and nothing its data does.  A shape
  compiles once per process (:func:`_compile`); levels, predicates, the
  probe and the root nodes are the nest's arguments;
* :class:`HashLevel` and :class:`LeapfrogLevel` are the two ways to
  intersect one level — the only code that differs between the
  algorithms.  A :class:`HashLevel` is one batch intersection,
  Õ(the smallest participant), the one primitive the AGM bound needs
  ("Skew Strikes Back"), at one Python call per search node.

In the text a relation's node is a local (``n2_1 = n2_0[v0]``), stepped
only if something deeper reads it; a level is ``vals<d> = op<d>(...)``
— its ``meet`` on those locals, under ``filter(keep<d>, ...)`` if
guarded, or its ``survivors`` on a state list built on the spot, whose
nodes opened in place are read back after the call.  With a probe,
``partials[d] += 1`` and ``candidates[d] += min(len(..), ..)`` stand
before a level's values are taken and ``matches[d] += 1`` opens its
loop body (*rows* count a row as they yield it, *batches* a parent's
values at once); without one the lines are not there.

CPython compiles 20 nested blocks at most: a deeper nest is cut into
``def``s chained by ``yield from``.  An abandoned frame finalises its
iterators shallowest first but leapfrog cursors must go ``up()``
deepest first: a ``lazy`` level's loop sits in ``try ... finally:
vals<d>.close()``.  The text holds only names the compiler invents and
integers, never a caller's string; :mod:`linecache` knows it as
``<repro descent N>``, so a raising predicate shows the loop line that
called it.  The sinks are ``GenericJoin``, ``LeapfrogTriejoin``,
``fold_executor`` and ``JoinSampler``; nothing here imports
``repro.engine`` or ``repro.aggregate``: both reach back into here.
"""

from __future__ import annotations

import itertools
import linecache
import weakref
from collections.abc import Callable, Iterator, Mapping, Sequence
from functools import lru_cache
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
    below full depth (a fresh list of every relation's node), one
    **leaf batch** ``(prefix, values)`` per parent at full depth — the
    deepest level's survivors in one sized piece, parents with none
    skipped.  ``prefix`` is a fresh list of length ``stop`` (a batch
    leaves its last slot to the consumer); ``root`` is only read.  A
    ``TelemetryProbe`` gets ``partials[d]`` (openings of level ``d``),
    ``candidates[d]`` (values enumerated) and ``matches[d]`` (survivors).
    Abandoned, or under a raising filter, levels close deepest first."""
    sink = "batches" if 0 < stop == len(levels) else "states"
    return _nest(sink, levels, root, stop, probe)


def iter_rows(
    levels: Sequence, root: Sequence, perm: Sequence[int], probe=None
) -> Iterator[tuple]:
    """The *rows* sink: the full-depth descent as rows in ``perm``
    (:attr:`Binding.output_perm`) order, each built in the innermost
    loop — one generator hop per row at any depth — and counted in
    ``probe.matches[-1]`` as it is yielded: the chain holds at any stop."""
    return _nest(tuple(perm), levels, root, len(perm), probe)


def _nest(sink, levels: Sequence, root: Sequence, stop: int, probe):
    """Look the descent's shape up and call its nest."""
    kinds = tuple([(level.participants, level.how) for level in levels[:stop]])
    nest = _compile(sink, len(root), probe is not None, kinds)
    return nest(levels, probe, *root)


_MAX_BLOCKS = 20  # CPython's limit on statically nested blocks
#: Shapes kept compiled: a constant, so that a server fed hostile query
#: shapes recompiles the oldest instead of growing.
_NESTS_MAX = 256
_SERIAL = itertools.count()


@lru_cache(maxsize=_NESTS_MAX)
def _compile(sink, width: int, probed: bool, kinds: tuple):
    """The nest of a shape: ``sink`` is ``"states"``, ``"batches"`` or
    the rows' perm, ``kinds`` a ``(participants, how)`` per level."""
    stop = len(kinds)
    cur = [f"n{i}_0" for i in range(width)]  # each relation's node local
    chunks: list[list[str]] = []  # one ``def`` each
    closers: list[str] = []  # the ``finally`` clauses still to write
    for d in range(stop + 1):
        ids, how = kinds[d] if d < stop else ((), None)
        final = d == stop - 1 and sink != "states"
        lazy = how == "lazy" and not final  # a generator holding cursors
        prefix = "".join(f"v{k}, " for k in range(d))
        if not chunks or blocks + (d < stop) + lazy > _MAX_BLOCKS:
            names = prefix + "".join(f"{name}, " for name in cur)
            call = f"nest{len(chunks)}(levels, probe, {names})"
            if chunks:  # the cut: chain to a new def, close what is open
                out += [f"{pad}yield from {call}", *reversed(closers)]
                closers.clear()
            chunks.append(out := [f"def {call}:"])
            pad, blocks = " ", 0
            if probed:
                out.append(" partials, candidates, matches = "
                           "probe.partials, probe.candidates, probe.matches")
        if d == stop:  # below the last loop: a state, or the nullary row
            out.append(f"{pad}yield [{prefix}], [{', '.join(cur)}]"
                       if sink == "states" else f"{pad}yield ()")
            break
        deeper = {i for later, _how in kinds[d + 1:] for i in later}
        moved = [i for i in ids if sink == "states" or i in deeper]
        if probed:
            out.append(f"{pad}partials[{d}] += 1")
        if how in ("meet", "filtered"):
            out.insert(1, f" op{d} = levels[{d}].meet")
            if probed:
                sizes = ", ".join(f"len({cur[i]})" for i in ids)
                least = f"min({sizes})" if len(ids) > 1 else sizes
                out.append(f"{pad}candidates[{d}] += {least}")
            values = f"op{d}({', '.join(cur[i] for i in ids)})"
            if how == "filtered":
                out.insert(1, f" keep{d} = levels[{d}].keep")
                values = f"filter(keep{d}, {values})"
                if final and sink == "batches":
                    values = f"list({values})"
            out.append(f"{pad}vals{d} = {values}")
        else:
            out.insert(1, f" op{d} = levels[{d}].{'leaf' if final else 'survivors'}")
            state = [cur[i] if i in ids else "None" for i in range(width)]
            out.append(f"{pad}st = [{', '.join(state)}]")
            out.append(f"{pad}vals{d} = op{d}(st, {'candidates' if probed else None})")
            for i in moved:  # array nodes were opened in place: read back
                cur[i] = f"o{i}_{d}"
                out.append(f"{pad}{cur[i]} = st[{i}]")
        if final and sink == "batches":
            out.append(f"{pad}if vals{d}:")
            if probed:
                out.append(f"{pad} matches[{d}] += len(vals{d})")
            out.append(f"{pad} yield [{prefix}None], vals{d}")
            break
        if lazy:
            out.append(f"{pad}try:")
            closers.append(f"{pad}finally:\n{pad} vals{d}.close()")
            pad += " "
        out.append(f"{pad}for v{d} in vals{d}:")
        pad, blocks = pad + " ", blocks + 1 + lazy
        if probed:
            out.append(f"{pad}matches[{d}] += 1")
        if final:
            out.append(f"{pad}yield ({''.join(f'v{p}, ' for p in sink)})")
            break
        for i in moved:
            out.append(f"{pad}n{i}_{d + 1} = {cur[i]}[v{d}]")
            cur[i] = f"n{i}_{d + 1}"
    out += reversed(closers)
    source = "".join(f"{line}\n" for out in chunks for line in out)
    filename = f"<repro descent {next(_SERIAL)}>"
    linecache.cache[filename] = len(source), None, source.splitlines(True), filename
    exec(compile(source, filename, "exec"), namespace := {})
    nest = namespace["nest0"]  # evicted, it takes its source with it
    weakref.finalize(nest, linecache.cache.pop, filename, None)
    return nest


class HashLevel:
    """Generic Join's level: the values below every participant's node
    that pass the filter — a sized, unordered batch, so ``leaf`` is
    ``survivors``; it keeps no state, so descents may share one.
    ``how`` it is read is decided once, from its indexes' root types.
    One or two :class:`~collections.abc.Mapping` nodes (the hash trie's
    ``value -> child`` dicts): ``"meet"`` — ``meet`` on the node locals
    — or ``"filtered"``, the same under ``keep``.  Otherwise
    ``"opened"``: ``survivors`` on a state list indexed by relation
    position reads an array range through its index's ``fanout_hint`` /
    ``children`` and *opens it in place* — replaces it by the dict of
    what the seeks found — so ``node[value]`` steps down every backend.
    Over a ``meet``, ``survivors`` (a sampler trial calls it) is that."""

    __slots__ = ("participants", "how", "meet", "keep", "survivors", "leaf")

    def __init__(
        self, indexes: Sequence, participants: Sequence[int],
        keep: Filter | None, depth: int,
    ) -> None:
        self.participants = participants
        self.keep = keep
        mappings = [isinstance(indexes[i].root, Mapping) for i in participants]
        if all(mappings) and len(participants) <= 2:
            meet = self.meet = _pair if len(participants) == 2 else _only
            self.how = "meet" if keep is None else "filtered"
            nodes_of = itemgetter(*participants)  # C-level for a pair
            if meet is _only:  # ... where it would hand back a bare node
                nodes_of = lambda state, i=participants[0]: (state[i],)

            def survivors(state, candidates):
                nodes = nodes_of(state)
                if candidates is not None:
                    candidates[depth] += min(map(len, nodes))
                return meet(*nodes)
        else:
            self.how, self.meet = "opened", None
            # (position, exact O(1) fanout, batch opener — None: a mapping).
            survivors = _smallest_first(depth, [
                (i, len, None) if mapping
                else (i, indexes[i].fanout_hint, indexes[i].children)
                for i, mapping in zip(participants, mappings)
            ])
        if keep is not None:
            def survivors(state, candidates, unfiltered=survivors):
                return list(filter(keep, unfiltered(state, candidates)))
        self.survivors = self.leaf = survivors


def _only(a):
    """One mapping participant: the node is the batch."""
    return a


def _pair(a, b):
    """Two mapping participants: one key-view ``&`` — Õ(min), exactly."""
    return b.keys() & a.keys()  # iterates the smaller; on a tie, a


def _smallest_first(depth: int, operands: list):
    """Any other level: the smallest node's values (exact fanout, first
    wins a tie) are the candidates; each other participant narrows them
    with its children's key view, probed by value, never enumerated;
    array nodes are opened in ``state``."""
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
    cursors — no relation has a node local (the root is ``()``) — and
    ``survivors`` holds them open while suspended: ``how`` is ``"lazy"``."""

    __slots__ = ("cursors", "keep", "depth")
    participants, how = (), "lazy"

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
