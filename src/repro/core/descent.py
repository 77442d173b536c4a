"""The descent kernel: one binding, one loop nest, three sinks, one level.

Generic Join is one recursion over a global attribute order — at each
level, intersect the candidate values of the relations containing the
attribute, then descend per surviving value — and enumeration,
per-level counting, aggregate folding and the sampler's count-and-unrank
differ only in what happens at a node (Capelli, Irwin and Salvati, "A
Simple Algorithm for Worst-Case Optimal Join and Sampling").  This
module holds the pieces every such search shares:

* :func:`bind` resolves a query, an attribute order, index backends and
  residual filters into an immutable :class:`Binding` — the only place
  that validates the order and consults the catalog's index cache
  (:func:`narrow` derives a shard's binding from it: one more value
  filter per key link, nothing rebuilt);
* :func:`iter_rows`, :func:`iter_texts` and :func:`fold` are the one
  descent over a binding, as the loop nest the paper prints — one
  ``for`` per attribute — *generated* per **shape**: all the loop's
  text depends on (per level its participants and ``how`` it is read,
  the number of relations, the stop depth, the sink, whether a probe
  counts) and nothing its data does.  A shape compiles once per process
  (:func:`_compile`); levels, predicates, the probe, the root nodes, a
  fold's state and the text sink's memos are the nest's arguments;
* :class:`HashLevel` reads one level in Õ(its smallest participant),
  the one primitive the AGM bound needs ("Skew Strikes Back"): over one
  or two hash-trie nodes the nest reads it in line, with no call.

Leapfrog Triejoin enumerates by its own recursion over cursors
(:mod:`repro.core.leapfrog`); its folds are this nest over its layouts.

In the text a relation's node is a local (``n2_1 = n2_0[v0]``), stepped
only if something deeper reads it.  Two hash-trie nodes are a loop over
the smaller probing the other in line, no call and no set per search
node: ``vals<d>, big<d> = (n0_1, n2_1) if len(n0_1) <= len(n2_1) else
(n2_1, n0_1)``, then ``if v<d> not in big<d>: continue`` (guarded, ``vals<d>
= filter(keep<d>, filter(big<d>.__contains__, vals<d>))``); one is the
batch, ``vals<d> = n0_0``; other levels are ``vals<d> = op<d>(st, ..)``,
``survivors`` on a state list, whose nodes opened in place are read back
after the call.  With a probe, ``partials[d] += 1`` and ``candidates[d]
+= min(len(..), ..)`` stand before a level's values are taken and
``matches[d] += 1`` follows the probe in its loop; without one the lines
are not there.  A fold, never probed, sums ``acc += len(n3_4)`` below
its cutoff, ``add``s it once there, and counts an unlooped last level
with one C-level meet, ``vals3 = n2_1.keys() & n1_2.keys()``.
Where the values a level's subtree still reads (:func:`_memo_keys`) are
fewer than its prefix, the fold memoises the subtree's count on them:
``outer3 = acc`` / ``acc = memo3.get(v2)`` / ``if acc is None:`` counts
it from ``acc = 0`` and stores ``memo3[v2] = acc``, then ``acc +=
outer3``; ``fold`` hands the nest a fresh dict per memo, so none
outlives a run.
A text nest joins ``pre = head[v0] + mid[v1]`` once per leaf set with
values — under ``if vals2:``, or at the first value a probe keeps, ``if
pre is None:`` — and yields ``pre + tail[v2]``: its memos hold each
value's text with its brackets and commas (the server's are JSON), so
it holds no string.

CPython compiles 20 nested blocks at most: a deeper nest is cut into
``def``s chained by ``yield from`` (a fold's by ``acc +=`` or ``state
=``).  The text holds only names the compiler invents and integers,
never a caller's string; :mod:`linecache` knows it as ``<repro descent
N>``, so a raising predicate shows the loop line that called it.  The
consumers are ``GenericJoin``, ``fold_executor``, ``JoinSampler`` and
the server's row texts (``PreparedQuery._texts``); nothing here imports
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


def resolve_order(
    query: JoinQuery, attribute_order: Sequence[str] | None
) -> tuple[str, ...]:
    """``attribute_order`` as a tuple (the query's own when ``None``);
    :class:`~repro.errors.QueryError` unless it is a permutation of the
    query's attributes.  The planner checks a pinned order with it, so
    a plan never prints an order no descent can run."""
    if attribute_order is None:
        return query.attributes
    order = tuple(attribute_order)
    if len(order) != len(query.attributes) or set(order) != set(
        query.attributes
    ):
        raise QueryError(
            f"attribute order {order!r} is not a permutation of "
            f"{query.attributes!r}"
        )
    return order


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
    order = resolve_order(query, attribute_order)
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


def iter_rows(binding: Binding, probe=None) -> Iterator[tuple]:
    """The *rows* sink: the full-depth descent as rows in
    :attr:`Binding.output_perm` order, each built in the innermost
    loop — one generator hop per row at any depth — and counted in
    ``probe.matches[-1]`` as it is yielded: the chain holds at any stop."""
    return _nest(binding.output_perm, binding, probe)


class Text(NamedTuple):
    """The text sink's shape: the rows' perm."""

    perm: tuple[int, ...]


def iter_texts(
    binding: Binding, perm: Sequence[int], memos: Sequence
) -> Iterator[str]:
    """The *text* sink: the rows of :func:`iter_rows`, unprobed, in
    ``perm`` order, each its values' texts joined — ``memos`` is
    ``(head, mid, tail)``, read for the first, a middle and the last (or
    only) column — the columns bound above the leaf joined once per leaf
    set that has values."""
    return _nest(Text(tuple(perm)), binding, None, *memos)


class Fold(NamedTuple):
    """The fold sink's shape: the depths the spec reads and, per relation
    below the searched levels, ``(position, levels, nodes are mappings)``."""

    needed: tuple[int, ...]
    tail: tuple[tuple[int, int, bool], ...]


def fold(binding: Binding, stop: int, needed: Sequence[int], add, state):
    """The *fold* sink: ``state`` advanced by one ``add(state, values,
    multiplicity)`` per prefix of the ``needed`` depths with completions
    — ``multiplicity`` of them.  The nest searches ``stop`` levels, no
    shallower than ``needed``; each level below must be one unfiltered
    relation's (the caller checks), so their (ST2) counts multiply."""
    indexes, remaining = binding.indexes, {}
    for (i,) in binding.participants[stop:]:
        remaining[i] = remaining.get(i, 0) + 1
    # A tail node may be a root, and an empty trie's root has no counts
    # to read — but a join with an empty relation is empty anyway.
    if not all([len(indexes[i]) for i in remaining]):
        return state
    tail = tuple([(i, r, isinstance(indexes[i].root, Mapping))
                  for i, r in remaining.items()])
    levels = hash_levels(binding)
    kinds = tuple([(level.participants, level.how) for level in levels[:stop]])
    nest = _compile(Fold(tuple(needed), tail), len(indexes), False, kinds)
    memos = _memo_keys(kinds, tail, 1 + max(needed, default=-1), stop)
    return nest(levels, None, *binding.roots(), indexes, add, state,
                *[{} for _memo in memos])


def _nest(sink, binding: Binding, probe, *extra):
    """Look the full descent's shape up and call its nest."""
    levels = hash_levels(binding)
    kinds = tuple([(level.participants, level.how) for level in levels])
    nest = _compile(sink, len(binding.indexes), probe is not None, kinds)
    return nest(levels, probe, *binding.roots(), *extra)


_MAX_BLOCKS = 20  # CPython's limit on statically nested blocks
#: Shapes kept compiled: a constant, so that a server fed hostile query
#: shapes recompiles the oldest instead of growing.
_NESTS_MAX = 256
_SERIAL = itertools.count()


@lru_cache(maxsize=_NESTS_MAX)
def _memo_keys(kinds: tuple, tail: tuple, cutoff: int, stop: int) -> tuple:
    """A fold's memos, as ``(depth, key)`` pairs.  At a depth ``d`` it
    loops, at or below ``cutoff``, the key is the depths ``k < d`` whose
    value a relation still read at ``d`` or deeper holds — a level's
    participant there, or one of ``tail``'s, counted at the frontier.
    The subtree below a prefix counts the same for every prefix with
    its key, so a depth whose key is shorter than its prefix gets a
    memo."""
    live = {i for i, _levels, _mapping in tail}
    memos = []
    for d in range(stop - 1, max(cutoff, 1) - 1, -1):
        live.update(kinds[d][0])
        key = tuple([k for k in range(d) if live.intersection(kinds[k][0])])
        # Without a tail the last level is counted, not looped.
        if len(key) < d and (tail or d < stop - 1):
            memos.append((d, key))
    return tuple(reversed(memos))


@lru_cache(maxsize=_NESTS_MAX)
def _compile(sink, width: int, probed: bool, kinds: tuple):
    """The nest of a shape: ``sink`` is the rows' perm, a :class:`Text`
    or a :class:`Fold`, ``kinds`` a ``(participants, how)`` per level it
    searches.  A fold's ``def`` returns ``state``, or the ``acc`` it
    summed if it starts below the cutoff (its deepest read, plus one),
    and takes a memo per :func:`_memo_keys` depth after ``state``."""
    stop = len(kinds)
    folding = isinstance(sink, Fold)
    texting = isinstance(sink, Text)
    extra = "head, mid, tail, " if texting else ""
    below, counted, memos = set(), False, {}
    if folding:
        cutoff = 1 + max(sink.needed, default=-1)
        adds = f"state = add(state, ({''.join(f'v{p}, ' for p in sink.needed)}), "
        memos = dict(_memo_keys(kinds, sink.tail, cutoff, stop))
        extra = "indexes, add, state, " + "".join(f"memo{d}, " for d in memos)
        below = {i for i, _levels, _mapping in sink.tail}  # read at stop
        counted = not sink.tail and cutoff < stop  # the last level unlooped
    cur = [f"n{i}_0" for i in range(width)]  # each relation's node local
    chunks: list[list[str]] = []  # one ``def`` each
    closers: list[str] = []  # the memo / ``add`` clauses to write
    for d in range(stop + 1):
        ids, how = kinds[d] if d < stop else ((), None)
        final = d == stop - 1
        loops = d < stop and not (final and counted)
        guard = texting and final and stop > 1  # ``if vals<d>:``
        prefix = "".join(f"v{k}, " for k in range(d))
        if not chunks or blocks + loops + guard > _MAX_BLOCKS:
            names = prefix + "".join(f"{name}, " for name in cur) + extra
            call = f"nest{len(chunks)}(levels, probe, {names})"
            if chunks:  # the cut: chain to a new def, close what is open
                chain = ("yield from " if not folding
                         else "state = " if d <= cutoff else "acc += ")
                out += [f"{pad}{chain}{call}", *reversed(closers), *returns]
                closers.clear()
            chunks.append(out := [f"def {call}:"])
            pad, blocks, returns = " ", 0, []
            if folding:
                returns = [f" return {'state' if d <= cutoff else 'acc'}"]
                if d > cutoff:
                    out.append(" acc = 0")
            if probed:
                out.append(" partials, candidates, matches = "
                           "probe.partials, probe.candidates, probe.matches")
        if folding and d == cutoff < stop:
            out.append(f"{pad}acc = 0")
            closers.append(f"{pad}if acc:\n{pad} {adds}acc)")
        if d in memos:  # the subtree's count is its key's: look it up
            key = "".join(f"v{k}, " for k in memos[d])
            key = key[:-2] if len(memos[d]) == 1 else f"({key})"  # v1, (v1, v3, )
            out += [f"{pad}outer{d} = acc", f"{pad}acc = memo{d}.get({key})",
                    f"{pad}if acc is None:", f"{pad} acc = 0"]
            closers.append(f"{pad} memo{d}[{key}] = acc\n{pad}acc += outer{d}")
            pad += " "
        if d == stop and not folding:  # the nullary row
            out.append(f"{pad}yield ()")
            break
        if d == stop:  # the frontier: the tail's counts multiply
            terms = []
            for i, levels, mapping in sink.tail:
                if not mapping:
                    out.insert(1, f" tally{i} = indexes[{i}].count")
                    terms.append(f"tally{i}({cur[i]}, {levels})")
                else:
                    terms.append(f"len({cur[i]})" if levels == 1
                                 else f"{cur[i]}.counts[{levels}]")
            product = " * ".join(terms) or "1"
            out.append(f"{pad}{adds}{product})" if d == cutoff
                       else f"{pad}acc += {product}")
            break
        deeper = {i for later, _how in kinds[d + 1:] for i in later} | below
        moved = [i for i in ids if i in deeper]
        if probed:
            out.append(f"{pad}partials[{d}] += 1")
        probing = how != "opened" and len(ids) == 2 and loops
        if how != "opened":
            nodes = [cur[i] for i in ids]
            if probed:
                sizes = ", ".join(f"len({node})" for node in nodes)
                least = f"min({sizes})" if len(ids) > 1 else sizes
                out.append(f"{pad}candidates[{d}] += {least}")
            if how == "filtered":
                out.insert(1, f" keep{d} = levels[{d}].keep")
            if probing:  # loop the smaller node (the first on a tie)
                x, y = nodes
                out.append(f"{pad}vals{d}, big{d} = ({x}, {y}) "
                           f"if len({x}) <= len({y}) else ({y}, {x})")
                values = f"filter(big{d}.__contains__, vals{d})"
            else:  # one node is the batch; a counted pair, one C-level meet
                values = (nodes[0] if len(ids) == 1
                          else f"{nodes[1]}.keys() & {nodes[0]}.keys()")
            if how == "filtered":  # ``keep`` sees what the probe kept
                values = f"filter(keep{d}, {values})"
                if not loops or guard and not probing:  # tested, then looped
                    values = f"list({values})"
            if how == "filtered" or not probing:
                out.append(f"{pad}vals{d} = {values}")
        else:
            out.insert(1, f" op{d} = levels[{d}].survivors")
            state = [cur[i] if i in ids else "None" for i in range(width)]
            out.append(f"{pad}st = [{', '.join(state)}]")
            out.append(f"{pad}vals{d} = op{d}(st, {'candidates' if probed else None})")
            for i in moved:  # array nodes were opened in place: read back
                cur[i] = f"o{i}_{d}"
                out.append(f"{pad}{cur[i]} = st[{i}]")
        if not loops:  # an empty batch adds nothing: skip its ``len``
            out.append(f"{pad}if vals{d}:\n{pad} acc += len(vals{d})")
            break
        join = []
        if guard:  # the columns bound above the leaf, joined once
            texts = [f"{'tail' if p == stop - 1 else 'mid' if p else 'head'}"
                     f"[v{k}]" for p, k in enumerate(sink.perm)]
            at = sink.perm.index(d)
            row = texts[at]
            if at:
                join.append(f"pre = {' + '.join(texts[:at])}")
                row = f"pre + {row}"
            if at < stop - 1:
                join.append(f"post = {' + '.join(texts[at + 1:])}")
                row += " + post"
            if probing:  # ... at the first value the probe keeps
                unjoined = "pre" if at else "post"
                out.append(f"{pad}{unjoined} = None")
                join = [f"if {unjoined} is None:", *[f" {j}" for j in join]]
            else:
                out.append(f"{pad}if vals{d}:")
                out += [f"{pad} {j}" for j in join]
                pad, blocks, join = pad + " ", blocks + 1, []
        out.append(f"{pad}for v{d} in vals{d}:")
        pad, blocks = pad + " ", blocks + 1
        if probing and how == "meet":
            out.append(f"{pad}if v{d} not in big{d}: continue")
        if probed:
            out.append(f"{pad}matches[{d}] += 1")
        if final and texting:
            out += [f"{pad}{j}" for j in join]
            out.append(f"{pad}yield {row if guard else 'tail[v0]'}")
            break
        if final and not folding:
            out.append(f"{pad}yield ({''.join(f'v{p}, ' for p in sink)})")
            break
        for i in moved:
            out.append(f"{pad}n{i}_{d + 1} = {cur[i]}[v{d}]")
            cur[i] = f"n{i}_{d + 1}"
    out += [*reversed(closers), *returns]
    source = "".join(f"{line}\n" for out in chunks for line in out)
    filename = f"<repro descent {next(_SERIAL)}>"
    linecache.cache[filename] = len(source), None, source.splitlines(True), filename
    exec(compile(source, filename, "exec"), namespace := {})
    nest = namespace["nest0"]  # evicted, it takes its source with it
    weakref.finalize(nest, linecache.cache.pop, filename, None)
    return nest


class HashLevel:
    """Generic Join's level: the values below every participant's node
    that pass the filter — a sized, unordered batch; it keeps no state,
    so descents may share one.
    ``how`` it is read is decided once, from its indexes' root types.
    One or two :class:`~collections.abc.Mapping` nodes (the hash trie's
    ``value -> child`` dicts): ``"meet"``, read in line by the nest — a
    loop over the smaller probing the other — or ``"filtered"``, the
    same under ``keep``.  Otherwise
    ``"opened"``: ``survivors`` on a state list indexed by relation
    position reads an array range through its index's ``fanout_hint`` /
    ``children`` and *opens it in place* — replaces it by the dict of
    what the seeks found — so ``node[value]`` steps down every backend.
    Over a ``meet``, ``survivors`` (the sampler's) is ``_only`` / ``_pair``."""

    __slots__ = ("participants", "how", "keep", "survivors")

    def __init__(
        self, indexes: Sequence, participants: Sequence[int],
        keep: Filter | None, depth: int,
    ) -> None:
        self.participants = participants
        self.keep = keep
        mappings = [isinstance(indexes[i].root, Mapping) for i in participants]
        if all(mappings) and len(participants) <= 2:
            meet = _pair if len(participants) == 2 else _only
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
            self.how = "opened"
            # (position, exact O(1) fanout, batch opener — None: a mapping).
            survivors = _smallest_first(depth, [
                (i, len, None) if mapping
                else (i, indexes[i].fanout_hint, indexes[i].children)
                for i, mapping in zip(participants, mappings)
            ])
        if keep is not None:
            def survivors(state, candidates, unfiltered=survivors):
                return list(filter(keep, unfiltered(state, candidates)))
        self.survivors = survivors


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
