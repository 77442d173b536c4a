"""The descent kernel: one binding, one loop nest, four sinks, one level.

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
* :func:`iter_rows`, :func:`iter_texts`, :func:`fold` and
  :func:`unrank` are the one descent over a binding, as the loop nest
  the paper prints — one ``for`` per attribute — *generated* per
  **shape**: all the loop's text depends on (per level its
  participants and ``how`` it is read, the number of relations, the
  stop depth, the sink, whether a probe counts) and nothing its data
  does.  A shape compiles once per process (:func:`_compile`): a shape
  pass (:func:`_shape`) makes one record per level, one writer
  (:class:`_Rows`) writes the lines every sink shares and owns the
  chain cut, and each other sink (:class:`_Texts`, :class:`_Folds`,
  :class:`_Unranks`) writes only its own leaf and frontier.  Levels,
  predicates, the probe, the root nodes, a fold's state, the text
  sink's memos and the sampler's counts are the nest's arguments;
* :class:`HashLevel` reads one level in Õ(its smallest participant),
  the one primitive the AGM bound needs ("Skew Strikes Back"): over one
  or two hash-trie nodes the nest reads it in line, with no call, and
  the level has no ``survivors``; any other level is ``opened``, and
  the nest calls its ``survivors``.

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
its cutoff (a deeper tail in line, ``tab3[id(n3_1)][2]`` from a
trie's ``count_table``, else ``tally3(n3_1, 2)``), ``add``s it once
there, and counts a last level over two nodes in line, no set per
parent: ``for v3 in vals3:`` / ``if v3 in big3: acc += 1`` (filtered,
``list(filter(keep3, n2_1.keys() & n1_2.keys()))``, then its ``len``).
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
An unrank nest walks the rows nest's loops with ``skip``, the rows
before the next drawn rank: above the leaf it reads each child's count,
``acc = counts.get((v0, v1, ), 0)``, and passes a child ``skip`` reaches
(``if skip >= acc: skip -= acc; continue``); at the leaf ``if skip:
skip -= 1; continue``, else it yields the row and takes the next gap,
``skip = next(skips)`` — one walk for every draw, in the rows' order.

CPython compiles 20 nested blocks at most: a deeper nest is cut into
``def``s chained by ``yield from`` (a fold's by ``acc +=`` or ``state
=``, an unrank's by ``skip = yield from``).  The text holds only names
the compiler invents and integers, never a caller's string;
:mod:`linecache` knows it as ``<repro descent N>``, so a raising
predicate shows the loop line that called it.  The
consumers are ``GenericJoin``, ``fold_executor``, ``JoinSampler`` and
the server's row texts (``PreparedQuery._texts``); nothing here imports
``repro.engine`` or ``repro.aggregate``: both reach back into here.
"""

from __future__ import annotations

import itertools
import linecache
import weakref
from collections import Counter, namedtuple
from collections.abc import Callable, Iterator, Mapping, Sequence
from functools import lru_cache
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


def index_triples(
    query: JoinQuery,
    order: Sequence[str],
    backend: str | Mapping[str, str] = DEFAULT_BACKEND,
) -> tuple[tuple[str, tuple[str, ...], str], ...]:
    """The ``(relation, index order, kind)`` triples of a walk over
    ``order``: each relation's attributes ranked by ``order``, under
    ``backend`` — one index kind for every relation or a mapping of
    relation name to kind (absent relations get the default kind).
    :func:`bind` opens these indexes, and
    :meth:`~repro.engine.planner.JoinPlan.index_requirements` lists them."""
    rank = {a: i for i, a in enumerate(order)}.__getitem__
    if not isinstance(backend, Mapping):
        backend = dict.fromkeys(query.edge_ids, backend)
    return tuple(
        (
            eid,
            tuple(sorted(query.relation(eid).attributes, key=rank)),
            backend.get(eid, DEFAULT_BACKEND),
        )
        for eid in query.edge_ids
    )


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
    for position, (eid, index_order, kind) in enumerate(
        index_triples(query, order, backend)
    ):
        relation = query.relation(eid)
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
    indexes = binding.indexes
    remaining = Counter([i for (i,) in binding.participants[stop:]])
    # A join with an empty relation is empty: no nest to run.
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


class Unrank(NamedTuple):
    """The unrank sink's shape: the rows' perm."""

    perm: tuple[int, ...]


def unrank(binding: Binding, counts: Mapping, ranks: Sequence[int]) -> list[tuple]:
    """The *unrank* sink: the rows :func:`iter_rows` yields at the
    distinct ``ranks``, in their order, from one walk in rank order.
    ``counts`` holds the rows below each prefix of the levels above the
    last: ``skip``, the rows before the next rank, passes a child whose
    count it reaches without searching it."""
    ordered = sorted(ranks)
    skips = iter([b - a - 1 for a, b in zip([-1, *ordered], ordered)])
    rows = dict(zip(ordered, _nest(  # zip ends before resuming it past the last
        Unrank(binding.output_perm), binding, None, counts, skips, next(skips, 0))))
    return [rows[rank] for rank in ranks]


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


@lru_cache(maxsize=_NESTS_MAX, typed=True)  # ``Text(p) == Unrank(p)``
def _compile(sink, width: int, probed: bool, kinds: tuple):
    """The nest of a shape: ``sink`` is the rows' perm, a :class:`Text`,
    a :class:`Fold` or an :class:`Unrank`, ``kinds`` a ``(participants,
    how)`` per level it searches.  A fold's ``def`` returns ``state``,
    or the ``acc`` it summed if it starts below the cutoff (its deepest
    read, plus one), and takes a memo per :func:`_memo_keys` depth after
    ``state``; an unrank's returns the ``skip`` it has left."""
    source = _WRITERS.get(type(sink), _Rows)(sink, width, probed, kinds).text()
    filename = f"<repro descent {next(_SERIAL)}>"
    linecache.cache[filename] = len(source), None, source.splitlines(True), filename
    exec(compile(source, filename, "exec"), namespace := {})
    nest = namespace["nest0"]  # evicted, it takes its source with it
    weakref.finalize(nest, linecache.cache.pop, filename, None)
    return nest


def _vs(depths, name: str = "v") -> str:
    """The values bound at ``depths`` as a tuple's items, ``v0, v2, ``
    (or another ``name``'s)."""
    return "".join(f"{name}{k}, " for k in depths)


#: One level of a shape, as every sink's text reads it: its depth, its
#: participants (``ids``) and ``how`` it is read (None: the frontier,
#: below the last); the participants whose child is read deeper
#: (``moved``); whether it ``loops`` (not a fold's counted last level);
#: whether it is ``probing`` (two hash nodes, unfiltered where counted:
#: loop the smaller, probe the other in line); a text leaf's ``guard`` (its
#: columns joined once per leaf set); a fold's ``memo`` key or None.
_Level = namedtuple("_Level", "depth ids how moved loops probing guard memo")


def _shape(kinds: tuple, sink: _Rows) -> list[_Level]:
    """The shape pass: a :class:`_Level` per searched level and the
    frontier's, from what ``sink`` reads below, counts, guards and
    memoises."""
    stop, shape = len(kinds), []
    for d, (ids, how) in enumerate(kinds):
        loops = d < stop - 1 or not sink.counted
        deeper = {i for later, _how in kinds[d + 1:] for i in later}
        moved = tuple([i for i in ids if i in deeper or i in sink.below])
        probing = len(ids) == 2 and (how == "meet" or how == "filtered" and loops)
        shape.append(_Level(d, ids, how, moved, loops, probing,
                            sink.guards and d == stop - 1 > 0, sink.memos.get(d)))
    return [*shape, _Level(stop, (), None, (), False, False, False, None)]


class _Rows:
    """The writer every sink's nest is — its ``def``s, the lines all
    sinks share (the probe's counters, a level's values, its loop, the
    node steps) and the chain cut — and the rows sink, whose leaf is
    ``yield (v..)``.  Another sink overrides only its own text: what a
    ``def`` takes, opens with and returns, and its leaf and frontier."""

    params, below, counted, guards, memos = "", frozenset(), False, False, {}

    def __init__(self, sink, width: int, probed: bool, kinds: tuple) -> None:
        self.sink, self.probed, self.stop = sink, probed, len(kinds)
        self.cur = [f"n{i}_0" for i in range(width)]  # each relation's node
        self.counters = [" partials, candidates, matches = probe.partials, "
                         "probe.candidates, probe.matches"] * probed
        # The ``def``s; the memo / ``add`` clauses and the ``return`` to close.
        self.chunks, self.closers, self.shape = [], [], _shape(kinds, self)

    def text(self) -> str:
        """Each level's lines, down to the leaf or the frontier."""
        for level in self.shape:
            self.start(level)
            if self.level(level):
                break
        self.out += reversed(self.closers)
        return "".join(f"{line}\n" for out in self.chunks for line in out)

    def line(self, text: str) -> None:
        self.out.append(f"{self.pad}{text}")

    def start(self, level: _Level) -> None:
        """Where a level's lines start: open the first ``def`` or — where
        its blocks would pass CPython's limit — chain to a new one and
        close what is open."""
        if self.chunks and self.blocks + (
            level.loops or level.probing) + level.guard <= _MAX_BLOCKS:
            return
        names = _vs(range(level.depth)) + "".join(f"{node}, " for node in self.cur)
        call = f"nest{len(self.chunks)}(levels, probe, {names}{self.params})"
        chain, opening, closing = self.begin(level.depth)
        if self.chunks:
            self.line(f"{chain}{call}")
            self.out += reversed(self.closers)
        self.chunks.append(out := [f"def {call}:", *opening, *self.counters])
        self.out, self.pad, self.blocks, self.closers = out, " ", 0, closing

    def level(self, level: _Level) -> bool:
        """One level's lines; True where the nest ends."""
        d, cur = level.depth, self.cur
        if level.how is None:
            self.frontier()
            return True
        if self.probed:
            self.line(f"partials[{d}] += 1")
        if level.how == "opened":
            self.out.insert(1, f" op{d} = levels[{d}].survivors")
            state = [cur[i] if i in level.ids else "None" for i in range(len(cur))]
            self.line(f"st = [{', '.join(state)}]")
            self.line(f"vals{d} = op{d}(st, {'candidates' if self.probed else None})")
            for i in level.moved:  # array nodes were opened in place: read back
                cur[i] = f"o{i}_{d}"
                self.line(f"{cur[i]} = st[{i}]")
        else:  # one or two hash nodes, read in line
            self.meet(level)
        if level.guard or not level.loops:  # the batch itself is read
            self.batch(level)
        if not level.loops:
            return True
        self.line(f"for v{d} in vals{d}:")
        self.pad, self.blocks = self.pad + " ", self.blocks + 1
        if level.probing and level.how == "meet":
            self.line(f"if v{d} not in big{d}: continue")
        if self.probed:
            self.line(f"matches[{d}] += 1")
        if d == self.stop - 1 and self.leaf:  # a fold has none
            self.leaf(level)
            return True
        self.child(level)
        for i in level.moved:
            self.line(f"n{i}_{d + 1} = {cur[i]}[v{d}]")
            cur[i] = f"n{i}_{d + 1}"
        return False

    def meet(self, level: _Level) -> None:
        """A level over one or two hash nodes, read in line."""
        d, nodes = level.depth, [self.cur[i] for i in level.ids]
        if self.probed:
            sizes = ", ".join(f"len({node})" for node in nodes)
            self.line(f"candidates[{d}] += {f'min({sizes})' if nodes[1:] else sizes}")
        if level.probing:  # loop the smaller node (the first on a tie)
            x, y = nodes
            self.line(f"vals{d}, big{d} = ({x}, {y}) "
                      f"if len({x}) <= len({y}) else ({y}, {x})")
            values = f"filter(big{d}.__contains__, vals{d})"
        else:  # one node is the batch; a filtered counted pair, one meet
            values = (nodes[0] if len(nodes) == 1
                      else f"{nodes[1]}.keys() & {nodes[0]}.keys()")
        if level.how == "filtered":  # ``keep`` sees what the probe kept
            self.out.insert(1, f" keep{d} = levels[{d}].keep")
            values = f"filter(keep{d}, {values})"
            if not level.loops or level.guard and not level.probing:
                values = f"list({values})"  # tested, then looped
        if level.how == "filtered" or not level.probing:
            self.line(f"vals{d} = {values}")

    # What a sink writes itself; by default, the rows sink's text.

    def begin(self, d: int) -> tuple:
        """``(how a cut chains to a def at d, its opening, its closing)``."""
        return "yield from ", [], []

    def batch(self, level: _Level) -> None:
        """After the values of a level whose batch is tested (a text's
        guard) or counted (a fold's last level)."""

    def child(self, level: _Level) -> None:
        """First in the loop of a level above the leaf."""

    def leaf(self, level: _Level) -> None:
        """In the last level's loop: the row."""
        self.line(f"yield ({_vs(self.sink)})")

    def frontier(self) -> None:
        """Below the last level, where a nest has no leaf."""
        self.line("yield ()")  # the nullary row


class _Texts(_Rows):
    """The text sink: its leaf yields ``pre + tail[v<d>]``, the columns
    bound above it joined once per leaf set with values."""

    params, guards, join = "head, mid, tail, ", True, ()

    def batch(self, level: _Level) -> None:
        perm, last, d = self.sink.perm, self.stop - 1, level.depth
        texts = [f"{'tail' if p == last else 'mid' if p else 'head'}[v{k}]"
                 for p, k in enumerate(perm)]
        at = perm.index(d)  # the leaf's column: the others are joined once
        join = [f"pre = {' + '.join(texts[:at])}"] * (at > 0) + [
            f"post = {' + '.join(texts[at + 1:])}"] * (at < last)
        self.row = " + ".join(["pre"] * (at > 0) + [texts[at]] + ["post"] * (at < last))
        if level.probing:  # ... at the first value the probe keeps
            unjoined = "pre" if at else "post"
            self.line(f"{unjoined} = None")
            self.join = [f"if {unjoined} is None:", *[f" {j}" for j in join]]
        else:
            self.out += [f"{self.pad}if vals{d}:", *[f"{self.pad} {j}" for j in join]]
            self.pad, self.blocks = self.pad + " ", self.blocks + 1

    def leaf(self, level: _Level) -> None:
        self.out += [f"{self.pad}{j}" for j in self.join]
        self.line(f"yield {self.row if level.guard else 'tail[v0]'}")


class _Folds(_Rows):
    """The fold sink: ``acc`` sums below the cutoff and ``add``s there;
    a memo wraps a level; the last level is counted, or the frontier
    multiplies the tail's counts."""

    leaf = None  # the last level's loop reaches the frontier

    def __init__(self, sink: Fold, width: int, probed: bool, kinds: tuple) -> None:
        self.cutoff = cutoff = 1 + max(sink.needed, default=-1)
        self.memos = dict(_memo_keys(kinds, sink.tail, cutoff, len(kinds)))
        self.params = "indexes, add, state, " + _vs(self.memos, "memo")
        self.below = {i for i, _levels, _mapping in sink.tail}
        self.counted = not sink.tail and cutoff < len(kinds)
        self.adds = f"state = add(state, ({_vs(sink.needed)}), "
        super().__init__(sink, width, probed, kinds)

    def begin(self, d: int) -> tuple:
        if d <= self.cutoff:
            return "state = ", [], [" return state"]
        return "acc += ", [" acc = 0"], [" return acc"]

    def start(self, level: _Level) -> None:
        super().start(level)  # then the cutoff's ``acc``, a memo's lookup
        d, memo, pad = level.depth, level.memo, self.pad
        if d == self.cutoff < self.stop:
            self.line("acc = 0")
            self.closers.append(f"{pad}if acc:\n{pad} {self.adds}acc)")
        if memo is not None:  # the subtree's count is its key's: look it up
            key = f"v{memo[0]}" if len(memo) == 1 else f"({_vs(memo)})"
            self.out += [f"{pad}outer{d} = acc", f"{pad}acc = memo{d}.get({key})",
                         f"{pad}if acc is None:", f"{pad} acc = 0"]
            self.closers.append(f"{pad} memo{d}[{key}] = acc\n{pad}acc += outer{d}")
            self.pad += " "

    def batch(self, level: _Level) -> None:
        d = level.depth  # an empty batch adds nothing: skip its ``len``
        if level.probing:  # a counted pair: the smaller node's hits
            self.line(f"for v{d} in vals{d}:\n{self.pad} if v{d} in big{d}: acc += 1")
        else:
            self.line(f"if vals{d}:\n{self.pad} acc += len(vals{d})")

    def frontier(self) -> None:
        terms = []  # the tail's counts multiply
        for i, levels, mapping in self.sink.tail:
            node = self.cur[i]
            count = f"len({node})"
            if levels > 1 and mapping:  # a trie's tabled vector, inline
                self.out.insert(1, f" tab{i} = indexes[{i}].count_table")
                count = f"tab{i}[id({node})][{levels}]"
            elif not mapping:
                self.out.insert(1, f" tally{i} = indexes[{i}].count")
                count = f"tally{i}({node}, {levels})"
            terms.append(count)
        product = " * ".join(terms) or "1"
        last = self.stop == self.cutoff
        self.line(f"{self.adds}{product})" if last else f"acc += {product}")


class _Unranks(_Rows):
    """The unrank sink: a child whose count ``skip`` reaches is passed
    whole, and a leaf value yields its row once ``skip`` is spent."""

    params = "counts, skips, skip, "

    def begin(self, d: int) -> tuple:
        return "skip = yield from ", [], [" return skip"]

    def child(self, level: _Level) -> None:
        self.line(f"acc = counts.get(({_vs(range(level.depth + 1))}), 0)")
        self.line("if skip >= acc: skip -= acc; continue")

    def leaf(self, level: _Level) -> None:
        self.line(f"if skip: skip -= 1; continue\n{self.pad}yield "
                  f"({_vs(self.sink.perm)})\n{self.pad}skip = next(skips)")


_WRITERS = {Text: _Texts, Fold: _Folds, Unrank: _Unranks}


class HashLevel:
    """Generic Join's level: the values below every participant's node
    that pass the filter — a sized, unordered batch; it keeps no state,
    so descents may share one.
    ``how`` it is read is decided once, from its indexes' root types.
    One or two :class:`~collections.abc.Mapping` nodes (the hash trie's
    ``value -> child`` dicts): ``"meet"``, read in line by the nest — a
    loop over the smaller probing the other — or ``"filtered"``, the
    same under ``keep``; such a level has no ``survivors``.  Otherwise
    ``"opened"``: ``survivors`` on a state list indexed by relation
    position reads an array range through its index's ``fanout_hint`` /
    ``children`` and *opens it in place* — replaces it by the dict of
    what the seeks found — so ``node[value]`` steps down every backend."""

    __slots__ = ("participants", "how", "keep", "survivors")

    def __init__(
        self, indexes: Sequence, participants: Sequence[int],
        keep: Filter | None, depth: int,
    ) -> None:
        self.participants, self.keep = participants, keep
        mappings = [isinstance(indexes[i].root, Mapping) for i in participants]
        if all(mappings) and len(participants) <= 2:
            self.how = "meet" if keep is None else "filtered"
            return
        self.how = "opened"
        # (position, exact O(1) fanout, batch opener — None: a mapping).
        operands = [(i, len, None) if mapping
                    else (i, indexes[i].fanout_hint, indexes[i].children)
                    for i, mapping in zip(participants, mappings)]

        def survivors(state, candidates):
            # The smallest node's values (exact fanout, first wins a tie)
            # are the candidates; each other participant narrows them with
            # its children's key view, probed by value, never enumerated;
            # array nodes are opened in ``state``; ``keep`` sees the rest.
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
            return values if keep is None else list(filter(keep, values))
        self.survivors = survivors


def hash_levels(binding: Binding) -> list[HashLevel]:
    """One :class:`HashLevel` per depth; walk from ``binding.roots()``."""
    levels = zip(binding.participants, binding.filters)
    return [
        HashLevel(binding.indexes, ids, keep, depth)
        for depth, (ids, keep) in enumerate(levels)
    ]
