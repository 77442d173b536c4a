"""Seeded, process-stable sampling and sampled conditional selectivities.

The planner's key question — *given a tuple of relation ``R``, how likely
is it to find a partner in relation ``S``?* — is answered here by
probing a small sample of ``R``'s tuples against the projection of ``S``
onto their shared attributes.  The estimate ``P(match | tuple of R)`` is
the **conditional selectivity** the greedy order descent multiplies into
its partial-result estimates; unlike the AGM bound it is data-dependent
(two relations with disjoint value ranges report ~0 even though their
sizes alone predict a huge join).

Determinism is load-bearing: identical seeds must give identical samples
— and therefore identical plans — across *processes*, not just runs.
Python's ``frozenset`` iteration order depends on value hashes, and
string hashing is randomized per process (``PYTHONHASHSEED``), so
neither ``random.sample`` over a set nor hash-order truncation is
reproducible.  :func:`sample_rows` therefore first puts the rows in
*sorted* order — the one order that is a function of the row values
alone — and draws ``k`` positions from it with a ``random.Random``
seeded by the caller: a uniform sample without replacement, and a pure
function of ``(rows, seed)``.  Rows whose values do not compare (a
column mixing, say, ints and strings) are ordered by ``repr`` instead,
which is stable for the built-in value types relations hold.

The scan is cheap on purpose — one C-level sort and ``k`` draws, no
per-row Python call: a plan must cost less than the join it plans.
"""

from __future__ import annotations

import random
from collections.abc import Iterable, Iterator, Sequence
from operator import itemgetter

from repro.relations.relation import Relation, Row

__all__ = [
    "conditional_selectivity",
    "projection_values",
    "sample_rows",
]


def sample_rows(relation: Relation, k: int, seed: int) -> tuple[Row, ...]:
    """Up to ``k`` rows of ``relation``, a pure function of the seed.

    A uniform sample without replacement, drawn by ``random.Random(seed)``
    from the rows in sorted order (``repr`` order when values do not
    compare), so it never depends on set iteration order.  With
    ``k >= len(relation)`` every row is returned.
    """
    if k <= 0:
        return ()
    try:
        rows = sorted(relation.tuples)
    except TypeError:
        # A failed sort is no accident of the starting order: rows that
        # sort at all are totally ordered, so every process lands here.
        rows = sorted(relation.tuples, key=repr)
    return tuple(random.Random(seed).sample(rows, min(k, len(rows))))


def _project(rows: Iterable[Row], indices: Sequence[int]) -> Iterator[Row]:
    """``tuple(row[i] for i in indices)`` per row, looped in C."""
    if len(indices) == 1:
        # zip over one iterable wraps each value in a 1-tuple.
        return zip(map(itemgetter(indices[0]), rows))
    if not indices:
        return (() for _row in rows)
    return map(itemgetter(*indices), rows)


def projection_values(
    relation: Relation, attributes: Sequence[str]
) -> frozenset[Row]:
    """``pi_attributes(relation)`` as a frozenset of value tuples."""
    return frozenset(_project(relation.tuples, relation.positions(attributes)))


def conditional_selectivity(
    source: Relation,
    shared: Sequence[str],
    sample: Iterable[Row],
    target_projection: frozenset[Row],
) -> float:
    """``P(match in target | tuple of source)``, estimated on a sample.

    ``sample`` holds rows of ``source`` (see :func:`sample_rows`);
    ``target_projection`` is the target relation's projection onto the
    ``shared`` attributes (see :func:`projection_values`).  Returns the
    fraction of sampled source rows whose shared-attribute values appear
    in the target — 1.0 means the target never prunes, values near 0
    mean binding the target's attributes first would eliminate almost
    every source tuple.

    An empty sample (empty source relation) reports 0.0: a tuple drawn
    from an empty relation matches nothing because there is no tuple.
    """
    keys = list(_project(sample, source.positions(shared)))
    if not keys:
        return 0.0
    return sum(map(target_projection.__contains__, keys)) / len(keys)
