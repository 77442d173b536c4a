"""Per-relation and per-attribute statistics: distinct counts and skew.

The AGM machinery consumes only relation *sizes* (the ``N_e`` vector);
everything the planner wants beyond that — how many distinct values an
attribute takes, whether its frequency distribution is skewed, which
values are the heavy hitters — lives here.  "Skew Strikes Back" (Ngo,
Ré, Rudra 2013) makes the case that the single most useful statistic for
a practical WCOJ system is the **heavy/light split**: a value is *heavy*
when its frequency reaches the square root of the relation's size, the
threshold at which per-value work can dominate a shard or an
intersection.  :class:`AttributeProfile` records exactly that split
(heavy value count, the output mass they carry, the top-k frequency
table) alongside the distinct count the planner's order estimates
start from.

The one statistic taken off the data is the **value-count table**
(:func:`count_values`): ``value -> number of tuples carrying it`` for
one attribute, or ``value tuple -> count`` for several — "Skew Strikes
Back"'s per-value frequency table.  It is the only function in the
statistics subsystem that scans ``relation.tuples``: one pass of
``collections.Counter``'s C loop over an ``itemgetter``, so no
Python-level work is done per row.  Everything else is a view of a
table and linear in its *distinct* values only: a profile
(:func:`profile_relation`) is a pass over the counts for the heavy
split plus a bounded selection (never a full sort) for the top-k
table; a conditional selectivity sums the counts of the keys two tables
share (:meth:`~repro.stats.provider.StatsProvider.selectivity`); shard
weights multiply them (:func:`~repro.engine.parallel.plan_shards`).
The provider caches each table and sums a narrower one out of a wider
one it holds: a cold plan scans only what no held table can give.

Profiles are deterministic: top-k tables order by ``(-count,
repr(value))``, so ties never depend on hash-set iteration order, which
varies across processes for string values.  ``repr`` is only taken of
the values tied at the table's last count.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter
from collections.abc import Callable, Collection, Mapping, Sequence
from dataclasses import MISSING, dataclass
from functools import partial
from operator import itemgetter

from repro.relations.relation import Relation, Value

__all__ = [
    "AttributeProfile",
    "RelationProfile",
    "count_values",
    "heavy_threshold",
    "profile_relation",
]

#: Default length of each attribute's most-frequent-values table.
DEFAULT_TOP_K = 8

#: ``(relation, attributes) -> value-count table``: :func:`count_values`
#: itself, or whatever holds its tables already
#: (:meth:`~repro.stats.provider.StatsProvider.value_counts`).
ValueCounts = Callable[[Relation, Sequence[str]], Mapping[object, int]]


def heavy_threshold(total: int) -> int:
    """The heavy/light frequency cut for a relation of ``total`` tuples.

    A value is *heavy* when its frequency is at least ``sqrt(total)`` —
    the "Skew Strikes Back" split: below it, a value's residual query is
    cheap; at or above it, the value deserves dedicated treatment (its
    own shard, an O(1)-probe index).  Clamped to at least 2 so singleton
    values in tiny relations are never "heavy".
    """
    return max(2, math.isqrt(max(total, 0)))


class _DerivedOnRead:
    """An :class:`AttributeProfile` field no ``auto`` plan reads (only a
    pinned sorting backend's orderable check reads ``orderable``): it
    may be handed over as a zero-argument callable, called on first
    read (``==``, ``hash``, ``repr`` and pickling read it too)."""

    def __init__(self, default: object = MISSING) -> None:
        self.default = default

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def __set__(self, profile: object, value: object) -> None:
        profile.__dict__[self.name] = value

    def __get__(self, profile: object, owner: type | None = None):
        if profile is None:  # the class: what ``dataclass`` takes as default
            if self.default is MISSING:
                raise AttributeError(self.name)
            return self.default
        value = profile.__dict__[self.name]
        if callable(value):  # two threads may both call it: same value
            value = profile.__dict__[self.name] = value()
        return value


@dataclass(frozen=True)
class AttributeProfile:
    """Frequency statistics for one attribute of one relation."""

    #: Attribute name.
    attribute: str
    #: Number of distinct values.
    distinct: int
    #: Number of tuples in the relation (shared by all its attributes).
    total: int
    #: Most frequent values, ``(value, count)``, highest count first;
    #: ties break on ``repr(value)`` so the table is deterministic.
    top: tuple[tuple[Value, int], ...] = _DerivedOnRead()
    #: Frequency at or above which a value counts as heavy.
    heavy_threshold: int
    #: Number of heavy values.
    heavy_count: int
    #: Fraction of tuples carrying a heavy value (0.0 when none).
    heavy_mass: float
    #: Whether the column's values sort: ``False`` when two of them do
    #: not compare (``int`` beside ``str``).  The sorted and compact
    #: backends sort their rows, so they need every column orderable;
    #: the hash trie never compares values.
    orderable: bool = _DerivedOnRead(True)

    def __getstate__(self) -> dict:  # the values, not the callables' tables
        return {name: getattr(self, name) for name in self.__dataclass_fields__}

    def describe(self) -> str:
        """One line: ``B: 40 distinct, 2 heavy >= 7 (61% of tuples)``."""
        text = f"{self.attribute}: {self.distinct} distinct"
        if self.heavy_count:
            text += (
                f", {self.heavy_count} heavy >= {self.heavy_threshold}"
                f" ({self.heavy_mass:.0%} of tuples)"
            )
        return text


@dataclass(frozen=True)
class RelationProfile:
    """Per-attribute profiles for one relation, in schema order."""

    #: Relation name (its edge id in a query).
    name: str
    #: Number of tuples.
    size: int
    #: One :class:`AttributeProfile` per attribute, in schema order.
    attributes: tuple[AttributeProfile, ...]

    def attribute(self, name: str) -> AttributeProfile:
        """The profile of one attribute (raises ``KeyError`` if absent)."""
        for profile in self.attributes:
            if profile.attribute == name:
                return profile
        raise KeyError(
            f"relation {self.name!r} has no attribute {name!r}"
        )


def count_values(
    relation: Relation, attributes: Sequence[str]
) -> Mapping[object, int]:
    """``value -> count`` over ``relation``'s tuples: the bare value for
    one attribute, the value tuple (in the order given) for several.

    Keys are listed in order of first occurrence.  The only function
    here that reads ``relation.tuples``; the provider calls it when it
    holds no wider table to sum the counts out of."""
    return Counter(
        map(itemgetter(*relation.positions(attributes)), relation.tuples)
    )


def _top_values(counter: Mapping, k: int) -> tuple[tuple[Value, int], ...]:
    """The first ``k`` of ``counter.items()`` in ``(-count, repr(value))``
    order, without sorting (or taking the ``repr`` of) every item."""
    if k <= 0 or not counter:
        return ()
    cutoff = heapq.nlargest(k, counter.values())[-1]
    above = sorted(
        (item for item in counter.items() if item[1] > cutoff),
        key=lambda item: (-item[1], repr(item[0])),
    )
    tied = heapq.nsmallest(
        k - len(above),
        (value for value, count in counter.items() if count == cutoff),
        key=repr,
    )
    return tuple(above) + tuple((value, cutoff) for value in tied)


def _orderable(values: Collection[Value]) -> bool:
    """Whether sorting ``values`` can not raise: read off their types
    for numbers and one string type, found by sorting otherwise."""
    kinds = set(map(type, values))
    if all(issubclass(kind, (int, float)) for kind in kinds):
        return True
    if kinds == {str} or kinds == {bytes}:
        return True
    try:
        sorted(values)
    except TypeError:
        return False
    return True


def profile_relation(
    relation: Relation,
    top_k: int = DEFAULT_TOP_K,
    value_counts: ValueCounts = count_values,
) -> RelationProfile:
    """Profile every attribute of ``relation`` from its value-count
    table: work linear in the distinct values.

    ``value_counts`` supplies the tables — :func:`count_values` (one
    counting pass per column) unless the caller holds them already, as
    :meth:`~repro.stats.provider.StatsProvider.value_counts` does."""
    total = len(relation)
    threshold = heavy_threshold(total)
    profiles = []
    for attribute in relation.attributes:
        counter = value_counts(relation, (attribute,))
        heavy = [count for count in counter.values() if count >= threshold]
        profiles.append(
            AttributeProfile(
                attribute=attribute,
                distinct=len(counter),
                total=total,
                top=partial(_top_values, counter, top_k),
                heavy_threshold=threshold,
                heavy_count=len(heavy),
                heavy_mass=(sum(heavy) / total) if total else 0.0,
                orderable=partial(_orderable, counter),
            )
        )
    return RelationProfile(
        name=relation.name, size=total, attributes=tuple(profiles)
    )
