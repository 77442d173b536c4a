"""The prepared-query cache: normalized text to frozen plan.

The server's whole latency story: the first submission of a statement
pays parse + compile + plan + index builds; every later submission of
the *same normalized text* (case of keywords, spacing, comments, and a
trailing ``;`` all normalize away) reuses the frozen
:class:`~repro.query.prepared.PreparedQuery` — zero planning, zero
index builds, assertable from the outside via the database's
``cache_info()`` (the miss counter stays flat across hits).

Entries are LRU-evicted above ``capacity``.  Index reuse *across*
distinct statements is the catalog's job, not this cache's: evicting
an entry only drops the frozen plan, and a re-prepared statement finds
its indexes still resident in the database's GreedyDual cache (its
budget — ``Database.warm`` semantics — stays the authority on which
indexes live).

Runs of one entry share its prepared query and run concurrently, like
runs of different entries: a prepared query keeps no per-run state (it
is prepared with no telemetry probe), and what it makes lazily — the
text sink's JSON memos, the sampler's prefix counts — is filled the
same by whichever run gets there first.  So a client that stops
reading holds up only its own answer.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from repro.lang.compiler import CompiledQuery

__all__ = ["CacheEntry", "PreparedCache", "PreparedCacheInfo"]


@dataclass(frozen=True)
class PreparedCacheInfo:
    """Counters mirroring ``Database.cache_info()``'s shape."""

    entries: int
    capacity: int
    hits: int
    misses: int
    evictions: int


class CacheEntry:
    """One cached statement: the compiled form, its frozen prepared
    query and the plan's AGM bound."""

    __slots__ = ("compiled", "prepared", "bound")

    def __init__(self, compiled: CompiledQuery) -> None:
        self.compiled = compiled
        self.prepared = compiled.builder.prepare()
        self.bound = float(self.prepared.plan.estimated_bound)


class PreparedCache:
    """Bounded LRU over normalized statement text."""

    def __init__(self, capacity: int = 128) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._entries: "OrderedDict[str, CacheEntry]" = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def get(self, normalized: str) -> CacheEntry | None:
        """The entry for ``normalized``, refreshing recency; None on
        miss (the *caller* compiles and inserts — preparation may fail,
        and a failed preparation must not poison the cache)."""
        entry = self._entries.get(normalized)
        if entry is None:
            self._misses += 1
            return None
        self._entries.move_to_end(normalized)
        self._hits += 1
        return entry

    def put(self, normalized: str, entry: CacheEntry) -> CacheEntry:
        """Insert (or refresh) an entry, evicting the LRU tail."""
        if normalized in self._entries:
            self._entries.move_to_end(normalized)
            self._entries[normalized] = entry
            return entry
        self._entries[normalized] = entry
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self._evictions += 1
        return entry

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, normalized: str) -> bool:
        return normalized in self._entries

    def cache_info(self) -> PreparedCacheInfo:
        return PreparedCacheInfo(
            entries=len(self._entries),
            capacity=self.capacity,
            hits=self._hits,
            misses=self._misses,
            evictions=self._evictions,
        )
