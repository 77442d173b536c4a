"""Exact uniform sampling of join results: count once, then unrank.

Draws uniform random rows of ``join_e R_e`` *without materialising it*,
following Capelli–Irwin–Salvati ("A Simple Algorithm for Worst-Case
Optimal Join and Sampling", PAPERS.md): one counting pass over the
Generic Join search tree numbers the result, after which a row is
reached from its rank root to leaf, with no search and no rejection.

* The pass is the descent kernel's fold (the nest a ``count()`` runs)
  keeping every internal search node's completion count under its
  *prefix* — a tuple of values, which never aliases the way ``id()``
  of an array node opened in place would.
* ``sample(k)`` draws ``min(k, |J|)`` distinct ranks: distinct ranks
  are distinct rows, so the sample is uniform without replacement.
* A rank is unranked by replaying each level's ``survivors`` and
  subtracting the children's counts until the rank falls inside one.

Residual filters are the levels' own, so rows are uniform over the
*filtered* join.  The cost is one count pass, kept for later calls, plus
``k`` root-to-leaf walks.  The query layer draws over the binding its
plan's executor already holds (:meth:`JoinSampler.over`), so a sample
builds no index the run did not; a pinned plan without one (``lw``,
``nprr``, ``arity2``) gets a sampler that binds its own.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Mapping
from itertools import islice

from repro.core.descent import Binding, bind, fold, hash_levels
from repro.core.query import JoinQuery
from repro.relations.database import DEFAULT_BACKEND, INDEX_BACKENDS, Database
from repro.relations.relation import Row, Value

__all__ = ["JoinSampler", "reservoir_sample", "sample_query"]


def _record(counts: dict, prefix: Row, rows: int) -> dict:
    counts[prefix] = rows
    return counts


class JoinSampler:
    """Uniform join-row sampler over one descent binding.

    Parameters mirror the enumeration executors: an optional catalog
    for cached indexes, a backend kind or a relation name -> kind
    mapping (anything else is the default backend), residual filters.
    The binding is in the query's attribute order; :meth:`over` samples
    a binding made elsewhere, in any order.
    """

    def __init__(
        self,
        query: JoinQuery,
        *,
        backend: str | Mapping[str, str] | None = None,
        database: Database | None = None,
        filters: Mapping[str, Callable[[Value], bool]] | None = None,
    ) -> None:
        if not isinstance(backend, Mapping) and backend not in INDEX_BACKENDS:
            backend = DEFAULT_BACKEND
        self._start(bind(query, None, backend, database, filters))

    @classmethod
    def over(cls, binding: Binding) -> "JoinSampler":
        """A sampler walking ``binding`` — an executor's own order,
        indexes and filters — so it binds nothing itself."""
        sampler = cls.__new__(cls)
        sampler._start(binding)
        return sampler

    def _start(self, binding: Binding) -> None:
        self._binding = binding
        self._levels = hash_levels(binding)
        #: Rows below each internal search node that has any, by prefix.
        self._counts: dict[Row, int] | None = None

    def _count(self) -> dict[Row, int]:
        """One fold records each last internal level's counts; each
        shallower level's are its children's, summed."""
        last = len(self._levels) - 1
        counts = fold(self._binding, last + 1, range(last), _record, {})
        tier = counts
        for _depth in range(last):
            parents: dict[Row, int] = {}
            for prefix, rows in tier.items():
                parents[prefix[:-1]] = parents.get(prefix[:-1], 0) + rows
            counts.update(parents)
            tier = parents
        return counts

    def _unrank(self, rank: int) -> Row:
        """The row at ``rank`` in the search tree's own order; a level's
        ``survivors`` opens array nodes in place, so it gets a copy."""
        nodes, prefix, counts = self._binding.roots(), (), self._counts
        *inner, last = self._levels
        for level in inner:
            state = list(nodes)
            for value in level.survivors(state, None):
                below = counts.get(prefix + (value,), 0)
                if rank < below:
                    break
                rank -= below
            for i in level.participants:
                state[i] = state[i][value]
            nodes, prefix = state, prefix + (value,)
        values = last.survivors(list(nodes), None)
        return prefix + (next(islice(values, rank, None)),)

    def sample(self, k: int, rng: random.Random) -> list[Row]:
        """``min(k, |J|)`` distinct uniform rows (the query's attribute
        order), in draw order."""
        if k <= 0:
            return []
        if self._counts is None:
            self._counts = self._count()
        total = self._counts.get((), 0)
        ranks = rng.sample(range(total), min(k, total))
        perm = self._binding.output_perm
        return [
            tuple(row[i] for i in perm)
            for row in map(self._unrank, ranks)
        ]


def sample_query(
    query: JoinQuery,
    k: int,
    seed: int | None = None,
    *,
    backend: str | None = None,
    database: Database | None = None,
    filters: Mapping[str, Callable[[Value], bool]] | None = None,
) -> list[Row]:
    """Draw ``min(k, |J|)`` uniform join rows (query attribute order),
    deterministic for a fixed ``seed``: the draw ``Q(query).sample(k,
    seed)`` makes, over the order and indexes the planner picks."""
    # Lazy: the engine imports this package at module load.
    from repro.engine.planner import plan_join

    plan = plan_join(query, backend=backend, database=database)
    executor = plan.executor(database, filters)
    return JoinSampler.over(executor._binding).sample(k, random.Random(seed))


def reservoir_sample(rows, k: int, seed: int | None = None) -> list:
    """``min(k, n)`` uniform rows from any finite stream (Algorithm R).

    The query layer's fallback when the exact sampler does not apply
    (projected/deduplicated output): one pass, O(k) memory, exact
    uniformity over whatever the stream yields, deterministic for a
    fixed ``seed``.
    """
    if k <= 0:
        return []
    rng = random.Random(seed)
    reservoir: list = []
    for i, row in enumerate(rows):
        if i < k:
            reservoir.append(row)
            continue
        j = rng.randrange(i + 1)
        if j < k:
            reservoir[j] = row
    return reservoir
