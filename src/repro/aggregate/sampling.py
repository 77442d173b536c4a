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
* The ranks are unranked by the kernel's unrank sink
  (:func:`~repro.core.descent.unrank`): the rows nest itself, walked
  once in rank order, passing every child whose count lies wholly
  before the next rank.  So the row at rank ``r`` is the ``r``-th row
  :func:`~repro.core.descent.iter_rows` yields over the same binding.

Residual filters are the levels' own, so rows are uniform over the
*filtered* join.  The cost is one count pass, kept for later calls, plus
one walk that passes each child before a drawn row on its count and
searches only the subtrees holding one.  The query layer draws over the binding its
plan's executor already holds (:meth:`JoinSampler.over`), so a sample
builds no index the run did not; a pinned plan without one (``lw``,
``nprr``, ``arity2``) gets a sampler that binds its own.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Mapping

from repro.core.descent import Binding, bind, fold, unrank
from repro.core.query import JoinQuery
from repro.relations.database import DEFAULT_BACKEND, INDEX_BACKENDS, Database
from repro.relations.relation import Row, Value

__all__ = ["JoinSampler", "reservoir_sample"]


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

    #: Rows below each internal search node that has any, by prefix.
    _counts: dict[Row, int] | None = None

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
        self._binding = bind(query, None, backend, database, filters)

    @classmethod
    def over(cls, binding: Binding) -> "JoinSampler":
        """A sampler walking ``binding`` — an executor's own order,
        indexes and filters — so it binds nothing itself."""
        sampler = cls.__new__(cls)
        sampler._binding = binding
        return sampler

    def _count(self) -> dict[Row, int]:
        """One fold records each last internal level's counts; each
        shallower level's are its children's, summed."""
        last = len(self._binding.order) - 1
        counts = fold(self._binding, last + 1, range(last), _record, {})
        tier = counts
        for _depth in range(last):
            parents: dict[Row, int] = {}
            for prefix, rows in tier.items():
                parents[prefix[:-1]] = parents.get(prefix[:-1], 0) + rows
            counts.update(parents)
            tier = parents
        return counts

    def sample(self, k: int, rng: random.Random) -> list[Row]:
        """``min(k, |J|)`` distinct uniform rows (the query's attribute
        order), in draw order: the rows :func:`~repro.core.descent.
        iter_rows` yields over the binding at the drawn ranks."""
        if k <= 0:
            return []
        if self._counts is None:
            self._counts = self._count()
        total = self._counts.get((), 0)
        ranks = rng.sample(range(total), min(k, total))
        return unrank(self._binding, self._counts, ranks)


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
