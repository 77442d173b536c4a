"""Uniform sampling of join results by AGM-weighted descent.

Draws uniform random rows of ``join_e R_e`` *without enumerating it*,
following the rejection scheme of Capelli–Irwin–Salvati ("A Simple
Algorithm for Worst-Case Optimal Join and Sampling", PAPERS.md), which
runs the same level descent as Generic Join but replaces the loop over
candidates with a single weighted coin:

Fix an optimal fractional edge cover ``x`` (the AGM machinery of
Ngo–Porat–Ré–Rudra already computes it).  Give every partial assignment
(search node) the weight::

    w(prefix) = prod_e count_e(node_e, remaining_e) ** x_e

— each relation's count of distinct completions of its part of the
prefix, raised to its cover weight.  ``w(root)`` is exactly the AGM
bound and ``w(full row) = 1``.  The query decomposition lemma (Hölder,
the same inequality that powers the AGM bound) gives, at every level::

    sum_v w(prefix + v)  <=  w(prefix)

so drawing ``r`` uniform in ``[0, w(prefix))`` and walking the
candidates subtracting their masses either lands inside some child —
descend — or falls into the slack — **reject** the trial.  A trial that
survives all levels reaches a full join row with probability exactly
``w(row)/w(root) = 1/AGM``, independent of the row: accepted rows are
uniform.  The expected number of trials per sample is ``AGM/|J|``.

Practicalities:

* ``sample(k)`` draws **without replacement** (accepted duplicates are
  rejected and retried), returning ``min(k, |J|)`` rows.
* Residual filters participate as dead mass: a trial whose chosen value
  fails its level's filter is rejected, so surviving rows stay uniform
  over the *filtered* join.
* When trials stall (tiny or empty joins — ``|J| << AGM``), the sampler
  falls back once to exact enumeration over the same indexes and draws
  the sample directly; the fallback costs one worst-case-optimal join,
  which the stall itself proves is cheap relative to further rejection.
* The sampler is **algorithm independent**: it binds its own indexes and
  takes its candidates from the descent kernel's hash-probe levels
  (:mod:`repro.core.descent`: the ``meet`` its loop nest applies), so
  the query layer can surface it unchanged whichever enumeration
  algorithm the plan would have picked, over any index backend.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Mapping

from repro.core.descent import bind, hash_levels, iter_rows
from repro.core.query import JoinQuery
from repro.hypergraph.agm import best_agm_bound
from repro.relations.database import (
    DEFAULT_BACKEND,
    INDEX_BACKENDS,
    Database,
)
from repro.relations.relation import Row, Value

__all__ = ["JoinSampler", "reservoir_sample", "sample_query"]

#: Consecutive rejected (or duplicate) trials before the sampler gives
#: up on rejection and enumerates exactly.  High enough that joins with
#: acceptance rate >= ~2% essentially never fall back, low enough that
#: empty joins stop quickly.
STALL_LIMIT = 512


class JoinSampler:
    """Uniform join-row sampler over per-relation trie-style indexes.

    Parameters mirror the enumeration executors: an optional catalog
    for cached indexes, a backend kind (anything unknown — including
    per-relation mappings and ``None`` — falls back to the default
    backend, whose counts are O(1)), and residual filters.
    """

    def __init__(
        self,
        query: JoinQuery,
        *,
        backend: str | None = None,
        database: Database | None = None,
        filters: Mapping[str, Callable[[Value], bool]] | None = None,
    ) -> None:
        self.query = query
        self.order = query.attributes
        kind = backend if backend in INDEX_BACKENDS else DEFAULT_BACKEND
        self.backend = kind
        self._binding = bind(query, None, kind, database, filters)
        self._levels = hash_levels(self._binding)
        self._root = self._binding.roots()
        # _remaining[d][i]: levels of relation i still unbound before
        # depth d (row 0 is each index's arity, the last row all zeros).
        remaining = [
            len(index.attributes) for index in self._binding.indexes
        ]
        self._remaining = [tuple(remaining)]
        for level in self._binding.participants:
            for i in level:
                remaining[i] -= 1
            self._remaining.append(tuple(remaining))
        cover, self.agm = best_agm_bound(query.hypergraph, query.sizes())
        self._weights = [
            float(cover.get(eid)) for eid in query.edge_ids
        ]

    # -- one rejection trial -------------------------------------------------

    def _trial(self, rng: random.Random) -> Row | None:
        """One AGM-weighted descent; a full row or None (rejected).

        Walks one root-to-leaf path and never backtracks, so it is not
        a loop nest; its candidates — filtered values are simply absent,
        which keeps surviving rows uniform over the *filtered* join —
        come from the same levels' ``survivors`` (which opens array
        nodes in place: the state is a copy).
        """
        indexes = self._binding.indexes
        weights = self._weights
        nodes = list(self._root)
        weight = 1.0
        for i, index in enumerate(indexes):
            count = index.count(nodes[i], self._remaining[0][i])
            if count == 0:
                return None  # an empty relation: the join is empty
            weight *= count ** weights[i]
        prefix: list[Value] = []
        for depth, level in enumerate(self._levels):
            remaining = self._remaining[depth + 1]
            # Non-participants keep their node; their factors are shared
            # by every candidate's mass at this level.
            shared = 1.0
            for i, index in enumerate(indexes):
                if i not in level.participants:
                    shared *= index.count(nodes[i], remaining[i]) ** weights[i]
            draw = rng.random() * weight
            for value in level.survivors(nodes, None):
                weight = shared
                for i in level.participants:
                    weight *= (
                        indexes[i].count(nodes[i][value], remaining[i])
                        ** weights[i]
                    )
                draw -= weight
                if draw < 0.0:
                    break
            else:
                return None  # the draw fell into the Hölder slack
            for i in level.participants:
                nodes[i] = nodes[i][value]
            prefix.append(value)
        return tuple(prefix)

    # -- public surface --------------------------------------------------------

    def sample(self, k: int, rng: random.Random) -> list[Row]:
        """``min(k, |J|)`` distinct uniform rows, in acceptance order."""
        if k <= 0:
            return []
        found: list[Row] = []
        seen: set[Row] = set()
        stall = 0
        while len(found) < k:
            row = self._trial(rng)
            if row is not None and row not in seen:
                seen.add(row)
                found.append(row)
                stall = 0
                continue
            stall += 1
            if stall >= STALL_LIMIT:
                # Exact fallback: enumerate once, draw directly.  The
                # draw ignores rows found so far — rng.sample is already
                # uniform without replacement over the whole result.
                rows = sorted(
                    iter_rows(
                        self._levels, self._root, self._binding.output_perm
                    )
                )
                if len(rows) <= k:
                    return rows
                return rng.sample(rows, k)
        return found


def sample_query(
    query: JoinQuery,
    k: int,
    seed: int | None = None,
    *,
    backend: str | None = None,
    database: Database | None = None,
    filters: Mapping[str, Callable[[Value], bool]] | None = None,
) -> list[Row]:
    """Draw ``min(k, |J|)`` uniform join rows (query attribute order).

    Deterministic for a fixed ``seed`` (trials consume the
    ``random.Random(seed)`` stream in a fixed order).
    """
    sampler = JoinSampler(
        query, backend=backend, database=database, filters=filters
    )
    return sampler.sample(k, random.Random(seed))


def reservoir_sample(rows, k: int, seed: int | None = None) -> list:
    """``min(k, n)`` uniform rows from any finite stream (Algorithm R).

    The query layer's fallback when AGM-weighted descent does not apply
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
