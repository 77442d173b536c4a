"""Aggregate benchmark: count-vs-enumerate work, sampling cost, parity.

Emits ``benchmarks/BENCH_aggregate.json`` measuring what the fold
protocol buys over enumeration on two workloads — ``zipf`` (a dense
skewed triangle, where nothing can be pruned and the win is pure
delivery cost) and ``chain`` (a four-attribute path, where the fold's
factorized pruning and leaf counting skip whole subtrees):

* ``probes``  — **deterministic** counts of ``__getitem__`` accesses to
  the sorted backend's row array during one full enumeration versus one
  ``count()`` fold, plus the number of ``add`` state updates the fold
  performs (counted on the spec, whose ``add`` the fold calls).  The
  work model charges enumeration ``probes + rows x levels`` (every
  output row materializes ``levels`` values and bubbles up through the
  generator stack) and the fold ``probes + adds``; the
  chain workload's generic-join work ratio is gated — pruning must keep
  it at least :data:`CHAIN_WORK_FLOOR`.
* ``wall``    — best-of wall seconds for full enumeration versus
  ``Q(...).count()`` per algorithm.  The zipf triangle's generic-join
  ``count_speedup`` is the headline acceptance number: the fold must be
  at least :data:`COUNT_SPEEDUP_FLOOR` times faster than enumerating
  the same rows.  Speedups are same-host ratios (like the stats and
  engine benches), so they survive host changes; raw seconds are
  context only.
* ``sample``  — wall cost of ``sample(5)`` against a full enumeration.
  The exact sampler pays one count of the join plus ``k`` root-to-leaf
  draws, so its cost tracks ``count()``, not ``k``: a few times cheaper
  than the enumeration, never a vanishing fraction of it.  Reported,
  never gated.
* ``parity``  — ``count()`` must equal the enumerated row count across
  algorithms, backends, sharded/grouped execution; samples must be
  distinct result rows.

Run standalone (``PYTHONPATH=src python benchmarks/bench_aggregate.py``)
or with ``--smoke`` for the CI-sized instance.  Exits non-zero when a
floor is missed or any parity flag is false.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import random
import sys

from bench_compact import _instrument

from repro.aggregate.fold import Folder
from repro.aggregate.specs import Count
from repro.core.generic_join import GenericJoin
from repro.core.leapfrog import LeapfrogTriejoin
from repro.core.query import JoinQuery
from repro.query.builder import Q
from repro.relations.relation import Relation
from repro.utils.timing import best_of
from repro.workloads import generators, queries

RESULT_PATH = pathlib.Path(__file__).parent / "BENCH_aggregate.json"

#: Acceptance floors.  ``count()`` on the dense zipf triangle must beat
#: enumeration by at least this wall factor (generic join — the fold
#: replaces per-row tuple construction, generator bubbling, and consumer
#: iteration with leaf counting)...
COUNT_SPEEDUP_FLOOR = 2.0
#: ...and on the chain the *deterministic* work ratio (probes + values
#: delivered vs probes + state updates) must show factorized pruning
#: skipping at least half the work.
CHAIN_WORK_FLOOR = 2.0

LEVELS = 3  # attributes per workload query (both are ternary outputs)


class CountingSpec:
    """A spec wrapper that counts its ``add`` calls (the fold's state
    updates) and otherwise is the spec it wraps."""

    def __init__(self, spec) -> None:
        self.spec, self.needs, self.adds = spec, spec.needs, 0

    def start(self):
        return self.spec.start()

    def add(self, state, values, multiplicity):
        self.adds += 1
        return self.spec.add(state, values, multiplicity)

    def finish(self, state):
        return self.spec.finish(state)


def _chain(scale: int, seed: int = 5) -> JoinQuery:
    """R(A,B) |x| S(B,C) |x| T(C,D): single-participant deep levels, so
    the fold's pruning actually fires (a triangle never prunes)."""
    rng = random.Random(seed)
    n, domain = 500 * scale, 15 * scale

    def rows():
        return sorted(
            {
                (rng.randrange(domain), rng.randrange(domain))
                for _ in range(n)
            }
        )

    return JoinQuery(
        [
            Relation("R", ("A", "B"), rows()),
            Relation("S", ("B", "C"), rows()),
            Relation("T", ("C", "D"), rows()),
        ]
    )


def _workloads(scale: int) -> list[tuple[str, JoinQuery]]:
    # The zipf triangle is deliberately *dense* (many draws over a small
    # skewed domain): wide per-prefix intersections are where delivery
    # cost dominates probe cost, i.e. where counting should shine.
    domain = 30 * max(1, round(scale**0.5))
    return [
        (
            "zipf",
            generators.random_instance(
                queries.triangle(), 8000 * scale, domain, seed=18,
                skew=1.1,
            ),
        ),
        ("chain", _chain(scale)),
    ]


def bench_probes(query) -> dict:
    """Deterministic enumeration-vs-fold work, sorted backend only."""
    order = query.attributes
    levels = len(order)
    out: dict = {}
    for algorithm, cls in (
        ("generic", GenericJoin),
        ("leapfrog", LeapfrogTriejoin),
    ):
        executor = cls(query, order, backend="sorted")
        counter = _instrument(executor)
        rows = sum(1 for _ in executor.iter_join())
        enumerate_probes = counter[0]

        executor = cls(query, order, backend="sorted")
        counter = _instrument(executor)
        spec = CountingSpec(Count())
        folder = executor.fold(Folder(spec, order))
        fold_probes = counter[0]

        enumerate_work = enumerate_probes + rows * levels
        fold_work = fold_probes + spec.adds
        out[algorithm] = {
            "rows": rows,
            "enumerate": enumerate_probes,
            "fold": fold_probes,
            "fold_adds": spec.adds,
            "work_ratio": enumerate_work / fold_work if fold_work else None,
            "rows_match": folder.result() == rows,
        }
    return out


def bench_wall(query, repeats: int) -> dict:
    """Best-of wall seconds: full enumeration vs ``count()`` per
    algorithm.  The speedup is a same-host ratio — the gated signal."""
    relations = list(query.relations.values())
    out: dict = {}
    for algorithm in ("generic", "leapfrog"):
        builder = Q(*relations).using(algorithm=algorithm)
        enumerate_run = best_of(
            lambda: sum(1 for _ in builder.stream()), repeats
        )
        count_run = best_of(builder.count, repeats)
        out[algorithm] = {
            "enumerate_seconds": enumerate_run.seconds,
            "count_seconds": count_run.seconds,
            "count_speedup": (
                enumerate_run.seconds / count_run.seconds
                if count_run.seconds
                else None
            ),
        }
    return out


def bench_sample(query, repeats: int, k: int = 5) -> dict:
    """Wall cost of drawing ``k`` uniform rows vs enumerating them all."""
    relations = list(query.relations.values())
    builder = Q(*relations)
    rows = set(builder.stream())
    sample_run = best_of(lambda: builder.sample(k, seed=7), repeats)
    full_run = best_of(lambda: list(builder.stream()), repeats)
    sample = builder.sample(k, seed=7)
    return {
        "k": k,
        "sample_seconds": sample_run.seconds,
        "enumerate_seconds": full_run.seconds,
        "speedup": (
            full_run.seconds / sample_run.seconds
            if sample_run.seconds
            else None
        ),
        "valid": (
            len(sample) == min(k, len(rows))
            and len(set(sample)) == len(sample)
            and set(sample) <= rows
        ),
    }


def bench_parity(query) -> dict:
    """count()/group_by() agreement with enumeration across layers."""
    relations = list(query.relations.values())
    reference = list(Q(*relations).stream())
    expected = len(reference)
    first = query.attributes[0]
    position = 0
    grouped_expected: dict = {}
    for row in reference:
        key = (row[position],)
        grouped_expected[key] = grouped_expected.get(key, 0) + 1

    checks = {
        "generic_trie": Q(*relations).using(
            algorithm="generic", backend="trie"
        ).count(),
        "generic_compact": Q(*relations).using(
            algorithm="generic", backend="compact"
        ).count(),
        "leapfrog_sorted": Q(*relations).using(
            algorithm="leapfrog", backend="sorted"
        ).count(),
        "nprr": Q(*relations).using(algorithm="nprr").count(),
        "sharded": Q(*relations).using(shards=3, mode="serial").count(),
    }
    flags = {name: value == expected for name, value in checks.items()}
    flags["grouped"] = (
        Q(*relations).group_by(first).count() == grouped_expected
    )
    flags["rows"] = expected
    return flags


def run(scale: int, repeats: int) -> dict:
    results: dict = {
        "scale": scale,
        "count_speedup_floor": COUNT_SPEEDUP_FLOOR,
        "chain_work_floor": CHAIN_WORK_FLOOR,
        "workloads": {},
    }
    for name, query in _workloads(scale):
        results["workloads"][name] = {
            "sizes": query.sizes(),
            "probes": bench_probes(query),
            "wall": bench_wall(query, repeats),
            "sample": bench_sample(query, repeats),
            "parity": bench_parity(query),
        }
    results["count_speedup"] = results["workloads"]["zipf"]["wall"][
        "generic"
    ]["count_speedup"]
    results["chain_work_ratio"] = results["workloads"]["chain"]["probes"][
        "generic"
    ]["work_ratio"]
    return results


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true", help="tiny CI-sized instances"
    )
    parser.add_argument(
        "-o", "--output", default=str(RESULT_PATH), help="result JSON path"
    )
    args = parser.parse_args(argv)
    scale = 1 if args.smoke else 4
    repeats = 5 if args.smoke else 3
    results = run(scale, repeats)
    path = pathlib.Path(args.output)
    path.write_text(json.dumps(results, indent=2) + "\n")
    print(f"aggregate benchmark -> {path}")
    failures = 0
    for name, data in results["workloads"].items():
        probes = data["probes"]
        wall = data["wall"]
        print(
            f"  {name}: count speedup {wall['generic']['count_speedup']:.2f}x"
            f" wall, work ratio {probes['generic']['work_ratio']:.2f}x,"
            f" sample speedup {data['sample']['speedup']:.1f}x"
        )
        for algorithm in ("generic", "leapfrog"):
            if not probes[algorithm]["rows_match"]:
                print(f"  FAIL: {name} {algorithm} fold count diverged")
                failures += 1
        if data["sample"]["valid"] is not True:
            print(f"  FAIL: {name} sample invalid")
            failures += 1
        for flag, value in data["parity"].items():
            if flag != "rows" and value is not True:
                print(f"  FAIL: {name} parity {flag}")
                failures += 1
    speedup = results["count_speedup"]
    if speedup is None or speedup < COUNT_SPEEDUP_FLOOR:
        print(
            f"  FAIL: zipf count speedup {speedup} below floor "
            f"{COUNT_SPEEDUP_FLOOR}"
        )
        failures += 1
    ratio = results["chain_work_ratio"]
    if ratio is None or ratio < CHAIN_WORK_FLOOR:
        print(
            f"  FAIL: chain work ratio {ratio} below floor "
            f"{CHAIN_WORK_FLOOR}"
        )
        failures += 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
