"""Compact backend benchmark: probe counts, memory, and wall ratios.

Emits ``benchmarks/BENCH_compact.json`` comparing the packed flat-array
``"compact"`` backend against the ``"sorted"`` tuple array and the hash
trie on four triangle workloads — ``dense`` (consecutive-integer
domains, the radix fast path's home turf), ``zipf`` (mild skew),
``trap`` (the statistics benchmark's decoy shape), and ``hub`` (one
extreme heavy hitter):

* ``probes``  — **deterministic** counts of ``__getitem__`` accesses to
  each index's internal value storage (the sorted backend's row array,
  the compact backend's per-level arrays) during one full join, for
  Generic Join and Leapfrog.  The compact/sorted ratio is the gated
  number: galloping from per-level hints plus radix/interpolated starts
  must touch the arrays strictly less than plain binary search — at
  least 1.5x less on the dense workload.
* ``memory``  — measured ``nbytes()`` per backend and the
  compact-vs-trie / compact-vs-sorted ratios (packed ``array('q')``
  levels vs per-node dicts vs per-row tuples).
* ``pickle``  — serialized sizes of the flat backends (what process-mode
  sharding actually ships).
* ``wall``    — best-of wall seconds per backend, reported for context
  only and **never gated** (CI hosts differ; the ratio metrics above
  are the host-independent signal).
* ``parity``  — every algorithm and execution mode over compact indexes
  must produce exactly the rows of the trie-backed reference run.

Run standalone (``PYTHONPATH=src python benchmarks/bench_compact.py``)
or with ``--smoke`` for the CI-sized instance.  Exits non-zero when the
dense-workload probe ratio drops below :data:`DENSE_PROBE_FLOOR` or any
parity flag is false.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import pathlib
import pickle
import sys

from repro.api import execute
from repro.core.generic_join import GenericJoin
from repro.core.leapfrog import LeapfrogTriejoin
from repro.engine.compact import CompactArrayIndex
from repro.relations.sorted_index import SortedArrayIndex
from repro.relations.trie import TrieIndex
from repro.utils.timing import best_of
from repro.workloads import generators, queries

RESULT_PATH = pathlib.Path(__file__).parent / "BENCH_compact.json"

#: The acceptance floor: on the dense workload the compact backend must
#: touch its value arrays at least this factor less than the sorted
#: backend touches its row array (Generic Join, same order, same rows).
DENSE_PROBE_FLOOR = 1.5


class CountingSeq:
    """A sequence proxy counting every ``__getitem__`` (one "probe").

    Wrapped around an index's internal value storage *after*
    construction, it observes exactly the accesses the join's seeks and
    enumerations perform — a deterministic, host-independent work
    measure (unlike wall time).
    """

    __slots__ = ("_seq", "_counter")

    def __init__(self, seq, counter: list) -> None:
        self._seq = seq
        self._counter = counter

    def __getitem__(self, position):
        self._counter[0] += 1
        return self._seq[position]

    def __len__(self) -> int:
        return len(self._seq)

    def __iter__(self):
        return iter(self._seq)


def _instrument(executor) -> list:
    """Wrap every index's value storage in place; returns the counter."""
    counter = [0]
    for index in executor._binding.indexes:
        if isinstance(index, SortedArrayIndex):
            index.rows = CountingSeq(index.rows, counter)
        elif isinstance(index, CompactArrayIndex):
            index._levels = tuple(
                CountingSeq(level, counter) for level in index._levels
            )
        else:  # pragma: no cover - only flat backends are instrumented
            raise TypeError(f"cannot instrument {type(index).__name__}")
    return counter


def _workloads(scale: int) -> list[tuple[str, object]]:
    return [
        ("dense", generators.dense_triangle(400 * scale, 4, seed=17)),
        (
            "zipf",
            generators.random_instance(
                queries.triangle(), 1000 * scale, 50 * scale, seed=18,
                skew=1.2,
            ),
        ),
        (
            "trap",
            generators.zipf_trap_triangle(
                300 * scale, 900 * scale, seed=19
            ),
        ),
        (
            "hub",
            generators.hub_triangle(
                light_domain=60 * scale,
                b_domain=100 * scale,
                c_domain=2400 * scale,
                r_size=600 * scale,
                s_size=1600 * scale,
                t_size=4800 * scale,
                seed=20,
            ),
        ),
    ]


def bench_probes(query, order) -> dict:
    """Deterministic value-storage probe counts, flat backends only."""
    out: dict = {}
    for algorithm, factory in (
        (
            "generic",
            lambda kind: GenericJoin(query, order, backend=kind),
        ),
        (
            "leapfrog",
            lambda kind: LeapfrogTriejoin(query, order, backend=kind),
        ),
    ):
        counts = {}
        rows = {}
        for kind in ("sorted", "compact"):
            executor = factory(kind)
            counter = _instrument(executor)
            rows[kind] = sorted(executor.iter_join())
            counts[kind] = counter[0]
        out[algorithm] = {
            "sorted": counts["sorted"],
            "compact": counts["compact"],
            "ratio": (
                counts["sorted"] / counts["compact"]
                if counts["compact"]
                else None
            ),
            "rows_match": rows["sorted"] == rows["compact"],
        }
    return out


def bench_memory(query, order) -> dict:
    """Measured index bytes per backend, summed over the relations."""
    sizes = {"trie": 0, "sorted": 0, "compact": 0}
    pickled = {"sorted": 0, "compact": 0}
    rank = {a: i for i, a in enumerate(order)}
    for relation in query.relations.values():
        index_order = tuple(
            sorted(relation.attributes, key=rank.__getitem__)
        )
        for kind, cls in (
            ("trie", TrieIndex),
            ("sorted", SortedArrayIndex),
            ("compact", CompactArrayIndex),
        ):
            index = cls(relation, index_order)
            sizes[kind] += index.nbytes()
            if kind in pickled:
                pickled[kind] += len(pickle.dumps(index))
    return {
        "nbytes": sizes,
        "compact_vs_trie": sizes["trie"] / sizes["compact"],
        "compact_vs_sorted": sizes["sorted"] / sizes["compact"],
        "pickle_bytes": pickled,
    }


def bench_wall(query, order, repeats: int) -> dict:
    """Best-of wall seconds per backend — context only, never gated."""
    out: dict = {"generic": {}, "leapfrog": {}}
    for kind in ("trie", "sorted", "compact"):
        run = best_of(
            lambda kind=kind: GenericJoin(
                query, order, backend=kind
            ).execute(),
            repeats,
        )
        out["generic"][f"{kind}_seconds"] = run.seconds
    for kind in ("sorted", "compact"):
        run = best_of(
            lambda kind=kind: LeapfrogTriejoin(
                query, order, backend=kind
            ).execute(),
            repeats,
        )
        out["leapfrog"][f"{kind}_seconds"] = run.seconds
    generic = out["generic"]
    generic["compact_vs_trie"] = (
        generic["trie_seconds"] / generic["compact_seconds"]
        if generic["compact_seconds"]
        else None
    )
    return out


def bench_parity(query) -> dict:
    """Row parity of every algorithm / mode against the trie reference."""
    reference = set(execute(query, algorithm="generic", backend="trie"))

    async def _collect_async():
        stream = execute(
            query, algorithm="generic", backend="compact"
        ).astream()
        return {row async for row in stream}

    checks = {
        "generic_compact": set(
            execute(query, algorithm="generic", backend="compact")
        ),
        "leapfrog_compact": set(
            execute(query, algorithm="leapfrog", backend="compact")
        ),
        "leapfrog_sorted": set(
            execute(query, algorithm="leapfrog", backend="sorted")
        ),
        "nprr": set(execute(query, algorithm="nprr")),
        "lw": set(execute(query, algorithm="lw")),
        "arity2": set(execute(query, algorithm="arity2")),
        "sharded_compact": set(
            execute(
                query,
                shards=3,
                algorithm="generic",
                backend="compact",
                mode="serial",
            )
        ),
        "batched_compact": {
            row
            for batch in execute(
                query,
                algorithm="generic",
                backend="compact",
            ).batches(512)
            for row in batch
        },
        "async_compact": asyncio.run(_collect_async()),
    }
    flags = {name: rows == reference for name, rows in checks.items()}
    flags["rows"] = len(reference)
    return flags


def run(scale: int, repeats: int) -> dict:
    results: dict = {
        "scale": scale,
        "dense_probe_floor": DENSE_PROBE_FLOOR,
        "workloads": {},
    }
    for name, query in _workloads(scale):
        order = query.attributes
        results["workloads"][name] = {
            "sizes": query.sizes(),
            "probes": bench_probes(query, order),
            "memory": bench_memory(query, order),
            "wall": bench_wall(query, order, repeats),
            "parity": bench_parity(query),
        }
    dense = results["workloads"]["dense"]["probes"]["generic"]["ratio"]
    results["dense_probe_ratio"] = dense
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
    repeats = 1 if args.smoke else 3
    results = run(scale, repeats)
    path = pathlib.Path(args.output)
    path.write_text(json.dumps(results, indent=2) + "\n")
    print(f"compact benchmark -> {path}")
    failures = 0
    for name, data in results["workloads"].items():
        probes = data["probes"]
        print(
            f"  {name}: generic probe ratio "
            f"{probes['generic']['ratio']:.2f}x, leapfrog "
            f"{probes['leapfrog']['ratio']:.2f}x, memory vs trie "
            f"{data['memory']['compact_vs_trie']:.2f}x"
        )
        for algorithm in ("generic", "leapfrog"):
            if not probes[algorithm]["rows_match"]:
                print(f"  FAIL: {name} {algorithm} rows diverged")
                failures += 1
        for flag, value in data["parity"].items():
            if flag != "rows" and value is not True:
                print(f"  FAIL: {name} parity {flag}")
                failures += 1
    ratio = results["dense_probe_ratio"]
    if ratio is None or ratio < DENSE_PROBE_FLOOR:
        print(
            f"  FAIL: dense probe ratio {ratio} below floor "
            f"{DENSE_PROBE_FLOOR}"
        )
        failures += 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
