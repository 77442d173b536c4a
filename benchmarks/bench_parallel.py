"""Parallel sharding benchmark: scaling across 1/2/4/8 shards.

Emits ``benchmarks/BENCH_parallel.json`` for the skewed (Zipf triangle)
and clique workload generators.  For each shard count ``k`` the harness
measures, against the serial streaming engine:

* ``shard_seconds``     — each shard of :func:`repro.engine.parallel.
  plan_shards` executed *one at a time* in-process (no contention), the
  honest per-shard cost including its index builds;
* ``critical_path_seconds`` — ``max(shard_seconds)``: the wall time a
  pool with one core per shard achieves, since shards share nothing;
* ``speedup``           — ``serial_seconds / critical_path_seconds``,
  i.e. the parallel speedup on a machine with >= k cores.  Reported this
  way because CI boxes (and this container: see ``host.cpus`` in the
  JSON) may expose a single core, where a pool cannot beat serial no
  matter the algorithm;
* ``wall_seconds`` / ``wall_speedup`` — the observed end-to-end time of
  ``execute(..., shards=k, mode="process")`` *on this host*, pool and
  pickling overhead included;
* ``balance``           — ``max(shard_seconds) / mean(shard_seconds)``
  (1.0 = perfectly balanced shards; the LPT partitioning keeps this low
  even under Zipf skew);
* a parity check: the sharded row set must equal the serial row set.

A short batched-delivery comparison (row-at-a-time vs ``batches(n)``)
rides along under ``"batched"``.

Run standalone (``PYTHONPATH=src python benchmarks/bench_parallel.py``)
or with ``--smoke`` for the CI-sized instance.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys

from repro.api import execute
from repro.engine.parallel import batches, plan_shards, shard_query
from repro.engine.planner import plan_join
from repro.utils.timing import timed
from repro.workloads import generators, queries

RESULT_PATH = pathlib.Path(__file__).parent / "BENCH_parallel.json"

SHARD_COUNTS = (1, 2, 4, 8)

#: The streaming WCOJ executor under test (the blocking shape
#: specialists lw/arity2 would hide the streaming union).
ALGORITHM = "generic"


def _workloads(scale: int) -> list[tuple[str, object]]:
    """The two ISSUE workloads.

    ``skewed``  — the Zipf triangle: heavy hub values, the distribution
    that punishes naive range partitioning and motivates the
    work-balanced (LPT) shard planner.
    ``clique``  — a uniform 4-clique: six binary relations, the dense
    many-relation shape where every shard still touches every relation.
    """
    skewed = generators.random_instance(
        queries.triangle(), 9000 * scale, 150 * scale, seed=23, skew=1.1
    )
    clique = generators.random_instance(
        queries.clique_query(4), 1200 * scale, 40 * scale, seed=24
    )
    return [("skewed", skewed), ("clique", clique)]


def bench_shards(query) -> dict:
    plan = plan_join(query, ALGORITHM)
    attribute = plan.attribute_order[0]
    serial = timed(lambda: set(plan.iter_rows()))
    serial_rows: set = serial.result
    out: dict = {
        "algorithm": ALGORITHM,
        "shard_attribute": attribute,
        "serial_seconds": serial.seconds,
        "serial_rows": len(serial_rows),
        "by_shard_count": {},
    }
    for count in SHARD_COUNTS:
        specs = plan_shards(query, count, attribute)
        shard_runs = [
            timed(
                lambda spec=spec: sum(
                    1
                    for _ in plan_join(
                        shard_query(query, spec), ALGORITHM
                    ).iter_rows()
                )
            )
            for spec in specs
        ]
        shard_seconds = [run.seconds for run in shard_runs]
        critical_path = max(shard_seconds)
        mean = sum(shard_seconds) / len(shard_seconds)
        wall = timed(
            lambda count=count: set(
                execute(query, shards=count, algorithm=ALGORITHM,
                        mode="process")
            )
        )
        parity = wall.result == serial_rows
        out["by_shard_count"][str(count)] = {
            "shards_planned": len(specs),
            "shard_rows": [run.result for run in shard_runs],
            "shard_seconds": shard_seconds,
            "critical_path_seconds": critical_path,
            "sum_shard_seconds": sum(shard_seconds),
            "speedup": serial.seconds / critical_path,
            "balance": critical_path / mean,
            "wall_seconds": wall.seconds,
            "wall_speedup": serial.seconds / wall.seconds,
            "parity_with_serial": parity,
        }
        if not parity:
            raise SystemExit(
                f"PARITY FAILURE at {count} shards: sharded result "
                "differs from serial"
            )
    return out


def bench_batched(query) -> dict:
    """Row-at-a-time vs batched delivery of the same stream."""
    plan = plan_join(query, ALGORITHM)
    row_run = timed(lambda: sum(1 for _ in plan.iter_rows()))
    batch_run = timed(
        lambda: sum(len(b) for b in batches(plan.iter_rows(), 1024))
    )
    return {
        "rows": row_run.result,
        "row_at_a_time_seconds": row_run.seconds,
        "batched_1024_seconds": batch_run.seconds,
    }


def run(scale: int) -> dict:
    results: dict = {
        "host": {
            "cpus": len(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity")
            else (os.cpu_count() or 1),
        },
        "definitions": {
            "speedup": "serial_seconds / critical_path_seconds — the "
            "parallel speedup with one core per shard (shards share "
            "nothing, so a k-core pool's wall time is the slowest "
            "shard); shards are timed one at a time to avoid "
            "contention on hosts with fewer cores than shards",
            "wall_speedup": "serial_seconds / wall_seconds of "
            "execute(shards=k, mode='process') observed on THIS host — "
            "bounded by host.cpus, plus pool and pickling overhead",
        },
        "scale": scale,
        "workloads": {},
    }
    for name, query in _workloads(scale):
        results["workloads"][name] = {
            "sizes": query.sizes(),
            "sharding": bench_shards(query),
            "batched": bench_batched(query),
        }
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
    scale = 1 if args.smoke else 2
    results = run(scale)
    path = pathlib.Path(args.output)
    path.write_text(json.dumps(results, indent=2) + "\n")
    print(f"parallel benchmark -> {path}")
    failed = False
    for name, data in results["workloads"].items():
        sharding = data["sharding"]
        print(
            f"  {name}: serial {sharding['serial_seconds']:.3f}s, "
            f"{sharding['serial_rows']} rows"
        )
        for count, entry in sharding["by_shard_count"].items():
            print(
                f"    {count} shard(s): speedup {entry['speedup']:.2f}x "
                f"(balance {entry['balance']:.2f}, wall "
                f"{entry['wall_seconds']:.3f}s)"
            )
        four = sharding["by_shard_count"].get("4")
        if name == "skewed" and four and four["speedup"] < 1.5:
            print("  WARNING: < 1.5x speedup at 4 shards on skewed")
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
