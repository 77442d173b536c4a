"""Statistics benchmark: heuristic vs stats-driven plans.

Emits ``benchmarks/BENCH_stats.json`` comparing, per workload, two ways
of planning the same generic-join query:

* **heuristic** — the pre-statistics planner: attribute order by
  ascending min-distinct count (``StatsConfig(sample_size=0)``), shard
  count by the legacy size-and-CPU rule (1 below the auto-shard
  threshold, else one per CPU capped at 8);
* **stats** — the statistics-driven planner: order by sampled
  selectivity descent, ``shards="auto"`` sized from heavy-hitter mass
  (each hot value of the first attribute gets its own shard).

Both plans execute through ``plan_shards`` + ``shard_query`` with
each shard timed *one at a time* (no pool contention), so the reported
``critical_path_seconds = max(shard_seconds)`` is the wall time of a
pool with one core per shard — the honest number on CI hosts that may
expose a single core (see ``host.cpus``).  A 1-shard plan's critical
path is simply its serial run time.  ``speedup`` is
``heuristic.critical_path_seconds / stats.critical_path_seconds``; the
harness exits non-zero if the stats plan fails to beat the heuristic
plan on the skewed Zipf triangle (the ISSUE 3 acceptance gate) or if
any configuration loses row-set parity.

Workloads:

* ``zipf_triangle`` — the skewed triangle of ``BENCH_parallel``: every
  attribute Zipf-distributed, heavy hub values.  The stats win comes
  from heavy-aware sharding (the "Skew Strikes Back" split).
* ``trap_triangle`` — ``generators.zipf_trap_triangle``: a decoy
  attribute with few distinct values but no pruning power, and a payoff
  attribute whose cross-relation selectivity is ~5%.  Shows the order
  mechanism: min-distinct starts at the decoy, sampling starts at the
  payoff.  (Generic Join's smallest-first intersection makes triangle
  orders nearly cost-equivalent, so the serial gap is small; the JSON
  records both orders and both serial times.)
* ``clique`` — a uniform 4-clique control: no skew, no trap; the two
  planners should roughly tie.

Run standalone (``PYTHONPATH=src python benchmarks/bench_stats.py``) or
with ``--smoke`` for the CI-sized instance.  The JSON schema is pinned
by ``tools/check_bench_stats.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys

from repro.engine.parallel import plan_shards, shard_query
from repro.engine.planner import (
    AUTO_SHARD_MIN_TUPLES,
    MAX_AUTO_SHARDS,
    plan_join,
)
from repro.stats import StatsConfig, StatsProvider
from repro.utils.timing import timed
from repro.workloads import generators, queries

RESULT_PATH = pathlib.Path(__file__).parent / "BENCH_stats.json"

ALGORITHM = "generic"


def _cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _workloads(scale: int) -> list[tuple[str, object]]:
    zipf = generators.random_instance(
        queries.triangle(), 9000 * scale, 150 * scale, seed=23, skew=1.1
    )
    trap = generators.zipf_trap_triangle(
        400 * scale, 6000 * scale, seed=7
    )
    clique = generators.random_instance(
        queries.clique_query(4), 1200 * scale, 40 * scale, seed=24
    )
    return [
        ("zipf_triangle", zipf),
        ("trap_triangle", trap),
        ("clique", clique),
    ]


def _legacy_shards(query) -> int:
    """The pre-statistics ``shards="auto"`` rule (size and CPUs only)."""
    if query.total_input_size() < AUTO_SHARD_MIN_TUPLES:
        return 1
    return max(1, min(MAX_AUTO_SHARDS, _cpus()))


def _run_plan(query, plan, shard_count: int) -> dict:
    """Execute a plan shard-at-a-time; report per-shard and serial times."""
    serial = timed(lambda: set(plan.iter_rows()))
    specs = plan_shards(query, shard_count, plan.attribute_order[0])
    shard_seconds: list[float] = []
    rows: set = set()
    for spec in specs:
        run = timed(
            lambda spec=spec: list(
                plan_join(
                    shard_query(query, spec),
                    ALGORITHM,
                    attribute_order=plan.attribute_order,
                ).iter_rows()
            )
        )
        rows.update(run.result)
        shard_seconds.append(run.seconds)
    if not specs:  # degenerate: no candidate values at all
        shard_seconds = [serial.seconds]
    return {
        "order": list(plan.attribute_order),
        "shards": shard_count,
        "shards_planned": len(specs),
        "serial_seconds": serial.seconds,
        "shard_seconds": shard_seconds,
        "critical_path_seconds": max(shard_seconds),
        "rows": len(rows),
        "parity_with_serial": rows == serial.result,
        "reasons": list(plan.reasons),
    }


def bench_workload(query) -> dict:
    heuristic_plan = plan_join(
        query,
        ALGORITHM,
        stats=StatsProvider(config=StatsConfig(sample_size=0)),
    )
    stats_plan = plan_join(query, ALGORITHM, shards="auto")
    heuristic = _run_plan(query, heuristic_plan, _legacy_shards(query))
    stats = _run_plan(query, stats_plan, stats_plan.shards)
    stats["statistics"] = {
        "source": stats_plan.statistics.source,
        "heavy_hitters": [
            list(entry) for entry in stats_plan.statistics.heavy_hitters
        ],
        "order_estimates": [
            [attr, est] for attr, est in stats_plan.statistics.order_estimates
        ],
        "shard_heavy_mass": stats_plan.statistics.shard_heavy_mass,
    }
    parity = (
        heuristic["parity_with_serial"]
        and stats["parity_with_serial"]
        and heuristic["rows"] == stats["rows"]
    )
    return {
        "sizes": query.sizes(),
        "heuristic": heuristic,
        "stats": stats,
        "speedup": (
            heuristic["critical_path_seconds"]
            / stats["critical_path_seconds"]
        ),
        "parity": parity,
    }


def run(scale: int) -> dict:
    results: dict = {
        "host": {"cpus": _cpus()},
        "definitions": {
            "heuristic": "min-distinct attribute order (sampling "
            "disabled) + legacy size/CPU shard rule — the planner "
            "before the statistics subsystem",
            "stats": "sampled-selectivity order + shards='auto' sized "
            "from heavy-hitter mass, so hot first-attribute values get "
            "their own shard",
            "critical_path_seconds": "max over shards of the shard's "
            "standalone run time (shards share nothing, so this is the "
            "wall time with one core per shard; shards are timed one "
            "at a time to avoid contention on small hosts)",
            "speedup": "heuristic.critical_path_seconds / "
            "stats.critical_path_seconds",
        },
        "scale": scale,
        "workloads": {},
    }
    for name, query in _workloads(scale):
        results["workloads"][name] = bench_workload(query)
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
    print(f"stats benchmark -> {path}")
    failed = False
    for name, data in results["workloads"].items():
        print(
            f"  {name}: heuristic {data['heuristic']['order']} "
            f"critical {data['heuristic']['critical_path_seconds']:.3f}s "
            f"({data['heuristic']['shards']} shard(s)) vs stats "
            f"{data['stats']['order']} critical "
            f"{data['stats']['critical_path_seconds']:.3f}s "
            f"({data['stats']['shards']} shard(s)) -> "
            f"speedup {data['speedup']:.2f}x"
        )
        if not data["parity"]:
            print(f"  PARITY FAILURE on {name}")
            failed = True
    zipf = results["workloads"]["zipf_triangle"]
    if zipf["speedup"] <= 1.0:
        print(
            "  FAILURE: stats plan does not beat the min-distinct plan "
            "on the skewed zipf triangle"
        )
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
