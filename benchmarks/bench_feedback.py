"""Runtime-feedback benchmark: self-correction and online re-sharding.

Emits ``benchmarks/BENCH_feedback.json`` with two workloads:

* ``trap_selfcorrect`` — the amplified ``zipf_trap_triangle`` (small
  ``c_domain`` makes ``C`` a second decoy, so the min-distinct
  heuristic defers the payoff attribute ``A`` to the last level).  The
  first run under ``--feedback`` plans from the heuristic (sampling
  disabled: feedback mode *replaces* sampling with observation), walks
  into the trap, and records per-level telemetry; the second run
  re-plans from the observations and promotes the attribute whose
  level measurably pruned.  The headline metric is ``work_ratio`` —
  first-run candidate enumerations over second-run's — a deterministic,
  wall-clock-free measure of the search-work reduction (17x at smoke
  scale on the reference host).  Wall times are recorded alongside for
  context.
* ``zipf_hotshard`` — ``generators.hub_triangle``: one value of ``A``
  carries most of ``R``'s and ``T``'s mass (Zipf skew at its limit).
  Static ``shards="auto"`` gives the hub its own shard, but a single
  value cannot be subdivided by value partitioning, so the hub shard
  dominates the critical path.  The first feedback run records
  per-shard wall times; the second re-partitions the recorded-hot hub
  shard on the *next* attribute of the order and dispatches its
  sub-shards.  ``critical_path_ratio`` compares the slowest shard of
  run 1 against the slowest executed shard of run 2 (shards are timed
  one at a time, as in ``bench_stats``, so the number is honest on
  single-core CI hosts).

The harness exits non-zero if either loop fails to help: no order
change / no work reduction on the trap, no split / no critical-path
reduction on the hub, or any parity violation.  The JSON schema is
pinned by ``tools/check_bench_feedback.py``; ratio metrics are gated
against committed baselines by ``tools/check_bench_regression.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys

from repro.feedback.config import FeedbackConfig
from repro.query.builder import Q
from repro.query.context import ExecutionContext
from repro.stats import StatsConfig, StatsProvider
from repro.utils.timing import timed
from repro.workloads import generators

RESULT_PATH = pathlib.Path(__file__).parent / "BENCH_feedback.json"

ALGORITHM = "generic"

#: The hot-shard run pins this order so run-to-run comparison isolates
#: the re-sharding effect (the planner may break ties differently once
#: observations exist); sharding is correct for any order.
HOTSHARD_ORDER = ("A", "C", "B")


def _cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def bench_trap(scale: int) -> dict:
    query = generators.zipf_trap_triangle(
        3000 * scale,
        6000 * scale,
        seed=7,
        match_fraction=0.02,
        decoy_domain=40,
        c_domain=40,
    )
    provider = StatsProvider(config=StatsConfig(selectivities=False))
    builder = Q(query).using(
        algorithm=ALGORITHM, stats=provider, feedback=FeedbackConfig()
    )

    first_plan = builder.plan()
    first = timed(lambda: set(builder.stream()))
    first_work = provider.observed_telemetry(query).total_candidates

    second_plan = builder.plan()
    second = timed(lambda: set(builder.stream()))
    history = provider.observed_history(query)
    second_work = history[second_plan.attribute_order].total_candidates

    sampled_order = (
        Q(query).using(algorithm=ALGORITHM, stats=StatsProvider()).plan()
    ).attribute_order

    return {
        "sizes": query.sizes(),
        "rows": len(first.result),
        "first": {
            "order": list(first_plan.attribute_order),
            "source": first_plan.statistics.source,
            "candidates": first_work,
            "seconds": first.seconds,
        },
        "second": {
            "order": list(second_plan.attribute_order),
            "source": second_plan.statistics.source,
            "candidates": second_work,
            "seconds": second.seconds,
        },
        "order_changed": (
            second_plan.attribute_order != first_plan.attribute_order
        ),
        "work_ratio": first_work / second_work,
        "sampled_reference_order": list(sampled_order),
        "parity": first.result == second.result,
    }


def bench_hotshard(scale: int) -> dict:
    query = generators.hub_triangle(
        light_domain=300,
        b_domain=500,
        c_domain=12000 * scale,
        r_size=3000 * scale,
        s_size=8000 * scale,
        t_size=24000 * scale,
        seed=23,
    )
    provider = StatsProvider()
    context = ExecutionContext(
        algorithm=ALGORITHM,
        shards="auto",
        mode="serial",  # shard-at-a-time timing: honest on 1-CPU hosts
        attribute_order=HOTSHARD_ORDER,
        stats=provider,
        feedback=FeedbackConfig(split_threshold=1.5),
    )
    builder = Q(query).using(context=context)

    first = timed(lambda: set(builder.stream()))
    first_observed = provider.observed_shards(query)
    first_seconds = {
        key: entry.seconds for key, entry in first_observed.items()
    }
    critical_first = max(first_seconds.values())

    second = timed(lambda: set(builder.stream()))
    observed = provider.observed_shards(query)
    split_parents = {key[:-1] for key in observed if len(key) > 1}
    executed = {
        key: entry
        for key, entry in observed.items()
        if key not in split_parents
    }
    critical_second = max(entry.seconds for entry in executed.values())
    splits = sum(1 for key in observed if len(key) > 1)

    return {
        "sizes": query.sizes(),
        "rows": len(first.result),
        "shards_first": len(first_observed),
        "shard_seconds_first": sorted(
            first_seconds.values(), reverse=True
        ),
        "critical_path_first": critical_first,
        "splits": splits,
        "shard_seconds_second": sorted(
            (entry.seconds for entry in executed.values()), reverse=True
        ),
        "critical_path_second": critical_second,
        "critical_path_ratio": critical_first / critical_second,
        "wall_seconds": [first.seconds, second.seconds],
        "parity": first.result == second.result,
    }


def run(scale: int) -> dict:
    return {
        "host": {"cpus": _cpus()},
        "definitions": {
            "trap_selfcorrect": "amplified zipf_trap_triangle; run 1 "
            "plans from the min-distinct heuristic (sampling disabled — "
            "feedback replaces sampling), run 2 re-plans from recorded "
            "per-level telemetry (the classical cardinality-feedback "
            "loop)",
            "work_ratio": "run-1 candidate enumerations / run-2's — "
            "deterministic search-work units, no wall clock",
            "zipf_hotshard": "hub_triangle under static shards='auto'; "
            "run 2 re-partitions the recorded-hot hub shard on the next "
            "attribute of the order (the online 'Skew Strikes Back' "
            "split); attribute order pinned so only the shard layout "
            "changes between runs",
            "critical_path_ratio": "slowest shard of run 1 / slowest "
            "executed shard of run 2 (shards timed one at a time, so "
            "the ratio is the per-worker wall-time win)",
        },
        "scale": scale,
        "workloads": {
            "trap_selfcorrect": bench_trap(scale),
            "zipf_hotshard": bench_hotshard(scale),
        },
    }


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
    print(f"feedback benchmark -> {path}")

    trap = results["workloads"]["trap_selfcorrect"]
    hot = results["workloads"]["zipf_hotshard"]
    print(
        f"  trap_selfcorrect: {trap['first']['order']} "
        f"({trap['first']['candidates']} candidates) -> "
        f"{trap['second']['order']} ({trap['second']['candidates']} "
        f"candidates), work ratio {trap['work_ratio']:.2f}x"
    )
    print(
        f"  zipf_hotshard: critical path "
        f"{hot['critical_path_first']:.3f}s -> "
        f"{hot['critical_path_second']:.3f}s "
        f"({hot['splits']} split shard(s)), "
        f"ratio {hot['critical_path_ratio']:.2f}x"
    )

    failed = False
    if not trap["parity"] or not hot["parity"]:
        print("  PARITY FAILURE")
        failed = True
    if not trap["order_changed"]:
        print("  FAILURE: feedback did not change the trap order")
        failed = True
    if trap["work_ratio"] <= 1.0:
        print("  FAILURE: re-planned trap order did not reduce work")
        failed = True
    if hot["splits"] < 1:
        print("  FAILURE: no hot shard was split")
        failed = True
    if hot["critical_path_ratio"] <= 1.0:
        print("  FAILURE: splitting did not reduce the critical path")
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
