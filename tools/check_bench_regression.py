#!/usr/bin/env python3
"""Benchmark-regression gate: compare smoke runs against baselines.

Usage::

    python tools/check_bench_regression.py                 # gate all
    python tools/check_bench_regression.py BENCH_compact.json
    python tools/check_bench_regression.py --tolerance 0.3
    python tools/check_bench_regression.py --update        # re-baseline

Each smoke ``benchmarks/BENCH_*.json`` is compared against the
committed baseline of the same name under ``benchmarks/baselines/``.
Only **ratio metrics** (speedups, work ratios — dimensionless, largely
host-independent) and exact determinism flags are gated, never raw wall
times: CI hosts differ in clock speed, but "a prepared-cache hit is 3x
faster than a cold parse and plan" should survive a host change.

A ``ratio`` metric passes when ``current >= tolerance * baseline`` —
the tolerance (default ``--tolerance``, overridable per metric in
:data:`METRICS`) absorbs host-to-host variance; regressions blowing
through it fail the gate with a message naming metric, values, and
floor.  An ``exact`` metric must equal its baseline verbatim (parity
flags, build counts, self-correction booleans).

``--update`` copies the current files over the baselines — the
intentional-change workflow, mirroring ``check_api_surface.py``: the
baseline diff then shows up in code review.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import shutil
import sys

BENCH_DIR = pathlib.Path(__file__).parent.parent / "benchmarks"
BASELINE_DIR = BENCH_DIR / "baselines"

#: file -> tuple of (dotted metric path, kind, tolerance or None).
#: ``kind`` is ``"ratio"`` (current >= tolerance * baseline) or
#: ``"exact"`` (current == baseline).  A ``None`` tolerance uses the
#: command-line default; metrics sensitive to host CPU count get looser
#: explicit tolerances, deterministic count-based metrics tighter ones.
METRICS: dict[str, tuple[tuple[str, str, float | None], ...]] = {
    "BENCH_engine.json": (
        ("workloads.triangle.cache.generic.speedup", "ratio", 0.25),
        ("workloads.lw4.cache.generic.speedup", "ratio", 0.25),
    ),
    "BENCH_query_api.json": (
        ("pushdown.heavy.speedup", "ratio", 0.4),
        ("pushdown.light.speedup", "ratio", 0.4),
        ("prepared.index_builds_during_runs", "exact", None),
    ),
    "BENCH_aggregate.json": (
        # The headline wall speedup is a same-host ratio but still
        # timing-derived: loose.  Probe/add counts are deterministic for
        # fixed seeds: tight.
        ("count_speedup", "ratio", 0.25),
        ("chain_work_ratio", "ratio", 0.9),
        ("workloads.zipf.probes.generic.work_ratio", "ratio", 0.9),
        ("workloads.chain.probes.generic.work_ratio", "ratio", 0.9),
        ("workloads.chain.probes.leapfrog.work_ratio", "ratio", 0.9),
        ("workloads.zipf.wall.generic.count_speedup", "ratio", 0.25),
        ("workloads.zipf.probes.generic.rows_match", "exact", None),
        ("workloads.chain.probes.generic.rows_match", "exact", None),
        ("workloads.zipf.parity.sharded", "exact", None),
        ("workloads.zipf.parity.grouped", "exact", None),
        ("workloads.chain.parity.nprr", "exact", None),
    ),
    "BENCH_compact.json": (
        # Probe counts are deterministic for fixed seeds and memory is
        # measured from the arrays themselves: tight tolerances.  Wall
        # seconds are deliberately absent.
        ("dense_probe_ratio", "ratio", 0.9),
        ("workloads.dense.probes.generic.ratio", "ratio", 0.9),
        ("workloads.zipf.probes.generic.ratio", "ratio", 0.9),
        ("workloads.trap.probes.generic.ratio", "ratio", 0.9),
        ("workloads.hub.probes.generic.ratio", "ratio", 0.9),
        ("workloads.dense.probes.leapfrog.ratio", "ratio", 0.9),
        ("workloads.dense.memory.compact_vs_trie", "ratio", 0.7),
        ("workloads.dense.memory.compact_vs_sorted", "ratio", 0.7),
        ("workloads.dense.probes.generic.rows_match", "exact", None),
        ("workloads.dense.probes.leapfrog.rows_match", "exact", None),
        ("workloads.dense.parity.generic_compact", "exact", None),
        ("workloads.dense.parity.leapfrog_compact", "exact", None),
        ("workloads.dense.parity.sharded_compact", "exact", None),
        ("workloads.hub.parity.generic_compact", "exact", None),
    ),
    "BENCH_observe.json": (
        # efficiency = untraced / traced wall: falling efficiency means
        # rising tracing overhead.  Loose — both sides are wall times on
        # a tiny smoke instance (the bench's own 5% budget is the hard
        # gate; this floor catches order-of-magnitude drift).
        ("workloads.overhead.efficiency", "ratio", 0.7),
        ("workloads.overhead.parity", "exact", None),
        ("workloads.worker_spans.worker_spans_nested", "exact", None),
        ("workloads.worker_spans.worker_rows_reported", "exact", None),
        ("workloads.explain_analyze.all_levels_observed", "exact", None),
        (
            "workloads.explain_analyze.final_level_matches_rows",
            "exact",
            None,
        ),
    ),
    "BENCH_server.json": (
        # All three headline numbers are wall-time ratios over loopback
        # sockets on a tiny smoke instance: loose floors (the bench's
        # own >= 1.0 sanity checks are the hard gates).  The boolean
        # flags are the deterministic contract: exact.
        ("workloads.cache.hit_speedup", "ratio", 0.25),
        ("workloads.admission.rejection_speedup", "ratio", 0.25),
        ("workloads.throughput.concurrent_vs_serial", "ratio", 0.4),
        ("workloads.cache.zero_index_builds_on_hit", "exact", None),
        ("workloads.cache.one_answer", "exact", None),
        ("workloads.admission.all_rejected", "exact", None),
        (
            "workloads.admission.rejected_without_index_builds",
            "exact",
            None,
        ),
        ("workloads.throughput.parity", "exact", None),
    ),
}


def lookup(data: object, path: str):
    node = data
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            raise KeyError(path)
        node = node[part]
    return node


def check_file(
    name: str,
    current_dir: pathlib.Path,
    baseline_dir: pathlib.Path,
    default_tolerance: float,
) -> list[str]:
    problems: list[str] = []
    current_path = current_dir / name
    baseline_path = baseline_dir / name
    if not current_path.exists():
        return [f"{name}: current result missing ({current_path})"]
    if not baseline_path.exists():
        return [f"{name}: committed baseline missing ({baseline_path})"]
    current = json.loads(current_path.read_text())
    baseline = json.loads(baseline_path.read_text())
    for path, kind, tolerance in METRICS[name]:
        try:
            observed = lookup(current, path)
        except KeyError:
            problems.append(f"{name}: {path} missing from current run")
            continue
        try:
            expected = lookup(baseline, path)
        except KeyError:
            problems.append(f"{name}: {path} missing from baseline")
            continue
        if kind == "exact":
            if observed != expected:
                problems.append(
                    f"{name}: {path} = {observed!r}, baseline "
                    f"{expected!r} (exact match required)"
                )
            continue
        factor = tolerance if tolerance is not None else default_tolerance
        floor = factor * float(expected)
        if float(observed) < floor:
            problems.append(
                f"{name}: {path} = {float(observed):.3f} below floor "
                f"{floor:.3f} ({factor} x baseline {float(expected):.3f})"
            )
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "files",
        nargs="*",
        help="benchmark JSON names to gate (default: every file in the "
        "metric manifest)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.5,
        help="default fraction of the baseline a ratio metric must "
        "retain (per-metric overrides in the manifest win)",
    )
    parser.add_argument(
        "--current",
        default=str(BENCH_DIR),
        help="directory holding the freshly generated results",
    )
    parser.add_argument(
        "--baselines",
        default=str(BASELINE_DIR),
        help="directory holding the committed baselines",
    )
    parser.add_argument(
        "--update",
        action="store_true",
        help="copy current results over the baselines instead of gating",
    )
    args = parser.parse_args(argv)
    names = args.files or sorted(METRICS)
    unknown = [name for name in names if name not in METRICS]
    if unknown:
        print(
            f"no gated metrics defined for {unknown}; "
            f"choose from {sorted(METRICS)}",
            file=sys.stderr,
        )
        return 2
    current_dir = pathlib.Path(args.current)
    baseline_dir = pathlib.Path(args.baselines)

    if args.update:
        baseline_dir.mkdir(parents=True, exist_ok=True)
        for name in names:
            source = current_dir / name
            if not source.exists():
                print(f"cannot re-baseline {name}: {source} missing",
                      file=sys.stderr)
                return 2
            shutil.copyfile(source, baseline_dir / name)
            print(f"baseline updated: {baseline_dir / name}")
        return 0

    problems: list[str] = []
    for name in names:
        problems.extend(
            check_file(name, current_dir, baseline_dir, args.tolerance)
        )
    if problems:
        print("benchmark regression gate FAILED:", file=sys.stderr)
        for problem in problems:
            print(f"  - {problem}", file=sys.stderr)
        return 1
    gated = sum(len(METRICS[name]) for name in names)
    print(
        f"benchmark regression gate ok: {gated} metric(s) across "
        f"{len(names)} file(s)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
