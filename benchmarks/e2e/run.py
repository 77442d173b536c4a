"""The repo's end-to-end benchmark: one workload per invocation.

    python3 benchmarks/e2e/run.py --workload lifted_triangle --seed 1 \\
        --seconds 26 --trace 0

``--trace 0`` measures the end-to-end metrics through the default front
doors (``e2e_phases``); ``--trace 1`` measures every layer from outside
and replays one cold and one warm request stage by stage
(``e2e_layers``).  Either way the workload is generated from ``--seed``
in this process, every answer is checked against the hash-join oracle,
every metric is printed by name with its unit, the record is written to
``benchmarks/e2e/out/`` and the last line of standard output is the JSON
object ``BENCHMARK.json``'s contract describes.  The exit code is
non-zero when any operation failed or a contracted metric is missing.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from statistics import median

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"{HERE} measures the library under {ROOT / 'src'}, which is missing")
sys.path.insert(0, str(ROOT / "src"))

import e2e_layers  # noqa: E402  (needs src/ on the path)
import e2e_phases  # noqa: E402
from e2e_harness import OUT, Fixture, Ops, host_info, peak_rss_mb  # noqa: E402
from e2e_workloads import WORKLOADS  # noqa: E402

#: Full set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 5


def manifest() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def plan_context(fx: Fixture) -> dict:
    """What ``auto`` chose — context beside the numbers, not a metric."""
    plan = fx.builder.plan()
    return {
        "algorithm": plan.algorithm,
        "attribute_order": list(plan.attribute_order),
        "backend": plan.backend,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """One run; returns the full record (see the README for its shape)."""
    ops = Ops()
    repeats = 1 if (trace or smoke) else SETUP_REPEATS
    few = {"min_samples": 1, "front_door_samples": 1, "replays": 1} if smoke else {}
    with Fixture(WORKLOADS[name], seed, smoke) as fx:
        setups = [fx.setup() for _ in range(repeats)]
        fx.compute_oracle()
        record = {
            "workload": name,
            "seed": seed,
            "seconds": seconds,
            "trace": int(trace),
            "smoke": smoke,
            "host": host_info(),
            "plan": plan_context(fx),
            "instance": {
                "relations": {r.name: len(r) for r in fx.relations},
                "rows_out": len(fx.oracle),
            },
        }
        parts = {key: median([s[key] for s in setups]) for key in setups[0]}
        if trace:
            measured = e2e_layers.measure(fx, ops, seconds, parts, **few)
            spans = measured.pop("spans")
            (OUT / f"trace-{name}.json").write_text(json.dumps(spans, indent=1) + "\n")
        else:
            measured = e2e_phases.measure(
                fx, ops, seconds, **({"min_rounds": 2} if smoke else {})
            )
            measured["metrics"]["setup_s"] = {
                "value": median([sum(s.values()) for s in setups]),
                "unit": "s",
            }
            measured["setup_samples"] = [sum(s.values()) for s in setups]
    # Children are accounted once waited for, i.e. after the fixture closed.
    if trace:
        measured["metrics"]["process.children_peak_rss_mb"] = {
            "value": peak_rss_mb(children=True), "unit": "MB",
        }
    else:
        measured["metrics"]["peak_rss_mb"] = {"value": peak_rss_mb(), "unit": "MB"}
    record.update(measured)
    record["ops"] = {
        "attempted": ops.attempted,
        "failed": ops.failed,
        "failed_share": ops.failed / max(ops.attempted, 1),
        "notes": ops.notes,
    }
    return record


def report(record: dict, contracted: list[dict]) -> tuple[dict, list[str]]:
    """Print every metric by name with its unit; returns the contract's
    last-line object and the contracted names that were not measured."""
    metrics = record["metrics"]
    bases = record.get("bases", {})
    print(
        f"# {record['workload']} seed={record['seed']} trace={record['trace']} "
        f"cpus={record['host']['cpus']} auto -> {record['plan']['algorithm']} "
        f"{'/'.join(record['plan']['attribute_order'])} [{record['plan']['backend']}] "
        f"rows_out={record['instance']['rows_out']}"
    )
    wanted = [m["name"] for m in contracted]
    for name in wanted + sorted(set(metrics) - set(wanted)):
        if name not in metrics:
            continue
        value, unit = metrics[name]["value"], metrics[name]["unit"]
        line = f"{name:<36} {value:>14.6g} {unit}"
        if name in bases:
            base = metrics[bases[name]]
            line += f"   (base {bases[name]} = {base['value']:.6g} {base['unit']})"
        if name not in wanted:
            line += "   [not in BENCHMARK.json]"
        print(line)
    for note in record.get("notes", []):
        print(f"# note: {note}")
    ops = record["ops"]
    print(
        f"# operations: {ops['attempted']} attempted, {ops['failed']} failed "
        f"(share {ops['failed_share']:.6g})"
    )
    for note in ops["notes"]:
        print(f"# failed: {note}")
    missing = [name for name in wanted if name not in metrics]
    mismatched = [
        m["name"] for m in contracted
        if m["name"] in metrics and metrics[m["name"]]["unit"] != m["unit"]
    ]
    last_line = {
        "correct": ops["failed"] == 0 and not missing and not mismatched,
        "attempted": ops["attempted"],
        "failed": ops["failed"],
        "metrics": {name: metrics[name] for name in wanted if name in metrics},
    }
    return last_line, missing + mismatched


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny instances and sample counts (the tier-1 smoke test)")
    parser.add_argument("--out", default=None,
                        help="append the record as one JSON line to this file "
                        "(default: overwrite benchmarks/e2e/out/<workload>.json)")
    args = parser.parse_args(argv)

    contract = manifest()
    seconds = args.seconds if args.seconds is not None else contract["run_seconds"]
    record = run_workload(args.workload, args.seed, seconds, bool(args.trace), args.smoke)
    contracted = contract["per_layer" if args.trace else "end_to_end"]
    last_line, problems = report(record, contracted)
    for name in problems:
        print(f"# missing or wrong unit: {name}")

    if args.out:
        with open(args.out, "a") as sink:
            sink.write(json.dumps(record) + "\n")
    else:
        suffix = ".layers" if args.trace else ""
        (OUT / f"{args.workload}{suffix}.json").write_text(
            json.dumps(record, indent=1) + "\n"
        )
    print(json.dumps(last_line))
    return 0 if last_line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
