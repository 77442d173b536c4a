"""Compare two result sets of the end-to-end benchmark.

    python3 benchmarks/e2e/compare.py A.jsonl B.jsonl
    python3 benchmarks/e2e/compare.py A.jsonl          # A's own spread

A result set is the file ``run.py --out FILE`` appends to: one JSON
record per run, several seeds per workload.  For every workload and
end-to-end metric this prints both medians with their quartiles, the
ratio B/A with its base, and a verdict against the bound in
``BENCHMARK.json``:

* ``within``      B's median is no worse than A's by more than the bound;
* ``WORSE``       it is worse by more than the bound;
* ``unresolved``  the run-to-run spread (quartile distance over median)
  of either side exceeds the bound, so the runs cannot tell — never
  reported as unchanged.

Count-type per-layer metrics of traced records must repeat exactly for
the same workload and seed; any that differ are listed.  Exits non-zero
on ``WORSE`` or on a count that differs.
"""

from __future__ import annotations

import json
import pathlib
import statistics
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent.parent


def load(path: str) -> list[dict]:
    return [json.loads(line) for line in pathlib.Path(path).read_text().splitlines() if line.strip()]


def end_to_end(records: list[dict]) -> dict[tuple[str, str], list[float]]:
    """(workload, metric) -> values, one per untraced full-size run."""
    values: dict[tuple[str, str], list[float]] = {}
    for record in records:
        if record["trace"] or record["smoke"]:
            continue
        for name, metric in record["metrics"].items():
            values.setdefault((record["workload"], name), []).append(metric["value"])
    return values


def counts(records: list[dict]) -> dict[tuple[str, int, str], set]:
    """(workload, seed, metric) -> distinct values seen, traced runs only."""
    seen: dict[tuple[str, int, str], set] = {}
    for record in records:
        if not record["trace"] or record["smoke"]:
            continue
        for name, metric in record["metrics"].items():
            if metric["unit"] == "count":
                key = (record["workload"], record["seed"], name)
                seen.setdefault(key, set()).add(metric["value"])
    return seen


def summary(values: list[float]) -> tuple[float, float, float, float]:
    """median, first quartile, third quartile, spread (as the driver
    computes it: quartile distance as a share of the median)."""
    middle = statistics.median(values)
    if len(values) < 2:
        return middle, middle, middle, 0.0
    first, _second, third = statistics.quantiles(values, n=4)
    return middle, first, third, (third - first) / middle


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) not in (1, 2):
        print(__doc__)
        return 2
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    sets = [load(path) for path in argv]
    tables = [end_to_end(records) for records in sets]
    worse = 0
    for workload in (w["name"] for w in contract["workloads"]):
        print(f"== {workload}")
        for metric in contract["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sides = [table.get((workload, name)) for table in tables]
            if not all(sides):
                print(f"  {name:<16} no runs")
                continue
            stats = [summary(values) for values in sides]
            text = "  ".join(
                f"{label} {m:.5g} [{q1:.5g}, {q3:.5g}] spread {s:.1%} n={len(v)}"
                for label, (m, q1, q3, s), v in zip("AB", stats, sides)
            )
            line = f"  {name:<16} {metric['unit']:<4} {text}"
            if len(stats) == 2:
                (a, *_rest_a, spread_a), (b, *_rest_b, spread_b) = stats
                change = (b - a) / a if metric["better"] == "lower" else (a - b) / a
                if max(spread_a, spread_b) > bound:
                    verdict = "unresolved"
                elif change > bound:
                    verdict = "WORSE"
                    worse += 1
                else:
                    verdict = "within"
                line += (
                    f"  B/A {b / a:.3f} (base A {a:.5g} {metric['unit']})"
                    f"  bound {bound:.0%}: {verdict}"
                )
            else:
                line += f"  bound {bound:.0%}: {'steady' if stats[0][3] <= bound else 'UNSTEADY'}"
            print(line)

    differing = 0
    merged: dict[tuple[str, int, str], set] = {}
    for records in sets:
        for key, seen in counts(records).items():
            merged.setdefault(key, set()).update(seen)
    for (workload, seed, name), seen in sorted(merged.items()):
        if len(seen) > 1:
            differing += 1
            print(f"count differs: {workload} seed {seed} {name}: {sorted(seen)}")
    if merged:
        print(f"{len(merged)} count metrics compared, {differing} differ")
    return 1 if worse or differing else 0


if __name__ == "__main__":
    sys.exit(main())
