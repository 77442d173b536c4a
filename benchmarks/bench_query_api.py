"""Query-layer benchmark: pushdown vs post-filter, prepared vs cold.

Emits ``benchmarks/BENCH_query_api.json`` with two experiments:

**pushdown** — on a skewed (Zipf) triangle, answer
``sigma_{A=v}(R join S join T)`` two ways:

* *pushdown*: ``Q(...).where(A=v)`` — the relations are sectioned at
  plan time, the bound attribute's level disappears, and the engine
  joins the residual query;
* *post-filter*: materialize the full join, then ``select_equals``.

Measured for a *heavy* value of ``A`` (the Zipf head — many matching
rows) and a *light* value (the tail — few rows).  Pushdown wins by
skipping the part of the search the selection would discard; the light
value shows the dramatic case (almost the entire join is discarded),
the heavy value the conservative one.  Row-set parity against the
post-filter reference is asserted on every configuration.

**prepared** — the same catalogued query executed ``repeats`` times:

* *cold*: a fresh ``Database`` per run (every run pays planning and
  index builds);
* *prepared*: ``db.prepare(q)`` once, then repeated ``run()`` calls.

``index_builds_during_runs`` is read off ``Database.cache_info()`` and
must be **zero** for the prepared path — the cross-query warmup
contract (schema-checked in CI by ``tools/check_bench_query_api.py``).

Run standalone (``PYTHONPATH=src python benchmarks/bench_query_api.py``)
or with ``--smoke`` for the CI-sized instance.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
from collections import Counter

from repro.api import execute
from repro.query.builder import Q
from repro.relations.database import Database
from repro.utils.timing import timed
from repro.workloads import generators, queries

RESULT_PATH = pathlib.Path(__file__).parent / "BENCH_query_api.json"

ALGORITHM = "generic"


def _cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _zipf_triangle(scale: int):
    return generators.random_instance(
        queries.triangle(), 6000 * scale, 120 * scale, seed=17, skew=1.1
    )


def _heavy_and_light(query, attribute: str):
    """The most and least frequent candidate values of ``attribute``
    (restricted to the candidate intersection, so both join to rows)."""
    counts = None
    candidates = None
    for relation in query.relations.values():
        if attribute not in relation.attribute_set:
            continue
        position = relation.position(attribute)
        local = Counter(row[position] for row in relation.tuples)
        candidates = (
            set(local) if candidates is None else candidates & set(local)
        )
        counts = local if counts is None else counts + local
    ranked = sorted(candidates, key=lambda v: (-counts[v], repr(v)))
    return ranked[0], ranked[-1]


def bench_pushdown(query, value) -> dict:
    pushdown = timed(
        lambda: sorted(
            Q(query).using(algorithm=ALGORITHM).where(A=value).stream()
        )
    )
    post = timed(
        lambda: sorted(
            execute(query, algorithm=ALGORITHM)
            .relation()
            .select_equals("A", value)
            .tuples
        )
    )
    return {
        "value": value,
        "rows": len(pushdown.result),
        "pushdown_seconds": pushdown.seconds,
        "postfilter_seconds": post.seconds,
        "speedup": post.seconds / max(pushdown.seconds, 1e-9),
        "parity": pushdown.result == post.result,
    }


def bench_prepared(query, repeats: int) -> dict:
    relations = list(query.relations.values())

    def cold_run():
        db = Database(relations)
        return sorted(
            Q(*(db[rel.name] for rel in relations))
            .using(algorithm=ALGORITHM)
            .on(db)
            .stream()
        )

    cold = timed(lambda: [cold_run() for _ in range(repeats)])

    db = Database(relations)
    builder = (
        Q(*(db[rel.name] for rel in relations))
        .using(algorithm=ALGORITHM)
        .on(db)
    )
    prepare = timed(lambda: db.prepare(builder))
    prepared = prepare.result
    before = db.cache_info()
    warm = timed(lambda: [sorted(prepared.stream()) for _ in range(repeats)])
    after = db.cache_info()
    parity = all(rows == cold.result[0] for rows in warm.result)
    return {
        "repeats": repeats,
        "cold_seconds_total": cold.seconds,
        "cold_seconds_per_run": cold.seconds / repeats,
        "prepare_seconds": prepare.seconds,
        "warm_seconds_total": warm.seconds,
        "warm_seconds_per_run": warm.seconds / repeats,
        "amortized_speedup": cold.seconds
        / max(prepare.seconds + warm.seconds, 1e-9),
        "index_builds_during_runs": after.misses - before.misses,
        "cache_hits_during_runs": after.hits - before.hits,
        "parity": parity,
    }


def run(scale: int, repeats: int) -> dict:
    query = _zipf_triangle(scale)
    heavy, light = _heavy_and_light(query, "A")
    return {
        "host": {"cpus": _cpus()},
        "definitions": {
            "pushdown": "Q(...).where(A=v): relations sectioned at plan "
            "time, the bound attribute's level eliminated from the "
            "search (Remark 5.2's ahead-of-time evaluation)",
            "postfilter": "materialize the full join, then "
            "select_equals('A', v) — the naive sigma placement",
            "heavy/light": "most/least frequent candidate value of A "
            "on the Zipf-skewed triangle (head vs tail)",
            "prepared": "db.prepare(q) once, then repeated run(): zero "
            "planning and zero index builds per run "
            "(index_builds_during_runs must be 0)",
            "cold": "a fresh Database per run: every run pays planning "
            "and index builds",
        },
        "scale": scale,
        "sizes": query.sizes(),
        "pushdown": {
            "heavy": bench_pushdown(query, heavy),
            "light": bench_pushdown(query, light),
        },
        "prepared": bench_prepared(query, repeats),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true", help="tiny CI-sized instance"
    )
    parser.add_argument(
        "-o", "--output", default=str(RESULT_PATH), help="result JSON path"
    )
    args = parser.parse_args(argv)
    scale = 1 if args.smoke else 3
    repeats = 5 if args.smoke else 10
    results = run(scale, repeats)
    path = pathlib.Path(args.output)
    path.write_text(json.dumps(results, indent=2) + "\n")
    print(f"query api benchmark -> {path}")
    failed = False
    for kind in ("heavy", "light"):
        data = results["pushdown"][kind]
        print(
            f"  pushdown[{kind}] A={data['value']}: {data['rows']} row(s), "
            f"pushdown {data['pushdown_seconds']:.3f}s vs post-filter "
            f"{data['postfilter_seconds']:.3f}s -> "
            f"{data['speedup']:.1f}x"
        )
        if not data["parity"]:
            print(f"  PARITY FAILURE on pushdown[{kind}]")
            failed = True
    prepared = results["prepared"]
    print(
        f"  prepared: cold {prepared['cold_seconds_per_run']:.3f}s/run vs "
        f"warm {prepared['warm_seconds_per_run']:.3f}s/run "
        f"(prepare {prepared['prepare_seconds']:.3f}s, "
        f"{prepared['index_builds_during_runs']} build(s) during "
        f"{prepared['repeats']} runs)"
    )
    if not prepared["parity"]:
        print("  PARITY FAILURE on prepared")
        failed = True
    if prepared["index_builds_during_runs"] != 0:
        print("  FAILURE: prepared runs built indexes")
        failed = True
    if results["pushdown"]["light"]["speedup"] <= 1.0:
        print(
            "  FAILURE: pushdown does not beat post-filter on the "
            "light-value selection"
        )
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
