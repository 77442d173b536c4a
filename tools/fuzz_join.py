#!/usr/bin/env python3
"""Randomized cross-check of the join engine against a brute-force oracle.

Generates random small schemas and relations (seeded, so every failure
is replayable; one instance in ten a path or star query of 18-26
attributes — past the 20 nested blocks one compiled loop nest may hold —
one in ten with quotes, newlines, backslashes, braces and an
expression for attribute names, and one in ten an LW(4), LW(5) or
lifted triangle, where every pair of relations shares two or more
attributes), then checks for each instance that

* every value-count table a cold plan cached — scanned, or summed out
  of a wider table of the same relation — equals a scan of that
  relation (``count_values``), items and iteration order,
* the row stream under a randomly chosen algorithm/backend/shard config
  (sharded one time in five: serial or thread mode, or — a quarter of
  those — stealing or predictively pre-split over a loopback fleet;
  one ``generic`` configuration in four under a random *per-relation*
  backend mapping, the plan shape the planner emits for skewed inputs,
  so hash-trie nodes and probed array nodes meet at one level)
  — consumed through a randomly chosen route: the builder's own views,
  ``prepare()``, or ``prepare()`` re-bound from another parameter value
  — yields exactly the oracle's row set,
* one iteration in four, under a ``tracer`` + ``metrics`` context, the
  registry's ``repro_rows_emitted_total`` equals the oracle's row count,
* the builder, run twice more (over a ``Database`` one time in two),
  yields the oracle's rows each time, and before each run the plan it
  reuses equals a fresh builder's, field by field,
* ``count()`` equals the oracle's row count (the fold must agree with
  enumeration even though it never enumerates), and ``sum`` / ``min`` /
  ``max`` / ``avg`` / ``count_distinct`` / ``group_by(a).count()`` on a
  random attribute ``a`` — every cutoff a fold can have — serial and over
  three serial shards, equal ``fold_rows`` over the oracle's rows,
* ``sample(k, seed=...)`` returns ``min(k, |J|)`` distinct oracle rows
  and is deterministic for the seed, and a sample one past the result
  size — serially, and through a ``where`` section on a random attribute
  — is exactly the oracle's row set, and
* one iteration in four, ``explain(analyze=True)`` — the observed run —
  counts the oracle's rows and its per-level counters chain (the root
  is entered once, each level's matches are the next level's partials,
  the last level's matches are the rows, candidates >= matches),

occasionally through a ``where``-binding and a ``where_in`` filter so
the sectioned/filtered paths get fuzzed too.  The oracle is a
backtracking nested-loop join over the raw tuples — no indexes, no
planner, nothing shared with the engine under test.

Usage::

    python tools/fuzz_join.py --seconds 60          # CI smoke budget
    python tools/fuzz_join.py --iterations 5000     # fixed-count run
    python tools/fuzz_join.py --seconds 3600 --seed 1   # long local soak
    python tools/fuzz_join.py --replay 2964779349   # one failing instance

Every iteration draws its own 32-bit seed from the master stream and
runs entirely off a fresh RNG for that seed, so each instance replays
*alone* — no need to re-run the thousands of iterations before it.  On
any disagreement (or an engine crash: every exception is caught, not
just assertion failures) the harness prints the failing iteration seed,
the full instance, the error, and the minimal one-instance repro
command ``python tools/fuzz_join.py --replay SEED``, then exits 1.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import random
import sys
import time
import traceback

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
)

from repro.aggregate.fold import fold_rows  # noqa: E402
from repro.aggregate.specs import as_spec, grouped  # noqa: E402
from repro.core.query import JoinQuery  # noqa: E402
from repro.distributed import (  # noqa: E402
    DispatchScheduler,
    LoopbackTransport,
)
from repro.engine.planner import plan_join  # noqa: E402
from repro.observe.metrics import MetricsRegistry  # noqa: E402
from repro.observe.tracing import Tracer  # noqa: E402
from repro.query.builder import Q  # noqa: E402
from repro.query.prepared import PreparedQuery  # noqa: E402
from repro.query.shards import ShardSpec  # noqa: E402
from repro.relations.database import Database  # noqa: E402
from repro.relations.relation import Relation  # noqa: E402
from repro.stats.profiles import count_values  # noqa: E402
from repro.workloads import generators, queries  # noqa: E402

ATTRIBUTE_POOL = ("A", "B", "C", "D", "E")
#: Attribute names no generated loop nest may ever see as text: quotes,
#: a newline, a backslash, format braces, an expression.
HOSTILE_POOL = (
    'a"b', "c'd", "e\nf", "g\\h", "{}", "__import__('os').system('x')"
)
#: Attributes of the shallowest :func:`deep_instance`.
DEEP = 18
#: (algorithm, allowed backends) — only planner-valid combinations are
#: fuzzed; invalid ones are rejected eagerly and tested elsewhere.
CONFIGS = (
    ("auto", (None, "trie", "sorted", "compact")),
    ("generic", (None, "trie", "sorted", "compact")),
    ("leapfrog", (None, "sorted", "compact")),
    ("nprr", (None, "trie")),
)


def deep_instance(rng: random.Random) -> list[Relation]:
    """A path or star query of 18-26 attributes — deeper than the 20
    nested blocks CPython compiles, so the descent's loop nest is cut —
    over 3-6-tuple relations: a permutation of 4-5 values, one tuple
    dropped or added now and then, so the result stays small."""
    attributes = [f"A{i}" for i in range(rng.randint(DEEP, 26))]
    star = rng.random() < 0.5
    domain = rng.randint(4, 5)
    relations = []
    for index in range(1, len(attributes)):
        targets = list(range(domain))
        rng.shuffle(targets)
        rows = set(enumerate(targets))
        if rng.random() < 0.2:
            rows.pop()
        if rng.random() < 0.3:
            rows.add((rng.randrange(domain), rng.randrange(domain)))
        attrs = (attributes[0 if star else index - 1], attributes[index])
        relations.append(Relation(f"R{index}", attrs, sorted(rows)))
    return relations


def overlap_instance(rng: random.Random) -> list[Relation]:
    """LW(4), LW(5) or the lifted triangle (Lemma 6.3) over a domain of
    2-4 values, 0-40 draws per relation: every pair of relations shares
    two or more attributes, so a cold plan sums tables out of others."""
    hypergraph = rng.choice(
        (
            queries.lw_query(4),
            queries.lw_query(5),
            queries.beyond_lw_query(),
        )
    )
    query = generators.random_instance(
        hypergraph,
        rng.randint(0, 40),
        rng.randint(2, 4),
        seed=rng.randrange(1 << 32),
    )
    return list(query.relations.values())


def random_instance(rng: random.Random) -> list[Relation]:
    """A random connected join query: 2-4 relations, arity 1-3, tiny
    domains (so results stay small and duplicates/empty joins happen);
    one in ten is a :func:`deep_instance`, one in ten names its
    attributes from :data:`HOSTILE_POOL`, one in ten is an
    :func:`overlap_instance`."""
    shape = rng.random()
    if shape < 0.1:
        return deep_instance(rng)
    if shape >= 0.9:
        return overlap_instance(rng)
    pool = HOSTILE_POOL if shape < 0.2 else ATTRIBUTE_POOL
    count = rng.randint(2, 4)
    domain = rng.randint(2, 5)
    relations = []
    used: list[str] = []
    for index in range(count):
        arity = rng.randint(1, 3)
        if used and rng.random() < 0.9:
            # Overlap with an already-used attribute to stay connected.
            first = rng.choice(used)
            rest = [a for a in pool if a != first]
            attrs = (first, *rng.sample(rest, arity - 1))
        else:
            attrs = tuple(rng.sample(pool, arity))
        used.extend(a for a in attrs if a not in used)
        rows = sorted(
            {
                tuple(rng.randrange(domain) for _ in attrs)
                for _ in range(rng.randint(0, 15))
            }
        )
        relations.append(Relation(f"R{index}", attrs, rows))
    return relations


def oracle_join(relations: list[Relation]) -> set[tuple]:
    """Backtracking nested-loop join; rows in JoinQuery attribute order."""
    attributes = JoinQuery(relations).attributes
    assignments: list[dict] = [{}]
    for relation in relations:
        extended = []
        for partial in assignments:
            for row in relation.tuples:
                candidate = dict(partial)
                ok = True
                for attribute, value in zip(relation.attributes, row):
                    if candidate.get(attribute, value) != value:
                        ok = False
                        break
                    candidate[attribute] = value
                if ok:
                    extended.append(candidate)
        assignments = extended
        if not assignments:
            return set()
    return {
        tuple(assignment[a] for a in attributes)
        for assignment in assignments
    }


def check_value_counts(relations: list[Relation]) -> list[tuple]:
    """Plan cold over a fresh catalog; every value-count table the plan
    cached must be its relation's scan, items and order.  Returns the
    attribute sets checked."""
    database = Database(relations)
    plan_join(JoinQuery(list(database)), database=database)
    checked = []
    for relation in database:
        tables = database.stats_cache_get(relation.name, ("value_counts",))
        for attributes, table in (tables or {}).items():
            scanned = count_values(relation, attributes)
            assert list(table.items()) == list(scanned.items()), (
                f"{relation.name}{attributes}: cached table "
                f"{list(table.items())} != scan {list(scanned.items())}"
            )
            checked.append(attributes)
    return checked


def check_instance(rng: random.Random, relations: list[Relation]) -> list:
    """One fuzz iteration; raises AssertionError on any disagreement.
    Returns the value-count tables checked (their attribute sets)."""
    tables = check_value_counts(relations)
    full = expected = oracle_join(relations)
    attributes = JoinQuery(relations).attributes

    # Optional clauses stress sectioning and the filtered sampler.
    binding = membership = None
    if expected and rng.random() < 0.3:
        attribute = rng.choice(attributes)
        position = attributes.index(attribute)
        values = sorted({row[position] for row in expected})
        binding = (attribute, rng.choice(values), values)
        expected = {row for row in expected if row[position] == binding[1]}
    if rng.random() < 0.3:
        attribute = rng.choice(attributes)
        position = attributes.index(attribute)
        membership = (attribute, tuple(range(0, 5, 2)))
        expected = {
            row for row in expected if row[position] in membership[1]
        }

    # A deep instance runs on the descent kernel only: ``nprr`` does not
    # finish a 25-relation star within any fuzz budget.
    deep = len(attributes) >= DEEP
    algorithm, backends = rng.choice(CONFIGS[:3] if deep else CONFIGS)
    options = {"algorithm": algorithm}
    backend = rng.choice(backends)
    # ``backend=`` names one kind for every relation; a per-relation
    # mapping is installed below, on the plan, as the planner does it.
    mixed = algorithm == "generic" and rng.random() < 0.25
    if backend is not None and not mixed:
        options["backend"] = backend
    if rng.random() < 0.2:
        options.update(
            shards=rng.randint(2, 3), mode=rng.choice(("serial", "thread"))
        )
        if rng.random() < 0.25:
            # A hot-shard policy over a two-slot loopback fleet: the
            # real wire, every key split the policy's way.
            policy = rng.choice(("steal", "predictive"))
            options.update(
                shards=ShardSpec(options["shards"], **{policy: True}),
                scheduler=DispatchScheduler(
                    [LoopbackTransport(), LoopbackTransport()]
                ),
            )
    metrics = None
    if rng.random() < 0.25:
        metrics = MetricsRegistry()
        options.update(tracer=Tracer(), metrics=metrics)
    if "scheduler" not in options and rng.random() < 0.5:
        # A catalog: the first run's index builds move the planning
        # generation, so the builder's second plan is a re-plan.
        options["database"] = Database(relations)

    def assemble(value=None):
        builder = Q(*relations)
        if binding is not None:
            builder = builder.where(**{binding[0]: value})
        if membership is not None:
            builder = builder.where_in(*membership)
        return builder.using(**options)

    builder = assemble(binding[1] if binding is not None else None)

    # The consumption route: the builder's own views, a prepared query,
    # or a prepared query re-bound from another value of the parameter.
    route = rng.choice(
        ("builder", "prepare") + (("bind",) if binding is not None else ())
    )
    if route == "builder":
        target = builder
    elif route == "prepare":
        target = builder.prepare()
    else:
        other = assemble(rng.choice(binding[2]))
        target = other.prepare().bind(**{binding[0]: binding[1]})
    config = dict(options, route=route)
    plan = builder.plan() if mixed or metrics is not None else None
    if mixed and plan.algorithm == "generic":  # not a guards-only plan
        kinds = tuple(
            (eid, rng.choice(("trie", "sorted", "compact")))
            for eid in plan.query.edge_ids
        )
        plan = dataclasses.replace(
            plan, backend="mixed", relation_backends=kinds
        )
        target = PreparedQuery(builder, _reuse_plan=plan)
        config = dict(options, route="prepare", relation_backends=kinds)

    streamed = list(target.stream())
    assert len(streamed) == len(set(streamed)), "duplicate streamed rows"
    assert set(streamed) == expected, (
        f"iter_join mismatch: {len(streamed)} streamed vs "
        f"{len(expected)} expected under {config}"
    )
    # A guards-only plan ("none") runs no executor: nothing to measure.
    if metrics is not None and plan.algorithm != "none":
        emitted = metrics.counter("repro_rows_emitted_total").value()
        assert emitted == len(expected), (
            f"repro_rows_emitted_total {emitted} != oracle "
            f"{len(expected)} under {config}"
        )

    counted = target.count()
    assert counted == len(expected), (
        f"count() {counted} != oracle {len(expected)} under {config}"
    )
    check_builder_twice(builder, expected, config)
    check_aggregates(rng, builder, expected, attributes, config)

    k = rng.randint(0, 6)
    seed = rng.randrange(1 << 16)
    sample = target.sample(k, seed=seed)
    assert len(sample) == min(k, len(expected)), (
        f"sample size {len(sample)} != min({k}, {len(expected)})"
    )
    assert len(sample) == len(set(sample)), "sample has duplicates"
    assert set(sample) <= expected, "sample drew a non-result row"
    assert target.sample(k, seed=seed) == sample, "sample not seed-stable"
    check_exact_samples(rng, relations, builder, full, expected, seed)

    if rng.random() < 0.25:
        check_observed(builder, len(expected), config)
    return tables


def plan_fields(plan) -> tuple:
    return (
        plan.algorithm,
        plan.attribute_order,
        plan.backend,
        plan.relation_backends,
        plan.reasons,
        plan.statistics,
        plan.describe(show_stats=True),
    )


def check_builder_twice(builder, expected: set, options: dict) -> None:
    """Run the builder twice: before each run, the plan it reuses (or
    re-makes, when an earlier run wrote what a plan reads) is a fresh
    builder's; each run's rows are the oracle's."""
    for run in (1, 2):
        held, fresh = builder.plan(), builder.using().plan()
        assert plan_fields(held) == plan_fields(fresh), (
            f"plan before run {run} is not a fresh builder's under "
            f"{options}:\n{held.describe()}\nvs\n{fresh.describe()}"
        )
        rows = set(builder.stream())
        assert rows == expected, (
            f"run {run} of the builder: {len(rows)} rows vs "
            f"{len(expected)} expected under {options}"
        )


def check_exact_samples(
    rng: random.Random, relations, builder, full: set, expected: set, seed: int
) -> None:
    """A sample one past the result size is the result: serially, and
    through a ``where`` section of the unfiltered join."""
    serial = builder.using(shards=None, mode="serial", scheduler=None)
    drawn = serial.sample(len(expected) + 1, seed=seed)
    assert len(drawn) == len(expected) and set(drawn) == expected, (
        f"sample({len(expected) + 1}) drew {len(drawn)} rows, not the "
        f"oracle's {len(expected)}"
    )
    if not full:
        return
    attributes = builder.query.attributes
    position = rng.randrange(len(attributes))
    attribute = attributes[position]
    value = rng.choice(sorted({row[position] for row in full}))
    section = {row for row in full if row[position] == value}
    drawn = Q(*relations).where(**{attribute: value}).sample(
        len(section) + 1, seed=seed
    )
    assert len(drawn) == len(section) and set(drawn) == section, (
        f"where({attribute!r}={value!r}).sample({len(section) + 1}) drew "
        f"{len(drawn)} rows, not the oracle's {len(section)}"
    )


def check_aggregates(
    rng: random.Random, builder, rows: set, attributes, options: dict
) -> None:
    """Every aggregate on one random attribute, serial and over three
    serial shards, against ``fold_rows`` over the oracle's rows."""
    attribute = rng.choice(attributes)
    groups = fold_rows(rows, grouped((attribute,), {"n": "count"}), attributes)
    groups = {key: values["n"] for key, values in groups.items()}
    for shards in (None, 3):
        target = builder.using(shards=shards, mode="serial", scheduler=None)
        context = f"on {attribute!r} with shards={shards} under {options}"
        for name in ("sum", "min", "max", "avg", "count_distinct"):
            got = getattr(target, name)(attribute)
            want = fold_rows(rows, as_spec((name, attribute)), attributes)
            assert got == want, f"{name}() {got!r} != oracle {want!r} {context}"
        got = target.group_by(attribute).count()
        assert got == groups, (
            f"group_by().count() {got!r} != oracle {groups!r} {context}"
        )


def check_observed(builder, expected_rows: int, options: dict) -> None:
    """The observed sink: ``explain(analyze=True)`` under the drawn
    configuration; counters are checked wherever the run reports them
    (serial runs of the descent-kernel algorithms)."""
    analysis = builder.explain(analyze=True)
    assert analysis.rows == expected_rows, (
        f"explain(analyze=True) counted {analysis.rows} rows vs "
        f"{expected_rows} expected under {options}"
    )
    levels = [lv for lv in analysis.levels if lv.partials is not None]
    if not levels:
        return
    counters = [(lv.partials, lv.candidates, lv.matches) for lv in levels]
    context = f"counters {counters} under {options}"
    assert levels[0].partials == 1, f"root entered != once: {context}"
    for above, below in zip(levels, levels[1:]):
        assert below.partials == above.matches, (
            f"partials[d+1] != matches[d]: {context}"
        )
    assert levels[-1].matches == analysis.rows, (
        f"matches[-1] != rows out: {context}"
    )
    assert all(lv.candidates >= lv.matches for lv in levels), (
        f"candidates < matches: {context}"
    )


def run_one(iter_seed: int) -> list:
    """One fuzz instance, fully determined by its own seed; returns the
    value-count tables checked.

    Instance generation and the check's random choices both come from a
    fresh RNG seeded with ``iter_seed``, so a failure replays alone —
    independent of where in a long run it was found.
    """
    rng = random.Random(iter_seed)
    relations = random_instance(rng)
    try:
        return check_instance(rng, relations)
    except Exception as error:
        # Any exception — an oracle mismatch (AssertionError) or an
        # engine crash — is a finding; report it the same way.
        print(f"FUZZ FAILURE (iteration seed {iter_seed})", file=sys.stderr)
        for relation in relations:
            print(
                f"  {relation.name}{relation.attributes}: "
                f"{sorted(relation.tuples)}",
                file=sys.stderr,
            )
        if isinstance(error, AssertionError):
            print(f"  {error}", file=sys.stderr)
        else:
            traceback.print_exc()
        print(
            f"reproduce: python tools/fuzz_join.py --replay {iter_seed}",
            file=sys.stderr,
        )
        raise


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--seconds",
        type=float,
        default=60.0,
        help="time budget (default 60, the CI smoke budget)",
    )
    parser.add_argument(
        "--iterations",
        type=int,
        default=None,
        help="run exactly N iterations instead of a time budget",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="master seed (default 0)"
    )
    parser.add_argument(
        "--replay",
        type=int,
        default=None,
        metavar="SEED",
        help="replay exactly one instance by its iteration seed "
        "(printed on failure) and exit",
    )
    args = parser.parse_args(argv)

    if args.replay is not None:
        try:
            run_one(args.replay)
        except Exception:
            return 1
        print(f"fuzz_join: seed {args.replay} passes")
        return 0

    master = random.Random(args.seed)
    started = time.monotonic()
    iteration = 0
    tables = wide = 0
    while True:
        if args.iterations is not None:
            if iteration >= args.iterations:
                break
        elif time.monotonic() - started >= args.seconds:
            break
        iter_seed = master.randrange(1 << 32)
        try:
            checked = run_one(iter_seed)
        except Exception:
            print(
                f"  found at iteration {iteration} of master seed "
                f"{args.seed}",
                file=sys.stderr,
            )
            return 1
        tables += len(checked)
        wide += sum(len(attributes) > 1 for attributes in checked)
        iteration += 1
    elapsed = time.monotonic() - started
    print(
        f"fuzz_join: {iteration} instances checked in {elapsed:.1f}s "
        f"(seed {args.seed}), {tables} value-count tables ({wide} over "
        "two or more attributes), no disagreements"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
