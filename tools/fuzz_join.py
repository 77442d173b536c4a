#!/usr/bin/env python3
"""Randomized cross-check of the join engine against a brute-force oracle.

Generates random small schemas and relations (seeded, so every failure
is replayable; one instance in ten a path or star query of 18-26
attributes — past the 20 nested blocks one compiled loop nest may hold —
one in ten with quotes, newlines, backslashes, braces and an
expression for attribute names, one in ten a path or tree of binary
relations with dangling tuples, and one in ten an LW(4), LW(5) or
lifted triangle, where every pair of relations shares two or more
attributes), then checks for each instance that

* every value-count table a cold plan cached — scanned, or summed out
  of a wider table of the same relation — equals a scan of that
  relation (``count_values``), items and iteration order, and every
  selectivity it cached, in both directions (one pass caches both),
  equals the matching fraction off the raw tuples,
* every plan the harness makes solves no cover LP, unless its
  algorithm runs on the cover (``nprr``), which solves that one — the
  order descent reads relation sizes, never an LP optimum (the summary
  counts the plans and the LPs they solved),
* the row stream under a randomly chosen algorithm/backend/shard config
  (sharded one time in five: serial or thread mode, or — a quarter of
  those — stealing or predictively pre-split over a loopback fleet;
  one ``generic`` configuration in four under a random *per-relation*
  backend mapping, the plan shape the planner emits for skewed inputs,
  so hash-trie nodes and probed array nodes meet at one level; one
  ``generic`` / ``leapfrog`` configuration in four, off the deep
  instances, under a pinned random permutation of the attributes)
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
* on an acyclic instance — where a fold memoises subtree counts —
  ``count`` / ``sum`` / ``group_by(a).count()`` under ``generic``, plain,
  under a ``where`` or ``where_in`` filter and over three serial shards
  (narrowed keys), equal ``fold_rows`` over the oracle's rows (the
  summary counts the instances whose folds compiled a memo),
* ``sample(k, seed=...)`` returns ``min(k, |J|)`` distinct oracle rows
  and is deterministic for the seed, and a sample one past the result
  size — serially, and through a ``where`` section on a random attribute
  — is exactly the oracle's row set; a descent plan's ``sample(k,
  seed)`` is the rows its loop nest yields at the ranks
  ``random.Random(seed)`` draws (the summary counts them), and
* a pinned order that is not a permutation — one pin in five drops,
  repeats or adds an attribute — raises ``QueryError`` from ``plan()``,
  before any work,
* one iteration in four, ``explain(analyze=True)`` — the observed run —
  counts the oracle's rows and its per-level counters chain (the root
  is entered once, each level's matches are the next level's partials,
  the last level's matches are the rows, candidates >= matches) and,
  on a serial run, Generic Join over the plan's order and filters
  yields the same row sequence probed and unprobed, and on a serial
  ``leapfrog`` run, its partials and matches equal Generic Join's (the
  summary counts both),

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
import contextlib
import dataclasses
import itertools
import os
import random
import sys
import time
import traceback

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
)

from repro.aggregate.fold import fold_rows  # noqa: E402
from repro.aggregate.specs import Count, Sum, as_spec, grouped  # noqa: E402
from repro.baselines.yannakakis import is_acyclic  # noqa: E402
from repro.core import descent  # noqa: E402
from repro.core.generic_join import GenericJoin  # noqa: E402
from repro.core.query import JoinQuery  # noqa: E402
from repro.distributed import (  # noqa: E402
    DispatchScheduler,
    LoopbackTransport,
)
from repro.engine.executors import (  # noqa: E402
    DESCENT_ALGORITHMS,
    EXECUTORS,
)
from repro.engine.planner import plan_join  # noqa: E402
from repro.errors import QueryError  # noqa: E402
from repro.hypergraph import agm  # noqa: E402
from repro.observe.metrics import MetricsRegistry  # noqa: E402
from repro.observe.telemetry import TelemetryProbe  # noqa: E402
from repro.observe.tracing import Tracer  # noqa: E402
from repro.query.builder import Q  # noqa: E402
from repro.query.prepared import PreparedQuery  # noqa: E402
from repro.query.shards import ShardSpec  # noqa: E402
from repro.relations.database import Database  # noqa: E402
from repro.relations.relation import Relation  # noqa: E402
from repro.server.protocol import encode  # noqa: E402
from repro.server.service import _row_lines  # noqa: E402
from repro.stats.profiles import count_values  # noqa: E402
from repro.workloads import generators, queries  # noqa: E402

ATTRIBUTE_POOL = ("A", "B", "C", "D", "E")
#: Attribute names no generated loop nest may ever see as text: quotes,
#: a newline, a backslash, format braces, an expression.
HOSTILE_POOL = (
    'a"b', "c'd", "e\nf", "g\\h", "{}", "__import__('os').system('x')"
)
#: A value family: what one in ten instances' values become — strings
#: the JSON encoder escapes, which the server's row texts must write
#: byte for byte as it does ...
STRINGS = ('q"q', "b\\s", "n\nl", "caf\u00e9", "\u65e5\u672c", "\U0001f600")
#: ... and, in another one in ten, numbers equal across types
#: (``True == 1 == 1.0``), which must leave the rows to the tuple encoder.
CONFLATING = (False, True, 2.0, 3, 4.0)
#: Attributes of the shallowest :func:`deep_instance`.
DEEP = 18
#: (algorithm, allowed backends) — only planner-valid combinations are
#: fuzzed; invalid ones are rejected eagerly and tested elsewhere.
CONFIGS = (
    ("auto", (None, *EXECUTORS["generic"].backends)),
    ("generic", (None, *EXECUTORS["generic"].backends)),
    ("leapfrog", (None, *EXECUTORS["leapfrog"].backends)),
    ("nprr", (None, *EXECUTORS["nprr"].backends)),
)
#: The plans made since the run began and the cover LPs they solved.
PLANNED = {"plans": 0, "lps": 0}
#: The descent plans' draws checked against their nest's rows by rank.
RANKED = {"draws": 0}
#: The selectivities cold plans cached, checked in both directions.
SELECTIVITIES = {"checked": 0}


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


def acyclic_instance(rng: random.Random) -> list[Relation]:
    """A path or a tree of 3-7 binary relations over a domain of 3-5
    values, 0-12 draws each — where a count's fold memoises — and, in
    most relations, a dangling tuple or two: one value past the domain,
    which rarely joins."""
    edges = rng.randint(3, 7)
    path = rng.random() < 0.5
    domain = rng.randint(3, 5)
    relations = []
    for index in range(1, edges + 1):
        parent = index - 1 if path else rng.randrange(index)
        rows = {
            (rng.randrange(domain), rng.randrange(domain))
            for _ in range(rng.randint(0, 12))
        }
        for _ in range(rng.randint(0, 2)):
            dangling = domain + rng.randrange(3)
            rows.add(
                (dangling, rng.randrange(domain)) if rng.random() < 0.5
                else (rng.randrange(domain), dangling)
            )
        relations.append(
            Relation(f"R{index}", (f"A{parent}", f"A{index}"), sorted(rows))
        )
    return relations


def random_instance(rng: random.Random) -> list[Relation]:
    """A random connected join query: 2-4 relations, arity 1-3, tiny
    domains (so results stay small and duplicates/empty joins happen);
    one in ten is a :func:`deep_instance`, one in ten names its
    attributes from :data:`HOSTILE_POOL`, one in ten is an
    :func:`acyclic_instance`, one in ten an :func:`overlap_instance`."""
    shape = rng.random()
    if shape < 0.1:
        return deep_instance(rng)
    if shape >= 0.9:
        return overlap_instance(rng)
    if shape >= 0.8:
        return acyclic_instance(rng)
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
    family = rng.random()
    if family < 0.1:  # every value a string the JSON encoder escapes
        return [
            Relation(r.name, r.attributes, [
                tuple(STRINGS[v] for v in row) for row in sorted(r.tuples)
            ])
            for r in relations
        ]
    if family < 0.2:  # each value itself or an equal value of another type
        return [
            Relation(r.name, r.attributes, [
                tuple(rng.choice((v, CONFLATING[v])) for v in row)
                for row in sorted(r.tuples)
            ])
            for r in relations
        ]
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


def counted_plan(make_plan, context):
    """``make_plan()``, counting the cover LPs solved inside it (the
    calls of :func:`repro.hypergraph.agm.solve_min_geq`): an ``nprr``
    plan solves at most the cover its executor runs on, any other none."""
    real, solves = agm.solve_min_geq, []

    def counting(*args):
        solves.append(args)
        return real(*args)

    agm.solve_min_geq = counting
    try:
        plan = make_plan()
    finally:
        agm.solve_min_geq = real
    allowed = 1 if plan.algorithm == "nprr" else 0
    assert len(solves) <= allowed, (
        f"a {plan.algorithm} plan solved {len(solves)} cover LP(s) "
        f"under {context}"
    )
    PLANNED["plans"] += 1
    PLANNED["lps"] += len(solves)
    return plan


def matching_fraction(source: Relation, target: Relation) -> float:
    """``P(match in target | tuple of source)`` off the raw tuples."""
    shared = sorted(source.attribute_set & target.attribute_set)
    theirs = {tuple(row[i] for i in target.positions(shared))
              for row in target.tuples}
    hits = sum(tuple(row[i] for i in source.positions(shared)) in theirs
               for row in source.tuples)
    return hits / len(source) if len(source) else 0.0


def check_value_counts(relations: list[Relation]) -> list[tuple]:
    """Plan cold over a fresh catalog; every value-count table the plan
    cached must be its relation's scan, items and order, and every
    selectivity it cached, and the reverse direction cached with it,
    the fraction off the raw tuples.  Returns the attribute sets
    checked."""
    database = Database(relations)
    counted_plan(
        lambda: plan_join(JoinQuery(list(database)), database=database),
        "a cold plan over a fresh catalog",
    )
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
        for other in database:
            shared = tuple(sorted(relation.attribute_set & other.attribute_set))
            if other is relation or not shared:
                continue
            get = database.stats_cache_get
            cached = get(relation.name, ("selectivity", other.name, shared))
            reverse = get(other.name, ("selectivity", relation.name, shared))
            if cached is None and reverse is None:
                continue  # a pair the plan did not consult
            exact = matching_fraction(relation, other)
            assert cached == exact, (
                f"selectivity {relation.name} -> {other.name}: cached "
                f"{cached!r} != {exact!r} off the tuples"
            )
            SELECTIVITIES["checked"] += 1
    return checked


def broken_order(rng: random.Random, order: list[str]) -> tuple:
    """``order`` with one attribute dropped, repeated, or one added."""
    kind = rng.choice(("missing", "duplicate", "extra"))
    if kind == "missing":
        return tuple(order[1:])
    if kind == "duplicate":
        return (*order, rng.choice(order))
    return (*order, "".join(order) + "'")


def check_rejected(relations, options: dict, order: tuple) -> None:
    """A pinned non-permutation is a plan-time ``QueryError``."""
    builder = Q(*relations).using(**options, attribute_order=order)
    try:
        builder.plan()
    except QueryError as error:
        assert "not a permutation" in str(error), (
            f"pinned {order!r}: wrong error {error!r} under {options}"
        )
    else:
        raise AssertionError(
            f"pinned non-permutation {order!r} planned under {options}"
        )


def check_instance(rng: random.Random, relations: list[Relation]) -> tuple:
    """One fuzz iteration; raises AssertionError on any disagreement.
    Returns the value-count tables checked (their attribute sets),
    whether the server's row texts were checked, whether an acyclic
    instance's folds compiled a memo, what was pinned as the attribute
    order (``None``, ``"order"`` or ``"rejected"``) and whether
    leapfrog's counters were compared with Generic Join's and Generic
    Join's probed rows with its unprobed ones."""
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
    # A pinned order: a random permutation must give the oracle's rows,
    # a non-permutation a plan-time error.  Not on a deep instance: a
    # random order of a long path leaves its prefix disconnected, and
    # the cross products of the pieces would outrun any fuzz budget.
    pinned = None
    ordered = algorithm in EXECUTORS and EXECUTORS[algorithm].ordered
    if ordered and not deep and rng.random() < 0.25:
        order = rng.sample(attributes, len(attributes))
        if rng.random() < 0.2:
            check_rejected(relations, options, broken_order(rng, order))
            pinned = "rejected"
        else:
            options["attribute_order"] = tuple(order)
            pinned = "order"
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
    plan = None
    if mixed or metrics is not None:
        plan = counted_plan(builder.plan, config)
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

    if pinned == "order":
        planned = counted_plan(builder.plan, config)
        if planned.algorithm != "none":  # bound attributes leave the pin
            residual = planned.query.attributes
            assert planned.attribute_order == tuple(
                a for a in options["attribute_order"] if a in residual
            ), f"plan order {planned.attribute_order} under {config}"

    streamed = list(target.stream())
    assert len(streamed) == len(set(streamed)), "duplicate streamed rows"
    assert set(streamed) == expected, (
        f"stream mismatch: {len(streamed)} streamed vs "
        f"{len(expected)} expected under {config}"
    )
    # A guards-only plan ("none") runs no executor: nothing to measure.
    if metrics is not None and plan.algorithm != "none":
        emitted = metrics.counter("repro_rows_emitted_total").value()
        assert emitted == len(expected), (
            f"repro_rows_emitted_total {emitted} != oracle "
            f"{len(expected)} under {config}"
        )

    wire = "shards" not in options and metrics is None and check_wire(
        target if isinstance(target, PreparedQuery) else builder.prepare(),
        relations,
        config,
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

    compared = (False, False)
    if rng.random() < 0.25:
        compared = check_observed(builder, len(expected), config)
    memoised = []
    if is_acyclic(JoinQuery(relations).hypergraph):
        with recording_memos() as memoised:
            check_acyclic_folds(rng, relations, full, attributes)
    return tables, wire, bool(memoised), pinned, compared


@contextlib.contextmanager
def recording_memos():
    """While open, the list of fold shapes the memo rule gave a memo:
    every fold consults :func:`repro.core.descent._memo_keys`."""
    rule, memoised = descent._memo_keys, []

    def recording(*shape):
        memos = rule(*shape)
        if memos:
            memoised.append(shape)
        return memos

    descent._memo_keys = recording
    try:
        yield memoised
    finally:
        descent._memo_keys = rule


def check_wire(prepared: PreparedQuery, relations, config: dict) -> bool:
    """The server's row lines: where the loop nest writes the rows as
    texts, each line equals ``encode({"id": i, "rows": batch})`` byte for
    byte, at the default 256 -> 4096 doubling and at a fixed ``batch``;
    a relation holding any value but an exact ``int`` or ``str`` takes
    the tuple lines.  Returns whether the texts ran."""
    if prepared._texts() is None:
        return False
    assert all(
        type(value) in (int, str)
        for relation in relations
        for row in relation.tuples
        for value in row
    ), f"row texts over values equal across types under {config}"
    for request_id, first, ceiling in ((1, 256, 4096), ("i", 3, 3)):
        lines = list(
            _row_lines(prepared._texts(), True, request_id, first, ceiling)
        )
        rows, size, want = prepared.stream(), first, []
        while batch := list(itertools.islice(rows, size)):
            line = encode({"id": request_id, "rows": batch})
            want.append((len(batch), line))
            size = min(2 * size, ceiling)
        assert lines == want, (
            f"row text lines {lines} != encoded tuples {want} under {config}"
        )
    return True


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
        held = counted_plan(builder.plan, options)
        fresh = counted_plan(builder.using().plan, options)
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
    through a ``where`` section of the unfiltered join.  Over a catalog,
    a descent plan's sample walks the indexes its run built: no miss; and
    it draws its nest's rows at the drawn ranks."""
    serial = builder.using(shards=None, mode="serial", scheduler=None)
    database = serial.context.database
    if database is not None:
        serial.count()  # the run whose indexes the sample walks
        misses = database.cache_info().misses
    drawn = serial.sample(len(expected) + 1, seed=seed)
    assert len(drawn) == len(expected) and set(drawn) == expected, (
        f"sample({len(expected) + 1}) drew {len(drawn)} rows, not the "
        f"oracle's {len(expected)}"
    )
    if database is not None and serial.plan().algorithm in DESCENT_ALGORITHMS:
        added = database.cache_info().misses - misses
        assert not added, f"sample() missed the cache {added} time(s)"
    prepared = serial.prepare()
    if prepared._executor is not None and (
        prepared.plan.algorithm in DESCENT_ALGORITHMS
    ):
        check_ranked_sample(prepared, rng.randint(1, len(expected) + 1), seed)
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


def check_ranked_sample(prepared: PreparedQuery, k: int, seed: int) -> None:
    """A descent plan's draw is the rows its loop nest yields at the
    ranks ``random.Random(seed)`` draws: the sampler unranks through
    that nest, in its order."""
    rows = list(descent.iter_rows(prepared._executor._binding))
    merge = prepared._compiled.merge
    if merge is not None:
        rows = [merge(row) for row in rows]
    ranks = random.Random(seed).sample(range(len(rows)), min(k, len(rows)))
    drawn = prepared.sample(k, seed=seed)
    assert drawn == [rows[rank] for rank in ranks], (
        f"sample({k}, seed={seed}) under {prepared.plan.algorithm} is not "
        "the nest's rows at the drawn ranks"
    )
    RANKED["draws"] += 1


def check_aggregates(
    rng: random.Random, builder, rows: set, attributes, options: dict
) -> None:
    """Every aggregate on one random attribute, serial and over three
    serial shards, against ``fold_rows`` over the oracle's rows."""
    attribute = rng.choice(attributes)
    groups = fold_rows(rows, grouped((attribute,), {"n": "count"}), attributes)
    groups = {key: values["n"] for key, values in groups.items()}
    position = attributes.index(attribute)
    names = ("min", "max", "count_distinct")
    if not any(isinstance(row[position], str) for row in rows):
        names += ("sum", "avg")  # strings have neither
    for shards in (None, 3):
        target = builder.using(shards=shards, mode="serial", scheduler=None)
        context = f"on {attribute!r} with shards={shards} under {options}"
        for name in names:
            got = getattr(target, name)(attribute)
            want = fold_rows(rows, as_spec((name, attribute)), attributes)
            assert got == want, f"{name}() {got!r} != oracle {want!r} {context}"
        got = target.group_by(attribute).count()
        assert got == groups, (
            f"group_by().count() {got!r} != oracle {groups!r} {context}"
        )


def check_acyclic_folds(
    rng: random.Random, relations, rows: set, attributes
) -> None:
    """``count`` / ``sum`` / ``group_by(a).count()`` under ``generic``
    over a random backend — where a fold memoises — plain, under a
    ``where`` or ``where_in`` filter, and over three serial shards
    (each a narrowed key), against ``fold_rows`` over the oracle's
    rows."""
    backend = rng.choice(("trie", "sorted", "compact"))
    summed, grouping, filtered = (rng.choice(attributes) for _ in range(3))
    position = attributes.index(filtered)
    values = sorted({row[position] for row in rows}) or [0]
    if rng.random() < 0.5:
        value = rng.choice(values)
        where = lambda builder: builder.where(**{filtered: value})
        kept = lambda v: v == value
    else:
        members = tuple(values[::2])
        where = lambda builder: builder.where_in(filtered, members)
        kept = members.__contains__
    by_group = grouped((grouping,), {"n": "count"})
    checks = [
        (Count(), lambda target: target.count()),
        (by_group, lambda target: target.group_by(grouping).count()),
    ]
    column = attributes.index(summed)
    if not any(isinstance(row[column], str) for row in rows):
        checks.append((Sum(summed), lambda target: target.sum(summed)))
    for section in (None, where):
        builder = Q(*relations) if section is None else section(Q(*relations))
        kept_rows = rows if section is None else {
            row for row in rows if kept(row[position])
        }
        for shards in (None, 3):
            target = builder.using(
                algorithm="generic", backend=backend, shards=shards,
                mode="serial",
            )
            for spec, run in checks:
                got, want = run(target), fold_rows(kept_rows, spec, attributes)
                if spec is by_group:
                    want = {key: inner["n"] for key, inner in want.items()}
                assert got == want, (
                    f"{spec!r} {got!r} != oracle {want!r} on an acyclic "
                    f"instance over {backend} with shards={shards}, "
                    f"{'no filter' if section is None else filtered}"
                )


def check_observed(builder, expected_rows: int, options: dict) -> tuple:
    """The observed sink: ``explain(analyze=True)`` under the drawn
    configuration; counters are checked wherever the run reports them
    (serial runs of the descent-kernel algorithms).  On a serial run,
    Generic Join over the plan's order and residual filters yields one
    row sequence probed and unprobed — the counters steer nothing — and
    a leapfrog run's per-level partials and matches must equal its
    probe's: both search one prefix tree.  Returns whether each of the
    two comparisons ran: ``(leapfrog's counters, the probed rows)``."""
    analysis = builder.explain(analyze=True)
    assert analysis.rows == expected_rows, (
        f"explain(analyze=True) counted {analysis.rows} rows vs "
        f"{expected_rows} expected under {options}"
    )
    levels = [lv for lv in analysis.levels if lv.partials is not None]
    counters = [(lv.partials, lv.candidates, lv.matches) for lv in levels]
    context = f"counters {counters} under {options}"
    if levels:
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
    plan = analysis.plan
    if "shards" in options or plan.algorithm == "none":
        return False, False
    probe = TelemetryProbe(plan.attribute_order)

    def generic(telemetry=None):
        return GenericJoin(
            plan.query,
            plan.attribute_order,
            filters=builder._compile().filters,
            telemetry=telemetry,
        )

    probed = list(generic(probe).iter_join())
    assert len(probed) == analysis.rows, (
        f"generic join's rows != {plan.algorithm}'s: {context}"
    )
    assert probed == list(generic().iter_join()), (
        f"a probed generic join's row sequence != an unprobed one's "
        f"under {options}"
    )
    if options["algorithm"] != "leapfrog" or not levels:
        return False, True
    assert [(lv.partials, lv.matches) for lv in levels] == list(
        zip(probe.partials, probe.matches)
    ), (
        f"leapfrog's partials / matches {counters} != generic join's "
        f"{probe.partials} / {probe.matches} under {options}"
    )
    return True, True


def run_one(iter_seed: int) -> tuple:
    """One fuzz instance, fully determined by its own seed; returns what
    :func:`check_instance` does.

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
    PLANNED.update(plans=0, lps=0)
    RANKED.update(draws=0)
    SELECTIVITIES.update(checked=0)
    started = time.monotonic()
    iteration = 0
    tables = wide = wires = memos = compares = sequences = 0
    pins = {"order": 0, "rejected": 0}
    while True:
        if args.iterations is not None:
            if iteration >= args.iterations:
                break
        elif time.monotonic() - started >= args.seconds:
            break
        iter_seed = master.randrange(1 << 32)
        try:
            checked, wire, memoised, pinned, compared = run_one(iter_seed)
        except Exception:
            print(
                f"  found at iteration {iteration} of master seed "
                f"{args.seed}",
                file=sys.stderr,
            )
            return 1
        tables += len(checked)
        wide += sum(len(attributes) > 1 for attributes in checked)
        wires += wire
        memos += memoised
        compares += compared[0]
        sequences += compared[1]
        if pinned is not None:
            pins[pinned] += 1
        iteration += 1
    elapsed = time.monotonic() - started
    print(
        f"fuzz_join: {iteration} instances checked in {elapsed:.1f}s "
        f"(seed {args.seed}), {tables} value-count tables ({wide} over "
        f"two or more attributes), {wires} as server row texts, "
        f"{memos} compiling a memo, {pins['order']} under a pinned order, "
        f"{pins['rejected']} non-permutation pins rejected, {compares} "
        "leapfrog runs counted as generic join counts, "
        f"{sequences} probed generic join runs yielding the unprobed rows "
        "in order, "
        f"{RANKED['draws']} descent draws equal to the nest's rows at "
        "their ranks, "
        f"{SELECTIVITIES['checked']} cached selectivities equal to the "
        "fraction off the tuples, "
        f"{PLANNED['plans']} plans solving {PLANNED['lps']} cover LPs "
        "(nprr's), no disagreements"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
