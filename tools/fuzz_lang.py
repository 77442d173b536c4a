#!/usr/bin/env python3
"""Randomized cross-check of the query language against the Q builder.

Generates random catalogs and random *valid* statement texts (seeded,
so every failure is replayable), then checks for each instance that

* the text round-trips: ``parse(normalize(text))`` equals
  ``parse(text)`` node-for-node, and normalization is idempotent,
* randomly re-spelled variants (case, whitespace, comments) normalize
  to the same canonical text,
* executing the compiled statement returns exactly what the equivalent
  hand-built ``Q(...)`` chain returns — rows, aggregates, group-by
  tables, and samples alike, and
* random *mutations* of valid text (dropped, duplicated, swapped, or
  garbage tokens) either parse or raise a positioned
  :class:`~repro.errors.LangError` whose caret diagnostic renders —
  never any other exception.

Usage::

    python tools/fuzz_lang.py --seconds 60          # CI smoke budget
    python tools/fuzz_lang.py --iterations 2000     # fixed-count run
    python tools/fuzz_lang.py --replay 2964779349   # one failing instance

Every iteration draws its own 32-bit seed from the master stream and
runs entirely off a fresh RNG for that seed, so each instance replays
*alone*.  On any disagreement the harness prints the failing iteration
seed, the statement text, the catalog, the error, and the minimal
one-instance repro command ``python tools/fuzz_lang.py --replay SEED``,
then exits 1.
"""

from __future__ import annotations

import argparse
import os
import random
import re
import sys
import time
import traceback

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
)

from repro.aggregate.specs import as_spec  # noqa: E402
from repro.errors import LangError  # noqa: E402
from repro.lang import compile_query, normalize, parse  # noqa: E402
from repro.lang.lexer import KEYWORDS  # noqa: E402
from repro.query.builder import Q  # noqa: E402
from repro.relations.database import Database  # noqa: E402
from repro.relations.relation import Relation  # noqa: E402

ATTRIBUTE_POOL = ("A", "B", "C", "D")
AGGREGATES = ("count", "sum", "min", "max", "avg", "count_distinct")


def random_catalog(rng: random.Random) -> Database:
    """2-3 connected relations with tiny domains (ties and empty joins
    both happen)."""
    count = rng.randint(2, 3)
    domain = rng.randint(2, 4)
    relations = []
    used: list[str] = []
    for index in range(count):
        arity = rng.randint(1, 3)
        if used and rng.random() < 0.9:
            first = rng.choice(used)
            rest = [a for a in ATTRIBUTE_POOL if a != first]
            attrs = (first, *rng.sample(rest, arity - 1))
        else:
            attrs = tuple(rng.sample(ATTRIBUTE_POOL, arity))
        used.extend(a for a in attrs if a not in used)
        rows = sorted(
            {
                tuple(rng.randrange(domain) for _ in attrs)
                for _ in range(rng.randint(0, 12))
            }
        )
        relations.append(Relation(f"R{index}", attrs, rows))
    return Database(relations)


def random_statement(
    rng: random.Random, database: Database
) -> tuple[str, dict]:
    """One random valid statement plus the *plan* for the equivalent
    builder chain (so the checker can rebuild it without re-parsing)."""
    names = list(database.names())
    attributes = sorted(
        {a for name in names for a in database[name].attributes}
    )
    spec: dict = {"relations": names, "eq": {}, "in": {}}

    shape = rng.random()
    if shape < 0.40:
        kind = "rows"
        if rng.random() < 0.5:
            select = "*"
        else:
            chosen = rng.sample(attributes, rng.randint(1, len(attributes)))
            select = ", ".join(chosen)
            spec["select"] = tuple(chosen)
    elif shape < 0.65:
        kind = "aggregate"
        count = rng.randint(1, 3)
        parts, aggs = [], []
        for _ in range(count):
            func = rng.choice(AGGREGATES)
            if func == "count":
                parts.append("count(*)")
                aggs.append(("count", None))
            else:
                attr = rng.choice(attributes)
                if func == "count_distinct" and rng.random() < 0.5:
                    parts.append(f"count(distinct {attr})")
                else:
                    parts.append(f"{func}({attr})")
                aggs.append((func, attr))
        select = ", ".join(parts)
        spec["aggregates"] = aggs
    elif shape < 0.85:
        kind = "group"
        keys = rng.sample(attributes, rng.randint(1, min(2, len(attributes))))
        func = rng.choice(AGGREGATES)
        if func == "count":
            agg_text, agg = "count(*)", ("count", None)
        else:
            attr = rng.choice(attributes)
            agg_text, agg = f"{func}({attr})", (func, attr)
        select = ", ".join([*keys, agg_text])
        spec["group_keys"] = tuple(keys)
        spec["aggregates"] = [agg]
    else:
        kind = "sample"
        select = "*"
        spec["sample"] = (rng.randint(1, 5), rng.randrange(1 << 12))

    text = f"select {select} from {', '.join(names)}"

    if kind in ("rows", "sample") or rng.random() < 0.4:
        conditions = []
        for _ in range(rng.randint(0, 2)):
            attr = rng.choice(attributes)
            if attr in spec["eq"] or attr in spec["in"]:
                continue
            if rng.random() < 0.6:
                value = rng.randrange(4)
                conditions.append(f"{attr} = {value}")
                spec["eq"][attr] = value
            else:
                values = sorted(rng.sample(range(4), rng.randint(1, 3)))
                listed = ", ".join(str(v) for v in values)
                conditions.append(f"{attr} in ({listed})")
                spec["in"][attr] = tuple(values)
        if conditions:
            text += " where " + " and ".join(conditions)

    if kind == "group":
        text += " group by " + ", ".join(spec["group_keys"])
    if kind == "sample":
        k, seed = spec["sample"]
        text += f" sample {k} seed {seed}"
    spec["kind"] = kind
    return text + ";", spec


def respell(rng: random.Random, text: str) -> str:
    """A differently-spelled equivalent: random *keyword* case (never
    identifiers — those are case-sensitive), extra whitespace and
    newlines, a trailing comment."""

    def reword(match: re.Match) -> str:
        word = match.group(0)
        if word.lower() in KEYWORDS and rng.random() < 0.6:
            return (
                word.upper() if rng.random() < 0.5 else word.capitalize()
            )
        return word

    respelled = re.sub(r"[A-Za-z_][A-Za-z_0-9]*", reword, text)
    out = []
    for ch in respelled:
        out.append(ch)
        if ch in ",()" and rng.random() < 0.4:
            out.append(" " * rng.randint(1, 3))
        elif ch == " " and rng.random() < 0.2:
            out.append("\n " if rng.random() < 0.5 else "  ")
    if rng.random() < 0.5:
        out.append(" -- a trailing comment")
    return "".join(out)


def equivalent_builder(spec: dict, database: Database):
    """The Q chain the statement should compile to."""
    builder = Q(*(database[name] for name in spec["relations"]))
    if spec["eq"]:
        builder = builder.where(**spec["eq"])
    for attr, values in spec["in"].items():
        builder = builder.where_in(attr, values)
    if "select" in spec:
        builder = builder.select(*spec["select"])
    return builder.on(database)


def run_aggregate(builder, func: str, attr):
    return builder.fold(as_spec("count" if func == "count" else (func, attr)))


def check_instance(rng: random.Random, database: Database) -> None:
    """One fuzz iteration; raises AssertionError on any disagreement."""
    text, spec = random_statement(rng, database)

    # Round-trip invariants.
    canonical = normalize(text)
    assert normalize(canonical) == canonical, "normalize not idempotent"
    assert parse(canonical) == parse(text), "normalize changed the AST"
    variant = respell(rng, text)
    try:
        assert normalize(variant) == canonical, (
            f"respelled variant normalized differently:\n  {variant!r}"
        )
    except LangError:
        # swapcase may uppercase a keyword *letter* inside an
        # identifier; identifiers are case-sensitive so that variant is
        # a different (possibly invalid) statement — skip it.
        pass

    # Execution parity against the hand-built chain.
    compiled = compile_query(text, database)
    builder = equivalent_builder(spec, database)
    kind = spec["kind"]
    result = compiled.run()
    if kind in ("rows",):
        assert sorted(result.rows) == sorted(builder.stream()), (
            "row mismatch"
        )
    elif kind == "sample":
        k, seed = spec["sample"]
        assert result.rows == builder.sample(k, seed=seed), (
            "sample mismatch"
        )
    elif kind == "aggregate":
        expected = tuple(
            run_aggregate(builder, func, attr)
            for func, attr in spec["aggregates"]
        )
        assert result.rows == [expected], (
            f"aggregate mismatch: {result.rows} != {[expected]}"
        )
    elif kind == "group":
        (func, attr), keys = spec["aggregates"][0], spec["group_keys"]
        grouped = builder.group_by(*keys)
        table = (
            grouped.count() if func == "count" else grouped.agg(
                value=(func, attr)
            )
        )
        expected = set()
        for key, value in table.items():
            key = key if isinstance(key, tuple) else (key,)
            value = value if func == "count" else value["value"]
            expected.add((*key, value))
        assert set(result.rows) == expected, (
            f"group mismatch: {sorted(result.rows)} != {sorted(expected)}"
        )

    # Mutation fuzzing: damaged text must parse or fail *cleanly*.
    for _ in range(3):
        mutated = mutate(rng, text)
        try:
            compile_query(mutated, database).run()
        except LangError as error:
            diagnostic = error.caret_diagnostic()
            assert "^" in diagnostic, "diagnostic lost its caret"
        # Any other exception propagates and is reported as a finding.


def mutate(rng: random.Random, text: str) -> str:
    """Damage the text: drop/duplicate/swap a span or splice garbage."""
    choice = rng.random()
    if choice < 0.25 and len(text) > 2:
        i = rng.randrange(len(text) - 1)
        return text[:i] + text[i + rng.randint(1, 3):]
    if choice < 0.5:
        i = rng.randrange(len(text))
        return text[:i] + text[i:i + rng.randint(1, 4)] + text[i:]
    if choice < 0.75:
        words = text.split()
        if len(words) > 2:
            i, j = rng.sample(range(len(words)), 2)
            words[i], words[j] = words[j], words[i]
            return " ".join(words)
        return text
    garbage = rng.choice(
        ("@", "select", "(", ")", "''", "group by", "1e9", "%", "'oops")
    )
    i = rng.randrange(len(text))
    return f"{text[:i]} {garbage} {text[i:]}"


def run_one(iter_seed: int) -> None:
    """One fuzz instance, fully determined by its own seed."""
    rng = random.Random(iter_seed)
    database = random_catalog(rng)
    statement = "<generation failed>"
    try:
        preview_rng = random.Random(iter_seed)
        random_catalog(preview_rng)
        statement, _ = random_statement(preview_rng, database)
        check_instance(rng, database)
    except Exception as error:
        print(f"FUZZ FAILURE (iteration seed {iter_seed})", file=sys.stderr)
        print(f"  statement: {statement!r}", file=sys.stderr)
        for name in database.names():
            relation = database[name]
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
            f"reproduce: python tools/fuzz_lang.py --replay {iter_seed}",
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
        print(f"fuzz_lang: seed {args.replay} passes")
        return 0

    master = random.Random(args.seed)
    started = time.monotonic()
    iteration = 0
    while True:
        if args.iterations is not None:
            if iteration >= args.iterations:
                break
        elif time.monotonic() - started >= args.seconds:
            break
        iter_seed = master.randrange(1 << 32)
        try:
            run_one(iter_seed)
        except Exception:
            print(
                f"  found at iteration {iteration} of master seed "
                f"{args.seed}",
                file=sys.stderr,
            )
            return 1
        iteration += 1
    elapsed = time.monotonic() - started
    print(
        f"fuzz_lang: {iteration} instances checked in {elapsed:.1f}s "
        f"(seed {args.seed}), no disagreements"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
