"""Surface tests: aggregation and sampling across every entry layer.

The tentpole threads one mechanism (fold + AGM sampling) through the
query builder, prepared queries, ``execute``, the CLI, the planner's
explain output, and the parallel driver — each layer gets a
direct test here so a wiring regression is caught at the layer that
broke, not three layers up.
"""

from __future__ import annotations

import csv
import random

import pytest

from repro.aggregate.fold import Folder, fold_rows
from repro.aggregate.specs import Count, Sum
from repro.api import execute
from repro.core.query import JoinQuery
from repro.engine.parallel import shard_fold
from repro.engine.planner import plan_join
from repro.errors import PlanError, QueryError
from repro.query.builder import Q
from repro.query.context import ExecutionContext
from repro.relations.database import Database
from repro.relations.relation import Relation
from repro.__main__ import main as cli_main
from tests.helpers import BENCHMARK_SHAPES, oracle_count, oracle_join


def _relations(seed=13, n=50, domain=8):
    rng = random.Random(seed)

    def rows():
        return sorted(
            {
                (rng.randrange(domain), rng.randrange(domain))
                for _ in range(n)
            }
        )

    return (
        Relation("R", ("A", "B"), rows()),
        Relation("S", ("B", "C"), rows()),
        Relation("T", ("A", "C"), rows()),
    )


# -- execute() ---------------------------------------------------------------


def test_execute_count_matches_enumeration():
    relations = _relations()
    rows = list(Q(*relations).stream())
    assert execute(list(relations)).count() == oracle_count(rows)
    assert execute(list(relations), algorithm="generic").count() == len(rows)
    sharded = execute(list(relations), shards=3, mode="serial")
    assert sharded.count() == len(rows)


def test_execute_sample_is_deterministic_and_valid():
    relations = _relations()
    rows = set(Q(*relations).stream())
    sample = execute(list(relations)).sample(4, seed=21)
    assert sample == execute(list(relations)).sample(4, seed=21)
    assert len(sample) == 4 and set(sample) <= rows


def test_execute_count_rejects_unknown_algorithm():
    with pytest.raises(QueryError):
        execute(list(_relations()), algorithm="nope").count()


def test_a_sample_walks_the_plan_it_ran_and_builds_nothing():
    query = BENCHMARK_SHAPES["lifted_triangle"]()
    db = Database(list(query.relations.values()))
    builder = Q(query).on(db)
    expected = sorted(oracle_join(query))
    assert builder.count() == len(expected)
    # A sampler binding the query's own order would build new indexes.
    assert builder.plan().attribute_order != query.attributes
    before = db.cache_info()
    sample = builder.sample(len(expected) + 1, seed=1)
    after = db.cache_info()
    assert (after.misses, after.entries) == (before.misses, before.entries)
    assert sorted(sample) == expected


# -- fold internals exposed at the executor layer ----------------------------


def test_executor_fold_matches_stream_fold():
    query = JoinQuery(list(_relations()))
    for algorithm in ("generic", "leapfrog"):
        plan = plan_join(query, algorithm)
        executor = plan.executor()
        folder = Folder(Count(), plan.attribute_order)
        executor.fold(folder)
        assert folder.result() == len(list(executor.iter_join()))


def test_folder_rejects_unknown_needs():
    with pytest.raises(QueryError):
        Folder(Sum("Z"), ("A", "B", "C"))


def test_fold_rows_is_the_universal_fallback():
    rows = [(1, 2), (1, 3), (2, 2)]
    assert fold_rows(iter(rows), Count(), ("A", "B")) == 3
    assert fold_rows(iter(rows), Sum("B"), ("A", "B")) == 7


# -- parallel driver ---------------------------------------------------------


def test_shard_fold_merges_partial_states():
    query = JoinQuery(list(_relations()))
    expected = len(list(plan_join(query, "generic").executor().iter_join()))
    for mode in ("serial", "thread", "process"):
        context = ExecutionContext(shards=3, mode=mode)
        plan = plan_join(query, context=context)
        state = shard_fold(plan, plan.executor(), Count(), context)
        assert state == expected


def test_shard_fold_options_validate_on_the_context():
    with pytest.raises(PlanError):
        ExecutionContext(shards=3, mode="bogus")
    with pytest.raises(PlanError):
        ExecutionContext(shards=3, workers=0)


# -- prepared queries --------------------------------------------------------


def test_prepared_aggregates_skip_replanning():
    relations = _relations()
    prepared = Q(*relations).prepare()
    rows = list(prepared.stream())
    assert prepared.count() == len(rows)
    assert prepared.sum("B") == sum(r[1] for r in rows)
    assert prepared.group_by("A").count() == Q(*relations).group_by(
        "A"
    ).count()
    sample = prepared.sample(3, seed=8)
    assert sample == Q(*relations).sample(3, seed=8)


def test_prepared_bind_rebinds_aggregates():
    relations = _relations()
    prepared = Q(*relations).where(A=0).prepare()
    for value in (0, 3, 5):
        bound = prepared.bind(A=value)
        assert bound.count() == Q(*relations).where(A=value).count()
        # The rebound prepared query keeps the frozen plan.
        assert bound.plan.algorithm == prepared.plan.algorithm


# -- grouped query object ----------------------------------------------------


def test_grouped_query_validates_and_reports():
    builder = Q(*_relations())
    with pytest.raises(QueryError):
        builder.group_by()
    with pytest.raises(QueryError):
        builder.group_by("Z")
    grouped = builder.group_by("A")
    assert grouped.keys == ("A",)
    with pytest.raises(QueryError):
        grouped.agg()
    with pytest.raises(QueryError):
        grouped.agg(bad="median")
    assert "group_by(A)" in repr(grouped)


def test_aggregate_rejects_attributes_outside_output():
    builder = Q(*_relations()).select("A")
    with pytest.raises(QueryError):
        builder.sum("B")


# -- CLI ---------------------------------------------------------------------


@pytest.fixture()
def csv_files(tmp_path):
    relations = _relations()
    paths = []
    for relation in relations:
        path = tmp_path / f"{relation.name}.csv"
        with open(path, "w", newline="") as sink:
            writer = csv.writer(sink)
            writer.writerow(relation.attributes)
            writer.writerows(sorted(relation.tuples))
        paths.append(str(path))
    return paths, list(relations)


def test_cli_join_count(csv_files, capsys):
    paths, relations = csv_files
    assert cli_main(["join", *paths, "--count"]) == 0
    out = capsys.readouterr().out.strip()
    assert int(out) == Q(*relations).count()


def test_cli_join_count_sharded(csv_files, capsys):
    paths, relations = csv_files
    assert cli_main(["join", *paths, "--count", "--shards", "2"]) == 0
    assert int(capsys.readouterr().out.strip()) == Q(*relations).count()


def test_cli_join_sample_deterministic(csv_files, capsys):
    paths, relations = csv_files
    assert cli_main(["join", *paths, "--sample", "3", "--seed", "7"]) == 0
    first = capsys.readouterr().out
    assert cli_main(["join", *paths, "--sample", "3", "--seed", "7"]) == 0
    assert capsys.readouterr().out == first
    lines = first.strip().splitlines()
    assert lines[0] == "A,B,C"
    rows = set(Q(*relations).stream())
    parsed = {
        tuple(int(v) for v in line.split(",")) for line in lines[1:]
    }
    assert len(parsed) == 3 and parsed <= rows


def test_cli_count_and_sample_flags_conflict(csv_files, capsys):
    paths, _relations = csv_files
    assert cli_main(["join", *paths, "--count", "--sample", "2"]) == 2
    assert "mutually exclusive" in capsys.readouterr().err
    assert cli_main(["join", *paths, "--count", "--stream"]) == 2
    assert "--stream" in capsys.readouterr().err


def test_cli_count_composes_with_where(csv_files, capsys):
    paths, relations = csv_files
    assert cli_main(["join", *paths, "--where", "A=1", "--count"]) == 0
    out = capsys.readouterr().out.strip()
    assert int(out) == Q(*relations).where(A=1).count()
