"""Smoke test of the end-to-end benchmark (collected by tier-1).

Runs every workload at ``--smoke`` size through both modes and holds the
harness to its contract: every metric ``BENCHMARK.json`` names is
measured with the unit it declares, counts repeat exactly for a seed,
the command prints every metric and ends with the contract's JSON line,
and a dropped row fails the run.
"""

from __future__ import annotations

import json
import pathlib
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import e2e_harness  # noqa: E402
import e2e_layers  # noqa: E402
import e2e_phases  # noqa: E402
import run  # noqa: E402
from e2e_workloads import WORKLOADS  # noqa: E402

CONTRACT = run.manifest()
SECONDS = 0.1


def test_manifest_names_the_workloads() -> None:
    assert [w["name"] for w in CONTRACT["workloads"]] == list(WORKLOADS)
    assert CONTRACT["paths"] == ["benchmarks/e2e"]
    assert any(m["name"] == "setup_s" for m in CONTRACT["end_to_end"])


# Every fixture starts four Python processes (~0.25 s each), so the fourth
# workload, triangle_hard, is exercised once only: through the command
# line, in both modes, by the test after this one.
@pytest.mark.parametrize("name", [n for n in WORKLOADS if n != "triangle_hard"])
def test_every_contracted_metric_is_measured(name: str) -> None:
    ops = e2e_harness.Ops()
    with e2e_harness.Fixture(WORKLOADS[name], seed=3, smoke=True) as fx:
        parts = fx.setup()
        fx.compute_oracle()
        end_to_end = e2e_phases.measure(fx, ops, SECONDS, min_rounds=2)["metrics"]
        # A second traced pass costs ~1.5 s; the workload with the most
        # counters that could drift (cache, index bytes, probes) pays it.
        passes = 2 if name == "lifted_triangle" else 1
        first, *again = (
            e2e_layers.measure(
                fx, ops, SECONDS, parts, min_samples=1, front_door_samples=1, replays=1
            )["metrics"]
            for _ in range(passes)
        )
    assert ops.failed == 0, ops.notes
    assert ops.attempted > 0

    # Set-up time and peak memory are added by run.py around the fixture;
    # the command-line test below covers them.
    for metric in CONTRACT["end_to_end"]:
        if metric["name"] not in ("setup_s", "peak_rss_mb"):
            assert end_to_end[metric["name"]]["unit"] == metric["unit"], metric["name"]
            assert end_to_end[metric["name"]]["value"] > 0, metric["name"]
    for metric in CONTRACT["per_layer"]:
        if metric["name"] != "process.children_peak_rss_mb":
            assert first[metric["name"]]["unit"] == metric["unit"], metric["name"]

    counts = [n for n, m in first.items() if m["unit"] == "count"]
    assert len(counts) >= 15
    for second in again:
        for metric in counts:
            assert first[metric]["value"] == second[metric]["value"], metric


def _run_cli(capsys, *arguments: str) -> tuple[int, list[str]]:
    code = run.main(list(arguments))
    return code, capsys.readouterr().out.strip().splitlines()


def test_cli_prints_every_metric_and_the_contract_line(capsys, tmp_path) -> None:
    out = tmp_path / "set.jsonl"
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        code, lines = _run_cli(
            capsys, "--workload", "triangle_hard", "--smoke", "--seconds", str(SECONDS),
            "--trace", str(trace), "--out", str(out),
        )
        assert code == 0
        last = json.loads(lines[-1])
        assert sorted(last) == ["attempted", "correct", "failed", "metrics"]
        assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
        assert list(last["metrics"]) == [m["name"] for m in CONTRACT[section]]
        printed = {line.split()[0]: line.split()[2] for line in lines[:-1] if not line.startswith("#")}
        for metric in CONTRACT[section]:
            assert printed[metric["name"]] == metric["unit"]
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert [r["trace"] for r in records] == [0, 1]
    assert records[0]["host"]["cpus"] >= 1 and records[0]["plan"]["algorithm"]


def test_a_dropped_row_fails_the_run(capsys, tmp_path, monkeypatch) -> None:
    oracle = e2e_harness.Oracle(("A", "B"), [(1, 2), (3, 4)])
    assert oracle.matches([(2, 1), (4, 3)], ("B", "A"))
    assert not oracle.matches([(1, 2)])
    assert not oracle.matches([(1, 2), (3, 4), (3, 4)])

    real = e2e_harness.hash_join

    def short_by_one(query):
        relation = real(query)
        return type(relation)(
            relation.name, relation.attributes, sorted(relation.tuples)[1:]
        )

    monkeypatch.setattr(e2e_harness, "hash_join", short_by_one)
    code, lines = _run_cli(
        capsys, "--workload", "graph_chain", "--smoke", "--seconds", str(SECONDS),
        "--out", str(tmp_path / "set.jsonl"),
    )
    last = json.loads(lines[-1])
    assert code != 0
    assert last["correct"] is False and last["failed"] > 0
