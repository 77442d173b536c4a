"""Tests for CSV I/O and the command-line interface."""

import pytest

from repro.__main__ import ALGORITHMS, main
from repro.errors import SchemaError
from repro.io import load_database_csv, load_relation_csv, save_relation_csv
from repro.relations.relation import Relation


@pytest.fixture
def triangle_files(tmp_path):
    (tmp_path / "R.csv").write_text("A,B\n0,1\n1,2\n2,0\n")
    (tmp_path / "S.csv").write_text("B,C\n1,5\n2,6\n0,7\n")
    (tmp_path / "T.csv").write_text("A,C\n0,5\n1,6\n2,7\n")
    return [str(tmp_path / f"{n}.csv") for n in ("R", "S", "T")]


class TestLoad:
    def test_basic(self, tmp_path):
        path = tmp_path / "R.csv"
        path.write_text("A,B\n1,2\n3,4\n")
        rel = load_relation_csv(path)
        assert rel.name == "R"
        assert rel.attributes == ("A", "B")
        assert set(rel.tuples) == {(1, 2), (3, 4)}

    def test_auto_types_int(self, tmp_path):
        path = tmp_path / "R.csv"
        path.write_text("A\n1\n2\n")
        rel = load_relation_csv(path)
        assert all(isinstance(row[0], int) for row in rel.tuples)

    def test_auto_types_string(self, tmp_path):
        path = tmp_path / "R.csv"
        path.write_text("A,B\n1,x\n2,y\n")
        rel = load_relation_csv(path)
        assert set(rel.tuples) == {(1, "x"), (2, "y")}

    def test_type_override(self, tmp_path):
        path = tmp_path / "R.csv"
        path.write_text("A\n1\n2\n")
        rel = load_relation_csv(path, types={"A": str})
        assert set(rel.tuples) == {("1",), ("2",)}

    def test_explicit_name(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("A\n1\n")
        assert load_relation_csv(path, name="Mine").name == "Mine"

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "R.csv"
        path.write_text("")
        with pytest.raises(SchemaError):
            load_relation_csv(path)

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "R.csv"
        path.write_text("A,B\n1\n")
        with pytest.raises(SchemaError):
            load_relation_csv(path)

    def test_load_database(self, triangle_files):
        relations = load_database_csv(triangle_files)
        assert [r.name for r in relations] == ["R", "S", "T"]


class TestSaveRoundtrip:
    def test_roundtrip(self, tmp_path):
        rel = Relation("R", ("A", "B"), [(1, 2), (3, 4), (5, 6)])
        path = tmp_path / "out.csv"
        save_relation_csv(rel, path)
        again = load_relation_csv(path, name="R")
        assert again == rel

    def test_deterministic_output(self, tmp_path):
        rel = Relation("R", ("A",), [(3,), (1,), (2,)])
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        save_relation_csv(rel, p1)
        save_relation_csv(rel, p2)
        assert p1.read_text() == p2.read_text()


class TestCLI:
    def test_join_stdout(self, triangle_files, capsys):
        assert main(["join", *triangle_files]) == 0
        out = capsys.readouterr().out
        assert "A,B,C" in out
        assert "0,1,5" in out

    def test_join_output_file(self, triangle_files, tmp_path, capsys):
        out_path = tmp_path / "result.csv"
        assert main(["join", *triangle_files, "-o", str(out_path)]) == 0
        result = load_relation_csv(out_path, name="J")
        assert len(result) == 3

    @pytest.mark.parametrize("algorithm", ["nprr", "lw", "generic", "arity2"])
    def test_join_algorithms(self, triangle_files, capsys, algorithm):
        assert main(["join", *triangle_files, "--algorithm", algorithm]) == 0
        assert "0,1,5" in capsys.readouterr().out

    def test_arity2_stays_pinnable_though_auto_never_picks_it(
        self, triangle_files, capsys
    ):
        # The paper's Theorem 7.3 reference implementation: still a
        # choice of explain/join/repl/serve, no longer one of auto's.
        assert main(
            ["explain", *triangle_files[:2], "--algorithm", "arity2"]
        ) == 0
        assert "algorithm: arity2" in capsys.readouterr().out
        assert main(["explain", *triangle_files[:2]]) == 0
        assert "algorithm: generic" in capsys.readouterr().out
        assert "arity2" in ALGORITHMS  # the choices of all four commands

    def test_bound(self, triangle_files, capsys):
        assert main(["bound", *triangle_files]) == 0
        out = capsys.readouterr().out
        assert "AGM bound: 5.196" in out
        assert "x[R] = 1/2" in out
        assert "certified worst case" in out

    def test_explain(self, triangle_files, capsys):
        assert main(["explain", *triangle_files]) == 0
        out = capsys.readouterr().out
        assert "total order:" in out
        assert "anchor=T" in out

    def test_explain_shows_plan(self, triangle_files, capsys):
        assert main(["explain", *triangle_files]) == 0
        out = capsys.readouterr().out
        assert "algorithm:" in out
        assert "attribute order:" in out
        assert "index backend:" in out
        assert "AGM bound" in out

    def test_explain_algorithm_override(self, triangle_files, capsys):
        assert main(
            ["explain", *triangle_files, "--algorithm", "leapfrog"]
        ) == 0
        out = capsys.readouterr().out
        assert "algorithm: leapfrog" in out
        assert "index backend: sorted" in out

    def test_explain_stats_flag(self, triangle_files, capsys):
        assert main(
            ["explain", *triangle_files, "--algorithm", "generic", "--stats"]
        ) == 0
        out = capsys.readouterr().out
        assert "statistics:" in out
        assert "distinct counts:" in out
        assert "selectivity: P(match in" in out

    def test_explain_without_stats_flag_omits_block(
        self, triangle_files, capsys
    ):
        assert main(
            ["explain", *triangle_files, "--algorithm", "generic"]
        ) == 0
        assert "statistics:" not in capsys.readouterr().out

    def test_join_stream(self, triangle_files, capsys):
        assert main(["join", *triangle_files, "--stream"]) == 0
        out = capsys.readouterr().out
        lines = [line for line in out.strip().splitlines() if line]
        assert lines[0] == "A,B,C"
        assert sorted(lines[1:]) == ["0,1,5", "1,2,6", "2,0,7"]

    def test_join_stream_to_file(self, triangle_files, tmp_path, capsys):
        out_path = tmp_path / "streamed.csv"
        assert main(
            ["join", *triangle_files, "--stream", "-o", str(out_path)]
        ) == 0
        result = load_relation_csv(out_path, name="J")
        assert len(result) == 3

    def test_join_backend_override(self, triangle_files, capsys):
        assert main(
            ["join", *triangle_files, "--algorithm", "generic",
             "--backend", "sorted"]
        ) == 0
        assert "0,1,5" in capsys.readouterr().out

    def test_join_shards(self, triangle_files, capsys):
        assert main(["join", *triangle_files, "--shards", "2"]) == 0
        out = capsys.readouterr().out
        lines = [line for line in out.strip().splitlines() if line]
        assert lines[0] == "A,B,C"
        assert sorted(lines[1:]) == ["0,1,5", "1,2,6", "2,0,7"]

    def test_join_shards_auto(self, triangle_files, capsys):
        assert main(["join", *triangle_files, "--shards", "auto"]) == 0
        out = capsys.readouterr().out
        assert sorted(
            line for line in out.strip().splitlines()[1:] if line
        ) == ["0,1,5", "1,2,6", "2,0,7"]

    def test_join_shards_to_file(self, triangle_files, tmp_path, capsys):
        out_path = tmp_path / "sharded.csv"
        assert main(
            ["join", *triangle_files, "--shards", "2", "-o", str(out_path)]
        ) == 0
        result = load_relation_csv(out_path, name="J")
        assert len(result) == 3
        assert "3 tuples" in capsys.readouterr().out

    def test_join_batch_implies_stream_format(self, triangle_files, capsys):
        assert main(["join", *triangle_files, "--batch", "2"]) == 0
        out = capsys.readouterr().out
        lines = [line for line in out.strip().splitlines() if line]
        assert lines[0] == "A,B,C"
        assert sorted(lines[1:]) == ["0,1,5", "1,2,6", "2,0,7"]

    def test_join_batch_and_shards_to_file(
        self, triangle_files, tmp_path, capsys
    ):
        out_path = tmp_path / "combo.csv"
        assert main(
            ["join", *triangle_files, "--shards", "2", "--batch", "2",
             "-o", str(out_path)]
        ) == 0
        result = load_relation_csv(out_path, name="J")
        assert len(result) == 3

    def test_steal_without_workers_is_refused_before_any_row(
        self, triangle_files, capsys
    ):
        # Only a fleet (--workers) steals; the local pools would run
        # the shards unsplit and say nothing.
        argv = ["join", *triangle_files, "--shards", "2", "--steal"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "needs a scheduler" in captured.err
        assert "--workers" in captured.err

    @pytest.mark.parametrize("flag,value", [
        ("--shards", "0"), ("--shards", "-1"), ("--shards", "many"),
        ("--batch", "0"), ("--batch", "-3"), ("--batch", "x"),
    ])
    def test_invalid_parallel_flags_are_usage_errors(
        self, triangle_files, tmp_path, capsys, flag, value
    ):
        # A clean argparse usage error (exit 2) — never a traceback
        # after -o has already opened/truncated the output file.
        out_path = tmp_path / "untouched.csv"
        with pytest.raises(SystemExit) as excinfo:
            main(["join", *triangle_files, flag, value, "-o", str(out_path)])
        assert excinfo.value.code == 2
        assert not out_path.exists()

    @pytest.mark.parametrize("command", ["join", "explain"])
    def test_the_removed_feedback_flag_is_a_usage_error(
        self, triangle_files, capsys, command
    ):
        # 4.0 removed runtime feedback: an old invocation fails loudly
        # instead of running without what it asked for.
        with pytest.raises(SystemExit) as excinfo:
            main([command, *triangle_files, "--feedback"])
        assert excinfo.value.code == 2
        assert "--feedback" in capsys.readouterr().err


class TestCLIGoldenOutput:
    """Exact-output tests for the formats scripts depend on.

    ``explain`` output is fully deterministic (plan text plus the
    Algorithm 3 query-plan tree); ``join --stream`` guarantees the
    header line, one comma-joined line per result row, and nothing else
    — row *order* is the engine's streaming order, so rows are compared
    as a sorted list.
    """

    EXPLAIN_GOLDEN = """\
query: JoinQuery(R(A,B) * S(B,C) * T(A,C))
algorithm: generic
attribute order: A, B, C
index backend: trie
shards: 1
estimated output (AGM bound): 5.196 tuples
relation sizes: R=3, S=3, T=3
decisions:
  - every shape: Generic Join streams attribute-at-a-time within the AGM bound
  - attribute order by exact selectivity descent: A(~3), B(~3), C(~3)
  - hash-trie backend: O(1) probes and precomputed counts

Algorithm 2 query-plan tree (for --algorithm nprr):
[k=3] univ={B,A,C} anchor=T
    L: [k=2] univ={B} leaf
    R: [k=2] univ={A,C} anchor=S
        L: [k=1] univ={A} leaf
total order: B, A, C
"""

    def test_explain_golden(self, triangle_files, capsys):
        assert main(["explain", *triangle_files]) == 0
        assert capsys.readouterr().out == self.EXPLAIN_GOLDEN

    def test_explain_leapfrog_golden_plan_block(self, triangle_files, capsys):
        assert main(
            ["explain", *triangle_files, "--algorithm", "leapfrog"]
        ) == 0
        out = capsys.readouterr().out
        plan_block = out.split("\n\n")[0].splitlines()
        assert plan_block == [
            "query: JoinQuery(R(A,B) * S(B,C) * T(A,C))",
            "algorithm: leapfrog",
            "attribute order: A, B, C",
            "index backend: sorted",
            "shards: 1",
            "estimated output (AGM bound): 5.196 tuples",
            "relation sizes: R=3, S=3, T=3",
            "decisions:",
            "  - algorithm 'leapfrog' fixed by caller",
            "  - attribute order by exact selectivity descent: "
            "A(~3), B(~3), C(~3)",
            "  - sorted flat-array backend: leapfrog seeks need sorted runs",
        ]

    def test_stream_golden(self, triangle_files, capsys):
        assert main(["join", *triangle_files, "--stream"]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0] == "A,B,C"
        assert sorted(lines[1:]) == ["0,1,5", "1,2,6", "2,0,7"]
        assert out.endswith("\n")
        assert len(lines) == 4  # header + 3 rows, no trailer

    def test_stream_to_file_golden(self, triangle_files, tmp_path, capsys):
        out_path = tmp_path / "streamed.csv"
        assert main(
            ["join", *triangle_files, "--stream", "-o", str(out_path)]
        ) == 0
        content = out_path.read_text()
        lines = content.splitlines()
        assert lines[0] == "A,B,C"
        assert sorted(lines[1:]) == ["0,1,5", "1,2,6", "2,0,7"]
        assert capsys.readouterr().out == f"3 tuples -> {out_path}\n"


class TestCLIQueryLayer:
    """The query-layer clauses: --where / --where-in / --select."""

    def test_where_filters_rows(self, triangle_files, capsys):
        assert main(["join", *triangle_files, "--where", "A=0"]) == 0
        out = capsys.readouterr().out
        lines = [line for line in out.strip().splitlines() if line]
        assert lines == ["A,B,C", "0,1,5"]

    def test_where_select_projects(self, triangle_files, capsys):
        assert main(
            ["join", *triangle_files, "--where", "A=0", "--select", "B,C"]
        ) == 0
        out = capsys.readouterr().out
        assert out.splitlines() == ["B,C", "1,5"]

    def test_where_in_keeps_members(self, triangle_files, capsys):
        assert main(
            ["join", *triangle_files, "--where-in", "C=5,6"]
        ) == 0
        lines = [
            line for line in capsys.readouterr().out.strip().splitlines()
        ]
        assert lines[0] == "A,B,C"
        assert sorted(lines[1:]) == ["0,1,5", "1,2,6"]

    def test_where_composes_with_stream_and_shards(
        self, triangle_files, capsys
    ):
        assert main(
            ["join", *triangle_files, "--where-in", "C=5,7",
             "--stream", "--shards", "2"]
        ) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "A,B,C"
        assert sorted(lines[1:]) == ["0,1,5", "2,0,7"]

    def test_select_header_in_output_file(
        self, triangle_files, tmp_path, capsys
    ):
        out_path = tmp_path / "projected.csv"
        assert main(
            ["join", *triangle_files, "--select", "C,A",
             "--stream", "-o", str(out_path)]
        ) == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "C,A"
        assert sorted(lines[1:]) == ["5,0", "6,1", "7,2"]

    def test_string_values_coerce_like_csv(self, tmp_path, capsys):
        (tmp_path / "R.csv").write_text("A,B\nx,1\ny,2\n")
        (tmp_path / "S.csv").write_text("B,C\n1,5\n2,6\n")
        files = [str(tmp_path / "R.csv"), str(tmp_path / "S.csv")]
        assert main(["join", *files, "--where", "A=x"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines == ["A,B,C", "x,1,5"]

    def test_mixed_column_values_stay_strings(self, tmp_path, capsys):
        # Column A holds '1' and 'x' -> the loader types the whole
        # column as strings; --where A=1 must compare as the string
        # '1' (matching the loaded data), not the int 1.
        (tmp_path / "R.csv").write_text("A,B\n1,7\nx,8\n")
        (tmp_path / "S.csv").write_text("B,C\n7,5\n8,6\n")
        files = [str(tmp_path / "R.csv"), str(tmp_path / "S.csv")]
        assert main(["join", *files, "--where", "A=1"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines == ["A,B,C", "1,7,5"]

    def test_mixed_column_where_in_stays_strings(self, tmp_path, capsys):
        (tmp_path / "R.csv").write_text("A,B\n1,7\nx,8\n")
        (tmp_path / "S.csv").write_text("B,C\n7,5\n8,6\n")
        files = [str(tmp_path / "R.csv"), str(tmp_path / "S.csv")]
        assert main(["join", *files, "--where-in", "A=1,x"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "A,B,C"
        assert sorted(lines[1:]) == ["1,7,5", "x,8,6"]

    def test_malformed_where_is_usage_error(self, triangle_files):
        with pytest.raises(SystemExit) as excinfo:
            main(["join", *triangle_files, "--where", "A"])
        assert excinfo.value.code == 2

    def test_unknown_where_attribute_is_clean_error(
        self, triangle_files, capsys
    ):
        # A typo'd attribute exits 2 with a message — no traceback.
        assert main(["join", *triangle_files, "--where", "Z=1"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "Z" in err

    def test_conflicting_where_is_clean_error(self, triangle_files, capsys):
        assert main(
            ["join", *triangle_files, "--where", "A=0", "--where", "A=1"]
        ) == 2
        assert "already bound" in capsys.readouterr().err

    def test_malformed_where_in_is_usage_error(self, triangle_files):
        with pytest.raises(SystemExit) as excinfo:
            main(["join", *triangle_files, "--where-in", "B="])
        assert excinfo.value.code == 2

    EXPLAIN_WHERE_GOLDEN = """\
query: JoinQuery(R(B) * S(B,C) * T(C))
algorithm: generic
attribute order: B, C
bound attributes: A=0 (levels eliminated by sectioning)
residual filters: B in {1, 2}
select: C (streamed projection)
index backend: trie
shards: 1
estimated output (AGM bound): 1.000 tuples
relation sizes: R=1, S=3, T=1
decisions:
  - every shape: Generic Join streams attribute-at-a-time within the AGM bound
  - attribute order by exact selectivity descent: B(~0.333), C(~0.333)
  - hash-trie backend: O(1) probes and precomputed counts
"""

    def test_explain_where_golden_plan_block(self, triangle_files, capsys):
        assert main(
            ["explain", *triangle_files, "--where", "A=0",
             "--where-in", "B=1,2", "--select", "C"]
        ) == 0
        out = capsys.readouterr().out
        assert out.split("\n\n")[0] + "\n" == self.EXPLAIN_WHERE_GOLDEN

    def test_explain_all_bound_guard_plan(self, triangle_files, capsys):
        assert main(
            ["explain", *triangle_files, "--where", "A=0",
             "--where", "B=1", "--where", "C=5"]
        ) == 0
        out = capsys.readouterr().out
        assert "algorithm: none" in out
        assert "bound attributes: A=0, B=1, C=5" in out
        assert "membership guards" in out

    def test_explain_unmodified_without_clauses(self, triangle_files, capsys):
        # The pushdown lines only appear when clauses are given — the
        # legacy golden output (TestCLIGoldenOutput) stays byte-exact.
        assert main(["explain", *triangle_files]) == 0
        out = capsys.readouterr().out
        assert "bound attributes:" not in out
        assert "residual filters:" not in out
        assert "select:" not in out
