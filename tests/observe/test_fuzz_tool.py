"""The fuzz harness's failure reporting: per-iteration seeds and the
minimal one-instance ``--replay`` repro command."""

import importlib.util
import pathlib

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent.parent
TOOL = REPO_ROOT / "tools" / "fuzz_join.py"


@pytest.fixture(scope="module")
def fuzz():
    spec = importlib.util.spec_from_file_location("fuzz_join", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestReplay:
    def test_short_run_passes(self, fuzz, capsys):
        assert fuzz.main(["--iterations", "25", "--seed", "3"]) == 0
        assert "no disagreements" in capsys.readouterr().out

    def test_replay_is_self_contained(self, fuzz, capsys):
        assert fuzz.main(["--replay", "987654321"]) == 0
        assert "seed 987654321 passes" in capsys.readouterr().out

    def test_a_summed_table_out_of_order_is_a_finding(
        self, fuzz, monkeypatch
    ):
        import random

        import repro.stats.provider as provider_module

        relations = fuzz.overlap_instance(random.Random(3))  # an LW(4)
        assert len(relations) == 4 and len(relations[0]) > 20
        checked = fuzz.check_value_counts(relations)
        assert any(len(attributes) > 1 for attributes in checked)
        real = provider_module._sum_out

        def reversed_sum(table, held, attributes):
            return dict(reversed(real(table, held, attributes).items()))

        monkeypatch.setattr(provider_module, "_sum_out", reversed_sum)
        with pytest.raises(AssertionError, match="!= scan"):
            fuzz.check_value_counts(relations)

    def test_a_planned_non_permutation_is_a_finding(
        self, fuzz, monkeypatch
    ):
        import repro.engine.planner as planner_module
        from repro.relations.relation import Relation

        relations = [
            Relation("R", ("A", "B"), [(1, 2)]),
            Relation("S", ("B", "C"), [(2, 3)]),
        ]
        options = {"algorithm": "leapfrog"}
        fuzz.check_rejected(relations, options, ("A", "B"))
        monkeypatch.setattr(
            planner_module, "resolve_order", lambda query, order: order
        )
        with pytest.raises(AssertionError, match="non-permutation"):
            fuzz.check_rejected(relations, options, ("A", "B"))

    def test_a_plan_solving_a_cover_lp_is_a_finding(
        self, fuzz, monkeypatch
    ):
        import random

        import repro.engine.planner as planner_module
        from repro.hypergraph.agm import optimal_fractional_cover

        relations = fuzz.overlap_instance(random.Random(3))
        fuzz.check_value_counts(relations)
        real = planner_module.plan_attribute_order_selectivity

        def solving(query, stats):
            optimal_fractional_cover(query.hypergraph, query.sizes())
            return real(query, stats)

        monkeypatch.setattr(
            planner_module, "plan_attribute_order_selectivity", solving
        )
        with pytest.raises(AssertionError, match="solved 1 cover LP"):
            fuzz.check_value_counts(relations)

    def test_instances_are_seed_deterministic(self, fuzz):
        import random

        first = fuzz.random_instance(random.Random(42))
        second = fuzz.random_instance(random.Random(42))
        assert [(r.name, r.attributes, r.tuples) for r in first] == [
            (r.name, r.attributes, r.tuples) for r in second
        ]


class TestFailureReport:
    def _break_engine(self, fuzz, monkeypatch, error):
        def broken(rng, relations):
            raise error

        monkeypatch.setattr(fuzz, "check_instance", broken)

    def test_mismatch_prints_seed_and_repro(
        self, fuzz, monkeypatch, capsys
    ):
        self._break_engine(
            fuzz, monkeypatch, AssertionError("count() 1 != oracle 2")
        )
        assert fuzz.main(["--iterations", "1", "--seed", "7"]) == 1
        err = capsys.readouterr().err
        assert "FUZZ FAILURE (iteration seed " in err
        assert "count() 1 != oracle 2" in err
        assert "reproduce: python tools/fuzz_join.py --replay " in err
        # The printed seed IS the repro argument: one instance, alone.
        seed = int(err.split("--replay ")[1].split()[0])
        assert f"iteration seed {seed}" in err

    def test_crash_is_reported_like_a_mismatch(
        self, fuzz, monkeypatch, capsys
    ):
        self._break_engine(fuzz, monkeypatch, RuntimeError("boom"))
        assert fuzz.main(["--iterations", "1"]) == 1
        err = capsys.readouterr().err
        assert "FUZZ FAILURE" in err
        assert "RuntimeError: boom" in err
        assert "--replay" in err

    def test_failed_replay_exits_nonzero(self, fuzz, monkeypatch, capsys):
        self._break_engine(fuzz, monkeypatch, AssertionError("bad"))
        assert fuzz.main(["--replay", "1234"]) == 1
        assert "--replay 1234" in capsys.readouterr().err

    def test_instance_is_printed(self, fuzz, monkeypatch, capsys):
        self._break_engine(fuzz, monkeypatch, AssertionError("bad"))
        fuzz.main(["--iterations", "1"])
        err = capsys.readouterr().err
        assert "R0(" in err  # the failing instance's relations
