"""Planner tests: plan shape, order invariance, early validation."""

import itertools

import pytest

from repro import FractionalCover, output_bound
from repro.api import execute
from repro.baselines.naive import naive_join
from repro.core.generic_join import GenericJoin
from repro.core.query import JoinQuery
from repro.engine.planner import JoinPlan, plan_join
from repro.__main__ import main
from repro.errors import QueryError
from repro.io import save_relation_csv
from repro.query.builder import Q
from repro.relations.relation import Relation
from repro.stats import StatsProvider
from repro.workloads import generators, instances, queries

from tests.helpers import oracle_join, triangle_query


class TestPlanShape:
    def test_auto_picks_generic_for_lw_instance(self):
        q = triangle_query()
        assert q.is_lw_instance()
        plan = plan_join(q)
        assert plan.algorithm == "generic"
        assert plan.backend == "trie"
        assert plan.estimated_bound == pytest.approx(3**1.5, rel=1e-6)

    def test_arity2_stays_pinnable(self):
        q = generators.random_instance(queries.cycle_query(4), 20, 4, seed=0)
        plan = plan_join(q, "arity2")
        assert plan.algorithm == "arity2"
        assert plan.cover is not None
        assert plan.executor().execute().equivalent(naive_join(q))

    def test_auto_picks_generic_for_general_shapes(self):
        q = generators.random_instance(queries.paper_figure2(), 20, 3, seed=0)
        plan = plan_join(q)
        assert plan.algorithm == "generic"
        assert set(plan.attribute_order) == set(q.attributes)

    def test_auto_with_cover_uses_nprr(self):
        from fractions import Fraction

        q = triangle_query()
        cover = FractionalCover.uniform(q.hypergraph, Fraction(1, 2))
        plan = plan_join(q, cover=cover)
        assert plan.algorithm == "nprr"
        assert plan.cover is cover

    def test_leapfrog_gets_sorted_backend(self):
        plan = plan_join(triangle_query(), "leapfrog")
        assert plan.backend == "sorted"

    def test_indexless_algorithms_report_no_backend(self):
        assert plan_join(triangle_query(), "lw").backend == "none"
        assert plan_join(triangle_query(), "arity2").backend == "none"

    def test_auto_honors_explicit_order_with_generic(self):
        # The triangle would normally go to the blocking lw specialist;
        # a caller-fixed order must route to an order-sensitive executor.
        q = triangle_query()
        plan = plan_join(q, attribute_order=("C", "B", "A"))
        assert plan.algorithm == "generic"
        assert plan.attribute_order == ("C", "B", "A")

    def test_auto_honors_explicit_backend_with_generic(self):
        plan = plan_join(triangle_query(), backend="sorted")
        assert plan.algorithm == "generic"
        assert plan.backend == "sorted"

    def test_unsupported_order_request_rejected(self):
        # Executors that derive their own order must not silently ignore
        # a caller-fixed one.
        for algorithm in ("nprr", "lw", "arity2"):
            with pytest.raises(QueryError):
                plan_join(
                    triangle_query(), algorithm,
                    attribute_order=("A", "B", "C"),
                )

    def test_unsupported_backend_request_rejected(self):
        with pytest.raises(QueryError):
            plan_join(triangle_query(), "leapfrog", backend="trie")
        with pytest.raises(QueryError):
            plan_join(triangle_query(), "nprr", backend="sorted")
        with pytest.raises(QueryError):
            plan_join(triangle_query(), "lw", backend="trie")

    def test_bound_is_lazy_for_streaming_algorithms(self):
        plan = plan_join(triangle_query(), "generic")
        assert object.__getattribute__(plan, "_bound") is None
        assert plan.estimated_bound == pytest.approx(3**1.5, rel=1e-6)
        assert object.__getattribute__(plan, "_bound") is not None

    def test_estimated_bound_matches_output_bound(self):
        q = generators.random_instance(queries.triangle(), 30, 5, seed=3)
        assert plan_join(q).estimated_bound == pytest.approx(output_bound(q))

    def test_describe_mentions_choices(self):
        plan = plan_join(triangle_query(), "leapfrog")
        text = plan.describe()
        assert "leapfrog" in text
        assert "attribute order:" in text
        assert "AGM bound" in text

    def test_explain_returns_plan_without_running(self):
        plan = execute(triangle_query()).plan()
        assert isinstance(plan, JoinPlan)
        result = plan.executor().execute()
        assert result.equivalent(naive_join(triangle_query()))


def recorded_folds(monkeypatch) -> list:
    """Patch ``GenericJoin.fold`` to log each executor it runs on."""
    folds = []
    fold = GenericJoin.fold
    monkeypatch.setattr(
        GenericJoin,
        "fold",
        lambda self, folder: folds.append(self) or fold(self, folder),
    )
    return folds


#: Binary-relation shapes that Theorem 7.3's decomposition (``arity2``)
#: accepts and that are not Loomis-Whitney instances.
GRAPH_SHAPES = {
    "path2": queries.path_query(2),
    "path3": queries.path_query(3),
    "path4": queries.path_query(4),
    "cycle4": queries.cycle_query(4),
    "cycle5": queries.cycle_query(5),
    "star4": queries.star_query(4),
    "clique4": queries.clique_query(4),
}


@pytest.mark.parametrize("shape", sorted(GRAPH_SHAPES))
class TestAutoRoutesGraphsToGeneric:
    """``auto`` sends binary-relation queries to Generic Join: the
    arity-2 decomposition is worst-case optimal but does worst-case work
    on every instance (ISSUE 13's ledger: 1.4-435x slower warm)."""

    def query(self, shape):
        return generators.random_instance(GRAPH_SHAPES[shape], 18, 4, seed=7)

    def test_auto_plans_generic(self, shape):
        q = self.query(shape)
        assert q.hypergraph.is_graph() and not q.is_lw_instance()
        plan = plan_join(q)
        assert plan.algorithm == "generic"
        assert plan.backend == "trie"
        assert sorted(plan.attribute_order) == sorted(q.attributes)

    def test_same_rows_as_arity2_and_the_oracle(self, shape):
        q = self.query(shape)
        expected = sorted(oracle_join(q))
        assert sorted(Q(q).stream()) == expected
        assert sorted(Q(q).using(algorithm="arity2").stream()) == expected

    def test_count_takes_the_native_fold(self, shape, monkeypatch):
        q = self.query(shape)
        folds = recorded_folds(monkeypatch)
        assert Q(q).count() == len(oracle_join(q))
        assert len(folds) == 1


#: Loomis-Whitney instances (n attributes, every relation on n - 1 of
#: them): the paper's hard families for n = 3 and 4, and a skewed one.
LW_INSTANCES = {
    "triangle_hard": lambda: instances.triangle_hard_instance(60),
    "lw_hard_3": lambda: instances.lw_hard_instance(3, 27),
    "lw_hard_4": lambda: instances.lw_hard_instance(4, 81),
    "hub_triangle": lambda: generators.hub_triangle(
        light_domain=12, b_domain=15, c_domain=40,
        r_size=60, s_size=120, t_size=200, seed=5,
    ),
}


@pytest.mark.parametrize("name", sorted(LW_INSTANCES))
class TestAutoRoutesLWToGeneric:
    """``auto`` sends Loomis-Whitney instances to Generic Join: it meets
    Algorithm 1's bound, and unlike ``lw`` it runs over indexes a
    ``Database`` keeps (ISSUE 16's ledger: 4-9x faster warm)."""

    def test_auto_plans_generic(self, name):
        q = LW_INSTANCES[name]()
        assert q.is_lw_instance()
        plan = plan_join(q)
        assert plan.algorithm == "generic"
        assert plan.backend == "trie"
        assert sorted(plan.attribute_order) == sorted(q.attributes)

    def test_same_rows_as_lw_and_the_oracle(self, name):
        q = LW_INSTANCES[name]()
        expected = sorted(oracle_join(q))
        assert sorted(Q(q).stream()) == expected
        assert sorted(Q(q).using(algorithm="lw").stream()) == expected

    def test_count_takes_the_native_fold(self, name, monkeypatch):
        q = LW_INSTANCES[name]()
        folds = recorded_folds(monkeypatch)
        assert Q(q).count() == len(oracle_join(q))
        assert len(folds) == 1

    def test_lw_stays_pinnable(self, name, tmp_path, capsys):
        q = LW_INSTANCES[name]()
        expected = sorted(oracle_join(q))
        plan = plan_join(q, "lw")
        assert plan.algorithm == "lw"
        assert plan.backend == "none"
        assert sorted(plan.executor().iter_join()) == expected
        assert sorted(execute(q, algorithm="lw")) == expected
        paths = []
        for eid, relation in q.relations.items():
            paths.append(str(tmp_path / f"{eid}.csv"))
            save_relation_csv(relation, paths[-1])
        assert main(["explain", *paths, "--algorithm", "lw"]) == 0
        assert "algorithm: lw" in capsys.readouterr().out
        assert main(["join", *paths, "--algorithm", "lw", "--stream"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == ",".join(q.attributes)
        assert sorted(lines[1:]) == sorted(
            ",".join(map(str, row)) for row in expected
        )


class TestOrderSelection:
    def test_statistics_are_min_distinct_counts(self):
        q = JoinQuery(
            [
                Relation("R", ("A", "B"), [(1, 1), (1, 2), (1, 3)]),
                Relation("S", ("B", "C"), [(1, 1), (2, 1), (3, 1)]),
            ]
        )
        stats = StatsProvider().attribute_scores(q)
        assert stats == {"A": 1, "B": 3, "C": 1}

    def test_most_selective_attribute_first(self):
        # A has one distinct value; C has many; B is in between.
        q = JoinQuery(
            [
                Relation("R", ("A", "B"), [(7, b) for b in range(4)]),
                Relation(
                    "S", ("B", "C"), [(b, c) for b in range(4) for c in range(8)]
                ),
                Relation("T", ("A", "C"), [(7, c) for c in range(8)]),
            ]
        )
        order = plan_join(q).attribute_order
        assert order == ("A", "B", "C")

    def test_order_is_permutation(self):
        for seed in range(5):
            h = generators.random_hypergraph(5, 4, 3, seed=seed)
            q = generators.random_instance(h, 25, 4, seed=seed)
            order = plan_join(q).attribute_order
            assert sorted(order) == sorted(q.attributes)

    def test_order_is_deterministic(self):
        q = generators.random_instance(queries.triangle(), 30, 5, seed=1)
        assert plan_join(q).attribute_order == plan_join(
            q, stats=StatsProvider()
        ).attribute_order


class TestPlannerInvariance:
    """Any chosen order yields the same result set (WCOJ correctness)."""

    @pytest.mark.parametrize("algorithm", ["generic", "leapfrog"])
    def test_all_orders_same_result(self, algorithm):
        q = generators.random_instance(queries.triangle(), 30, 5, seed=4)
        base = naive_join(q)
        for order in itertools.permutations(q.attributes):
            plan = plan_join(q, algorithm, attribute_order=order)
            assert plan.executor().execute().equivalent(base)
            assert sorted(plan.executor().iter_join()) == sorted(
                base.reorder(q.attributes).tuples
            )

    def test_planned_order_matches_default_order(self):
        q = generators.random_instance(
            queries.paper_figure2(), 25, 3, seed=8, skew=1.3
        )
        base = naive_join(q)
        planned = plan_join(q, "generic")
        default = plan_join(q, "generic", attribute_order=q.attributes)
        assert planned.executor().execute().equivalent(base)
        assert default.executor().execute().equivalent(base)


class TestEarlyValidation:
    @pytest.mark.parametrize("algorithm", ["auto", "generic", "leapfrog"])
    @pytest.mark.parametrize(
        "order",
        [("A", "B"), ("A", "A", "B"), ("A", "B", "C", "D")],
        ids=["missing", "duplicate", "extra"],
    )
    def test_a_pinned_non_permutation_is_rejected_at_plan_time(
        self, algorithm, order
    ):
        relations = [
            Relation("R", ("A", "B"), [(1, 2)]),
            Relation("S", ("B", "C"), [(2, 3)]),
        ]
        with pytest.raises(QueryError, match="not a permutation"):
            plan_join(JoinQuery(relations), algorithm, attribute_order=order)
        with pytest.raises(QueryError, match="not a permutation"):
            execute(
                relations, algorithm=algorithm, attribute_order=order
            ).plan()

    def test_unknown_algorithm_rejected_before_any_work(self):
        # The relations argument is never touched: validation precedes
        # query construction and index building.
        with pytest.raises(QueryError):
            execute(None, algorithm="quantum").relation()

    def test_unknown_algorithm_rejected_by_planner(self):
        with pytest.raises(QueryError):
            plan_join(triangle_query(), "quantum")

    def test_unknown_backend_rejected(self):
        from repro.errors import DatabaseError

        with pytest.raises(DatabaseError):
            plan_join(triangle_query(), "generic", backend="quantum")

    def test_algorithms_single_source_of_truth(self):
        from repro.api import ALGORITHMS
        from repro.engine.executors import EXECUTORS

        assert ALGORITHMS == tuple(EXECUTORS) + ("auto",)
