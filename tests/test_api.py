"""Tests for the public front-door API."""

import pytest

from repro import Relation, execute, output_bound
from repro.baselines.naive import naive_join
from repro.core.query import JoinQuery
from repro.errors import PlanError, QueryError
from repro.workloads import generators, queries


@pytest.fixture
def relations():
    return [
        Relation("R", ("A", "B"), [(0, 1), (1, 2), (2, 0)]),
        Relation("S", ("B", "C"), [(1, 5), (2, 6), (0, 7)]),
        Relation("T", ("A", "C"), [(0, 5), (1, 6), (2, 7)]),
    ]


class TestJoin:
    def test_default_auto(self, relations):
        out = execute(relations).relation()
        assert len(out) == 3

    @pytest.mark.parametrize(
        "algorithm", ["nprr", "lw", "generic", "leapfrog", "arity2"]
    )
    def test_every_algorithm(self, relations, algorithm):
        expected = naive_join(JoinQuery(relations))
        assert execute(relations, algorithm=algorithm).relation().equivalent(expected)

    def test_accepts_query_object(self, relations):
        q = JoinQuery(relations)
        assert execute(q).relation().equivalent(naive_join(q))

    def test_unknown_algorithm(self, relations):
        with pytest.raises(QueryError):
            execute(relations, algorithm="quantum").relation()

    def test_auto_falls_back_to_nprr(self):
        q = generators.random_instance(queries.paper_figure2(), 20, 3, seed=0)
        assert execute(q).relation().equivalent(naive_join(q))

    def test_auto_with_cover_uses_nprr(self, relations):
        from fractions import Fraction

        from repro import FractionalCover

        q = JoinQuery(relations)
        cover = FractionalCover.uniform(q.hypergraph, Fraction(1, 2))
        assert execute(q, cover=cover).relation().equivalent(naive_join(q))

    def test_custom_name(self, relations):
        assert execute(relations).relation("Out").name == "Out"


class TestIterJoinEagerValidation:
    """Regression: ``iter(execute(...))`` must raise at *call* time,
    exactly like ``.relation()``.

    A streaming view that deferred plan validation to the first
    ``next()`` would let a rejected ``backend=`` slip past the call site
    (e.g. into a response already streaming); both views must fail
    identically, before any iterator is returned.
    """

    def test_rejected_backend_raises_at_call(self, relations):
        with pytest.raises(PlanError) as via_iter:
            iter(execute(relations, algorithm="leapfrog", backend="trie"))
        with pytest.raises(PlanError) as via_join:
            execute(relations, algorithm="leapfrog", backend="trie").relation()
        assert str(via_iter.value) == str(via_join.value)

    def test_rejected_attribute_order_raises_at_call(self, relations):
        with pytest.raises(PlanError):
            iter(
                execute(
                    relations, algorithm="nprr", attribute_order=("A", "B", "C")
                )
            )

    def test_plan_error_is_a_query_error(self, relations):
        # Callers that predate PlanError still catch the rejection.
        with pytest.raises(QueryError):
            iter(execute(relations, algorithm="arity2", backend="sorted"))

    def test_unknown_algorithm_raises_at_call(self, relations):
        with pytest.raises(QueryError):
            iter(execute(relations, algorithm="quantum"))


class TestOutputBound:
    def test_triangle_bound(self, relations):
        assert output_bound(relations) == pytest.approx(
            3**1.5, rel=1e-6
        )

    def test_bound_dominates_output(self):
        for seed in range(5):
            q = generators.random_instance(queries.triangle(), 30, 5, seed=seed)
            assert len(execute(q).relation()) <= output_bound(q) + 1e-6


class TestDocstringExample:
    def test_module_docstring_quickstart(self):
        r = Relation("R", ("A", "B"), [(1, 2), (2, 3)])
        s = Relation("S", ("B", "C"), [(2, 9), (3, 7)])
        t = Relation("T", ("A", "C"), [(1, 9), (2, 7)])
        assert sorted(execute([r, s, t]).relation().tuples) == [(1, 2, 9), (2, 3, 7)]
