"""The fluent builder: immutability, validation, and basic semantics."""

import pytest

from repro.engine.planner import JoinPlan
from repro.errors import PlanError, QueryError
from repro.query.builder import Q, QueryBuilder
from repro.query.context import ExecutionContext
from repro.relations.relation import Relation

from tests.helpers import triangle_query


def triangle_relations():
    return (
        Relation("R", ("A", "B"), [(0, 1), (1, 2), (2, 0), (0, 2)]),
        Relation("S", ("B", "C"), [(1, 5), (2, 6), (0, 7), (2, 7)]),
        Relation("T", ("A", "C"), [(0, 5), (1, 6), (2, 7), (0, 7)]),
    )


class TestConstruction:
    def test_varargs_list_and_query_spellings_agree(self):
        r, s, t = triangle_relations()
        varargs = sorted(Q(r, s, t).stream())
        as_list = sorted(Q([r, s, t]).stream())
        from repro.core.query import JoinQuery

        as_query = sorted(Q(JoinQuery([r, s, t])).stream())
        assert varargs == as_list == as_query

    def test_join_query_passes_through_identically(self):
        query = triangle_query()
        assert Q(query).query is query

    def test_empty_query_rejected(self):
        with pytest.raises(QueryError):
            Q()

    @pytest.mark.parametrize(
        "algorithm", ["auto", "generic", "leapfrog", "nprr"]
    )
    def test_a_nullary_relation_is_rejected(self, algorithm):
        # ``E() = {}`` empties the join, but as an edge it has no
        # attribute for any algorithm to intersect on.
        from repro import execute

        relations = (Relation("R", ("A",), [(1,)]), Relation("E", (), []))
        for run in (
            lambda: Q(*relations),
            lambda: execute(relations, algorithm=algorithm).relation(),
            lambda: execute(relations).sample(1, seed=0),
        ):
            with pytest.raises(QueryError, match="'E' has no attributes"):
                run()

    def test_builder_is_immutable(self):
        builder = Q(*triangle_relations())
        with pytest.raises(AttributeError):
            builder.selected = ("A",)

    def test_fluent_methods_return_new_builders(self):
        base = Q(*triangle_relations())
        bound = base.where(A=0)
        assert base is not bound
        assert base.bindings == ()
        assert bound.bindings == (("A", 0),)
        # The base builder still runs the unrestricted join.
        assert len(list(base.stream())) > len(list(bound.stream()))


class TestWhere:
    def test_unknown_attribute_rejected(self):
        with pytest.raises(QueryError, match="unknown attribute"):
            Q(*triangle_relations()).where(Z=1)

    def test_conflicting_rebinding_rejected(self):
        builder = Q(*triangle_relations()).where(A=0)
        with pytest.raises(QueryError, match="already bound"):
            builder.where(A=1)

    def test_same_value_rebinding_is_noop(self):
        builder = Q(*triangle_relations()).where(A=0).where(A=0)
        assert builder.bindings == (("A", 0),)

    def test_binding_missing_value_yields_empty(self):
        assert list(Q(*triangle_relations()).where(A=99).stream()) == []

    def test_bindings_eliminate_attribute_from_plan(self):
        plan = Q(*triangle_relations()).where(A=0).plan()
        assert plan.bound == (("A", 0),)
        assert "A" not in plan.attribute_order
        assert "A" not in plan.query.attributes
        assert "bound attributes: A=0" in plan.describe()

    def test_all_attributes_bound_hit(self):
        rows = list(Q(*triangle_relations()).where(A=0, B=1, C=5).stream())
        assert rows == [(0, 1, 5)]

    def test_all_attributes_bound_miss(self):
        assert (
            list(Q(*triangle_relations()).where(A=0, B=1, C=6).stream()) == []
        )

    def test_all_bound_plan_is_guard_plan(self):
        plan = Q(*triangle_relations()).where(A=0, B=1, C=5).plan()
        assert plan.algorithm == "none"
        assert plan.attribute_order == ()
        assert "membership guards" in plan.describe()


class TestWhereInAndFilter:
    def test_where_in(self):
        rows = sorted(Q(*triangle_relations()).where_in("C", {6, 7}).stream())
        assert rows == [(0, 2, 7), (1, 2, 6), (2, 0, 7)]

    def test_where_in_empty_set_is_empty(self):
        assert list(Q(*triangle_relations()).where_in("C", ()).stream()) == []

    def test_filter_predicate(self):
        rows = sorted(
            Q(*triangle_relations())
            .filter("C", lambda value: value % 2 == 0, label="even")
            .stream()
        )
        assert rows == [(1, 2, 6)]

    def test_filter_on_bound_attribute_evaluated_eagerly(self):
        builder = (
            Q(*triangle_relations())
            .where(C=5)
            .filter("C", lambda value: value > 100)
        )
        assert list(builder.stream()) == []

    def test_filters_render_in_describe(self):
        text = (
            Q(*triangle_relations())
            .where_in("B", {2, 1})
            .describe()
        )
        assert "residual filters: B in {1, 2}" in text

    def test_unknown_filter_attribute_rejected(self):
        with pytest.raises(QueryError, match="unknown attribute"):
            Q(*triangle_relations()).where_in("Z", {1})


class TestSelect:
    def test_projection_streams_deduplicated(self):
        rows = list(Q(*triangle_relations()).select("B").stream())
        assert sorted(rows) == [(0,), (1,), (2,)]
        assert len(rows) == len(set(rows))

    def test_projection_order_respected(self):
        rows = sorted(Q(*triangle_relations()).select("C", "A").stream())
        full = sorted(Q(*triangle_relations()).stream())
        assert rows == sorted({(c, a) for a, _b, c in full})

    def test_empty_selection_is_boolean_query(self):
        assert list(Q(*triangle_relations()).select().stream()) == [()]
        assert (
            list(Q(*triangle_relations()).where(A=99).select().stream()) == []
        )

    def test_duplicate_selection_rejected(self):
        with pytest.raises(QueryError, match="twice"):
            Q(*triangle_relations()).select("A", "A")

    def test_run_uses_selected_schema(self):
        result = Q(*triangle_relations()).select("C", "B").run("P")
        assert result.name == "P"
        assert result.attributes == ("C", "B")

    def test_output_attributes(self):
        builder = Q(*triangle_relations())
        assert builder.output_attributes == ("A", "B", "C")
        assert builder.select("C").output_attributes == ("C",)


class TestContextPlumbing:
    def test_using_kwargs_updates_context(self):
        builder = Q(*triangle_relations()).using(
            algorithm="generic", backend="sorted"
        )
        assert builder.context.algorithm == "generic"
        assert builder.context.backend == "sorted"

    def test_using_context_replaces_wholesale(self):
        context = ExecutionContext(algorithm="leapfrog")
        builder = Q(*triangle_relations()).using(context)
        assert builder.context is context

    def test_using_both_rejected(self):
        with pytest.raises(QueryError):
            Q(*triangle_relations()).using(
                ExecutionContext(), algorithm="generic"
            )

    def test_context_attribute_order_strips_bound_attributes(self):
        builder = (
            Q(*triangle_relations())
            .using(algorithm="generic", attribute_order=("C", "A", "B"))
            .where(A=0)
        )
        plan = builder.plan()
        assert plan.attribute_order == ("C", "B")
        assert sorted(builder.stream()) == [(0, 1, 5), (0, 2, 7)]

    def test_invalid_mode_rejected_eagerly(self):
        with pytest.raises(PlanError, match="shard mode"):
            ExecutionContext(mode="bogus")

    def test_plan_is_a_join_plan(self):
        assert isinstance(Q(*triangle_relations()).plan(), JoinPlan)

    def test_count(self):
        assert Q(*triangle_relations()).count() == 4


class TestBatchesAndAsync:
    def test_batches(self):
        batches = list(Q(*triangle_relations()).batches(3))
        assert [len(b) for b in batches] == [3, 1]

    def test_batch_size_from_context(self):
        builder = Q(*triangle_relations()).using(batch_size=2)
        assert [len(b) for b in builder.batches()] == [2, 2]

    def test_invalid_context_batch_size_raises_eagerly(self):
        builder = Q(*triangle_relations()).using(batch_size=0)
        with pytest.raises(PlanError):
            builder.batches()

    def test_astream_parity(self):
        import asyncio

        async def collect():
            return [
                row
                async for row in Q(*triangle_relations())
                .where_in("C", {5, 6})
                .astream(batch_size=2)
            ]

        rows = asyncio.run(collect())
        assert sorted(rows) == [(0, 1, 5), (1, 2, 6)]


class TestRepr:
    def test_repr_mentions_clauses(self):
        text = repr(
            Q(*triangle_relations())
            .where(A=0)
            .where_in("B", {1})
            .select("C")
        )
        assert "where A=0" in text
        assert "B in {1}" in text
        assert "select C" in text
