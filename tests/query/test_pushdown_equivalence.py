"""Pushdown equivalence: the optimized path equals naive sigma/pi.

The acceptance property of the query layer: for any combination of
``where`` / ``where_in`` / ``select`` clauses,

    Q(...).where(...).select(...)  ==  pi(sigma(join(...)))

where the right side materializes the full join and applies
:meth:`Relation.select_equals` / :meth:`Relation.select` /
:meth:`Relation.project` afterwards.  Checked across all five
algorithms, serial / sharded / batched / async delivery, and both index
backends.

Equality pushdown changes the residual query's *shape* (an attribute
disappears), so the shape-restricted specialists are exercised where
the residual stays in their class: ``lw`` only sees shape-preserving
clauses (``where_in`` / ``filter``), while ``nprr`` / ``generic`` /
``leapfrog`` / ``arity2`` / ``auto`` also take equality bindings (a
bound triangle's residual is an arity-2 query, which every one of them
accepts).
"""

import pytest

from hypothesis import given, settings, strategies as st

from repro.api import execute
from repro.query.builder import Q
from repro.relations.relation import Relation
from repro.workloads import generators, queries

ALL_ALGORITHMS = ("nprr", "lw", "generic", "leapfrog", "arity2", "auto")
#: Algorithms whose executors accept any residual shape (so equality
#: bindings, which shrink the hypergraph, are fair game).
SHAPE_FREE = ("nprr", "generic", "leapfrog", "auto")


def triangle_instance(seed=11, skew=None):
    kwargs = {"seed": seed}
    if skew is not None:
        kwargs["skew"] = skew
    return generators.random_instance(queries.triangle(), 60, 8, **kwargs)


def lw4_instance(seed=13):
    return generators.random_instance(queries.lw_query(4), 40, 3, seed=seed)


def naive(query, equalities=None, members=None, selected=None):
    """Reference semantics: full join, then sigma, then pi."""
    result = execute(query).relation()
    for attribute, value in (equalities or {}).items():
        result = result.select_equals(attribute, value)
    for attribute, values in (members or {}).items():
        result = result.select(
            lambda row, a=attribute, vs=values: row[a] in vs
        )
    if selected is not None:
        result = result.project(selected)
    return sorted(result.tuples)


def pick_value(query, attribute, seed=0):
    """A value the attribute actually takes (deterministic choice)."""
    for relation in query.relations.values():
        if attribute in relation.attribute_set:
            position = relation.position(attribute)
            values = sorted(
                {row[position] for row in relation.tuples}, key=repr
            )
            return values[seed % len(values)]
    raise AssertionError(f"no relation contains {attribute}")


class TestAcrossAlgorithms:
    @pytest.mark.parametrize("algorithm", SHAPE_FREE + ("arity2",))
    def test_equality_pushdown(self, algorithm):
        query = triangle_instance()
        value = pick_value(query, "A")
        rows = sorted(
            Q(query).using(algorithm=algorithm).where(A=value).stream()
        )
        assert rows == naive(query, equalities={"A": value})

    @pytest.mark.parametrize("algorithm", ALL_ALGORITHMS)
    def test_membership_pushdown(self, algorithm):
        query = triangle_instance()
        values = {pick_value(query, "C", 0), pick_value(query, "C", 1)}
        rows = sorted(
            Q(query)
            .using(algorithm=algorithm)
            .where_in("C", values)
            .stream()
        )
        assert rows == naive(query, members={"C": values})

    @pytest.mark.parametrize("algorithm", ALL_ALGORITHMS)
    def test_membership_and_projection(self, algorithm):
        query = triangle_instance(skew=1.2)
        values = {pick_value(query, "B", 0), pick_value(query, "B", 2)}
        rows = sorted(
            Q(query)
            .using(algorithm=algorithm)
            .where_in("B", values)
            .select("A", "C")
            .stream()
        )
        assert rows == naive(query, members={"B": values}, selected=("A", "C"))

    @pytest.mark.parametrize("algorithm", SHAPE_FREE)
    def test_equality_membership_projection_compose(self, algorithm):
        query = triangle_instance(skew=1.1)
        bound = pick_value(query, "A")
        values = {pick_value(query, "C", 0), pick_value(query, "C", 3)}
        rows = sorted(
            Q(query)
            .using(algorithm=algorithm)
            .where(A=bound)
            .where_in("C", values)
            .select("C")
            .stream()
        )
        assert rows == naive(
            query,
            equalities={"A": bound},
            members={"C": values},
            selected=("C",),
        )

    @pytest.mark.parametrize("algorithm", ("nprr", "lw", "generic", "leapfrog"))
    def test_lw_shape_with_membership(self, algorithm):
        query = lw4_instance()
        attribute = query.attributes[0]
        values = {pick_value(query, attribute, 0)}
        rows = sorted(
            Q(query)
            .using(algorithm=algorithm)
            .where_in(attribute, values)
            .stream()
        )
        assert rows == naive(query, members={attribute: values})

    @pytest.mark.parametrize("algorithm", ("nprr", "generic", "leapfrog"))
    def test_equality_on_lw_shape(self, algorithm):
        query = lw4_instance()
        attribute = query.attributes[1]
        value = pick_value(query, attribute)
        rows = sorted(
            Q(query)
            .using(algorithm=algorithm)
            .where(**{attribute: value})
            .stream()
        )
        assert rows == naive(query, equalities={attribute: value})


class TestAcrossBackends:
    @pytest.mark.parametrize("backend", ("trie", "sorted"))
    def test_generic_backends(self, backend):
        query = triangle_instance(skew=1.3)
        value = pick_value(query, "A")
        members = {pick_value(query, "C", 0), pick_value(query, "C", 1)}
        rows = sorted(
            Q(query)
            .using(algorithm="generic", backend=backend)
            .where(A=value)
            .where_in("C", members)
            .select("B", "C")
            .stream()
        )
        assert rows == naive(
            query,
            equalities={"A": value},
            members={"C": members},
            selected=("B", "C"),
        )

    def test_leapfrog_sorted_backend(self):
        query = triangle_instance()
        value = pick_value(query, "B")
        rows = sorted(
            Q(query)
            .using(algorithm="leapfrog", backend="sorted")
            .where(B=value)
            .stream()
        )
        assert rows == naive(query, equalities={"B": value})


class TestAcrossModes:
    def reference(self, query):
        self.value = pick_value(query, "A", 1)
        self.members = {pick_value(query, "C", 0), pick_value(query, "C", 2)}
        return naive(
            query,
            equalities={"A": self.value},
            members={"C": self.members},
            selected=("B", "C"),
        )

    def builder(self, query):
        return (
            Q(query)
            .where(A=self.value)
            .where_in("C", self.members)
            .select("B", "C")
        )

    def test_serial_vs_sharded_serial_mode(self):
        query = triangle_instance(skew=1.2)
        expected = self.reference(query)
        rows = sorted(
            self.builder(query)
            .using(shards=3, mode="serial")
            .stream()
        )
        assert rows == expected

    def test_sharded_thread_mode(self):
        query = triangle_instance(skew=1.2)
        expected = self.reference(query)
        rows = sorted(
            self.builder(query).using(shards=2, mode="thread").stream()
        )
        assert rows == expected

    def test_sharded_process_mode(self):
        query = triangle_instance()
        expected = self.reference(query)
        rows = sorted(
            self.builder(query)
            .using(shards=2, mode="process", workers=2)
            .stream()
        )
        assert rows == expected

    def test_sharded_auto_falls_back_for_lambda_filters(self):
        # A lambda predicate does not pickle; auto mode must quietly use
        # threads and still agree with the reference.
        query = triangle_instance()
        expected = naive(
            query, members={"C": set(q for q in range(10))}
        )
        rows = sorted(
            Q(query)
            .filter("C", lambda value: value in set(range(10)))
            .using(shards=2, mode="auto")
            .stream()
        )
        assert rows == expected

    def test_batched_delivery(self):
        query = triangle_instance(skew=1.2)
        expected = self.reference(query)
        rows = sorted(
            row
            for batch in self.builder(query).batches(7)
            for row in batch
        )
        assert rows == expected

    def test_async_delivery(self):
        import asyncio

        query = triangle_instance(skew=1.2)
        expected = self.reference(query)

        async def collect():
            return [
                row async for row in self.builder(query).astream(batch_size=5)
            ]

        assert sorted(asyncio.run(collect())) == expected

    def test_async_sharded_delivery(self):
        import asyncio

        query = triangle_instance()
        expected = self.reference(query)
        builder = self.builder(query).using(shards=2, mode="thread")

        async def collect():
            return [row async for row in builder.astream(batch_size=3)]

        assert sorted(asyncio.run(collect())) == expected


class TestEdgeCases:
    def test_empty_selection_nonempty_join(self):
        query = triangle_instance()
        assert list(Q(query).select().stream()) == [()]
        assert naive(query, selected=()) == [()]

    def test_empty_selection_empty_join(self):
        r = Relation("R", ("A", "B"), [(0, 1)])
        s = Relation("S", ("B", "C"), [(9, 9)])
        assert list(Q(r, s).select().stream()) == []
        assert naive(Q(r, s).query, selected=()) == []

    def test_all_attributes_bound_equals_naive(self):
        query = triangle_instance()
        full = execute(query).relation()
        hit = sorted(full.tuples)[0]
        binding = dict(zip(("A", "B", "C"), hit))
        assert sorted(Q(query).where(**binding).stream()) == naive(
            query, equalities=binding
        )
        miss = {"A": hit[0], "B": hit[1], "C": "@absent@"}
        assert sorted(Q(query).where(**miss).stream()) == naive(
            query, equalities=miss
        )

    def test_all_bound_with_projection(self):
        query = triangle_instance()
        hit = sorted(execute(query).relation().tuples)[0]
        binding = dict(zip(("A", "B", "C"), hit))
        rows = list(Q(query).where(**binding).select("B").stream())
        assert rows == naive(query, equalities=binding, selected=("B",))

    def test_binding_every_relation_of_two_path(self):
        r = Relation("R", ("A", "B"), [(1, 10), (2, 20)])
        s = Relation("S", ("B", "C"), [(10, 7), (20, 8)])
        rows = sorted(Q(r, s).where(B=10).stream())
        assert rows == naive(Q(r, s).query, equalities={"B": 10})

    def test_single_relation_query_pushdown(self):
        r = Relation("R", ("A", "B"), [(1, 10), (2, 20), (1, 30)])
        assert sorted(Q(r).where(A=1).select("B").stream()) == naive(
            Q(r).query, equalities={"A": 1}, selected=("B",)
        )


@settings(max_examples=40, deadline=None)
@given(
    r_rows=st.frozensets(
        st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=14
    ),
    s_rows=st.frozensets(
        st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=14
    ),
    t_rows=st.frozensets(
        st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=14
    ),
    bound=st.integers(0, 4),
    members=st.frozensets(st.integers(0, 4), max_size=3),
    project=st.booleans(),
)
def test_random_triangles_equal_naive(
    r_rows, s_rows, t_rows, bound, members, project
):
    """Hypothesis sweep: random triangles, random clauses, vs naive."""
    query_relations = [
        Relation("R", ("A", "B"), r_rows),
        Relation("S", ("B", "C"), s_rows),
        Relation("T", ("A", "C"), t_rows),
    ]
    from repro.core.query import JoinQuery

    query = JoinQuery(query_relations)
    builder = Q(query).where(A=bound).where_in("C", members)
    selected = ("B",) if project else None
    if selected:
        builder = builder.select(*selected)
    assert sorted(builder.stream()) == naive(
        query,
        equalities={"A": bound},
        members={"C": members},
        selected=selected,
    )
