"""Unit tests for full conjunctive queries (Section 7.3)."""

import pytest

from repro.core.conjunctive import Atom, ConjunctiveQuery, Const, Var
from repro.errors import QueryError
from repro.relations.database import Database
from repro.relations.relation import Relation


@pytest.fixture
def db():
    return Database(
        [
            Relation(
                "E",
                ("Src", "Dst"),
                [(1, 2), (2, 3), (3, 1), (1, 1), (2, 1)],
            ),
            Relation("L", ("Node", "Tag"), [(1, "a"), (2, "b"), (3, "a")]),
        ]
    )


class TestValidation:
    def test_full_query_ok(self):
        ConjunctiveQuery(
            ["x", "y"], [Atom("E", (Var("x"), Var("y")))]
        )

    def test_missing_head_var_rejected(self):
        with pytest.raises(QueryError):
            ConjunctiveQuery(["x"], [Atom("E", (Var("x"), Var("y")))])

    def test_extra_head_var_rejected(self):
        with pytest.raises(QueryError):
            ConjunctiveQuery(
                ["x", "z"], [Atom("E", (Var("x"), Var("x")))]
            )

    def test_duplicate_head_rejected(self):
        with pytest.raises(QueryError):
            ConjunctiveQuery(
                ["x", "x"], [Atom("E", (Var("x"), Var("x")))]
            )

    def test_empty_body_rejected(self):
        with pytest.raises(QueryError):
            ConjunctiveQuery([], [])

    def test_arity_mismatch_detected_at_reduce(self, db):
        cq = ConjunctiveQuery(["x"], [Atom("E", (Var("x"),))])
        with pytest.raises(QueryError):
            cq.reduce(db)

    def test_str_forms(self):
        cq = ConjunctiveQuery(
            ["x"], [Atom("E", (Var("x"), Const(3)))]
        )
        assert "E(x, 3)" in str(cq)


class TestReduction:
    def test_repeated_variable(self, db):
        """E(x, x) keeps only the diagonal."""
        cq = ConjunctiveQuery(["x"], [Atom("E", (Var("x"), Var("x")))])
        out = cq.evaluate(db)
        assert set(out.tuples) == {(1,)}

    def test_constant_selection(self, db):
        cq = ConjunctiveQuery(["x"], [Atom("E", (Var("x"), Const(1)))])
        out = cq.evaluate(db)
        assert set(out.tuples) == {(3,), (1,), (2,)}

    def test_constant_no_match(self, db):
        cq = ConjunctiveQuery(["x"], [Atom("E", (Var("x"), Const(99)))])
        assert cq.evaluate(db).is_empty()

    def test_repeated_subgoal_multiset_edges(self, db):
        """E(x,y) AND E(y,x): the same relation twice, distinct edges."""
        cq = ConjunctiveQuery(
            ["x", "y"],
            [
                Atom("E", (Var("x"), Var("y"))),
                Atom("E", (Var("y"), Var("x"))),
            ],
        )
        out = cq.evaluate(db)
        assert set(out.tuples) == {(1, 1), (1, 2), (2, 1)}

    def test_reduced_names_distinct(self, db):
        cq = ConjunctiveQuery(
            ["x", "y"],
            [
                Atom("E", (Var("x"), Var("y"))),
                Atom("E", (Var("y"), Var("x"))),
            ],
        )
        reduced = cq.reduce(db)
        assert reduced.edge_ids == ("E@0", "E@1")


class TestGuards:
    """An all-constant subgoal binds no variable: a guard on the answer,
    never a nullary edge of the reduced query."""

    @pytest.fixture
    def guarded(self):
        return Database(
            [
                Relation("R", ("A", "B"), [(1, 2), (3, 4)]),
                Relation("S", ("C", "D"), [(7, 8)]),
            ]
        )

    def _query(self, guard):
        return ConjunctiveQuery(
            ("x", "y"),
            [
                Atom("R", (Var("x"), Var("y"))),
                Atom("S", tuple(map(Const, guard))),
            ],
        )

    def test_a_failing_guard_empties_the_answer(self, guarded):
        out = self._query((5, 6)).evaluate(guarded)
        assert out.attributes == ("x", "y") and out.is_empty()

    def test_a_holding_guard_keeps_the_join(self, guarded):
        out = self._query((7, 8)).evaluate(guarded)
        assert sorted(out.tuples) == [(1, 2), (3, 4)]

    def test_reduce_leaves_guards_out(self, guarded):
        assert self._query((5, 6)).reduce(guarded).edge_ids == ("R@0",)

    @pytest.mark.parametrize(
        "guards, answer",
        [
            ([(7, 8)], [()]),
            ([(7, 9)], []),
            ([(7, 8), (7, 9)], []),
            ([(7, 8), (7, 8)], [()]),
        ],
    )
    def test_a_boolean_body_answers_the_empty_tuple_or_nothing(
        self, guarded, guards, answer
    ):
        cq = ConjunctiveQuery(
            (), [Atom("S", tuple(map(Const, guard))) for guard in guards]
        )
        out = cq.evaluate(guarded)
        assert out.attributes == () and sorted(out.tuples) == answer

    def test_a_guard_arity_mismatch_is_reported(self, guarded):
        with pytest.raises(QueryError, match="arity"):
            self._query((5,)).evaluate(guarded)


class TestEvaluation:
    def test_triangle_in_graph(self, db):
        cq = ConjunctiveQuery(
            ["x", "y", "z"],
            [
                Atom("E", (Var("x"), Var("y"))),
                Atom("E", (Var("y"), Var("z"))),
                Atom("E", (Var("z"), Var("x"))),
            ],
        )
        out = cq.evaluate(db)
        assert (1, 2, 3) in out
        assert (2, 3, 1) in out
        assert (1, 1, 1) in out

    def test_join_with_labels(self, db):
        cq = ConjunctiveQuery(
            ["x", "y", "t"],
            [
                Atom("E", (Var("x"), Var("y"))),
                Atom("L", (Var("x"), Var("t"))),
            ],
        )
        out = cq.evaluate(db)
        assert (1, 2, "a") in out
        assert (2, 3, "b") in out

    def test_head_order_respected(self, db):
        cq = ConjunctiveQuery(
            ["y", "x"], [Atom("E", (Var("x"), Var("y")))]
        )
        out = cq.evaluate(db)
        assert out.attributes == ("y", "x")
        assert (2, 1) in out  # edge (1, 2) flipped

    def test_matches_bruteforce(self, db):
        """Reduction + NPRR equals direct substitution semantics."""
        cq = ConjunctiveQuery(
            ["x", "y", "t"],
            [
                Atom("E", (Var("x"), Var("y"))),
                Atom("E", (Var("y"), Var("x"))),
                Atom("L", (Var("y"), Var("t"))),
            ],
        )
        out = cq.evaluate(db)
        edges = db["E"].tuples
        labels = db["L"].tuples
        expected = {
            (x, y, t)
            for (x, y) in edges
            for (node, t) in labels
            if (y, x) in edges and node == y
        }
        assert set(out.tuples) == expected
