"""Unit tests for JoinQuery."""

import pytest

from repro.core.query import JoinQuery
from repro.errors import QueryError
from repro.hypergraph.covers import FractionalCover
from repro.relations.database import Database
from repro.relations.relation import Relation
from repro.workloads import queries

from tests.helpers import triangle_query


class TestConstruction:
    def test_basic(self):
        q = triangle_query()
        assert q.edge_ids == ("R", "S", "T")
        assert q.attributes == ("A", "B", "C")
        assert len(q) == 3

    def test_attribute_order_first_seen(self):
        q = JoinQuery(
            [
                Relation("S", ("B", "C"), []),
                Relation("R", ("A", "B"), []),
            ]
        )
        assert q.attributes == ("B", "C", "A")

    def test_empty_rejected(self):
        with pytest.raises(QueryError):
            JoinQuery([])

    def test_duplicate_names_rejected(self):
        r = Relation("R", ("A",), [(1,)])
        with pytest.raises(QueryError):
            JoinQuery([r, r])

    def test_nullary_relation_rejected(self):
        # ``E() = {}`` joined with ``R(A) = {(1,)}`` is empty, but as an
        # edge it has no attribute to intersect on: it is a guard, which
        # the query layer checks, never an edge.
        with pytest.raises(QueryError, match="'E' has no attributes"):
            JoinQuery(
                [Relation("R", ("A",), [(1,)]), Relation("E", (), [])]
            )
        with pytest.raises(QueryError, match="'E' has no attributes"):
            JoinQuery([Relation("E", (), [()])])

    def test_self_join_via_rename(self):
        r = Relation("E", ("A", "B"), [(1, 2), (2, 3)])
        q = JoinQuery([r, r.with_name("E2").rename({"A": "B", "B": "C"})])
        assert len(q) == 2
        assert q.attributes == ("A", "B", "C")

    def test_immutable(self):
        q = triangle_query()
        with pytest.raises(AttributeError):
            q.relations = {}


class TestAccessors:
    def test_relation_lookup(self):
        q = triangle_query()
        assert q.relation("R").name == "R"
        with pytest.raises(QueryError):
            q.relation("X")

    def test_sizes(self):
        q = triangle_query()
        assert q.sizes() == {"R": 3, "S": 3, "T": 3}
        assert q.total_input_size() == 9

    def test_is_lw_instance(self):
        assert triangle_query().is_lw_instance()

    def test_empty_output(self):
        out = triangle_query().empty_output()
        assert out.attributes == ("A", "B", "C")
        assert out.is_empty()

    def test_validate_cover(self):
        q = triangle_query()
        q.validate_cover(FractionalCover.all_ones(q.hypergraph))
        from repro.errors import CoverError

        with pytest.raises(CoverError):
            q.validate_cover(FractionalCover.uniform(q.hypergraph, 0))


class TestConstructors:
    def test_from_database(self):
        db = Database(
            [
                Relation("R", ("A", "B"), [(1, 2)]),
                Relation("S", ("B", "C"), [(2, 3)]),
            ]
        )
        q = JoinQuery.from_database(db, ["R", "S"])
        assert q.edge_ids == ("R", "S")

    def test_from_hypergraph(self):
        h = queries.triangle()
        rels = {
            "R": Relation("x", ("A", "B"), [(1, 2)]),
            "S": Relation("y", ("B", "C"), [(2, 3)]),
            "T": Relation("z", ("A", "C"), [(1, 3)]),
        }
        q = JoinQuery.from_hypergraph(h, rels)
        assert q.edge_ids == ("R", "S", "T")
        assert q.relation("R").name == "R"

    def test_from_hypergraph_missing_relation(self):
        h = queries.triangle()
        with pytest.raises(QueryError):
            JoinQuery.from_hypergraph(h, {})

    def test_from_hypergraph_schema_mismatch(self):
        h = queries.triangle()
        rels = {
            "R": Relation("R", ("A", "Z"), []),
            "S": Relation("S", ("B", "C"), []),
            "T": Relation("T", ("A", "C"), []),
        }
        with pytest.raises(QueryError):
            JoinQuery.from_hypergraph(h, rels)
