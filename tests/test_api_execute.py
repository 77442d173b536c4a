"""The ExecutionContext-first API: execute() and the builder it returns.

``execute(query, context=...)`` is the one entry point; it returns the
:class:`QueryBuilder` it configured, every consumption style is a view
of that builder, and views agree with each other.
"""

import asyncio
import warnings

import pytest

from repro import ExecutionContext, Q, QueryBuilder, ShardSpec, execute
from repro.engine.parallel import DEFAULT_BATCH_SIZE
from repro.errors import PlanError, QueryError
from tests.helpers import triangle_query

QUERY = triangle_query(
    r_rows=tuple((i % 5, j) for i in range(10) for j in range(4)),
    s_rows=tuple((j, k) for j in range(4) for k in range(6)),
    t_rows=tuple((a, k) for a in range(5) for k in range(6)),
)
SERIAL = sorted(execute(QUERY))


class TestExecute:
    def test_returns_the_builder(self):
        stream = execute(QUERY)
        assert isinstance(stream, QueryBuilder)
        assert stream.output_attributes == ("A", "B", "C")
        builder = Q(QUERY)
        assert execute(builder) is builder
        assert execute(builder, mode="serial") is not builder

    def test_views_agree(self):
        stream = execute(QUERY)
        assert sorted(stream) == SERIAL
        assert sorted(list(stream)) == SERIAL
        assert sorted(stream.relation("J").tuples) == SERIAL
        batched = [row for batch in stream.batches(7) for row in batch]
        assert sorted(batched) == SERIAL
        assert stream.count() == len(SERIAL)
        assert len(stream.sample(3, seed=2)) == 3
        assert stream.plan().algorithm in ("generic", "leapfrog", "lw",
                                           "nprr", "arity2")

    def test_async_view(self):
        async def drain():
            return [row async for row in execute(QUERY).astream(16)]

        assert sorted(asyncio.run(drain())) == SERIAL

    def test_async_iteration(self):
        async def drain():
            return [row async for row in execute(QUERY)]

        assert sorted(asyncio.run(drain())) == SERIAL

    def test_a_builder_is_not_a_relation_list(self):
        # Builders iterate their rows now; Q() must not take one for
        # the relations to join.
        with pytest.raises(QueryError, match="not Q<"):
            Q(execute(QUERY))

    def test_accepts_builders_and_keeps_their_clauses(self):
        q = Q(QUERY).where(A=1).select("A", "C")
        expected = sorted(q.stream())
        assert sorted(execute(q)) == expected

    def test_context_and_options_are_exclusive(self):
        with pytest.raises(QueryError):
            execute(QUERY, context=ExecutionContext(), mode="serial")

    def test_options_overlay_the_context(self):
        stream = execute(QUERY, shards=ShardSpec(2), mode="serial")
        assert stream.context.shards == ShardSpec(2)
        assert sorted(stream) == SERIAL

    def test_bad_algorithm_rejected_before_query_construction(self):
        with pytest.raises(QueryError):
            execute(None, algorithm="quantum")
        with pytest.raises(QueryError):
            execute(None, context=ExecutionContext(algorithm="quantum"))

    def test_batch_size_is_the_views_argument_only(self):
        stream = execute(QUERY, shards=ShardSpec(2), mode="serial")
        assert len(SERIAL) < DEFAULT_BATCH_SIZE
        assert [len(batch) for batch in stream.batches()] == [len(SERIAL)]
        sizes = [len(batch) for batch in stream.batches(13)]
        assert all(size == 13 for size in sizes[:-1])
        assert sorted(r for b in stream.batches(13) for r in b) == SERIAL
        with pytest.raises(PlanError, match="unknown execution option"):
            execute(QUERY, batch_size=13)
        with pytest.raises(TypeError):
            ShardSpec(2, batch_size=13)

    def test_the_builder_is_immutable_and_reusable(self):
        stream = execute(QUERY)
        with pytest.raises(AttributeError):
            stream.context = None
        assert sorted(stream) == SERIAL
        assert sorted(stream) == SERIAL  # fresh execution, same rows


class TestViews:
    def test_streaming_and_aggregate_views_stay_quiet(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            assert sorted(iter(execute(QUERY))) == SERIAL
            assert execute(QUERY).count() == len(SERIAL)
            assert len(execute(QUERY).sample(2, seed=1)) == 2
