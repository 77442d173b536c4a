"""ExecutionContext: the single carrier of execution options."""

from dataclasses import dataclass

import pytest

from repro.api import execute
from repro.engine.planner import plan_join
from repro.errors import PlanError, QueryError
from repro.query.builder import Q
from repro.query.context import ExecutionContext
from repro.query.shards import ShardSpec
from repro.relations.database import Database
from repro.stats import StatsProvider

from tests.helpers import triangle_query


@dataclass(frozen=True)
class LeftoverStatsConfig:
    """Shaped like the statistics configuration 5.0 removed."""

    selectivities: bool = False
    top_k: int = 8


class TestContextObject:
    def test_defaults_mirror_bare_join(self):
        context = ExecutionContext()
        assert context.algorithm == "auto"
        assert context.shards is None
        assert not context.parallel

    def test_replace_derives_without_mutation(self):
        base = ExecutionContext(shards="auto")
        serial = base.replace(shards=None)
        assert base.shards == ShardSpec("auto")
        assert serial.shards is None

    @pytest.mark.parametrize(
        "surface",
        [
            lambda option: Q(triangle_query()).using(**option),
            lambda option: execute(triangle_query(), **option),
        ],
        ids=["using", "execute"],
    )
    @pytest.mark.parametrize(
        "option", [{"shard": 2}, {"feedback": True}], ids=["shard", "feedback"]
    )
    def test_an_unknown_option_is_a_plan_error(self, option, surface):
        (name,) = option
        with pytest.raises(PlanError) as error:
            surface(option)
        message = str(error.value)
        assert f"unknown execution option(s) {name}" in message
        assert "shards" in message and "metrics" in message

    def test_bare_shards_coerced_to_spec(self):
        assert ExecutionContext(shards=4).shards == ShardSpec(4)
        spec = ShardSpec(4, predictive=True)
        assert ExecutionContext(shards=spec).shards is spec

    def test_frozen(self):
        with pytest.raises(AttributeError):
            ExecutionContext().algorithm = "generic"

    def test_hashable(self):
        assert len({ExecutionContext(), ExecutionContext()}) == 1

    def test_mode_validated_eagerly(self):
        with pytest.raises(PlanError):
            ExecutionContext(mode="sideways")

    @pytest.mark.parametrize(
        "field, value, kind",
        [
            ("stats", "bogus", "StatsProvider"),
            # A leftover configuration object is not a provider.
            ("stats", LeftoverStatsConfig(), "StatsProvider"),
            ("stats", StatsProvider, "StatsProvider"),  # the class
            ("cover", {"R": 1}, "FractionalCover"),
            ("cover", 1.5, "FractionalCover"),
        ],
    )
    def test_stats_and_cover_validated_eagerly(self, field, value, kind):
        with pytest.raises(PlanError, match=f"{field} must be a repro.{kind}"):
            ExecutionContext(**{field: value})
        with pytest.raises(PlanError, match=f"{field} must be"):
            execute(triangle_query(), **{field: value}).count()

    def test_describe_lists_non_defaults(self):
        text = ExecutionContext(algorithm="generic", shards=4).describe()
        assert "algorithm='generic'" in text
        assert "shards=ShardSpec(4)" in text
        assert "batch_size" not in text


class TestPlannerConsumesContext:
    def test_context_overrides_kwargs(self):
        query = triangle_query()
        plan = plan_join(
            query, context=ExecutionContext(algorithm="generic", shards=2)
        )
        assert plan.algorithm == "generic"
        assert plan.shards == 2

    def test_the_context_provider_holds_the_statistics(self):
        query = triangle_query()
        read = []

        class Recording(StatsProvider):
            def value_counts(self, relation, attributes):
                read.append(relation.name)
                return super().value_counts(relation, attributes)

        plan = plan_join(
            query,
            context=ExecutionContext(algorithm="generic", stats=Recording()),
        )
        assert plan.statistics is not None
        assert set(read) == {"R", "S", "T"}

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(QueryError):
            plan_join(
                triangle_query(),
                context=ExecutionContext(algorithm="bogus"),
            )


class TestViewsAgree:
    """Every view of ``execute``'s stream: same results, same
    validation, via builder + context."""

    def test_join_parity(self):
        query = triangle_query()
        assert sorted(execute(query).relation().tuples) == sorted(execute(query))

    def test_join_batched_parity(self):
        query = triangle_query()
        rows = [r for batch in execute(query).batches(2) for r in batch]
        assert sorted(rows) == sorted(execute(query).relation().tuples)

    def test_shard_join_parity(self):
        query = triangle_query()
        assert sorted(execute(query, shards=2)) == sorted(
            execute(query).relation().tuples
        )

    def test_aiter_join_parity(self):
        import asyncio

        query = triangle_query()

        async def collect():
            return [row async for row in execute(query).astream()]

        assert sorted(asyncio.run(collect())) == sorted(
            execute(query).relation().tuples
        )

    def test_explain_records_context_options(self):
        query = triangle_query()
        plan = execute(query, algorithm="generic", backend="sorted").plan()
        assert plan.algorithm == "generic"
        assert plan.backend == "sorted"

    def test_eager_validation_preserved(self):
        query = triangle_query()
        with pytest.raises(QueryError):
            execute(query, algorithm="nope").relation()
        with pytest.raises(PlanError):
            execute(query).batches(0)
        with pytest.raises(PlanError, match="unknown execution option"):
            execute(query, batch_size=2)
        with pytest.raises(PlanError):
            execute(query, mode="sideways", shards="auto")
        with pytest.raises(PlanError):
            iter(execute(query, algorithm="lw", backend="sorted"))


class TestBuilderHonorsContext:
    def test_database_used_for_unbound_queries(self):
        query = triangle_query()
        db = Database(query.relations.values())
        builder = Q(db["R"], db["S"], db["T"]).using(
            database=db, algorithm="generic"
        )
        before = db.cache_info()
        list(builder.stream())
        middle = db.cache_info()
        assert middle.misses > before.misses  # cold: builds went to cache
        list(builder.stream())
        after = db.cache_info()
        assert after.misses == middle.misses  # warm: pure hits
        assert after.hits > middle.hits

    def test_sections_bypass_cache_untouched_relations_use_it(self):
        # Equality pushdown sections R and T (they contain A); those
        # ad-hoc sections must NOT be served from (or stored in) the
        # catalog cache under the full relations' names.  S does not
        # contain A, stays the catalogued object, and keeps using the
        # shared cache.
        query = triangle_query()
        db = Database(query.relations.values())
        builder = (
            Q(db["R"], db["S"], db["T"])
            .using(database=db, algorithm="generic")
            .where(A=0)
        )
        before = db.cache_info()
        rows = sorted(builder.stream())
        middle = db.cache_info()
        assert middle.misses == before.misses + 1  # S only
        sorted(builder.stream())
        after = db.cache_info()
        assert after.misses == middle.misses
        assert after.hits == middle.hits + 1  # S served from cache
        assert db.cached_index_count() == 1
        assert rows == sorted(
            execute(query).relation().select_equals("A", 0).tuples
        )

    def test_shards_route_through_parallel_driver(self):
        query = triangle_query()
        rows = sorted(Q(query).using(shards=2, mode="serial").stream())
        assert rows == sorted(execute(query).relation().tuples)
