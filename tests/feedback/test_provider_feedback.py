"""Feedback ingestion on StatsProvider: keying, history, invalidation."""

import pytest

from repro.core.query import JoinQuery
from repro.feedback.telemetry import (
    ExecutionTelemetry,
    ObservedLevel,
    ShardObservation,
)
from repro.relations.database import Database
from repro.relations.relation import Relation
from repro.stats.provider import StatsConfig, StatsProvider, resolve_provider


def triangle_relations():
    return [
        Relation("R", ("A", "B"), [(1, 2), (2, 3), (3, 1)]),
        Relation("S", ("B", "C"), [(2, 9), (3, 7), (1, 5)]),
        Relation("T", ("A", "C"), [(1, 9), (2, 7), (3, 5)]),
    ]


def telemetry_for(order, matches=(2, 2, 2)):
    levels = []
    partials = 1
    for i, attribute in enumerate(order):
        levels.append(
            ObservedLevel(
                attribute=attribute,
                position=i,
                prefix=tuple(order[:i]),
                partials=partials,
                candidates=matches[i] + 1,
                matches=matches[i],
            )
        )
        partials = matches[i]
    return ExecutionTelemetry(
        attribute_order=tuple(order),
        levels=tuple(levels),
        rows=matches[-1],
        seconds=0.01,
        complete=True,
    )


class TestAdHocKeying:
    def test_roundtrip(self):
        query = JoinQuery(triangle_relations())
        provider = StatsProvider()
        assert provider.observed_levels(query) == {}
        provider.record_levels(query, telemetry_for(("A", "B", "C")))
        observed = provider.observed_levels(query)
        assert set(observed) == {"A", "B", "C"}
        assert observed["A"].position == 0

    def test_value_keyed_across_equal_reloads(self):
        # Feedback must survive re-loading the same data into new
        # relation objects (a CLI process answering repeated queries).
        provider = StatsProvider()
        provider.record_levels(
            JoinQuery(triangle_relations()), telemetry_for(("A", "B", "C"))
        )
        reloaded = JoinQuery(triangle_relations())
        assert set(provider.observed_levels(reloaded)) == {"A", "B", "C"}

    def test_different_data_misses(self):
        provider = StatsProvider()
        provider.record_levels(
            JoinQuery(triangle_relations()), telemetry_for(("A", "B", "C"))
        )
        changed = triangle_relations()
        changed[0] = Relation("R", ("A", "B"), [(1, 2), (2, 3), (9, 9)])
        assert provider.observed_levels(JoinQuery(changed)) == {}

    def test_incomplete_and_empty_telemetry_ignored(self):
        query = JoinQuery(triangle_relations())
        provider = StatsProvider()
        abandoned = ExecutionTelemetry(
            attribute_order=("A", "B", "C"),
            levels=telemetry_for(("A", "B", "C")).levels,
            rows=1,
            seconds=0.0,
            complete=False,
        )
        provider.record_levels(query, abandoned)
        assert provider.observed_levels(query) == {}
        no_levels = ExecutionTelemetry(
            attribute_order=("A", "B", "C"),
            levels=(),
            rows=1,
            seconds=0.0,
            complete=True,
        )
        provider.record_levels(query, no_levels)
        assert provider.observed_levels(query) == {}


class TestHistory:
    def test_best_order_wins(self):
        query = JoinQuery(triangle_relations())
        provider = StatsProvider()
        provider.record_levels(
            query, telemetry_for(("B", "C", "A"), matches=(8, 8, 8))
        )
        provider.record_levels(
            query, telemetry_for(("A", "B", "C"), matches=(1, 1, 1))
        )
        history = provider.observed_history(query)
        assert set(history) == {("B", "C", "A"), ("A", "B", "C")}
        best = provider.observed_telemetry(query)
        assert best.attribute_order == ("A", "B", "C")
        assert provider.observed_levels(query)["A"].matches == 1

    def test_latest_run_of_an_order_overwrites(self):
        query = JoinQuery(triangle_relations())
        provider = StatsProvider()
        provider.record_levels(
            query, telemetry_for(("A", "B", "C"), matches=(5, 5, 5))
        )
        provider.record_levels(
            query, telemetry_for(("A", "B", "C"), matches=(2, 2, 2))
        )
        history = provider.observed_history(query)
        assert len(history) == 1
        assert history[("A", "B", "C")].rows == 2


class TestShardObservations:
    def test_merge_across_runs(self):
        query = JoinQuery(triangle_relations())
        provider = StatsProvider()
        top = ShardObservation(
            key=(("A", frozenset({1})),), seconds=1.0, rows=5, weight=10
        )
        provider.record_shards(query, [top])
        sub = ShardObservation(
            key=(("A", frozenset({1})), ("B", frozenset({2}))),
            seconds=0.4,
            rows=2,
            weight=4,
        )
        provider.record_shards(query, [sub])
        observed = provider.observed_shards(query)
        assert set(observed) == {top.key, sub.key}
        # Re-recording a key overwrites it.
        provider.record_shards(
            query,
            [
                ShardObservation(
                    key=top.key, seconds=2.0, rows=5, weight=10
                )
            ],
        )
        assert provider.observed_shards(query)[top.key].seconds == 2.0

    def test_empty_record_is_noop(self):
        query = JoinQuery(triangle_relations())
        provider = StatsProvider()
        provider.record_shards(query, [])
        assert provider.observed_shards(query) == {}


class TestDatabaseInvalidation:
    """Satellite: feedback-cache invalidation on replace and drop."""

    def _db_provider(self):
        db = Database(triangle_relations())
        provider = db.stats()
        query = JoinQuery([db["R"], db["S"], db["T"]])
        provider.record_levels(query, telemetry_for(("A", "B", "C")))
        provider.record_shards(
            query,
            [
                ShardObservation(
                    key=(("A", frozenset({1})),),
                    seconds=1.0,
                    rows=5,
                    weight=10,
                )
            ],
        )
        assert provider.observed_levels(query)
        assert provider.observed_shards(query)
        return db, provider

    @pytest.mark.parametrize("name", ["R", "S", "T"])
    def test_replacing_any_relation_invalidates(self, name):
        db, provider = self._db_provider()
        replacement = Relation(
            name, db[name].attributes, list(db[name].tuples)[:-1]
        )
        db.add(replacement, replace=True)
        query = JoinQuery([db["R"], db["S"], db["T"]])
        assert provider.observed_levels(query) == {}
        assert provider.observed_shards(query) == {}

    def test_dropping_a_relation_invalidates(self):
        db, provider = self._db_provider()
        stale = JoinQuery([db["R"], db["S"], db["T"]])
        db.remove("S")
        assert provider.observed_levels(stale) == {}
        assert provider.observed_shards(stale) == {}

    def test_same_named_ad_hoc_relations_do_not_hit(self):
        db, provider = self._db_provider()
        # Equal-valued but different-sized relations under the same
        # names must not be served the catalog's observations.
        shrunk = [
            Relation("R", ("A", "B"), [(1, 2)]),
            Relation("S", ("B", "C"), [(2, 9)]),
            Relation("T", ("A", "C"), [(1, 9)]),
        ]
        assert provider.observed_levels(JoinQuery(shrunk)) == {}


class TestResolveProvider:
    def test_explicit_provider_wins(self):
        provider = StatsProvider()
        assert resolve_provider(None, provider) is provider

    def test_config_without_database_is_shared(self):
        config = StatsConfig(top_k=3)
        first = resolve_provider(None, config)
        second = resolve_provider(None, config)
        assert first is second
        assert first.config == config

    def test_database_provider_cached(self):
        db = Database(triangle_relations())
        assert resolve_provider(db, None) is db.stats()
        config = StatsConfig(selectivities=False)
        assert resolve_provider(db, config) is db.stats(config)

    def test_default_provider_shared(self):
        assert resolve_provider(None, None) is resolve_provider(None, None)
