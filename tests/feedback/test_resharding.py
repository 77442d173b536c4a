"""Online re-sharding: the hot-shard split logic and its end-to-end path."""

import pytest

from repro import Q, iter_join
from repro.engine.parallel import plan_shards, restrict
from repro.feedback.config import FeedbackConfig
from repro.feedback.resharding import ShardPlanEntry, expand_shards
from repro.feedback.telemetry import ShardObservation
from repro.query.context import ExecutionContext
from repro.stats.provider import StatsProvider
from repro.workloads import generators

ORDER = ("A", "C", "B")

#: Small hub instance: one value of A dominates R and T.
HUB = dict(
    light_domain=60,
    b_domain=80,
    c_domain=1500,
    r_size=500,
    s_size=1200,
    t_size=3600,
    r_hub=0.8,
    t_hub=0.92,
    seed=23,
)


@pytest.fixture(scope="module")
def hub():
    return generators.hub_triangle(**HUB)


def entries_for(query, shards, attribute=ORDER[0]):
    specs = plan_shards(query, shards, attribute)
    return [
        ShardPlanEntry(key=((attribute, spec.values),), weight=spec.weight)
        for spec in specs
    ], specs


def observe(entries, seconds):
    return {
        entry.key: ShardObservation(
            key=entry.key,
            seconds=s,
            rows=10,
            weight=entry.weight,
        )
        for entry, s in zip(entries, seconds)
    }


class TestExpandShards:
    def test_no_observations_passthrough(self, hub):
        entries, _specs = entries_for(hub, 2)
        expanded = expand_shards(hub, entries, ORDER, {}, FeedbackConfig())
        assert expanded == entries

    def test_hot_shard_splits_on_next_attribute(self, hub):
        entries, _specs = entries_for(hub, 2)
        observed = observe(entries, [1.0, 0.2])
        expanded = expand_shards(
            hub, entries, ORDER, observed, FeedbackConfig(split_threshold=2.0)
        )
        # The hot entry is replaced by sub-shards on ORDER[1]; the cool
        # one passes through.
        assert len(expanded) == 3
        sub = [e for e in expanded if len(e.key) == 2]
        assert len(sub) == 2
        for entry in sub:
            assert entry.key[0] == entries[0].key[0]
            assert entry.key[1][0] == ORDER[1]
        assert entries[1] in expanded
        # Sub-shard queries partition the hot shard's output.
        hot_rows = set(
            iter_join(restrict(hub, entries[0].key), algorithm="generic",
                      attribute_order=ORDER)
        )
        sub_rows = [
            set(iter_join(restrict(hub, e.key), algorithm="generic",
                          attribute_order=ORDER))
            for e in sub
        ]
        assert sub_rows[0] | sub_rows[1] == hot_rows
        assert not (sub_rows[0] & sub_rows[1])

    def test_cool_shards_never_split(self, hub):
        entries, _specs = entries_for(hub, 2)
        observed = observe(entries, [0.2, 0.21])
        expanded = expand_shards(
            hub, entries, ORDER, observed, FeedbackConfig(split_threshold=1.5)
        )
        assert expanded == entries

    def test_single_shard_has_no_siblings(self, hub):
        entries, _specs = entries_for(hub, 1)
        observed = observe(entries, [10.0])
        expanded = expand_shards(
            hub, entries, ORDER, observed, FeedbackConfig(split_threshold=1.5)
        )
        assert expanded == entries

    def test_min_split_seconds_floor(self, hub):
        entries, _specs = entries_for(hub, 2)
        observed = observe(entries, [0.010, 0.001])
        config = FeedbackConfig(split_threshold=1.5, min_split_seconds=0.05)
        assert expand_shards(hub, entries, ORDER, observed, config) == entries

    def test_split_factor_controls_sub_shards(self, hub):
        entries, _specs = entries_for(hub, 2)
        observed = observe(entries, [1.0, 0.1])
        expanded = expand_shards(
            hub,
            entries,
            ORDER,
            observed,
            FeedbackConfig(split_threshold=1.5, split_factor=3),
        )
        assert len([e for e in expanded if len(e.key) == 2]) == 3

    def test_recursive_split_bounded_by_depth(self, hub):
        entries, _specs = entries_for(hub, 2)
        config = FeedbackConfig(split_threshold=1.5, max_split_depth=1)
        observed = observe(entries, [1.0, 0.1])
        once = expand_shards(hub, entries, ORDER, observed, config)
        subs = [e for e in once if len(e.key) == 2]
        # Record the sub-shards as skewed too: with depth capped at 1
        # they must not split again.
        deeper = dict(observed)
        deeper.update(observe(subs, [1.0, 0.05]))
        again = expand_shards(hub, entries, ORDER, deeper, config)
        assert max(len(e.key) for e in again) == 2
        # Raising the cap lets the hot sub-shard split on ORDER[2].
        three = expand_shards(
            hub,
            entries,
            ORDER,
            deeper,
            FeedbackConfig(split_threshold=1.5, max_split_depth=2),
        )
        deepest = [e for e in three if len(e.key) == 3]
        assert deepest
        assert all(e.key[2][0] == ORDER[2] for e in deepest)

    def test_depth_never_exceeds_order_length(self, hub):
        entries, _specs = entries_for(hub, 2)
        observed = observe(entries, [1.0, 0.1])
        config = FeedbackConfig(split_threshold=1.5, max_split_depth=10)
        expanded = expand_shards(hub, entries, ORDER, observed, config)
        subs = [e for e in expanded if len(e.key) > 1]
        deeper = dict(observed)
        deeper.update(observe(subs, [1.0] + [0.01] * (len(subs) - 1)))
        expanded = expand_shards(hub, entries, ORDER, deeper, config)
        assert max(len(e.key) for e in expanded) <= len(ORDER)

    def test_deterministic(self, hub):
        entries, _specs = entries_for(hub, 2)
        observed = observe(entries, [1.0, 0.1])
        config = FeedbackConfig(split_threshold=1.5)
        first = expand_shards(hub, entries, ORDER, observed, config)
        second = expand_shards(hub, entries, ORDER, observed, config)
        assert first == second  # an entry is its key and its weight


class TestEndToEnd:
    @pytest.mark.parametrize("mode", ["serial", "thread", "process"])
    def test_second_run_splits_and_keeps_parity(self, hub, mode):
        provider = StatsProvider()
        context = ExecutionContext(
            algorithm="generic",
            shards=2,
            mode=mode,
            attribute_order=ORDER,
            stats=provider,
            # min_split_seconds=0 on purpose: the hub shard is hot by
            # structure, whatever this host's absolute timings are.
            feedback=FeedbackConfig(split_threshold=1.5),
        )
        serial = set(
            iter_join(hub, algorithm="generic", attribute_order=ORDER)
        )
        first = set(Q(hub).using(context=context).stream())
        assert first == serial
        assert provider.observed_shards(hub)
        second = set(Q(hub).using(context=context).stream())
        assert second == serial
        observed = provider.observed_shards(hub)
        # Whether the hub shard split depends on this host's timings;
        # when it did, the sub-shards must be keyed under it on the
        # next attribute of the order.
        for key in observed:
            if len(key) == 2:
                assert key[1][0] == ORDER[1]

    def test_early_abandonment_records_nothing(self, hub):
        provider = StatsProvider()
        context = ExecutionContext(
            algorithm="generic",
            shards=2,
            mode="serial",
            attribute_order=ORDER,
            stats=provider,
            feedback=FeedbackConfig(),
        )
        stream = Q(hub).using(context=context).stream()
        next(stream)
        stream.close()
        assert provider.observed_shards(hub) == {}
