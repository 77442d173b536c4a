"""The descent kernel under every sink, against the backtracking oracle.

One walk (:func:`repro.core.descent.walk`) serves enumeration, observed
enumeration, aggregate folds and the sampler's exact fallback, over two
level strategies.  These tests hold every (strategy, backend) pairing to
``tests.helpers.oracle_join`` through each sink, pin the per-level
counters of one fixed instance per strategy, and read the paper's claim
— work within a constant of the AGM bound, where every pairwise plan is
quadratic — off the kernel's own counters on the paper's hard instances.
"""

from __future__ import annotations

import itertools
import random

import pytest

from repro.aggregate.fold import Folder, fold_rows
from repro.aggregate.sampling import JoinSampler
from repro.aggregate.specs import Count, Sum, grouped
from repro.baselines.hash_join import chain_hash_join
from repro.core.generic_join import GenericJoin
from repro.core.leapfrog import LeapfrogTriejoin
from repro.core.query import JoinQuery
from repro.feedback.telemetry import TelemetryProbe
from repro.hypergraph.agm import best_agm_bound
from repro.relations.relation import Relation
from repro.workloads import generators, instances
from tests.helpers import (
    assert_counter_chain,
    assert_valid_sample,
    oracle_join,
)

#: (executor class, backend) — every layout each strategy runs over.
CONFIGS = [
    pytest.param(GenericJoin, "trie", id="generic-trie"),
    pytest.param(GenericJoin, "sorted", id="generic-sorted"),
    pytest.param(GenericJoin, "compact", id="generic-compact"),
    pytest.param(
        GenericJoin, {"R": "sorted", "T": "compact"}, id="generic-mapping"
    ),
    pytest.param(LeapfrogTriejoin, "sorted", id="leapfrog-sorted"),
    pytest.param(LeapfrogTriejoin, "compact", id="leapfrog-compact"),
]


def _rows(rng, arity, n, domain):
    return {tuple(rng.randrange(domain) for _ in range(arity)) for _ in range(n)}


def _triangle(empty=None):
    rng = random.Random(41)
    return JoinQuery(
        [
            Relation(name, attrs, [] if name == empty else _rows(rng, 2, 70, 9))
            for name, attrs in (
                ("R", ("A", "B")),
                ("S", ("B", "C")),
                ("T", ("A", "C")),
            )
        ]
    )


def _single_attribute():
    rng = random.Random(43)
    return JoinQuery(
        [Relation(name, ("A",), _rows(rng, 1, 12, 16)) for name in "RST"]
    )


#: name -> (query, residual filters as {attribute: kept values}).
SCENARIOS = {
    "unfiltered": (_triangle(), {}),
    "where_in": (_triangle(), {"B": frozenset({0, 2, 4, 6})}),
    "empty_relation": (_triangle(empty="S"), {}),
    "single_attribute": (_single_attribute(), {}),
}


@pytest.mark.parametrize("scenario", SCENARIOS)
@pytest.mark.parametrize("cls, backend", CONFIGS)
class TestSinkParity:
    def _setup(self, cls, backend, scenario):
        query, kept = SCENARIOS[scenario]
        filters = {a: values.__contains__ for a, values in kept.items()}
        positions = {a: query.attributes.index(a) for a in kept}
        expected = sorted(
            row
            for row in oracle_join(query)
            if all(row[p] in kept[a] for a, p in positions.items())
        )
        order = tuple(reversed(query.attributes))

        def build(probe=None):
            return cls(
                query,
                attribute_order=order,
                backend=backend,
                filters=filters,
                telemetry=probe,
            )

        return query, filters, expected, order, build

    def test_enumerate_and_observe(self, cls, backend, scenario):
        _query, _filters, expected, order, build = self._setup(
            cls, backend, scenario
        )
        rows = list(build().iter_join())
        assert sorted(rows) == expected  # a multiset: no duplicates
        probe = TelemetryProbe(order)
        assert list(build(probe).iter_join()) == rows
        assert_counter_chain(probe, len(rows))

    def test_fold(self, cls, backend, scenario):
        query, _filters, expected, order, build = self._setup(
            cls, backend, scenario
        )
        executor = build()
        shallow, deep = order[0], order[-1]
        for spec in (
            Count(),  # leaf counting, or pruning where the shape allows
            Sum(deep),  # reads the deepest level: a full walk
            Sum(shallow),
            grouped((shallow,), {"n": "count"}),
            grouped((deep,), {"n": "count", "s": ("sum", shallow)}),
        ):
            folded = executor.fold(Folder(spec, order)).result()
            assert folded == fold_rows(expected, spec, query.attributes)

    def test_sample(self, cls, backend, scenario):
        query, filters, expected, _order, _build = self._setup(
            cls, backend, scenario
        )
        kind = backend if isinstance(backend, str) else None
        sampler = JoinSampler(query, backend=kind, filters=filters)
        for k in (3, len(expected) + 5):
            sample = sampler.sample(k, random.Random(k))
            assert_valid_sample(sample, expected, k)
            assert sampler.sample(k, random.Random(k)) == sample

    def test_abandoned_stream_leaves_executor_rerunnable(
        self, cls, backend, scenario
    ):
        _query, _filters, expected, _order, build = self._setup(
            cls, backend, scenario
        )
        executor = build()
        stream = executor.iter_join()
        for _ in range(min(2, len(expected))):
            next(stream)
        stream.close()
        assert sorted(executor.iter_join()) == expected


class TestSamplerFallback:
    def test_stalled_trials_enumerate_exactly(self):
        # AGM >> |J|: every trial rejects, so sample() is the walk.
        query = instances.triangle_hard_instance(40)
        assert JoinSampler(query).sample(5, random.Random(1)) == []
        rng = random.Random(2)
        sparse = JoinQuery(
            [
                Relation("R", ("A", "B"), _rows(rng, 2, 40, 40)),
                Relation("S", ("B", "C"), _rows(rng, 2, 40, 40)),
                Relation("T", ("A", "C"), _rows(rng, 2, 40, 40)),
            ]
        )
        rows = oracle_join(sparse)
        sample = JoinSampler(sparse).sample(len(rows) + 1, random.Random(3))
        assert sorted(sample) == sorted(rows)


class TestGoldenCounters:
    """The parent commit's per-level counters on one fixed instance per
    strategy: the kernel does the same work the six loops did."""

    @pytest.fixture(scope="class")
    def trap(self):
        return generators.zipf_trap_triangle(
            120, 500, seed=7, match_fraction=0.05, decoy_domain=8
        )

    @pytest.mark.parametrize(
        "cls, backend, candidates, filtered_candidates",
        [
            (GenericJoin, "trie", [8, 334, 1042], [8, 42, 514]),
            (GenericJoin, "sorted", [8, 334, 1042], [8, 42, 514]),
            (GenericJoin, "compact", [8, 334, 1042], [8, 42, 514]),
            (LeapfrogTriejoin, "sorted", [8, 331, 446], [8, 14, 278]),
            (LeapfrogTriejoin, "compact", [8, 331, 446], [8, 14, 278]),
        ],
    )
    def test_counters(
        self, trap, cls, backend, candidates, filtered_candidates
    ):
        probe = TelemetryProbe(("B", "C", "A"))
        rows = list(
            cls(
                trap,
                attribute_order=probe.order,
                backend=backend,
                telemetry=probe,
            ).iter_join()
        )
        assert len(rows) == 446
        assert probe.partials == [1, 8, 331]
        assert probe.candidates == candidates
        assert probe.matches == [8, 331, 446]

        probe = TelemetryProbe(("B", "A", "C"))
        rows = list(
            cls(
                trap,
                attribute_order=probe.order,
                backend=backend,
                filters={"B": lambda v: v != 0},
                telemetry=probe,
            ).iter_join()
        )
        assert len(rows) == 278
        assert probe.partials == [1, 7, 14]
        assert probe.candidates == filtered_candidates
        assert probe.matches == [7, 14, 278]


def _candidates_over_agm(cls, query, order):
    _cover, agm = best_agm_bound(query.hypergraph, query.sizes())
    probe = TelemetryProbe(order)
    for _row in cls(query, attribute_order=order, telemetry=probe).iter_join():
        pass
    return sum(probe.candidates) / agm


@pytest.mark.parametrize("cls", [GenericJoin, LeapfrogTriejoin])
class TestWorkWithinAGM:
    """The paper's guarantee as an invariant: the values the kernel
    enumerates, summed over levels, never exceed the AGM bound on the
    paper's own worst cases (measured: <= 0.18 on Example 2.2, <= 0.78
    on the Lemma 6.1 family), under any attribute order."""

    @pytest.mark.parametrize("n", [200, 400, 800])
    def test_example_2_2(self, cls, n):
        query = instances.triangle_hard_instance(n)
        for order in itertools.permutations(query.attributes):
            assert _candidates_over_agm(cls, query, order) <= 1.0

    @pytest.mark.parametrize("n, size", [(3, 27), (3, 64), (4, 81)])
    def test_lw_hard(self, cls, n, size):
        query = instances.lw_hard_instance(n, size)
        for order in itertools.permutations(query.attributes):
            assert _candidates_over_agm(cls, query, order) <= 1.0


@pytest.mark.parametrize("n", [200, 400, 800])
def test_every_pairwise_plan_is_quadratic_on_example_2_2(n):
    # The separation the bound is about: the same instances force
    # N^2/4 intermediate tuples on every left-deep hash-join order.
    query = instances.triangle_hard_instance(n)
    for relation_order in itertools.permutations(query.edge_ids):
        _result, stats = chain_hash_join(query, relation_order)
        assert stats.max_intermediate >= n * n / 4
