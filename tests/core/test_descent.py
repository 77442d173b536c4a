"""The descent kernel under every sink, against the backtracking oracle.

One compiled loop nest (:func:`repro.core.descent.iter_rows` /
:func:`~repro.core.descent.iter_texts` / :func:`~repro.core.descent.fold`)
serves Generic Join's enumeration, observed enumeration, the server's
row texts, aggregate folds and the sampler's count; Leapfrog Triejoin
enumerates by its own recursion and folds through the nest.  These tests
hold every (algorithm, backend) pairing to ``tests.helpers.oracle_join``
through each sink, pin the per-level counters of one fixed instance per
algorithm, and read the paper's claim
— work within a constant of the AGM bound, where every pairwise plan is
quadratic — off the kernel's own counters on the paper's hard instances.
"""

from __future__ import annotations

import copy
import functools
import gc
import inspect
import io
import itertools
import json
import keyword
import linecache
import math
import random
import re
import sys
import tokenize
import traceback
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.aggregate import sampling
from repro.aggregate.fold import Folder, _prune_depth, fold_rows
from repro.aggregate.sampling import JoinSampler
from repro.aggregate.specs import (
    Avg,
    Count,
    CountDistinct,
    Max,
    Min,
    Sum,
    grouped,
)
from repro import Database, Q, execute
from repro.baselines.hash_join import chain_hash_join
from repro.core import descent
from repro.core.descent import (
    bind,
    hash_levels,
    iter_rows,
    iter_texts,
    narrow,
)
from repro.core.generic_join import GenericJoin
from repro.core.leapfrog import LeapfrogTriejoin
from repro.core.query import JoinQuery
from repro.observe.telemetry import TelemetryProbe
from repro.hypergraph import agm
from repro.hypergraph.agm import best_agm_bound
from repro.hypergraph.hypergraph import Hypergraph
from repro.query.prepared import _json_memos
from repro.server import service
from repro.server.protocol import encode
from repro.relations.relation import Relation
from repro.relations.trie import TrieIndex
from repro.workloads import generators, instances, queries
from tests.helpers import (
    assert_counter_chain,
    assert_valid_sample,
    oracle_join,
)

#: (executor class, backend) — every layout each algorithm runs over.
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
#: The backends of ``CONFIGS``' Generic Join rows.
GENERIC_BACKENDS = [
    pytest.param(config.values[1], id=config.id) for config in CONFIGS[:4]
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


@pytest.mark.parametrize("scenario", SCENARIOS)
@pytest.mark.parametrize("backend", GENERIC_BACKENDS)
def test_text(backend, scenario):
    # The text sink is Generic Join's nest: a leapfrog run's rows are
    # encoded as tuples (tests/query/test_prepared.py::TestRowTexts).
    query, kept = SCENARIOS[scenario]
    filters = {a: values.__contains__ for a, values in kept.items()}
    executor = GenericJoin(
        query,
        attribute_order=tuple(reversed(query.attributes)),
        backend=backend,
        filters=filters,
    )
    rows = list(executor.iter_join())
    assert row_texts(executor) == [json_row(row) for row in rows]


def row_texts(executor, perm=None):
    """The executor's rows through the text sink, with the server's JSON
    memos: fresh ones, so every value's text is made on the spot."""
    binding = executor._binding
    perm = binding.output_perm if perm is None else perm
    return list(iter_texts(binding, perm, _json_memos(len(perm))))


def json_row(row):
    """A row as ``protocol.encode`` writes it inside a line."""
    return json.dumps(row, separators=(",", ":"))


class TestSamplerOnSparseJoins:
    def test_sparse_joins_sample_exactly(self):
        # AGM >> |J|: the exact draw is indifferent to the bound.
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


class TestExactSampler:
    """One draw path: a count, then distinct ranks unranked — never an
    enumeration of the result, never a cover LP."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = Counter()
        for module, name in ((descent, "iter_rows"), (agm, "best_agm_bound")):
            def counted(*args, _name=name, _original=getattr(module, name)):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(module, name, counted)
            monkeypatch.setattr(sampling, name, counted, raising=False)
        return calls

    def test_a_sample_neither_enumerates_nor_solves_a_cover(self, calls):
        query = instances.triangle_hard_instance(200)
        assert JoinSampler(query).sample(5, random.Random(1)) == []
        rng = random.Random(2)
        sparse = JoinQuery(
            [
                Relation(name, attrs, _rows(rng, 2, 40, 40))
                for name, attrs in (
                    ("R", ("A", "B")), ("S", ("B", "C")), ("T", ("A", "C"))
                )
            ]
        )
        rows = oracle_join(sparse)
        sample = JoinSampler(sparse).sample(len(rows) + 1, random.Random(3))
        assert sorted(sample) == sorted(rows)
        assert calls == {}

    @pytest.mark.parametrize("k", [1, 3, 50])
    def test_edge_cases_return_a_valid_sample(self, k):
        rng = random.Random(5)
        r = Relation("R", ("A", "B"), _rows(rng, 2, 30, 6))
        u = Relation("U", ("B",), _rows(rng, 1, 4, 6))
        (a, b), *_ = sorted(r.tuples)
        for builder, rows in (
            (Q(r).where(A=a, B=b), [(a, b)]),  # every attribute bound
            (Q(u), oracle_join(JoinQuery([u]))),  # one one-attribute relation
            (Q(r, u), oracle_join(JoinQuery([r, u]))),
            (Q(r, Relation("S", ("B", "C"), [])), []),  # an empty relation
        ):
            sample = builder.sample(k, seed=k)
            assert_valid_sample(sample, rows, k)
            assert builder.sample(k, seed=k) == sample


class TestGoldenCounters:
    """The parent commit's per-level counters on one fixed instance per
    algorithm: the kernel does the same work the six loops did."""

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


#: The index layouts each executor is checked over beyond triangles.
WITHIN_AGM_BACKENDS = {
    GenericJoin: ("trie", "compact"),
    LeapfrogTriejoin: ("sorted",),
}


def _even(value) -> bool:
    return value % 2 == 0


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

    @pytest.mark.parametrize(
        "shape",
        [queries.cycle_query(4), queries.clique_query(4), queries.cycle_query(5)],
        ids=["cycle4", "clique4", "cycle5"],
    )
    def test_every_level_beyond_triangles(self, cls, shape):
        """Per level, not summed: on random 4-cycles, 4-cliques and
        5-cycles no level enumerates more values than the AGM bound
        under any order, filtered on the order's second attribute or
        not (18,144 runs over six seeds peaked at 0.83x), while the
        sum over levels reaches 1.37x."""
        for seed, size, domain in ((0, 30, 5), (1, 20, 4)):
            query = generators.random_instance(shape, size, domain, seed=seed)
            _cover, bound = best_agm_bound(query.hypergraph, query.sizes())
            for order in itertools.permutations(query.attributes):
                for filters in (None, {order[1]: _even}):
                    for backend in WITHIN_AGM_BACKENDS[cls]:
                        probe = TelemetryProbe(order)
                        executor = cls(
                            query,
                            attribute_order=order,
                            backend=backend,
                            filters=filters,
                            telemetry=probe,
                        )
                        for _row in executor.iter_join():
                            pass
                        assert max(probe.candidates) <= bound, (
                            order, filters, backend, probe.candidates
                        )

    @pytest.mark.parametrize(
        "shape",
        [queries.cycle_query(4), queries.clique_query(4), queries.cycle_query(5)],
        ids=["cycle4", "clique4", "cycle5"],
    )
    def test_sectioning_keeps_the_bound(self, cls, shape):
        """Remark 5.2's sectioning, end to end: ``where(A1=v)`` joins the
        residual query of ``A1``'s sections.  For every value of ``A1``
        and every order of the residual, run by ``explain(analyze=True)``,
        no level enumerates more values than the residual's AGM bound,
        and that bound is at most the original's (324 runs per executor
        peak at exactly 1.0x the residual's bound, 0.27x the
        original's)."""
        algorithm = "generic" if cls is GenericJoin else "leapfrog"
        for seed, size, domain in ((0, 30, 5), (1, 20, 4)):
            query = generators.random_instance(shape, size, domain, seed=seed)
            _cover, bound = best_agm_bound(query.hypergraph, query.sizes())
            for value in range(domain):
                builder = Q(query).where(A1=value).using(algorithm=algorithm)
                plan = builder.plan()
                residual_bound = plan.estimated_bound
                assert residual_bound <= bound
                for order in itertools.permutations(plan.attribute_order):
                    analysis = builder.using(
                        attribute_order=("A1",) + order
                    ).explain(analyze=True)
                    assert analysis.plan.attribute_order == order
                    candidates = [level.candidates for level in analysis.levels]
                    assert max(candidates) <= residual_bound, (
                        value, order, candidates, residual_bound
                    )


@pytest.mark.parametrize("n", [200, 400, 800])
def test_every_pairwise_plan_is_quadratic_on_example_2_2(n):
    # The separation the bound is about: the same instances force
    # N^2/4 intermediate tuples on every left-deep hash-join order.
    query = instances.triangle_hard_instance(n)
    for relation_order in itertools.permutations(query.edge_ids):
        _result, stats = chain_hash_join(query, relation_order)
        assert stats.max_intermediate >= n * n / 4


# ---------------------------------------------------------------------------
# The per-value kernel this one replaced, kept as the reference
# ---------------------------------------------------------------------------


def assert_draws_are_ranked_rows(binding, k, seed):
    """``JoinSampler.over(binding)`` draws exactly the rows the rows nest
    yields at the ranks ``Random(seed)`` draws: the unrank sink walks
    the same nest, in the same order."""
    rows = list(iter_rows(binding))
    ranks = random.Random(seed).sample(range(len(rows)), min(k, len(rows)))
    drawn = JoinSampler.over(binding).sample(k, random.Random(seed))
    assert drawn == [rows[rank] for rank in ranks]


#: The shapes a draw is checked on: cyclic, cyclic without a triangle,
#: acyclic.
RANKED_SHAPES = {
    "triangle": queries.triangle(),
    "4-cycle": queries.cycle_query(4),
    "chain": queries.path_query(4),
}


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("filtered", [False, True], ids=["all", "where_in"])
@pytest.mark.parametrize("shape", RANKED_SHAPES)
@pytest.mark.parametrize(
    "cls, backend",
    [
        pytest.param(GenericJoin, "trie", id="generic-trie"),
        pytest.param(GenericJoin, "compact", id="generic-compact"),
        pytest.param(LeapfrogTriejoin, "sorted", id="leapfrog-sorted"),
    ],
)
def test_a_sample_is_the_nests_rows_at_the_drawn_ranks(
    cls, backend, shape, filtered, seed
):
    rng = random.Random(seed)
    hypergraph = RANKED_SHAPES[shape]
    relations = {
        eid: Relation(
            eid,
            attributes := tuple(a for a in hypergraph.vertices if a in members),
            _rows(rng, len(attributes), 40, 5),
        )
        for eid, members in hypergraph.edges.items()
    }
    query = JoinQuery.from_hypergraph(hypergraph, relations)
    order = tuple(rng.sample(query.attributes, len(query.attributes)))
    kept = frozenset({0, 2, 3}).__contains__
    executor = cls(
        query,
        attribute_order=order,
        backend=backend,
        filters={order[1]: kept} if filtered else None,
    )
    binding = executor._binding
    assert sorted(iter_rows(binding)) == sorted(executor.iter_join())
    for k in (1, 5, 60, 10_000):
        assert_draws_are_ranked_rows(binding, k, seed=10 * seed + k)


class PerValueLevel:
    """The level loop the batch intersection replaced: iterate the
    smallest node's ``items()``, call ``child`` once per candidate per
    other participant, filter *before* probing."""

    def __init__(self, indexes, participants, keep, depth):
        self.keep = keep
        self.depth = depth
        self._operands = [
            (i, indexes[i].fanout_hint, indexes[i].items)
            for i in participants
        ]
        self._others = {
            i: [(j, indexes[j].child) for j in participants if j != i]
            for i in participants
        }

    def _open(self, nodes):
        best = least = None
        for operand in self._operands:
            size = operand[1](nodes[operand[0]])
            if best is None or size < least:
                best = operand
                least = size
        smallest = best[0]
        return smallest, best[2](nodes[smallest]), self._others[smallest]

    def expand(self, nodes, candidates):
        smallest, items, others = self._open(nodes)
        for value, child in items:
            if candidates is not None:
                candidates[self.depth] += 1
            if self.keep is not None and not self.keep(value):
                continue
            advanced = list(nodes)
            for i, probe in others:
                advanced[i] = probe(nodes[i], value)
                if advanced[i] is None:
                    break
            else:
                advanced[smallest] = child
                yield value, advanced


def per_value_levels(binding):
    return [
        PerValueLevel(binding.indexes, ids, keep, depth)
        for depth, (ids, keep) in enumerate(
            zip(binding.participants, binding.filters)
        )
    ]


def per_value_walk(levels, root, stop, probe=None):
    """The walk that handed up one ``(prefix, state)`` per *row*: every
    level, the deepest included, is a stack entry stepped per value."""
    prefix = [None] * stop
    if stop == 0:
        yield prefix, root
        return
    stack = [levels[0].expand(root, probe and probe.candidates)]
    if probe:
        probe.partials[0] += 1
    while stack:
        for value, state in stack[-1]:
            break
        else:
            stack.pop()
            continue
        depth = len(stack) - 1
        if probe:
            probe.matches[depth] += 1
        prefix[depth] = value
        if depth == stop - 1:
            yield prefix, state
            continue
        if probe:
            probe.partials[depth + 1] += 1
        stack.append(
            levels[depth + 1].expand(state, probe and probe.candidates)
        )


def per_value_rows(binding, probe=None):
    """The ``iter_join`` body both executors carried."""
    perm = binding.output_perm
    for prefix, _nodes in per_value_walk(
        per_value_levels(binding), binding.roots(), len(perm), probe
    ):
        yield tuple(prefix[i] for i in perm)


def per_value_fold(binding, folder):
    """``fold_executor`` before leaf batches: prune where the shape
    allows, else one ``add`` per row."""
    spec, positions = folder.spec, folder.positions
    total = len(folder.order)
    prune = _prune_depth(
        binding.participants, binding.filters, folder.cutoff, total
    )
    # One unfiltered participant per pruned level: the distinct
    # completions of each multiply.
    tally = Counter(
        binding.participants[depth][0] for depth in range(prune, total)
    )
    for prefix, nodes in per_value_walk(
        per_value_levels(binding), binding.roots(), prune
    ):
        multiplicity = 1
        for position, remaining in tally.items():
            multiplicity *= binding.indexes[position].count(
                nodes[position], remaining
            )
        if multiplicity:
            folder.state = spec.add(
                folder.state, tuple(prefix[p] for p in positions), multiplicity
            )
    return folder


# ---------------------------------------------------------------------------
# (a) The batch kernel against the reference and against brute force
# ---------------------------------------------------------------------------

UNIVERSE = ("A", "B", "C", "D")
DOMAIN = 4
BACKENDS = ["trie", "sorted", "compact", {"R0": "sorted", "R1": "compact"}]


@st.composite
def bound_queries(draw):
    """A random query, attribute order, backend choice, residual filter
    and shard key — bound twice: as the executors see it, and under the
    key."""
    schemas = draw(
        st.lists(
            st.lists(
                st.sampled_from(UNIVERSE), min_size=1, max_size=3, unique=True
            ),
            min_size=1,
            max_size=4,
        )
    )
    relations = [
        Relation(
            f"R{n}",
            tuple(schema),
            draw(
                st.frozensets(
                    st.tuples(
                        *[st.integers(0, DOMAIN - 1) for _ in schema]
                    ),
                    max_size=14,
                )
            ),
        )
        for n, schema in enumerate(schemas)
    ]
    query = JoinQuery(relations)
    order = tuple(draw(st.permutations(query.attributes)))
    backend = draw(st.sampled_from(BACKENDS))
    subsets = st.frozensets(st.integers(0, DOMAIN - 1))
    kept = draw(
        st.dictionaries(st.sampled_from(query.attributes), subsets, max_size=2)
    )
    key = tuple(
        draw(
            st.dictionaries(
                st.sampled_from(query.attributes), subsets, max_size=2
            )
        ).items()
    )
    filters = {a: values.__contains__ for a, values in kept.items()}
    binding = bind(query, order, backend, None, filters)
    return query, kept, key, binding, narrow(binding, key)


def brute_force_level(query, binding, depth, prefix, allowed):
    """The values of ``order[depth]`` that extend ``prefix`` in every
    relation holding the attribute and lie in ``allowed`` — read off the
    raw tuples."""
    order = binding.order
    bound = dict(zip(order[:depth], prefix))
    attribute = order[depth]
    survivors = None
    for relation in query.relations.values():
        if attribute not in relation.attribute_set:
            continue
        at = relation.attributes.index(attribute)
        values = {
            row[at]
            for row in relation.tuples
            if all(
                bound.get(a, value) == value
                for a, value in zip(relation.attributes, row)
            )
        }
        survivors = values if survivors is None else survivors & values
    return {v for v in survivors if allowed is None or v in allowed}


@settings(max_examples=120, deadline=None)
@given(bound_queries(), st.randoms(use_true_random=False))
def test_survivors_equal_the_brute_force_intersection(bound, rng):
    query, kept, key, plain, keyed = bound
    for binding, links in ((plain, ()), (keyed, key)):
        levels = hash_levels(binding)
        depth = rng.randrange(len(levels))
        if levels[depth].how != "opened":  # read in line by the nest alone
            assert not hasattr(levels[depth], "survivors")
            continue
        allowed = None
        for attribute, values in [*kept.items(), *links]:
            if attribute == binding.order[depth]:
                allowed = values if allowed is None else allowed & values
        for prefix, nodes in per_value_walk(
            per_value_levels(binding), binding.roots(), depth
        ):
            probe = TelemetryProbe(binding.order)
            # Taken first: ``survivors`` opens array nodes in place.
            before = {i: nodes[i] for i in binding.participants[depth]}
            fanouts = [
                binding.indexes[i].fanout(node) for i, node in before.items()
            ]
            survivors = levels[depth].survivors(nodes, probe.candidates)
            assert len(survivors) == len(set(survivors))
            assert set(survivors) == brute_force_level(
                query, binding, depth, prefix[:depth], allowed
            )
            # The level's candidates are its smallest participant.
            assert probe.candidates[depth] == min(fanouts)
            # Where the survivors lead: the step down on every backend.
            for i, node in before.items():
                child = binding.indexes[i].child
                assert all(nodes[i][v] == child(node, v) for v in survivors)


@settings(max_examples=120, deadline=None)
@given(bound_queries())
def test_rows_counters_and_folds_equal_the_per_value_kernel(bound):
    query, _kept, _key, plain, keyed = bound
    for binding in (plain, keyed):
        expected, got = TelemetryProbe(binding.order), TelemetryProbe(
            binding.order
        )
        reference = Counter(per_value_rows(binding, expected))
        rows = Counter(iter_rows(binding, got))
        assert rows == reference
        assert max(rows.values(), default=1) == 1
        assert got.partials == expected.partials
        assert got.candidates == expected.candidates
        assert got.matches == expected.matches
        assert_counter_chain(got, sum(rows.values()))
        executor = GenericJoin.__new__(GenericJoin)
        executor.order, executor._binding = binding.order, binding
        shallow, deep = binding.order[0], binding.order[-1]
        for spec in (
            Count(),
            Sum(deep),
            Sum(shallow),
            grouped((deep,), {"n": "count", "s": ("sum", shallow)}),
        ):
            folded = executor.fold(Folder(spec, binding.order)).result()
            assert folded == per_value_fold(
                binding, Folder(spec, binding.order)
            ).result()
            assert folded == fold_rows(reference, spec, query.attributes)


# ---------------------------------------------------------------------------
# (b) The min-bound, as a count
# ---------------------------------------------------------------------------


class Counted:
    """A value that counts the ``__hash__`` and ``__eq__`` calls made on
    any instance — the work a hash intersection does."""

    calls = 0

    def __init__(self, value):
        self.value = value

    def __hash__(self):
        Counted.calls += 1
        return hash(self.value)

    def __eq__(self, other):
        Counted.calls += 1
        return self.value == other.value


class CountingSeq:
    """``bench_compact.py``'s storage proxy: counts ``__getitem__``."""

    def __init__(self, seq, counter):
        self._seq, self._counter = seq, counter

    def __getitem__(self, position):
        self._counter[0] += 1
        return self._seq[position]

    def __len__(self):
        return len(self._seq)

    def __iter__(self):
        return iter(self._seq)


def _small_beside_big(names, big, wrap=lambda value: value):
    """Unary relations over ``A``: ``S`` holds 3 values, every other
    name ``big`` values that include them."""
    return JoinQuery(
        [
            Relation(
                name,
                ("A",),
                [(wrap(v),) for v in ((7, 70, 700) if name == "S" else range(big))],
            )
            for name in names
        ]
    )


@pytest.mark.parametrize(
    "names", [("S", "B"), ("B", "S"), ("S", "B", "C"), ("B", "C", "S")],
    ids="".join,
)
def test_hash_intersection_costs_the_smallest_participant(names):
    # Two hash nodes are met in line by the nest, three by ``survivors``.
    query = _small_beside_big(names, 50_000, Counted)
    binding = bind(query, None, "trie", None, None)
    Counted.calls = 0
    survivors = [v for (v,) in iter_rows(binding)]
    calls = Counted.calls
    assert sorted(v.value for v in survivors) == [7, 70, 700]
    # A few hashes and comparisons per value of the *small* side per
    # other participant — nothing proportional to 50,000.
    assert calls <= 5 * 3 * (len(names) - 1)


@pytest.mark.parametrize("names", [("S", "B"), ("B", "S")], ids="".join)
def test_a_two_way_level_costs_its_smaller_node_in_every_sink(names):
    # The nest loops over the smaller node and probes the other in
    # line: rows, texts, a fold that loops the level and one that counts
    # it (one C-level meet) all hash and compare a few times per value
    # of the small side, wherever it stands.
    query = _small_beside_big(names, 50_000, Counted)
    binding = bind(query, None, "trie", None, None)
    small = {v.value: v for (v,) in query.relation("S").tuples}
    texts = {v: str(value) for value, v in small.items()}

    def collect(state, values, _multiplicity):
        return state + [values[0].value]

    runs = {
        "rows": lambda: [v.value for (v,) in iter_rows(binding)],
        "texts": lambda: [
            int(text) for text in iter_texts(binding, (0,), ({}, {}, texts))
        ],
        "fold": lambda: descent.fold(binding, 1, (0,), collect, []),
        "count": lambda: [descent.fold(
            binding, 1, (), lambda state, _values, n: state + n, 0
        )],
    }
    for sink, run in runs.items():
        Counted.calls = 0
        found = run()
        assert Counted.calls <= 5 * 3, sink
        assert sorted(found) == ([3] if sink == "count" else sorted(small))


@pytest.mark.parametrize("other", [1.0, True], ids=["float", "bool"])
def test_a_size_tie_yields_the_first_participants_values(other):
    # ``1 == 1.0 == True``: a two-way level of equal sizes loops over
    # its first participant's node, so the rows carry the very objects
    # that node holds.
    for first, second in ((1, other), (other, 1)):
        query = JoinQuery(
            [Relation(name, ("A",), [(value,)])
             for name, value in (("R", first), ("S", second))]
        )
        binding = bind(query, None, "trie", None, None)
        expected = list(binding.roots()[0])
        rows = list(iter_rows(binding))
        assert [type(v) for (v,) in rows] == [type(first)]
        assert all(v is w for (v,), w in zip(rows, expected, strict=True))
        folded = descent.fold(
            binding, 1, (0,), lambda state, values, n: state + list(values), []
        )
        assert all(v is w for v, w in zip(folded, expected, strict=True))


@pytest.mark.parametrize("backend", ["sorted", "compact"])
@pytest.mark.parametrize("names", [("S", "B"), ("B", "S"), ("B", "C", "S")],
                         ids="".join)
def test_array_intersection_never_enumerates_the_probed_side(names, backend):
    accesses = {}
    for big in (1_000, 50_000):
        binding = bind(
            _small_beside_big(names, big), None, backend, None, None
        )
        (level,) = hash_levels(binding)
        level.survivors(binding.roots(), None)  # lazily built tallies
        counter = [0]
        for index in binding.indexes:
            if backend == "sorted":
                index.rows = CountingSeq(index.rows, counter)
            else:
                index._levels = tuple(
                    CountingSeq(run, counter) for run in index._levels
                )
        assert sorted(level.survivors(binding.roots(), None)) == [7, 70, 700]
        accesses[big] = counter[0]
        # Three seeks per probed participant, a log factor each.
        assert counter[0] <= 3 * (len(names) - 1) * 3 * math.log2(big) + 12
    # Fifty times the probed side: a log factor more, not fifty times.
    assert accesses[50_000] <= 2 * accesses[1_000]


# ---------------------------------------------------------------------------
# (c) The mechanism: no Python call per candidate, one hop per row
# ---------------------------------------------------------------------------


def profiled_calls(run, resumed=None):
    """``(python calls, generator resumptions)`` while ``run()`` runs;
    a ``resumed`` counter is filled per generator name.  The garbage
    collector is paused meanwhile: a collection's callbacks are Python
    calls too, and would land among the counted ones at random."""
    tally = Counter()

    def profiler(frame, event, _arg):
        if event == "call":
            tally["calls"] += 1
            if frame.f_code.co_flags & inspect.CO_GENERATOR:
                tally["resumptions"] += 1
                if resumed is not None:
                    resumed[frame.f_code.co_name] += 1

    collecting = gc.isenabled()
    gc.disable()
    sys.setprofile(profiler)
    try:
        run()
    finally:
        sys.setprofile(None)
        if collecting:
            gc.enable()
    return tally["calls"], tally["resumptions"]


def test_a_trie_leaf_intersection_makes_no_call_per_candidate():
    calls = {}
    for small in (10, 10_000):
        query = JoinQuery(
            [
                Relation("R", ("A",), [(v,) for v in range(small)]),
                Relation("S", ("A",), [(v,) for v in range(0, 40_000, 2)]),
            ]
        )
        binding = bind(query, None, "trie", None, None)
        list(iter_rows(binding, TelemetryProbe(binding.order)))  # compiled
        probe = TelemetryProbe(binding.order)
        rows = []
        made, resumed = profiled_calls(
            lambda: rows.extend(iter_rows(binding, probe))
        )
        assert probe.candidates == [small]
        # The nest is resumed once per row and once to finish; beyond
        # that, making the levels, looking the shape up and starting
        # the nest.
        assert resumed == len(rows) + 1 == small // 2 + 1
        calls[small] = made - resumed
    assert calls[10] == calls[10_000] <= 16


def test_a_trie_search_node_makes_no_python_call():
    # Example 2.2: three hundred search nodes at n = 200 and no rows,
    # so everything the run costs is per node.  Each loops over the
    # smaller of two dicts read where they stand and probes the other
    # in line, in the one generator that is the binding's loop nest —
    # no call, no stack, no state list, no second generator.
    query = instances.triangle_hard_instance(200)
    binding = bind(query, None, "trie", None, None)
    probe = TelemetryProbe(binding.order)
    assert not list(iter_rows(binding, probe))
    nodes = sum(probe.partials)
    assert nodes == 302
    list(iter_rows(binding))  # compiled once
    # What the nest is handed: its levels and the roots.
    handed, _ = profiled_calls(lambda: (hash_levels(binding), binding.roots()))
    resumed = Counter()
    calls, _resumptions = profiled_calls(
        lambda: list(iter_rows(binding)), resumed
    )
    # Beyond what is handed, whatever the number of nodes: looking the
    # shape up and starting the nest.
    assert calls <= handed + 8
    assert resumed == {"nest0": 1}
    # With rows: the nest is resumed once per row and once to finish.
    binding = bind(_triangle(), None, "trie", None, None)
    resumed.clear()
    rows = []
    profiled_calls(lambda: rows.extend(iter_rows(binding)), resumed)
    assert len(rows) > 50
    assert resumed == {"nest0": len(rows) + 1}


@pytest.mark.parametrize(
    "cls, backend, hops",
    [
        (GenericJoin, "trie", 1),
        # Leapfrog's recursion is a generator per open level: a row
        # climbs all three, and its key leaves ``_leapfrog`` first.
        (LeapfrogTriejoin, "sorted", 4),
    ],
)
def test_a_row_is_one_generator_hop(cls, backend, hops):
    # Complete on 4 x 4 x 30 values: 30 rows under each of 16 parents.
    query = JoinQuery(
        [
            Relation(name, attrs, itertools.product(range(m), range(n)))
            for name, attrs, m, n in (
                ("R", ("A", "B"), 4, 4),
                ("S", ("B", "C"), 4, 30),
                ("T", ("A", "C"), 4, 30),
            )
        ]
    )
    order = ("A", "B", "C")
    probe = TelemetryProbe(order)
    executor = cls(
        query, attribute_order=order, backend=backend, telemetry=probe
    )
    rows = []
    _calls, resumptions = profiled_calls(
        lambda: rows.extend(executor.iter_join())
    )
    assert len(rows) == 480 and probe.partials == [1, 4, 16]
    # The sink resumes once per row, the walk once per leaf batch, an
    # interior level once per survivor: parents + rows, where the
    # per-value kernel handed every row up through the walk, the
    # executor's ``iter_join`` and its row-building generator expression.
    assert resumptions <= hops * (len(rows) + 3 * sum(probe.partials)) + 3
    if cls is GenericJoin:
        _calls, reference = profiled_calls(
            lambda: list(per_value_rows(executor._binding))
        )
        assert reference >= 3 * len(rows)


def calls_to(run, *functions):
    """How many times each of ``functions`` is called while ``run()``
    runs, in order."""
    tally = Counter()

    def profiler(frame, event, _arg):
        if event == "call":
            tally[frame.f_code] += 1

    sys.setprofile(profiler)
    try:
        run()
    finally:
        sys.setprofile(None)
    return [tally[function.__code__] for function in functions]


def test_a_fold_adds_once_per_cutoff_prefix_and_counts_in_line():
    # ``graph_chain``'s shape: a chain of four binary relations, its last
    # level one relation's — the frontier, a ``len`` of a trie node.
    query = _deep_path(4, seed=2)
    rows = oracle_join(query)
    order = query.attributes
    completed = {row[0] for row in rows}
    assert rows and completed < {row[0] for row in query.relation("R1").tuples}
    executor = GenericJoin(query, attribute_order=order)
    for spec, adds in ((Count(), 1), (Sum(order[0]), len(completed))):
        folder = Folder(spec, order)
        assert calls_to(
            lambda: executor.fold(folder), type(spec).add, TrieIndex.count
        ) == [adds, 0]
        assert folder.result() == fold_rows(rows, spec, order)
    # A regular chain memoises below a mid-chain cutoff, at the cutoff
    # depth itself for the third attribute's groups: still one ``add``
    # per cutoff prefix that completes.
    query = _regular(queries.path_query(5), nodes=30, degree=2)
    rows = oracle_join(query)
    order = query.attributes
    executor = GenericJoin(query, attribute_order=order)
    for spec in (
        grouped((order[0],), {"n": "count"}),
        grouped((order[2],), {"n": "count"}),
        Sum(order[2]),
    ):
        cutoff = 1 + max(order.index(a) for a in spec.needs)
        assert memo_depths(query, order, cutoff)
        folder = Folder(spec, order)
        assert calls_to(
            lambda: executor.fold(folder), type(spec).add, TrieIndex.count
        ) == [len({row[:cutoff] for row in rows}), 0]
        assert folder.result() == fold_rows(rows, spec, order)


def _regular(hypergraph, nodes, degree, seed=1):
    """``hypergraph`` over binary relations, each the union of
    ``degree`` seeded random perfect matchings on ``[0, nodes)``: every
    fan-out is ``degree``.  On a path it is ``benchmarks/e2e``'s
    ``regular_chain``."""
    rng = random.Random(seed)
    relations = {}
    for eid, members in hypergraph.edges.items():
        rows = set()
        for _ in range(degree):
            targets = list(range(nodes))
            rng.shuffle(targets)
            rows.update(enumerate(targets))
        attributes = tuple(a for a in hypergraph.vertices if a in members)
        relations[eid] = Relation(eid, attributes, rows)
    return JoinQuery.from_hypergraph(hypergraph, relations)


def memo_depths(query, order, cutoff=0):
    """``{depth: key}`` of the memos a fold with ``cutoff`` over
    ``order`` compiles, by the rule itself on the shape ``fold`` hands
    it: the levels above the prune frontier, the relations below it."""
    participants = bind(query, order, "trie", None, None).participants
    stop = _prune_depth(participants, [None] * len(order), cutoff, len(order))
    kinds = tuple((ids, "meet") for ids in participants[:stop])
    tail = tuple((i, 1, True) for i in {i for (i,) in participants[stop:]})
    return dict(descent._memo_keys(kinds, tail, cutoff, stop))


#: A tree of binary relations branching at ``B`` into the paths
#: ``B-C-D`` and ``B-E-F-G``; ``A`` … ``G`` is a join-tree order.
BRANCHING = Hypergraph(
    "ABCDEFG",
    {"R": "AB", "S": "BC", "T": "CD", "U": "BE", "W": "EF", "X": "FG"},
)


def _walks(path):
    """The rows of a path of binary relations ``R1(A1,A2) ⋈ R2(A2,A3)
    ⋈ …``: its walks, counted edge by edge."""
    first, *rest = path.edge_ids
    ends = Counter(b for _a, b in path.relation(first).tuples)
    for eid in rest:
        before, ends = ends, Counter()
        for a, b in path.relation(eid).tuples:
            ends[b] += before[a]
    return sum(ends.values())


def _enumerated(query):
    return sum(1 for _row in GenericJoin(query).iter_join())


@pytest.mark.parametrize(
    "shape, rows",
    [
        (lambda: _regular(queries.path_query(6), nodes=200, degree=3), _walks),
        (lambda: _regular(queries.path_query(8), nodes=200, degree=3), _walks),
        (lambda: _regular(BRANCHING, nodes=200, degree=3), _enumerated),
        (lambda: _deep_path(23), _walks),
        (lambda: _regular(queries.path_query(23), nodes=30, degree=6), _walks),
    ],
    ids=["chain-6", "chain-8", "branching", "deep-path-23", "deep-chain-23"],
)
def test_a_count_searches_each_memo_key_once(shape, rows, monkeypatch):
    """On an acyclic query under a join-tree order a ``count()`` visits
    at most one search node per input tuple plus one per level: each
    subtree is searched once per value its remaining relations read,
    however many prefixes reach it.  Unmemoised, a regular chain of six
    edges visits 6.6 nodes per tuple, of eight 44.  Past the block cut a
    chained ``def`` shares its caller's memos: on the dense 23-edge
    chain, memos remade per call take 5,035 nodes."""
    query = shape()
    order = query.attributes
    executor = GenericJoin(query, attribute_order=order)
    folder = Folder(Count(), order)
    nodes = fold_search_nodes(monkeypatch, lambda: executor.fold(folder))
    tuples = sum(len(relation) for relation in query.relations.values())
    assert nodes <= tuples + len(order)
    assert folder.result() == rows(query)


def fold_search_nodes(monkeypatch, run):
    """How many search nodes the folds ``run()`` makes visit: each fold
    nest is compiled probed — the same loops, with the counter lines —
    and counts its nodes in ``partials``."""
    compile_shape = descent._compile.__wrapped__
    probes = []

    def probed(sink, width, _probed, kinds):
        nest = compile_shape(sink, width, True, kinds)
        probes.append(probe := TelemetryProbe(range(len(kinds))))
        return lambda levels, _none, *rest: nest(levels, probe, *rest)

    monkeypatch.setattr(descent, "_compile", probed)
    run()
    return sum(sum(probe.partials) for probe in probes)


def test_the_memo_rule_keys_a_subtree_by_what_it_still_reads():
    # ``graph_chain``'s shape: the frontier reads A5 below A4; the level
    # of A3 reads A2's value and that of A4 A3's.
    path = _deep_path(4)
    assert memo_depths(path, path.attributes) == {2: (1,), 3: (2,)}
    # The frontier's relations read on: ``T(A,D)``, counted at the
    # frontier, keys the level of F by A as well as by C.
    fork = Hypergraph(
        "ABCFGD", {"R": "AB", "S": "BC", "W": "CF", "X": "FG", "T": "AD"}
    )
    fork = generators.random_instance(fork, size=12, domain=3, seed=4)
    order = tuple("ABCFGD")
    assert memo_depths(fork, order) == {3: (0, 2)}
    for backend in ("trie", "compact"):
        executor = GenericJoin(fork, attribute_order=order, backend=backend)
        counted = executor.fold(Folder(Count(), order)).result()
        assert counted == len(oracle_join(fork)) > 0
    # Reading every value, or reading the one the frontier does, leaves
    # nothing to memoise below the cutoff.
    assert memo_depths(path, path.attributes, cutoff=5) == {}
    assert memo_depths(path, path.attributes, cutoff=4) == {}
    # Every relation of a cyclic shape reads on to its last level, under
    # any order: no key is shorter than its prefix.
    for query in (
        generators.random_instance(queries.triangle(), 20, 5),
        _lifted_triangle(20, seed=1),
        instances.triangle_hard_instance(8),
        generators.random_instance(queries.lw_query(4), 20, 4),
    ):
        for order in itertools.permutations(query.attributes):
            for cutoff in range(len(order) + 1):
                assert memo_depths(query, order, cutoff) == {}, order


def test_an_empty_memo_key_counts_a_disconnected_component_once():
    """``R2(D)`` shares nothing with the rest: below its value the count
    is the same for every ``D``, keyed by the empty tuple."""
    query = JoinQuery(
        [
            Relation("R0", ("A",), [(0,), (1,), (2,)]),
            Relation(
                "R1", ("A", "B", "C"), [(0, 0, 0), (1, 0, 1), (2, 1, 0), (3, 1, 1)]
            ),
            Relation("R2", ("D",), [(5,), (6,), (7,)]),
        ]
    )
    order = ("D", "B", "C", "A")
    assert memo_depths(query, order) == {1: (), 2: (1,)}
    executor = GenericJoin(query, attribute_order=order)
    assert executor.fold(Folder(Count(), order)).result() == len(
        oracle_join(query)
    ) == 9
    assert any("acc = memo1.get(())" in source for source in nest_sources())


class RecordingSpec:
    """A spec that records every ``add`` its fold hands it."""

    def __init__(self, spec):
        self.spec, self.needs, self.adds = spec, spec.needs, []

    def start(self):
        return self.spec.start()

    def add(self, state, values, multiplicity):
        self.adds.append((values, multiplicity))
        return self.spec.add(state, values, multiplicity)

    def finish(self, state):
        return self.spec.finish(state)


def _dead_end_chain(completing):
    """``R(A,B) ⋈ S(B,C) ⋈ T(C,D)``: every ``A`` reaches three ``B``s
    and every ``B`` three ``C``s, but only the ``A`` values in
    ``completing`` reach a ``C`` that ``T`` holds."""
    r = [(a, 3 * (a in completing) + b) for a in range(4) for b in range(3)]
    s = [(b, 10 * b + c) for b in range(6) for c in range(3)]
    t = [(c, d) for c in (30, 41) for d in range(2)]
    return JoinQuery(
        [
            Relation("R", ("A", "B"), r),
            Relation("S", ("B", "C"), s),
            Relation("T", ("C", "D"), t),
        ]
    )


@pytest.mark.parametrize("cls, backend", CONFIGS[:3] + CONFIGS[4:])
@pytest.mark.parametrize(
    "query",
    [
        instances.triangle_hard_instance(200),
        _dead_end_chain(completing=()),
        _dead_end_chain(completing=(1, 2)),
    ],
    ids=["example-2-2", "dead-ends", "half-dead-ends"],
)
def test_a_prefix_without_completions_never_reaches_add(cls, backend, query):
    rows = oracle_join(query)
    order = query.attributes
    first = order[0]
    executor = cls(query, attribute_order=order, backend=backend)
    for spec, empty in (
        (Min(first), None),
        (Max(first), None),
        (Avg(first), None),
        (CountDistinct(first), 0),
        (grouped((first,), {"n": "count"}), {}),
    ):
        recording = RecordingSpec(spec)
        result = executor.fold(Folder(recording, order)).result()
        assert result == fold_rows(rows, spec, order)
        assert all(multiplicity > 0 for _values, multiplicity in recording.adds)
        if not rows:
            assert result == empty and recording.adds == []
    if rows:  # one add per first value that completes, none for the rest
        assert {values for values, _m in recording.adds} == {(1,), (2,)}


# ---------------------------------------------------------------------------
# (d) Streaming kept
# ---------------------------------------------------------------------------


def _lifted_triangle(size, seed):
    """``benchmarks/e2e``'s ``lifted_triangle`` shape, small."""
    rng = random.Random(seed)
    domains = {"A": 6, "B": 7, "C": 8, "D": 3}
    return JoinQuery(
        [
            Relation(
                name,
                attrs,
                {
                    tuple(rng.randrange(domains[a]) for a in attrs)
                    for _ in range(size)
                },
            )
            for name, attrs in (
                ("R", ("A", "B", "D")),
                ("S", ("B", "C", "D")),
                ("T", ("A", "C", "D")),
            )
        ]
    )


@pytest.mark.parametrize("cls, backend", CONFIGS)
def test_first_row_needs_one_leaf_batch(cls, backend):
    query = _lifted_triangle(150, seed=5)
    order = ("D", "A", "B", "C")
    probe = TelemetryProbe(order)
    stream = cls(
        query, attribute_order=order, backend=backend, telemetry=probe
    ).iter_join()
    assert next(stream) in set(oracle_join(query))
    # A row is counted when it is yielded — one so far — and it came
    # after a small share of the run's intersections.
    assert probe.matches[-1] == 1
    full = TelemetryProbe(order)
    for _row in cls(
        query, attribute_order=order, backend=backend, telemetry=full
    ).iter_join():
        pass
    assert sum(probe.candidates) * 10 < sum(full.candidates)
    stream.close()
    assert_counter_chain(probe, 1)


class LoggedCursor:
    """A leapfrog cursor that logs the depth, in the attribute order, of
    the level it is ``up()``-ed from; ``depths`` are its relation's."""

    def __init__(self, cursor, depths, closed):
        self._cursor, self._depths, self._closed = cursor, depths, closed

    def __getattr__(self, name):
        return getattr(self._cursor, name)

    def up(self):
        self._closed.append(self._depths[self._cursor.depth - 1])
        self._cursor.up()


class LoggedIndex:
    """An index whose fresh cursors are :class:`LoggedCursor` s, each
    kept in ``cursors``."""

    def __init__(self, index, depths, closed):
        self._index, self._depths, self._closed = index, depths, closed
        self.cursors = []

    def __getattr__(self, name):
        return getattr(self._index, name)

    def cursor(self):
        cursor = LoggedCursor(self._index.cursor(), self._depths, self._closed)
        self.cursors.append(cursor)
        return cursor


def _logged(raising_at=None):
    """``(stream, indexes, closed, participants)``: Leapfrog Triejoin's
    rows over logged cursors of the small lifted triangle; ``raising_at``
    puts a predicate that raises on its third value at that depth, and
    ``closed`` then holds only the ``up()`` s the failure makes."""
    query = _lifted_triangle(150, seed=5)
    order = ("D", "A", "B", "C")
    closed = []
    seen = []

    def third_value_raises(value):
        seen.append(value)
        if len(seen) == 3:
            del closed[:]
            raise ZeroDivisionError("the predicate")
        return True

    filters = None
    if raising_at is not None:
        filters = {order[raising_at]: third_value_raises}
    executor = LeapfrogTriejoin(query, attribute_order=order, filters=filters)
    binding = executor._binding
    indexes = tuple(
        LoggedIndex(
            index,
            [d for d, ids in enumerate(binding.participants) if i in ids],
            closed,
        )
        for i, index in enumerate(binding.indexes)
    )
    executor._binding = binding._replace(indexes=indexes)
    return executor.iter_join(), indexes, closed, binding.participants


def _assert_closed_deepest_first(indexes, closed, participants, depths):
    # Every open level's cursors went up, the deepest level first, and
    # every cursor is back at the root: one cursor per relation per run.
    assert closed == sorted(closed, reverse=True)
    assert Counter(closed) == {d: len(participants[d]) for d in depths}
    assert [len(index.cursors) for index in indexes] == [1, 1, 1]
    assert all(index.cursors[0].depth == 0 for index in indexes)


@pytest.mark.parametrize("taken", [1, 3, 57])
def test_an_abandoned_stream_closes_every_open_level(taken):
    stream, indexes, closed, participants = _logged()
    for _ in range(taken):
        next(stream)
    # At a row every level is open: each relation's three attributes.
    assert [index.cursors[0].depth for index in indexes] == [3, 3, 3]
    del closed[:]
    stream.close()
    _assert_closed_deepest_first(indexes, closed, participants, range(4))


def test_a_raising_predicate_closes_every_open_level():
    stream, indexes, closed, participants = _logged(raising_at=2)
    with pytest.raises(ZeroDivisionError):
        for _row in stream:
            pass
    _assert_closed_deepest_first(indexes, closed, participants, range(3))


@pytest.mark.parametrize("cls, backend", CONFIGS)
@pytest.mark.parametrize("taken", [1, 2, 57])
def test_abandoned_streams_keep_the_counter_chain(cls, backend, taken):
    # ``tests/observe/test_telemetry.py::test_abandoned_mid_stream``,
    # over every layout: a leaf batch cut short gives back what it did
    # not deliver.
    query = _lifted_triangle(150, seed=5)
    order = ("D", "A", "B", "C")
    probe = TelemetryProbe(order)
    stream = cls(
        query, attribute_order=order, backend=backend, telemetry=probe
    ).iter_join()
    for _ in range(taken):
        next(stream)
    stream.close()
    assert_counter_chain(probe, taken)


# ---------------------------------------------------------------------------
# (e) The walk owns its state; mixed levels
# ---------------------------------------------------------------------------

KINDS = ("trie", "sorted", "compact")


def _rows_and_counters(query, order, backend):
    binding = bind(query, order, backend, None, None)
    probe = TelemetryProbe(binding.order)
    rows = Counter(iter_rows(binding, probe))
    return rows, probe.partials, probe.candidates, probe.matches


@pytest.mark.parametrize(
    "backend",
    ["sorted", "compact", {"R": "sorted", "S": "trie", "T": "compact"}],
    ids=["sorted", "compact", "mixed"],
)
def test_the_walk_never_writes_into_the_root_it_was_handed(backend):
    # Every walk of a binding starts at its indexes' roots; an array
    # node opened in place there would break the next use.
    binding = bind(_triangle(), None, backend, None, None)
    handed = binding.roots()
    first = Counter(iter_rows(binding))
    assert binding.roots() == handed
    assert Counter(iter_rows(binding)) == first
    assert binding.roots() == handed
    assert first == Counter(oracle_join(_triangle()))


@pytest.mark.parametrize("backend", ["trie", "sorted"])
def test_interleaved_walks_share_one_binding(backend):
    # What thread shards do: one binding's indexes, many walks.
    binding = bind(_lifted_triangle(150, seed=5), None, backend, None, None)
    serial = sorted(iter_rows(binding))
    one = iter_rows(binding)
    two = iter_rows(binding)
    rows = [[], []]
    for pair in itertools.zip_longest(one, two):
        for mine, row in zip(rows, pair):
            mine.append(row)
    assert sorted(rows[0]) == sorted(rows[1]) == serial


@pytest.mark.parametrize("kinds", itertools.product(KINDS, repeat=3), ids="-".join)
def test_every_pair_of_kinds_meets_at_a_two_participant_level(kinds):
    # A: R, T; B: R, S; C: S, T — all 27 assignments put every ordered
    # pair of kinds on one level, the deepest (a leaf batch) included.
    query, order = _triangle(), ("A", "B", "C")
    assert _rows_and_counters(
        query, order, dict(zip("RST", kinds))
    ) == _rows_and_counters(query, order, "trie")


@pytest.mark.parametrize("kinds", itertools.permutations(KINDS), ids="-".join)
def test_three_kinds_meet_at_a_three_participant_level(kinds):
    query = _lifted_triangle(150, seed=5)
    order = ("D", "A", "B", "C")  # D: R, S and T
    assert _rows_and_counters(
        query, order, dict(zip("RST", kinds))
    ) == _rows_and_counters(query, order, "trie")


# ---------------------------------------------------------------------------
# (f) The nest: compiled once per shape, cut at the block limit, built
#     from invented names only
# ---------------------------------------------------------------------------

#: What a nest's text may contain besides keywords, integers and
#: punctuation: the compiler's own names and the builtins it calls.
INVENTED = re.compile(
    r"nest\d+|op\d+|keep\d+|vals\d+|big\d+|v\d+|[no]\d+_\d+|st|levels"
    r"|probe|partials|candidates|matches|keys|__contains__|keep|survivors"
    r"|acc|tally\d+|tab\d+|count_table|id|indexes|add|state|counts|count"
    r"|memo\d+|outer\d+|get"
    r"|skips?|next"
    r"|head|mid|tail|pre|post"
    r"|len|min|filter|list|None"
)


def nest_sources():
    """The source of every live nest, read back through ``linecache``
    under its ``<repro descent N>`` filename."""
    gc.collect()  # an evicted nest takes its source with it
    sources = []
    for filename in list(linecache.cache):
        if filename.startswith("<repro descent "):
            assert re.fullmatch(r"<repro descent \d+>", filename)
            lines = linecache.getlines(filename)
            assert lines[0].startswith("def nest0(levels, probe, ")
            sources.append("".join(lines))
    return sources


def assert_nests_are_legible(*hostile):
    """Every compiled nest is keywords, invented names, integers and
    punctuation — no string literal, and none of ``hostile``."""
    sources = nest_sources()
    assert sources
    for source in sources:
        for token in tokenize.generate_tokens(io.StringIO(source).readline):
            if token.type == tokenize.NAME:
                assert keyword.iskeyword(token.string) or INVENTED.fullmatch(
                    token.string
                ), token
            elif token.type == tokenize.NUMBER:
                assert token.string.isdigit(), token
            else:
                assert token.type != tokenize.STRING, token
        assert not any(text in source for text in hostile)


@pytest.fixture
def compiles(monkeypatch):
    """An empty shape table of the real size; the shapes compiled
    since, in order."""
    compiled = []
    compile_shape = descent._compile.__wrapped__

    def counting(*shape):
        compiled.append(shape)
        return compile_shape(*shape)

    assert descent._compile.cache_info().maxsize == descent._NESTS_MAX
    # Typed, as ``_compile``'s: a sink's type is part of its shape.
    table = functools.lru_cache(maxsize=descent._NESTS_MAX, typed=True)(counting)
    monkeypatch.setattr(descent, "_compile", table)
    return compiled


def _deep_path(edges, seed=0):
    """A path query of ``edges + 1`` attributes over five-tuple
    relations: deeper than CPython's twenty nested blocks."""
    rng = random.Random(seed)
    hypergraph = queries.path_query(edges)
    relations = {
        eid: Relation(
            eid,
            tuple(a for a in hypergraph.vertices if a in members),
            {(rng.randrange(4), rng.randrange(4)) for _ in range(5)},
        )
        for eid, members in hypergraph.edges.items()
    }
    return JoinQuery.from_hypergraph(hypergraph, relations)


@pytest.mark.parametrize(
    "cls, backend, edges",
    [
        (GenericJoin, "trie", 23),
        (GenericJoin, "trie", 20),
        (GenericJoin, "compact", 23),
        (GenericJoin, "compact", 20),
        (LeapfrogTriejoin, "sorted", 23),
        (LeapfrogTriejoin, "sorted", 20),
        (LeapfrogTriejoin, "compact", 23),
    ],
)
def test_a_nest_deeper_than_the_block_limit_is_cut_not_refused(
    cls, backend, edges, compiles
):
    query = _deep_path(edges)
    expected = sorted(oracle_join(query))
    assert len(expected) > 50
    order = query.attributes
    probe = TelemetryProbe(order)
    executor = cls(query, backend=backend, telemetry=probe)
    assert sorted(executor.iter_join()) == expected
    assert_counter_chain(probe, len(expected))
    # Counting prunes the single-participant last level; a fold that
    # reads the deepest attribute walks every level as leaf batches.
    assert executor.fold(Folder(Count(), order)).result() == len(expected)
    by_deepest = grouped((order[-1],), {"n": "count"})
    assert executor.fold(Folder(by_deepest, order)).result() == fold_rows(
        expected, by_deepest, order
    )
    # A shard key on an attribute below the cut, narrowed on a copy of
    # the executor as ``ShardRunner`` does it.
    position = len(order) - 2
    keyed = copy.copy(executor)
    keyed._binding = narrow(
        executor._binding, ((order[position], frozenset({0, 2})),)
    )
    assert sorted(keyed.iter_join()) == [
        row for row in expected if row[position] in (0, 2)
    ]
    # Abandoned below the cut: the chain holds, the executor reruns.
    probe.reset()
    stream = executor.iter_join()
    for _ in range(3):
        next(stream)
    stream.close()
    assert_counter_chain(probe, 3)
    assert sorted(executor.iter_join()) == expected
    # A draw unranks through a nest cut the same way.
    assert_draws_are_ranked_rows(executor._binding, 40, seed=edges)
    (unranks,) = [s for s in compiles if isinstance(s[0], descent.Unrank)]
    nest = descent._compile(*unranks)  # the table's, compiled once
    text = "".join(linecache.getlines(nest.__code__.co_filename))
    assert "skip = yield from nest1(" in text and "def nest1(" in text
    # The nests were cut — the rows nest (Generic Join's: Leapfrog
    # enumerates by recursion) and the fold reading the deepest level —
    # and no ``def`` nests more than twenty blocks.
    rows_nest = cls is GenericJoin
    sources = nest_sources()
    assert len(sources) >= len(compiles) >= 2 + rows_nest
    cut = sum(source.count("def nest") >= 2 for source in sources)
    assert cut >= 1 + rows_nest
    for source in sources:
        for chunk in source.split("def nest")[1:]:
            blocks = re.findall(r"^ *for\b", chunk, re.MULTILINE)
            assert len(blocks) <= 20
    assert_nests_are_legible()


@pytest.mark.parametrize(
    "backend, edges",
    [
        ("trie", 23),
        # Twenty ``for``s: the leaf's ``if vals19:`` is the 21st block.
        ("trie", 19),
        ("compact", 23),
        ("sorted", 23),
        ("compact", 19),
    ],
)
def test_a_deep_text_nest_is_cut_and_writes_every_row(backend, edges, compiles):
    query = _deep_path(edges)
    executor = GenericJoin(query, backend=backend)
    rows = list(executor.iter_join())
    assert sorted(rows) == sorted(oracle_join(query)) and len(rows) > 50
    assert row_texts(executor) == [json_row(row) for row in rows]
    (shape,) = [s for s in compiles if isinstance(s[0], descent.Text)]
    nest = descent._compile(*shape)  # the table's, compiled once
    text = "".join(linecache.getlines(nest.__code__.co_filename))
    assert text.count("def nest") >= 2 and "if vals" in text
    for chunk in text.split("def nest")[1:]:
        blocks = re.findall(r"^ *(?:for|if)\b.*:$", chunk, re.MULTILINE)
        assert len(blocks) <= 20
    assert_nests_are_legible()


HOSTILE = (
    'a"b',
    "c'd",
    "e\nf",
    "g\\h",
    "{}",
    "{0}{levels}",
    "__import__('os').system('x')",
)


def _hostile_triangle():
    """A triangle whose relation names, attribute names and values are
    all drawn from :data:`HOSTILE`."""
    a, b, c = HOSTILE[0], HOSTILE[2], HOSTILE[6]
    rng = random.Random(3)
    return JoinQuery(
        [
            Relation(
                name,
                attrs,
                {(rng.choice(HOSTILE), rng.choice(HOSTILE)) for _ in range(30)},
            )
            for name, attrs in (
                (HOSTILE[1], (a, b)),
                (HOSTILE[3], (b, c)),
                (HOSTILE[4], (a, c)),
            )
        ]
    )


@pytest.mark.parametrize("cls, backend", CONFIGS[:1] + CONFIGS[2:3] + CONFIGS[5:])
def test_hostile_names_and_values_never_reach_the_source(
    cls, backend, compiles
):
    query = _hostile_triangle()
    expected = sorted(oracle_join(query))
    assert len(expected) > 20
    order = query.attributes
    kept = frozenset(HOSTILE[1:])
    filters = {order[1]: kept.__contains__}
    filtered = [row for row in expected if row[1] in kept]
    for keep, rows in ((None, expected), (filters, filtered)):
        probe = TelemetryProbe(order)
        executor = cls(query, backend=backend, filters=keep, telemetry=probe)
        assert sorted(executor.iter_join()) == rows  # the rows sink
        assert_counter_chain(probe, len(rows))
        for spec in (  # pruned or not, then counted leaf batches
            Count(),
            grouped((order[0],), {"n": "count"}),
            grouped((order[-1],), {"n": "count"}),
        ):
            folded = executor.fold(Folder(spec, order)).result()
            assert folded == fold_rows(rows, spec, order)
    kind = backend if cls is GenericJoin else None
    sample = JoinSampler(query, backend=kind).sample(1000, random.Random(1))
    assert sorted(sample) == expected  # every rank, unranked
    binding = executor._binding  # filtered: unranked through the nest
    assert_draws_are_ranked_rows(binding, len(filtered), seed=2)
    assert len(compiles) >= 4
    assert_nests_are_legible(*HOSTILE)


@pytest.mark.parametrize("backend", GENERIC_BACKENDS[:3])
def test_hostile_names_and_values_reach_only_the_text_memos(backend, compiles):
    query = _hostile_triangle()
    order = query.attributes
    kept = frozenset(HOSTILE[1:])
    for keep in (None, {order[1]: kept.__contains__}):
        executor = GenericJoin(query, backend=backend, filters=keep)
        rows = list(executor.iter_join())
        assert len(rows) > 10
        assert row_texts(executor) == [json_row(row) for row in rows]
    assert any(isinstance(shape[0], descent.Text) for shape in compiles)
    assert_nests_are_legible(*HOSTILE)


#: ``_lifted_triangle``'s schema is ``(A, B, D, C)``; per order, the
#: perm and where the leaf's column sits in the row.
LIFTED_ORDERS = {
    "leaf-last": (("D", "A", "B", "C"), (1, 2, 0, 3)),  # the e2e's plan
    "leaf-mid": (("D", "A", "C", "B"), (1, 3, 0, 2)),
    "leaf-first": (("B", "D", "C", "A"), (3, 0, 1, 2)),
}


@pytest.mark.parametrize(
    "order, perm", LIFTED_ORDERS.values(), ids=LIFTED_ORDERS
)
@pytest.mark.parametrize("backend", GENERIC_BACKENDS[:3])
def test_a_permuted_row_is_written_in_the_query_schema(backend, order, perm):
    query = _lifted_triangle(150, seed=5)
    executor = GenericJoin(query, attribute_order=order, backend=backend)
    assert executor._binding.output_perm == perm
    rows = list(executor.iter_join())
    assert sorted(rows) == sorted(oracle_join(query)) and len(rows) > 20
    assert row_texts(executor) == [json_row(row) for row in rows]
    # Any other column order: the texts follow the perm they are given.
    swapped = (perm[3], *perm[1:3], perm[0])
    assert row_texts(executor, swapped) == [
        json_row((row[3], *row[1:3], row[0])) for row in rows
    ]
    assert_nests_are_legible()


@pytest.mark.parametrize("backend", ["trie", "sorted", "compact"])
@pytest.mark.parametrize(
    "filters", [None, {"C": lambda value: False}], ids=["ex2.2", "filtered"]
)
def test_an_empty_leaf_set_builds_no_text(backend, filters):
    # Example 2.2: every leaf's parent meets an empty leaf set.  A leaf
    # filter that keeps nothing is empty too, though a ``filter`` object
    # is always true: the text nest lists it before testing it.
    query = _triangle() if filters else instances.triangle_hard_instance(40)
    executor = GenericJoin(query, backend=backend, filters=filters)
    memos = _json_memos(3)
    binding = executor._binding
    assert list(iter_texts(binding, binding.output_perm, memos)) == []
    assert not any(memos)


class Word(str):
    """A ``str`` subclass: a value the memos are not exact for."""


def test_only_exact_ints_and_strs_are_written_as_texts():
    def prepared(value):
        r = Relation("R", ("A", "B"), [(1, 1), (0, "x"), (value, 2)])
        s = Relation("S", ("B", "C"), [(1, 5), (2, 6), ("x", 7)])
        return Q(r, s).using(algorithm="generic", backend="trie").prepare()

    plain = prepared(3)
    assert [json.loads(text) for text in plain._texts()] == [
        list(row) for row in plain.stream()
    ]
    # ``True == 1 == 1.0``: one memo would write each one's text for all.
    for odd in (True, 1.0, None, Word("y")):
        query = prepared(odd)
        assert query._texts() is None
        assert (odd, 2, 6) in set(query.stream())


@pytest.mark.parametrize("request_id", [7, "a\"b", None])
def test_string_lines_are_byte_identical_to_encode(request_id):
    words = ['q"q', "b\\s", "n\nl", "caf\u00e9", "\u65e5\u672c", "\U0001f600",
             "\u2028", "\x00", ""]
    r = Relation("R", ("A", "B"), [(w, i) for i, w in enumerate(words)])
    s = Relation("S", ("B", "C"), list(enumerate(reversed(words))))
    prepared = Q(r, s).prepare()
    texts = prepared._texts()
    assert texts is not None
    lines = list(service._row_lines(texts, True, request_id, 2, 4))
    rows = list(service._row_lines(prepared.stream(), False, request_id, 2, 4))
    assert lines == rows and len(lines) == 3
    batches = [json.loads(line)["rows"] for _count, line in lines]
    assert [len(batch) for batch in batches] == [2, 4, 3]
    assert lines[0][1] == encode(
        {"id": request_id, "rows": [tuple(row) for row in batches[0]]}
    )


@pytest.mark.parametrize("backend", ["trie", "sorted", "compact", "mixed"])
@pytest.mark.parametrize("filtered", [False, True], ids=["all", "where_in"])
def test_a_sample_past_the_result_size_is_the_result(backend, filtered):
    query = _hostile_triangle()
    if backend == "mixed":  # trie and array nodes at one level
        backend = {HOSTILE[1]: "sorted", HOSTILE[3]: "trie", HOSTILE[4]: "compact"}
    kept = frozenset(HOSTILE[1:]) if filtered else frozenset(HOSTILE)
    filters = {query.attributes[1]: kept.__contains__} if filtered else None
    rows = sorted(row for row in oracle_join(query) if row[1] in kept)
    sampler = JoinSampler(query, backend=backend, filters=filters)
    sample = sampler.sample(len(rows) + 1, random.Random(len(rows)))
    assert sorted(sample) == rows and len(rows) > 10


@pytest.mark.parametrize("backend", GENERIC_BACKENDS[:2])
def test_a_raising_predicate_shows_the_loop_line_it_was_called_from(backend):
    def predicate(value):
        raise ZeroDivisionError(value)

    query = _triangle()
    executor = GenericJoin(query, backend=backend, filters={"B": predicate})
    with pytest.raises(ZeroDivisionError) as failure:
        list(executor.iter_join())
    frames = [
        (frame.filename, frame.line)
        for frame in traceback.extract_tb(failure.value.__traceback__)
        if frame.filename.startswith("<repro descent ")
    ]
    # The nest's frame, with the text of the loop that was running.
    assert frames and all(line for _filename, line in frames)
    assert re.match(r"(for v\d+ in vals\d+:|vals\d+ = op\d+\()", frames[-1][1])


def test_a_shape_compiles_once_per_process(compiles):
    rng = random.Random(11)

    def triangle():
        return [
            Relation(name, attrs, _rows(rng, 2, 40, 7))
            for name, attrs in (
                ("R", ("A", "B")),
                ("S", ("B", "C")),
                ("T", ("A", "C")),
            )
        ]

    relations = triangle()
    builder = Q(*relations).on(Database(relations))
    rows = sorted(execute(builder))
    assert rows == sorted(oracle_join(JoinQuery(relations)))
    for _ in range(99):
        list(execute(builder))
    assert len(compiles) == 1 and isinstance(compiles[0][0], tuple)  # rows
    # Fresh relations in a fresh catalog: the same shape, nothing new.
    fresh = triangle()
    list(execute(Q(*fresh).on(Database(fresh))))
    assert len(compiles) == 1
    # ``count()`` folds leaf batches; a shard key filters a level.
    assert execute(builder).count() == len(rows)
    assert len(compiles) <= 2
    assert sorted(execute(builder, shards=3, mode="serial")) == rows
    assert len(compiles) <= 3
    assert_nests_are_legible()


def test_the_shape_table_is_bounded(compiles):
    # A server must not grow without bound on hostile query shapes:
    # ten times the table's constant of distinct shapes (one relation,
    # every output permutation of seven attributes is its own text).
    before = len(nest_sources())  # the nests of the table swapped out
    relation = Relation("R", tuple("ABCDEFG"), [tuple(range(7))])
    binding = bind(JoinQuery([relation]), None, "trie", None, None)
    distinct = 10 * descent._NESTS_MAX
    for perm in itertools.islice(itertools.permutations(range(7)), distinct):
        permuted = binding._replace(output_perm=perm)
        assert list(iter_rows(permuted)) == [perm]
    assert len(compiles) == distinct
    assert descent._compile.cache_info().currsize == descent._NESTS_MAX
    # An evicted nest's source leaves ``linecache`` with it.
    assert len(nest_sources()) - before == descent._NESTS_MAX
