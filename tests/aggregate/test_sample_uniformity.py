"""Statistical and property tests for uniform join sampling.

The chi-squared tests are *deterministic*: a fixed corpus, a fixed set
of seeds (``sample(1, seed=i)`` for consecutive ``i``), and a pinned
critical value — the same draws happen on every run, so the suite
cannot flake.  The critical value is the 0.9999 quantile of the
chi-squared distribution with ``|J| - 1`` degrees of freedom
(Wilson-Hilferty), far above anything a uniform sampler produces on
these seeds; a biased sampler (e.g. one that forgot the Hölder slack
rejection, making heavy values proportionally likelier) overshoots it
by an order of magnitude.

The Hypothesis properties check the exact guarantees on random small
instances: samples are distinct, drawn from the true result set, of
size exactly ``min(k, |J|)``, and deterministic for a fixed seed.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.aggregate.sampling import JoinSampler, reservoir_sample
from repro.core.query import JoinQuery
from repro.errors import QueryError
from repro.query.builder import Q
from repro.relations.relation import Relation
from tests.helpers import assert_valid_sample

ALGORITHMS = ("nprr", "lw", "generic", "leapfrog", "arity2")
BACKENDS = ("trie", "sorted", "compact")


def _chi_squared_critical(df: int, z: float = 3.72) -> float:
    """Wilson-Hilferty upper quantile of chi2(df); z=3.72 ~ p=0.9999."""
    term = 1.0 - 2.0 / (9.0 * df) + z * (2.0 / (9.0 * df)) ** 0.5
    return df * term**3


def _corpus():
    """A fixed skewed triangle: small enough for thousands of draws,
    skewed enough that a proportional (non-uniform) sampler fails."""
    rng = random.Random(43)
    # One hub value (0) appears in many rows: the AGM-weighted descent
    # assigns the hub's subtree far more mass than the others, so a
    # sampler that picks children proportional to *mass* without the
    # rejection step oversamples hub rows drastically.
    def skewed(n):
        rows = {(0, rng.randrange(4)) for _ in range(n // 2)}
        rows |= {
            (rng.randrange(1, 5), rng.randrange(4)) for _ in range(n // 2)
        }
        return sorted(rows)

    return (
        Relation("R", ("A", "B"), skewed(24)),
        Relation("S", ("B", "C"), skewed(24)),
        Relation("T", ("A", "C"), skewed(24)),
    )


def _chi_squared(counts: dict, draws: int, cells: int) -> float:
    expected = draws / cells
    observed = sum(
        (count - expected) ** 2 / expected for count in counts.values()
    )
    return observed + expected * (cells - len(counts))  # never-drawn rows


def _uniformity(draw_one, rows, draws):
    """Chi-squared statistic of ``draws`` single-row samples."""
    counts: dict = {}
    for i in range(draws):
        (row,) = draw_one(i)
        counts[row] = counts.get(row, 0) + 1
    assert set(counts) <= set(rows)
    return _chi_squared(counts, draws, len(rows))


@pytest.mark.parametrize("backend", BACKENDS)
def test_sampler_uniformity_per_backend(backend):
    relations = _corpus()
    query = JoinQuery(list(relations))
    rows = list(Q(*relations).stream())
    sampler = JoinSampler(query, backend=backend)
    draws = 30 * len(rows)
    stat = _uniformity(
        lambda i: sampler.sample(1, random.Random(i)), rows, draws
    )
    assert stat < _chi_squared_critical(len(rows) - 1), (
        f"backend {backend}: chi2 {stat:.1f} over {len(rows) - 1} df"
    )


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_sampler_uniformity_per_algorithm(algorithm):
    relations = _corpus()
    builder = Q(*relations).using(algorithm=algorithm)
    rows = list(builder.stream())
    draws = 25 * len(rows)
    stat = _uniformity(
        lambda i: builder.sample(1, seed=i), rows, draws
    )
    assert stat < _chi_squared_critical(len(rows) - 1), (
        f"algorithm {algorithm}: chi2 {stat:.1f} over {len(rows) - 1} df"
    )


def test_sampler_uniformity_with_filters():
    relations = _corpus()
    builder = Q(*relations).where_in("C", (0, 1, 2))
    rows = list(builder.stream())
    assert rows, "filtered corpus must stay non-empty"
    draws = 30 * len(rows)
    stat = _uniformity(
        lambda i: builder.sample(1, seed=i), rows, draws
    )
    assert stat < _chi_squared_critical(len(rows) - 1), (
        f"filtered: chi2 {stat:.1f} over {len(rows) - 1} df"
    )


def test_sample_without_replacement_is_distinct_and_complete():
    relations = _corpus()
    builder = Q(*relations)
    rows = list(builder.stream())
    for k in (1, 3, len(rows), len(rows) + 10):
        assert_valid_sample(builder.sample(k, seed=5), rows, k)


def test_sample_empty_join_returns_empty():
    r = Relation("R", ("A", "B"), [(1, 2)])
    s = Relation("S", ("B", "C"), [(3, 4)])
    builder = Q(r, s)
    assert builder.sample(10, seed=1) == []
    assert builder.sample(0, seed=1) == []


def test_sample_rejects_bad_sizes():
    r = Relation("R", ("A", "B"), [(1, 2)])
    with pytest.raises(QueryError):
        Q(r).sample(-1)
    with pytest.raises(QueryError):
        Q(r).sample(True)
    with pytest.raises(QueryError):
        Q(r).sample(2.0)


def test_stall_fallback_on_sparse_join():
    # AGM >> |J|: nearly every trial rejects, so the sampler falls back
    # to exact enumeration — and must still return a valid sample.
    r = Relation(
        "R", ("A", "B"), [(i, i % 2) for i in range(60)]
    )
    s = Relation(
        "S", ("B", "C"), [(i % 2 + 2, i) for i in range(60)] + [(0, 99)]
    )
    builder = Q(r, s)
    rows = list(builder.stream())
    assert 0 < len(rows) < 60
    sample = builder.sample(5, seed=2)
    assert_valid_sample(sample, rows, 5)


@st.composite
def _small_instance(draw):
    domain = draw(st.integers(min_value=1, max_value=4))
    values = st.integers(min_value=0, max_value=domain)
    pairs = st.lists(
        st.tuples(values, values), min_size=0, max_size=12, unique=True
    )
    return (
        Relation("R", ("A", "B"), draw(pairs)),
        Relation("S", ("B", "C"), draw(pairs)),
        Relation("T", ("A", "C"), draw(pairs)),
    )


@settings(max_examples=40, deadline=None, derandomize=True)
@given(instance=_small_instance(), k=st.integers(0, 15), seed=st.integers(0, 9))
def test_sample_properties_hold_on_random_instances(instance, k, seed):
    builder = Q(*instance)
    rows = list(builder.stream())
    sample = builder.sample(k, seed=seed)
    assert_valid_sample(sample, rows, k)
    assert builder.sample(k, seed=seed) == sample  # seed-deterministic


def test_reservoir_sample_is_uniform_and_deterministic():
    rows = [(i,) for i in range(10)]
    assert reservoir_sample(rows, 0, seed=1) == []
    assert reservoir_sample(rows, 20, seed=1) == rows
    first = reservoir_sample(rows, 3, seed=7)
    assert first == reservoir_sample(rows, 3, seed=7)
    assert len(first) == 3 and set(first) <= set(rows)
    # Uniformity: every row appears ~equally often across seeds.
    counts: dict = {}
    draws = 3000
    for i in range(draws):
        for row in reservoir_sample(rows, 3, seed=i):
            counts[row] = counts.get(row, 0) + 1
    expected = draws * 3 / len(rows)
    stat = sum((c - expected) ** 2 / expected for c in counts.values())
    assert stat < _chi_squared_critical(len(rows) - 1)


def test_projected_sample_uses_reservoir_over_distinct_rows():
    relations = _corpus()
    builder = Q(*relations).select("A")
    projected = list(builder.stream())
    sample = builder.sample(3, seed=4)
    assert_valid_sample(sample, projected, 3)
