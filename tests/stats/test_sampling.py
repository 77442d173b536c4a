"""Sampling: process-stable samples and conditional selectivities."""

import random

from repro.relations.relation import Relation
from repro.stats.sampling import (
    conditional_selectivity,
    projection_values,
    sample_rows,
)
from repro.workloads import generators


def big_relation(seed=0):
    return generators.random_relation(
        "R", ("A", "B"), 500, 100, random.Random(seed)
    )


class TestSampleRows:
    def test_same_seed_same_sample(self):
        rel = big_relation()
        assert sample_rows(rel, 32, 0) == sample_rows(rel, 32, 0)

    def test_different_seed_different_sample(self):
        rel = big_relation()
        assert sample_rows(rel, 32, 0) != sample_rows(rel, 32, 1)

    def test_sample_is_subset(self):
        rel = big_relation()
        assert set(sample_rows(rel, 32, 0)) <= rel.tuples

    def test_k_at_least_size_returns_all(self):
        rel = Relation("R", ("A",), [(1,), (2,), (3,)])
        assert set(sample_rows(rel, 10, 0)) == rel.tuples

    def test_k_zero_is_empty(self):
        assert sample_rows(big_relation(), 0, 0) == ()

    def test_string_values_ok(self):
        rel = Relation("R", ("A",), [(f"v{i}",) for i in range(50)])
        first = sample_rows(rel, 8, 5)
        assert first == sample_rows(rel, 8, 5)
        assert all(isinstance(row[0], str) for row in first)


    def test_mixed_type_column_falls_back_to_repr_order(self):
        # 1 < "x" raises, so the rows cannot be sorted by value.
        rel = Relation(
            "R", ("A", "B"), [(i, i if i % 2 else f"s{i}") for i in range(40)]
        )
        first = sample_rows(rel, 8, 3)
        assert first == sample_rows(rel, 8, 3)
        assert len(set(first)) == 8 and set(first) <= rel.tuples

    def test_independent_of_construction_order(self):
        # Set iteration order depends on insertion history; the sample
        # must depend on the rows alone.
        rows = [(i * 7919 % 1000, i) for i in range(300)]
        forward = Relation("R", ("A", "B"), rows)
        backward = Relation("R", ("A", "B"), reversed(rows))
        assert sample_rows(forward, 32, 1) == sample_rows(backward, 32, 1)

    def test_uniform_over_rows(self):
        # Deterministic chi-squared (fixed relation, consecutive seeds,
        # pinned 0.9999 critical value — the idiom of
        # tests/aggregate/test_sample_uniformity.py): every row must be
        # equally likely to land in a k-sample.
        rel = Relation("R", ("A", "B"), [(i % 6, i) for i in range(30)])
        k, seeds, cells = 5, 1200, len(rel)
        counts: dict = {}
        for seed in range(seeds):
            for row in sample_rows(rel, k, seed):
                counts[row] = counts.get(row, 0) + 1
        expected = seeds * k / cells
        chi_squared = sum(
            (counts.get(row, 0) - expected) ** 2 / expected
            for row in rel.tuples
        )
        df = cells - 1
        critical = df * (
            1.0 - 2.0 / (9.0 * df) + 3.72 * (2.0 / (9.0 * df)) ** 0.5
        ) ** 3
        assert chi_squared < critical


class TestProjection:
    def test_projection_values(self):
        rel = Relation("R", ("A", "B"), [(1, 2), (1, 3), (4, 2)])
        assert projection_values(rel, ("A",)) == {(1,), (4,)}
        assert projection_values(rel, ("B", "A")) == {
            (2, 1), (3, 1), (2, 4)
        }

    def test_projection_onto_no_attributes(self):
        rel = Relation("R", ("A", "B"), [(1, 2), (1, 3)])
        assert projection_values(rel, ()) == {()}


class TestConditionalSelectivity:
    def rel(self, name, attrs, rows):
        return Relation(name, attrs, rows)

    def test_full_overlap_is_one(self):
        source = self.rel("R", ("A", "B"), [(i, 0) for i in range(20)])
        target = self.rel("T", ("A", "C"), [(i, 1) for i in range(20)])
        sel = conditional_selectivity(
            source,
            ("A",),
            sample_rows(source, 20, 0),
            projection_values(target, ("A",)),
        )
        assert sel == 1.0

    def test_no_overlap_is_zero(self):
        source = self.rel("R", ("A", "B"), [(i, 0) for i in range(20)])
        target = self.rel("T", ("A", "C"), [(i + 100, 1) for i in range(20)])
        sel = conditional_selectivity(
            source,
            ("A",),
            sample_rows(source, 20, 0),
            projection_values(target, ("A",)),
        )
        assert sel == 0.0

    def test_partial_overlap_exact_on_full_sample(self):
        # 5 of 20 source A-values appear in the target.
        source = self.rel("R", ("A", "B"), [(i, 0) for i in range(20)])
        target = self.rel("T", ("A", "C"), [(i, 1) for i in range(5)])
        sel = conditional_selectivity(
            source,
            ("A",),
            sample_rows(source, 20, 0),
            projection_values(target, ("A",)),
        )
        assert sel == 0.25

    def test_empty_source_reports_zero(self):
        source = self.rel("R", ("A",), [])
        target = self.rel("T", ("A",), [(1,)])
        sel = conditional_selectivity(
            source, ("A",), (), projection_values(target, ("A",))
        )
        assert sel == 0.0

    def test_subsampled_estimate_near_truth(self):
        # 10% of source values match; a 128-row sample should land near.
        source = self.rel("R", ("A", "B"), [(i, 0) for i in range(1000)])
        target = self.rel("T", ("A", "C"), [(i, 1) for i in range(100)])
        sel = conditional_selectivity(
            source,
            ("A",),
            sample_rows(source, 128, 0),
            projection_values(target, ("A",)),
        )
        assert 0.02 <= sel <= 0.25
