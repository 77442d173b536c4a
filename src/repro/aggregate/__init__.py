"""Aggregation and uniform sampling without enumeration.

The "answers without enumeration" layer: aggregate *specs*
(:mod:`repro.aggregate.specs`) describe what to compute, the *fold*
(:mod:`repro.aggregate.fold`) pushes them into the level loops of the
worst-case optimal search with factorized subtree pruning, and the
*sampler* (:mod:`repro.aggregate.sampling`) draws uniform join rows
exactly: one memoised count, then each drawn rank unranked root to
leaf.  The query layer
(:meth:`repro.query.builder.QueryBuilder.count` and friends) is the
user-facing surface; these modules are the mechanism.
"""

from repro.aggregate.fold import Folder, fold_executor, fold_rows, fold_state
from repro.aggregate.sampling import JoinSampler, reservoir_sample
from repro.aggregate.specs import (
    AggregateSpec,
    Avg,
    Count,
    CountDistinct,
    GroupBy,
    Max,
    Min,
    Sum,
    as_spec,
    grouped,
)

__all__ = [
    "AggregateSpec",
    "Avg",
    "Count",
    "CountDistinct",
    "Folder",
    "GroupBy",
    "JoinSampler",
    "Max",
    "Min",
    "Sum",
    "as_spec",
    "fold_executor",
    "fold_rows",
    "fold_state",
    "grouped",
    "reservoir_sample",
]
