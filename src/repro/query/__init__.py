"""The composable query layer: fluent builder, context, prepared queries.

The public face of the engine for anything richer than a bare natural
join.  Three objects:

* :func:`~repro.query.builder.Q` /
  :class:`~repro.query.builder.QueryBuilder` — an immutable fluent
  builder: ``Q(r, s, t).where(A=1).where_in("B", {2, 3}).select("A",
  "C")``.  Equality clauses are pushed into the plan (the bound
  attribute's level is eliminated by relation sectioning); membership
  and predicate clauses run as per-level filter hooks inside the
  executors; projections stream with dedup, never materializing the
  full join.
* :class:`~repro.query.context.ExecutionContext` — the single carrier
  of execution options (database, stats, algorithm, backend, shards,
  parallel mode) consumed by the planner, the executors,
  the parallel drivers, and the CLI alike.
* :class:`~repro.query.prepared.PreparedQuery` — a frozen plan with
  pre-built indexes for repeated execution and ``bind()`` parameter
  rebinding (the prepared-statement contract; pairs with
  ``Database.warm``).

The builder and the prepared query answer the same terminal views —
iteration, ``relation()``, ``batches()``, ``astream()``, ``count()``
and the other folds, ``group_by()``, ``sample()`` — written once on
their shared base, :class:`~repro.query.builder.QueryViews`.
``repro.execute`` is the front door over this package: it returns the
builder it configured, and every view runs through one
:class:`~repro.query.prepared.PreparedQuery`.
"""

from repro.query.builder import GroupedQuery, Q, QueryBuilder
from repro.query.context import ExecutionContext
from repro.query.predicates import Callback, ResidualPredicate, ValueIn
from repro.query.prepared import PreparedQuery
from repro.query.shards import ShardSpec, StealPolicy

__all__ = [
    "Callback",
    "ExecutionContext",
    "GroupedQuery",
    "PreparedQuery",
    "Q",
    "QueryBuilder",
    "ResidualPredicate",
    "ShardSpec",
    "StealPolicy",
    "ValueIn",
]
