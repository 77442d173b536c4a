"""One run path: every view of every surface, against the oracle.

The builder's own views, ``prepare()`` and ``prepare().bind(...)`` all
run through :class:`~repro.query.prepared.PreparedQuery`; this module is
the one place that holds them to it.  Every view returns the oracle's
rows, and the builder and the prepared query leave the same spans and
the same metrics behind — under every measuring context, serial and
sharded, over ad-hoc relations and over a catalog, filtered and
projected.
"""

import asyncio
from collections import Counter

import pytest

from repro import (
    Database,
    ExecutionContext,
    MetricsRegistry,
    Q,
    StatsProvider,
    Sum,
    Tracer,
    execute,
)
from repro.observe.metrics import Histogram
from repro.workloads import generators, queries
from tests.helpers import oracle_join

QUERY = generators.random_instance(queries.triangle(), 60, 8, seed=3)
ORACLE = oracle_join(QUERY)
#: The two most frequent values of A: a binding and a rebinding target.
BOUND, OTHER = (a for a, _n in Counter(r[0] for r in ORACLE).most_common(2))

#: Clause name -> (builder refinement, the oracle's rows under it).
CLAUSES = {
    "unfiltered": (lambda b: b, ORACLE),
    "where": (
        lambda b: b.where(A=BOUND),
        [r for r in ORACLE if r[0] == BOUND],
    ),
    "where_in": (
        lambda b: b.where_in("B", {1, 5}),
        [r for r in ORACLE if r[1] in {1, 5}],
    ),
    "select": (
        lambda b: b.select("A", "C"),
        sorted({(r[0], r[2]) for r in ORACLE}),
    ),
}

EXECUTIONS = {
    "serial": {},
    "shards-serial": {"shards": 2, "mode": "serial"},
    "shards-thread": {"shards": 2, "mode": "thread"},
    # Over a catalog: its index cache and its own statistics provider.
    "catalog": {},
}

#: Which measuring options each context switches on.
MEASURES = {
    "plain": (),
    "tracer": ("tracer",),
    "metrics": ("metrics",),
    "all": ("tracer", "metrics"),
}


def _context(measure: str, execution: str) -> ExecutionContext:
    """A context with fresh sinks (and a fresh statistics provider or
    catalog, so no surface sees another's cached profiles or indexes)."""
    options = dict(EXECUTIONS[execution])
    if execution == "catalog":
        options["database"] = Database(QUERY.relations.values())
    else:
        options["stats"] = StatsProvider()
    if "tracer" in MEASURES[measure]:
        options["tracer"] = Tracer()
    if "metrics" in MEASURES[measure]:
        options["metrics"] = MetricsRegistry()
    return ExecutionContext(**options)


def _builder(clause: str, context: ExecutionContext):
    return CLAUSES[clause][0](Q(QUERY).using(context))


def _surface(kind: str, clause: str, context: ExecutionContext):
    """``(what to run, the builder it froze)``."""
    if kind == "builder":
        builder = _builder(clause, context)
        return builder, builder
    if kind == "prepared":
        prepared = _builder(clause, context).prepare()
        return prepared, prepared.query
    if clause == "where":
        prepared = (
            Q(QUERY).using(context).where(A=OTHER).prepare().bind(A=BOUND)
        )
    else:
        prepared = _builder(clause, context).prepare().bind()
    return prepared, prepared.query


def _drain_async(aiterable) -> list:
    async def drain():
        return [row async for row in aiterable]

    return asyncio.run(drain())


def _flatten(batched) -> list:
    return [row for batch in batched for row in batch]


#: View name -> (run it on a builder, run it on a prepared query, what
#: the oracle's rows say it must return).  ``x`` is the first output
#: attribute and ``i`` its position.
VIEWS = {
    "iter": (
        lambda b, x: sorted(execute(b)),
        lambda p, x: sorted(p),
        lambda rows, i: sorted(rows),
    ),
    "stream": (
        lambda b, x: sorted(execute(b).stream()),
        lambda p, x: sorted(p.stream()),
        lambda rows, i: sorted(rows),
    ),
    "aiter": (
        lambda b, x: sorted(_drain_async(execute(b))),
        lambda p, x: sorted(_drain_async(p)),
        lambda rows, i: sorted(rows),
    ),
    "relation": (
        lambda b, x: sorted(execute(b).relation().tuples),
        lambda p, x: sorted(p.relation().tuples),
        lambda rows, i: sorted(rows),
    ),
    "batches": (
        lambda b, x: sorted(_flatten(execute(b).batches(7))),
        lambda p, x: sorted(_flatten(p.batches(7))),
        lambda rows, i: sorted(rows),
    ),
    "astream": (
        lambda b, x: sorted(_drain_async(execute(b).astream(7))),
        lambda p, x: sorted(_drain_async(p.astream(7))),
        lambda rows, i: sorted(rows),
    ),
    "count": (
        lambda b, x: execute(b).count(),
        lambda p, x: p.count(),
        lambda rows, i: len(rows),
    ),
    "fold": (
        lambda b, x: execute(b).fold(Sum(x)),
        lambda p, x: p.fold(Sum(x)),
        lambda rows, i: sum(r[i] for r in rows),
    ),
    "group_by": (
        lambda b, x: b.group_by(x).count(),
        lambda p, x: p.group_by(x).count(),
        lambda rows, i: dict(
            sorted(Counter((r[i],) for r in rows).items())
        ),
    ),
}


def _left_behind(builder) -> tuple:
    """What a run left in the context's sinks, wall clocks aside."""
    context = builder.context
    spans = (
        Counter(span.name for span in context.tracer.walk())
        if context.tracer is not None
        else None
    )
    metrics = None
    if context.metrics is not None:
        metrics = {
            metric.name: (
                metric.count
                if isinstance(metric, Histogram)
                else sorted(metric.samples())
            )
            for metric in context.metrics
            if metric.name != "repro_shard_imbalance_ratio"
        }
    return spans, metrics


@pytest.mark.parametrize("clause", CLAUSES)
@pytest.mark.parametrize("execution", EXECUTIONS)
@pytest.mark.parametrize("measure", MEASURES)
def test_every_view_of_every_surface(measure, execution, clause):
    expected_rows = CLAUSES[clause][1]
    # EXPLAIN ANALYZE is a view of the builder alone.
    analyzed = _builder(clause, _context(measure, execution))
    assert analyzed.explain(analyze=True).rows == len(expected_rows)
    for view, (on_builder, on_prepared, expect) in VIEWS.items():
        left = {}
        for kind in ("builder", "prepared", "bound"):
            surface, builder = _surface(
                kind, clause, _context(measure, execution)
            )
            attribute = builder.output_attributes[0]
            run = on_builder if kind == "builder" else on_prepared
            assert run(surface, attribute) == expect(expected_rows, 0), (
                view,
                kind,
            )
            left[kind] = _left_behind(builder)
        assert left["builder"] == left["prepared"], view
        # Rebinding reuses the plan (no ``plan`` span, one more round of
        # section indexes — over a catalog, one more round of index-cache
        # hits), so only its other measurements are comparable.
        bound, prepared = left["bound"][1], left["prepared"][1]
        if execution == "catalog" and prepared is not None:
            hits = "repro_index_cache_hits_total"
            assert bound.pop(hits) >= prepared.pop(hits), view
        assert bound == prepared, view


@pytest.mark.parametrize("execution", EXECUTIONS)
@pytest.mark.parametrize("measure", MEASURES)
def test_abandoned_stream_records_nothing(measure, execution):
    context = _context(measure, execution)
    prepared = Q(QUERY).using(context).prepare()
    before = _left_behind(prepared.query)
    stream = prepared.stream()
    assert len([next(stream), next(stream)]) == 2
    stream.close()
    spans, metrics = _left_behind(prepared.query)
    if context.tracer is not None:
        execute_span = context.tracer.find("execute")
        assert "rows" not in execute_span.meta
    assert metrics == before[1]
    # ... and the prepared query runs again, completely.
    assert sorted(prepared.stream()) == sorted(ORACLE)
    if context.metrics is not None:
        emitted = context.metrics.counter("repro_rows_emitted_total")
        assert emitted.value() == len(ORACLE)
