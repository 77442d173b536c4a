"""The fluent query builder: selections and projections over the engine.

The paper's algorithms answer *full* conjunctive queries; every realistic
workload wraps them in selections (``sigma``) and projections (``pi``)
— Section 2's operators, which :class:`~repro.relations.relation.
Relation` has always implemented but the engine never saw.  This module
closes that gap with an immutable builder::

    from repro import Q

    rows = list(
        Q(r, s, t)
        .where(A=1)               # equality: pushed into the plan
        .where_in("B", {2, 3})    # membership: per-level filter hook
        .select("B", "C")         # projection: streamed + deduplicated
    )

Three pushdown mechanisms, in decreasing strength:

* **Equality** (:meth:`QueryBuilder.where`) *eliminates the attribute's
  level entirely*: every relation containing the attribute is replaced
  by its ``t_S``-section (Section 2's ``R[t_S]``) at plan time, so the
  engine joins a smaller *residual* query over fewer attributes — the
  ahead-of-time evaluation Remark 5.2 gets from indexing in advance.  A
  relation whose attributes are all bound degenerates to a membership
  *guard*: it contributes no residual constraint, but an empty section
  proves the whole result empty before anything runs.  Because each
  shrunken relation still embeds in the original, the AGM bound of the
  residual query is at most the original bound — pushdown never
  worsens the worst case.
* **Membership and predicates** (:meth:`QueryBuilder.where_in`,
  :meth:`QueryBuilder.filter`) become *residual filters*: single-
  attribute tests the executors evaluate at the level that binds the
  attribute (pruning whole subtrees in Generic Join / Leapfrog) or, for
  the blocking specialists, against emitted rows.
* **Projection** (:meth:`QueryBuilder.select`) streams over the result:
  rows are projected and deduplicated on the fly with memory
  proportional to the *projected* output, never materializing the full
  join.

Execution options ride in an :class:`~repro.query.context.
ExecutionContext` (:meth:`QueryBuilder.using` / :meth:`QueryBuilder.on`).
``prepare()`` freezes the plan and its indexes into a
:class:`~repro.query.prepared.PreparedQuery` for repeated execution;
both answer the terminal views of :class:`QueryViews`.
"""

from __future__ import annotations

import asyncio
from collections.abc import (
    AsyncIterator,
    Callable,
    Generator,
    Iterable,
    Iterator,
)
from contextlib import suppress
from dataclasses import dataclass, replace as _dc_replace

from repro.aggregate.specs import (
    AggregateSpec,
    Avg,
    Count,
    CountDistinct,
    Max,
    Min,
    Sum,
    grouped,
)
from repro.core.query import JoinQuery
from repro.engine import parallel as _parallel
from repro.engine.executors import NO_BACKEND
from repro.engine.planner import JoinPlan, _span_meta, plan_join
from repro.errors import QueryError
from repro.observe.tracing import maybe_span
from repro.query.context import ExecutionContext
from repro.query.predicates import (
    Callback,
    ResidualPredicate,
    ValueIn,
    combine,
)
from repro.relations import database as _database
from repro.relations.relation import Relation, Row, Value

__all__ = ["Q", "QueryBuilder", "QueryViews"]


def _as_query(relations: tuple) -> JoinQuery:
    """Normalize ``Q``'s argument spellings into one ``JoinQuery``."""
    if len(relations) == 1:
        only = relations[0]
        if isinstance(only, JoinQuery):
            return only
        if isinstance(only, QueryViews):
            raise QueryError(
                f"Q() takes relations or a JoinQuery, not {only!r}: a "
                "builder is refined by its own methods (or passed to "
                "execute())"
            )
        if not isinstance(only, Relation) and isinstance(only, Iterable):
            return JoinQuery(list(only))
    return JoinQuery(list(relations))


@dataclass(frozen=True)
class _Compiled:
    """Everything one execution of a builder needs, precomputed."""

    #: False when a guard already proved the result empty.
    satisfiable: bool
    #: The residual query the engine will run, or ``None`` when every
    #: relation degenerated to a guard (all attributes bound).
    residual: JoinQuery | None
    #: Residual predicate per *unbound* filtered attribute.
    filters: dict[str, ResidualPredicate]
    #: ``(attribute, value)`` pairs, in the query's attribute order.
    bound: tuple[tuple[str, Value], ...]
    #: Maps a residual row to a full-schema row (``None`` = identity).
    merge: Callable[[Row], Row] | None
    #: The full output schema (the original query's attributes).
    output_attributes: tuple[str, ...]


def Q(*relations, context: ExecutionContext | None = None) -> "QueryBuilder":
    """Start a fluent query: ``Q(r, s, t)`` (or ``Q([r, s, t])`` /
    ``Q(join_query)``).

    Returns an immutable :class:`QueryBuilder`; every fluent method
    derives a new builder, so partially-built queries can be shared and
    extended without aliasing surprises.
    """
    return QueryBuilder(_as_query(relations), context=context)


class QueryViews:
    """Every terminal view of a query's result, written once.

    :class:`QueryBuilder` and :class:`~repro.query.prepared.PreparedQuery`
    inherit these views and each supplies the three primitives they read
    — ``stream()``, ``fold(spec)`` and ``sample(k, seed)`` — with
    ``output_attributes`` and ``_require_attribute``.  A builder's
    primitives run a one-shot prepared query, so every view of either
    runs through :class:`~repro.query.prepared.PreparedQuery`; each
    call starts a fresh run (materialize with :meth:`relation` or
    ``list(...)`` to reuse a result).
    """

    __slots__ = ()

    def __iter__(self) -> Iterator[Row]:
        return self.stream()

    def __aiter__(self):
        return self.astream()

    def relation(self, name: str = "J") -> Relation:
        """Run and materialize the result as a :class:`Relation`."""
        return Relation(name, self.output_attributes, self.stream())

    def count(self) -> int:
        """Number of result rows — *without* enumerating them when the
        plan allows: the count is folded into the join's level loops and
        prunable subtrees are counted in O(1) (see
        :mod:`repro.aggregate.fold`).  Exactly ``sum(1 for _ in self)``,
        at a fraction of the work."""
        return self.fold(Count())

    def sum(self, attribute: str):
        """Sum of ``attribute`` over the result rows (0 when empty)."""
        return self.fold(Sum(attribute))

    def min(self, attribute: str):
        """Minimum of ``attribute`` over the result (None when empty)."""
        return self.fold(Min(attribute))

    def max(self, attribute: str):
        """Maximum of ``attribute`` over the result (None when empty)."""
        return self.fold(Max(attribute))

    def avg(self, attribute: str):
        """Mean of ``attribute`` over the result (None when empty)."""
        return self.fold(Avg(attribute))

    def count_distinct(self, attribute: str) -> int:
        """Number of distinct ``attribute`` values in the result (0 when
        empty).  Multiplicity-insensitive, so subtrees below the
        attribute's level are pruned without counting completions."""
        return self.fold(CountDistinct(attribute))

    def group_by(self, *attributes: str) -> "GroupedQuery":
        """Group the result by ``attributes``; finish with
        :meth:`GroupedQuery.agg` (or :meth:`GroupedQuery.count`).

        Grouping attributes must be in the output schema.  Keys in the
        returned mapping are always tuples, even for a single grouping
        attribute."""
        if not attributes:
            raise QueryError("group_by needs at least one attribute")
        for attribute in attributes:
            self._require_attribute(attribute, "group_by")
        return GroupedQuery(self, attributes)

    def batches(self, size: int | None = None) -> Iterator[list[Row]]:
        """Stream the result in row batches of ``size`` (default
        :data:`~repro.engine.parallel.DEFAULT_BATCH_SIZE`)."""
        if size is None:
            size = _parallel.DEFAULT_BATCH_SIZE
        return _parallel.batches(self.stream(), size)

    def astream(self, batch_size: int | None = None):
        """Async iteration for event-loop servers (``async for row in
        q.astream()``, or ``async for row in q``): the blocking stream
        runs on worker threads (:func:`_pump`) and rows reach the loop
        ``batch_size`` at a time (default
        :data:`~repro.engine.parallel.DEFAULT_BATCH_SIZE`).  Planning
        and validation happen in this synchronous call."""
        batched = self.batches(batch_size)

        async def rows():
            async for batch in _pump(batched):
                for row in batch:
                    yield row

        return rows()


class QueryBuilder(QueryViews):
    """An immutable conjunctive query with selections and a projection.

    Holds *what* to compute: the join query, equality bindings, residual
    predicates, and the output projection.  *How* to compute it lives in
    the attached :class:`~repro.query.context.ExecutionContext`.  Every
    fluent method returns a new builder; instances are safe to share,
    reuse, and prepare.
    """

    __slots__ = (
        "query",
        "context",
        "bindings",
        "predicates",
        "selected",
        "_compiled_cache",
        "_plan_memo",
    )

    def __init__(
        self,
        query: JoinQuery,
        context: ExecutionContext | None = None,
        bindings: tuple[tuple[str, Value], ...] = (),
        predicates: tuple[ResidualPredicate, ...] = (),
        selected: tuple[str, ...] | None = None,
    ) -> None:
        object.__setattr__(self, "query", query)
        if context is None:
            context = ExecutionContext()
        object.__setattr__(self, "context", context)
        object.__setattr__(self, "bindings", bindings)
        object.__setattr__(self, "predicates", predicates)
        object.__setattr__(self, "selected", selected)
        object.__setattr__(self, "_compiled_cache", None)
        object.__setattr__(self, "_plan_memo", None)

    def __setattr__(self, key: str, value: object) -> None:
        raise AttributeError("QueryBuilder instances are immutable")

    def _derive(self, **changes) -> "QueryBuilder":
        kwargs = {
            "query": self.query,
            "context": self.context,
            "bindings": self.bindings,
            "predicates": self.predicates,
            "selected": self.selected,
        }
        kwargs.update(changes)
        return QueryBuilder(**kwargs)

    def _require_attribute(self, attribute: str, what: str) -> None:
        if attribute not in self.query.attributes:
            raise QueryError(
                f"{what} names unknown attribute {attribute!r}; the "
                f"query's attributes are {self.query.attributes!r}"
            )

    # -- the fluent surface -------------------------------------------------

    def where(self, **equalities: Value) -> "QueryBuilder":
        """Bind attributes to constants: ``where(A=1, B=2)``.

        Equality clauses are *pushed into the plan*: each bound
        attribute's level is eliminated by sectioning the relations
        that contain it, so the engine never enumerates candidates for
        it.  Binding the same attribute twice to the same value is a
        no-op; to a different value, an error (the contradiction is
        almost certainly a bug at the call site).
        """
        current = dict(self.bindings)
        for attribute, value in equalities.items():
            self._require_attribute(attribute, "where() clause")
            if attribute in current and current[attribute] != value:
                raise QueryError(
                    f"attribute {attribute!r} is already bound to "
                    f"{current[attribute]!r}; binding it to {value!r} too "
                    "would make every result row impossible (use "
                    "where_in() for a disjunction, or bind() on a "
                    "prepared query to rebind)"
                )
            current[attribute] = value
        ordered = tuple(
            (a, current[a]) for a in self.query.attributes if a in current
        )
        return self._derive(bindings=ordered)

    def where_in(
        self, attribute: str, values: Iterable[Value]
    ) -> "QueryBuilder":
        """Keep rows whose ``attribute`` lies in ``values``.

        Runs as a residual filter at the attribute's level (the engine
        prunes non-members before recursing below them); an empty value
        set makes the result empty.
        """
        self._require_attribute(attribute, "where_in() clause")
        return self._derive(
            predicates=self.predicates + (ValueIn(attribute, values),)
        )

    def filter(
        self,
        attribute: str,
        predicate: Callable[[Value], bool],
        label: str | None = None,
    ) -> "QueryBuilder":
        """Keep rows where ``predicate(value of attribute)`` holds.

        The predicate runs as a residual per-level filter, like
        :meth:`where_in`; ``label`` names it in ``explain`` output.
        Lambdas are fine for serial/thread execution; for process-pool
        sharding the predicate must pickle (the driver otherwise falls
        back to threads automatically).
        """
        self._require_attribute(attribute, "filter() clause")
        if isinstance(predicate, ResidualPredicate):
            if predicate.attribute != attribute:
                raise QueryError(
                    f"predicate is attached to {predicate.attribute!r}, "
                    f"not {attribute!r}"
                )
            clause = predicate
        else:
            clause = Callback(attribute, predicate, label)
        return self._derive(predicates=self.predicates + (clause,))

    def select(self, *attributes: str) -> "QueryBuilder":
        """Project the output onto ``attributes`` (in the given order).

        The projection is *streamed*: rows are projected and
        deduplicated as the join produces them, so memory is bounded by
        the projected result, not the full join.  ``select()`` with no
        arguments is the Boolean projection — the result holds one
        empty tuple when the (filtered) join is non-empty, none
        otherwise.
        """
        seen: set[str] = set()
        for attribute in attributes:
            self._require_attribute(attribute, "select() clause")
            if attribute in seen:
                raise QueryError(
                    f"select() names attribute {attribute!r} twice"
                )
            seen.add(attribute)
        return self._derive(selected=tuple(attributes))

    def using(
        self, context: ExecutionContext | None = None, **options
    ) -> "QueryBuilder":
        """Attach execution options: a whole :class:`ExecutionContext`,
        or keyword updates to the current one (``using(shards=4,
        mode="thread")``)."""
        if context is not None:
            if options:
                raise QueryError(
                    "pass either a context or keyword options, not both"
                )
            return self._derive(context=context)
        return self._derive(context=self.context.replace(**options))

    def on(self, database) -> "QueryBuilder":
        """Sugar for ``using(database=db)`` — run against a catalog's
        cached indexes and statistics."""
        return self.using(database=database)

    # -- compilation --------------------------------------------------------

    def _compile(self) -> _Compiled:
        """Section the query by its bindings; assemble filters and the
        output row merger.

        Memoized: the builder is immutable and relations are
        value-immutable, so sectioning is computed once per builder —
        ``prepare()``, ``plan()``, and repeated ``stream()`` calls all
        share one set of section objects.
        """
        if self._compiled_cache is not None:
            return self._compiled_cache
        compiled = self._compile_uncached()
        object.__setattr__(self, "_compiled_cache", compiled)
        return compiled

    def _compile_uncached(self) -> _Compiled:
        bindings = dict(self.bindings)
        out_attrs = self.query.attributes
        bound = self.bindings

        # Predicates over bound attributes are decided now, once.
        by_attr: dict[str, list[ResidualPredicate]] = {}
        for predicate in self.predicates:
            attribute = predicate.attribute
            if attribute in bindings:
                if not predicate(bindings[attribute]):
                    return _Compiled(
                        False, None, {}, bound, None, out_attrs
                    )
            else:
                by_attr.setdefault(attribute, []).append(predicate)
        filters = {
            attribute: combine(attribute, parts)
            for attribute, parts in by_attr.items()
        }

        # Section every relation containing a bound attribute.
        kept: list[Relation] = []
        for eid in self.query.edge_ids:
            relation = self.query.relation(eid)
            here = {
                a: v for a, v in bindings.items() if a in relation.attribute_set
            }
            if not here:
                kept.append(relation)
                continue
            section = relation.section(here).with_name(relation.name)
            if not section.attributes:
                # Fully bound: a pure membership guard (Section 2's
                # R[t_S] over S = attrs(R) is {()} or {}).
                if section.is_empty():
                    return _Compiled(
                        False, None, filters, bound, None, out_attrs
                    )
                continue
            kept.append(section)
        if not kept:
            return _Compiled(True, None, filters, bound, None, out_attrs)
        residual = JoinQuery(kept)

        merge: Callable[[Row], Row] | None = None
        if bindings:
            positions = {a: i for i, a in enumerate(residual.attributes)}
            slots = tuple(
                (True, bindings[a]) if a in bindings else (False, positions[a])
                for a in out_attrs
            )

            def merge(row: Row, _slots=slots) -> Row:
                return tuple(
                    payload if is_const else row[payload]
                    for is_const, payload in _slots
                )

        return _Compiled(True, residual, filters, bound, merge, out_attrs)

    def _residual_context(self) -> ExecutionContext:
        """The context the residual query is planned with: a caller-fixed
        attribute order loses its bound (eliminated) attributes."""
        ctx = self.context
        if ctx.attribute_order is not None and self.bindings:
            bound_attrs = {a for a, _v in self.bindings}
            stripped = tuple(
                a for a in ctx.attribute_order if a not in bound_attrs
            )
            ctx = ctx.replace(attribute_order=stripped)
        return ctx

    def _guard_plan(self, compiled: _Compiled) -> JoinPlan:
        """The degenerate plan when no residual query remains."""
        if compiled.satisfiable:
            reasons = [
                "every attribute is bound: the join reduces to per-relation "
                "membership guards; no executor runs"
            ]
        else:
            reasons = [
                "unsatisfiable: a bound tuple is absent from some relation "
                "(or a residual filter rejects a bound value); the result "
                "is empty and no executor runs"
            ]
        return JoinPlan(
            query=self.query,
            algorithm="none",
            attribute_order=(),
            backend=NO_BACKEND,
            reasons=tuple(reasons),
            bound=compiled.bound,
            filtered=self._filter_descriptions(),
            selected=self.selected,
        )

    def _filter_descriptions(self) -> tuple[tuple[str, str], ...]:
        return tuple(
            (predicate.attribute, predicate.describe())
            for predicate in self.predicates
        )

    def plan(self) -> JoinPlan:
        """Plan this query without running it: the residual query's
        :class:`JoinPlan` with the bound attributes, residual filters,
        and projection recorded on it.

        Memoized like :meth:`_compile`, until a write that could change
        the plan: ``Database.add`` / ``remove``, or an index-cache insert
        or eviction.  A reused plan
        still opens the ``plan`` span, marked ``memo="hit"``.
        """
        compiled = self._compile()
        if compiled.residual is None:
            # Covers both degenerate outcomes: all attributes bound
            # (guards only) and early-proven unsatisfiability.
            return self._guard_plan(compiled)
        # Read first: a write landing mid-plan leaves the memo stale.
        generation = _database.planning_generation
        memo = self._plan_memo
        if memo is not None and memo[0] == generation:
            with maybe_span("plan", memo="hit") as span:
                if span is not None:
                    span.meta.update(_span_meta(memo[1]))
            return memo[1]
        plan = _dc_replace(
            plan_join(compiled.residual, context=self._residual_context()),
            bound=compiled.bound,
            filtered=self._filter_descriptions(),
            selected=self.selected,
        )
        object.__setattr__(self, "_plan_memo", (generation, plan))
        return plan

    def explain(self, analyze: bool = False):
        """The plan (``explain``), or a measured run (``EXPLAIN
        ANALYZE``).

        ``explain()`` is :meth:`plan` — nothing executes.
        ``explain(analyze=True)`` executes the query completely (rows
        are counted, never materialized) under a tracer and returns an
        :class:`~repro.observe.explain.ExplainAnalysis`: per-level
        estimated vs observed cardinalities beside the span timings.
        """
        if not analyze:
            return self.plan()
        from repro.observe.explain import analyze_query

        return analyze_query(self)

    def describe(self) -> str:
        """``plan().describe()`` — the CLI ``explain`` rendering."""
        return self.plan().describe()

    # -- execution ----------------------------------------------------------

    @property
    def output_attributes(self) -> tuple[str, ...]:
        """The schema of the rows this query yields."""
        if self.selected is not None:
            return self.selected
        return self.query.attributes

    def _project(self, rows: Iterator[Row]) -> Iterator[Row]:
        """Stream the projection: project each full row, emit first
        sightings only.  Memory is O(distinct projected rows)."""
        full = self.query.attributes
        if self.selected is None:
            return rows
        if set(self.selected) == set(full):
            # A permutation of the full schema: rows stay distinct.
            indices = tuple(full.index(a) for a in self.selected)
            return (tuple(row[i] for i in indices) for row in rows)
        indices = tuple(full.index(a) for a in self.selected)

        def dedup() -> Iterator[Row]:
            seen: set[Row] = set()
            for row in rows:
                key = tuple(row[i] for i in indices)
                if key not in seen:
                    seen.add(key)
                    yield key

        return dedup()

    def _one_shot(self):
        """This query prepared for a single run — what each of the three
        primitives below runs (see :mod:`repro.query.prepared`)."""
        from repro.query.prepared import PreparedQuery

        return PreparedQuery._one_shot(self)

    # -- the three primitives the views read ---------------------------------

    def stream(self) -> Iterator[Row]:
        """Stream result rows (schema: :attr:`output_attributes`).

        Planning — and all validation — happens in this call, not at
        first ``next()``.  With ``context.shards`` set, rows come from
        the sharded parallel driver; otherwise from the serial engine.
        """
        return self._one_shot().stream()

    def fold(self, spec: AggregateSpec):
        """Fold an :class:`~repro.aggregate.specs.AggregateSpec` over the
        result without materializing it (:meth:`PreparedQuery.fold
        <repro.query.prepared.PreparedQuery.fold>` says how)."""
        return self._one_shot().fold(spec)

    def sample(self, k: int, seed: int | None = None) -> list[Row]:
        """``min(k, count)`` distinct uniform result rows, never
        materializing the result (:meth:`PreparedQuery.sample
        <repro.query.prepared.PreparedQuery.sample>` says how, and what
        a fixed ``seed`` repeats)."""
        return self._one_shot().sample(k, seed)

    def prepare(self) -> "PreparedQuery":
        """Freeze this query into a :class:`~repro.query.prepared.
        PreparedQuery`: the plan is fixed and every index it needs is
        built now (through the context database's bounded cache when the
        relations are catalogued), so its repeated runs perform zero
        planning and zero index builds."""
        from repro.query.prepared import PreparedQuery

        return PreparedQuery(self)

    def __repr__(self) -> str:
        parts = [repr(self.query)]
        if self.bindings:
            parts.append(
                "where " + ", ".join(f"{a}={v!r}" for a, v in self.bindings)
            )
        parts.extend(p.describe() for p in self.predicates)
        if self.selected is not None:
            parts.append("select " + (", ".join(self.selected) or "()"))
        return f"Q<{'; '.join(parts)}>"


class GroupedQuery:
    """A query grouped by key attributes, awaiting its aggregates.

    Returned by :meth:`QueryViews.group_by`; its terminal methods fold
    over the builder or prepared query it groups.  Immutable and
    reusable like the builder itself.
    """

    __slots__ = ("_query", "_keys")

    def __init__(self, query: QueryViews, keys: tuple[str, ...]) -> None:
        object.__setattr__(self, "_query", query)
        object.__setattr__(self, "_keys", keys)

    def __setattr__(self, key: str, value: object) -> None:
        raise AttributeError("GroupedQuery instances are immutable")

    @property
    def keys(self) -> tuple[str, ...]:
        """The grouping attributes, in grouping order."""
        return self._keys

    def agg(self, **aggregates) -> dict:
        """Run the grouped aggregates: ``{key tuple: {name: value}}``.

        Each keyword names an output column; values are aggregate specs
        (:class:`~repro.aggregate.specs.Count` and friends), the string
        ``"count"``, or ``(kind, attribute)`` shorthand pairs with kind
        in ``sum``/``min``/``max``.  Keys come out sorted.
        """
        if not aggregates:
            raise QueryError("agg() needs at least one named aggregate")
        return self._query.fold(grouped(self._keys, aggregates))

    def count(self) -> dict:
        """Rows per group: ``{key tuple: count}`` (keys sorted)."""
        result = self._query.fold(grouped(self._keys, {"count": Count()}))
        return {key: values["count"] for key, values in result.items()}

    def __repr__(self) -> str:
        return f"{self._query!r}.group_by({', '.join(self._keys)})"


async def _pump(blocking: Generator) -> AsyncIterator:
    """Iterate a blocking generator from an event loop: the one
    loop↔worker hand-off, an ``asyncio.to_thread`` hop per item.

    Both async surfaces are this loop — :meth:`QueryViews.astream` over
    :meth:`QueryViews.batches`, the server over its encoded response
    lines — so everything ``next(blocking)`` does (descend, batch,
    encode) runs on the worker and the loop only passes items on.
    A hop starts when the consumer asks for the next item, never before:
    a consumer that waits between items (a socket that will not drain)
    holds the descent where it is.  Closing the pump closes
    ``blocking``, so an abandoned stream stops descending.
    """
    done = object()
    try:
        while (
            item := await asyncio.to_thread(next, blocking, done)
        ) is not done:
            yield item
    finally:
        # A hop cancelled in flight still runs ``blocking`` on its
        # worker ("generator already executing"); that item is its last.
        with suppress(ValueError):
            blocking.close()
