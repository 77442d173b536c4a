"""Compiler: typed AST to the ``Q`` fluent builder, with positions.

Lowering is thin by design — every statement becomes exactly the
:class:`~repro.query.builder.Q` call chain a Python caller would write,
so the language adds zero execution paths: the same planner, the same
folds, the same sampler.  What the compiler adds is *checked names with
positions*: unknown relations and attributes, aggregate/``group by``
interplay, and sample misuse all raise
:class:`~repro.errors.CompileError` pointing a caret at the offending
clause, before anything executes.

:class:`CompiledQuery` is the executable artifact.  Its ``kind`` says
how to run it (``rows`` / ``aggregate`` / ``group`` / ``sample`` /
``explain`` / ``explain_analyze``), ``columns`` names the output, and
:meth:`CompiledQuery.run` produces a :class:`QueryResult` — against its
own builder by default, or against a
:class:`~repro.query.prepared.PreparedQuery` of it (both answer the same
views, :class:`~repro.query.builder.QueryViews`: servers pass the cached
prepared query so repeated text never replans).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.aggregate.specs import AggregateSpec, as_spec
from repro.errors import CompileError, QueryError
from repro.lang.nodes import Aggregate, Equals, InSet, Node, Star, Statement
from repro.lang.parser import parse
from repro.query.builder import Q, QueryBuilder, QueryViews
from repro.query.context import ExecutionContext

__all__ = ["CompiledQuery", "QueryResult", "compile_query"]


@dataclass(frozen=True)
class QueryResult:
    """One statement's result: named columns and row tuples.

    ``text`` is set instead of rows for ``explain`` statements (the
    plan description, or the measured ``EXPLAIN ANALYZE`` report).
    """

    columns: tuple[str, ...]
    rows: list[tuple]
    text: str | None = None


def _spec(aggregate: Aggregate) -> AggregateSpec:
    """The spec one select-list aggregate folds."""
    if aggregate.func == "count":
        return as_spec("count")
    return as_spec((aggregate.func, aggregate.argument))


@dataclass(frozen=True)
class CompiledQuery:
    """A statement lowered onto the builder, ready to execute."""

    statement: Statement
    builder: QueryBuilder
    kind: str
    columns: tuple[str, ...]

    @property
    def normalized(self) -> str:
        """The canonical statement text (the server's cache key)."""
        return self.statement.normalized

    def run(self, target: QueryViews | None = None) -> QueryResult:
        """Execute and materialize the result.

        ``target`` defaults to :attr:`builder`; passing a
        :class:`~repro.query.prepared.PreparedQuery` of the same builder
        runs the frozen plan instead (same results, zero replanning).
        """
        query = self.builder if target is None else target
        statement = self.statement
        if self.kind == "explain":
            return QueryResult(
                ("plan",), [], self.builder.plan().describe()
            )
        if self.kind == "explain_analyze":
            analysis = self.builder.explain(analyze=True)
            return QueryResult(("plan",), [], analysis.describe())
        if self.kind == "sample":
            rows = query.sample(statement.sample, seed=statement.sample_seed)
            return QueryResult(self.columns, list(rows))
        if self.kind == "aggregate":
            values = tuple(
                query.fold(_spec(aggregate))
                for aggregate in statement.aggregates
            )
            return QueryResult(self.columns, [values])
        if self.kind == "group":
            keys = tuple(column.name for column in statement.group_by)
            grouped = query.group_by(*keys).agg(
                **{
                    aggregate.label: _spec(aggregate)
                    for aggregate in statement.aggregates
                }
            )
            labels = self.columns[len(keys):]
            rows = [
                key + tuple(values[label] for label in labels)
                for key, values in grouped.items()
            ]
            return QueryResult(self.columns, rows)
        return QueryResult(self.columns, list(query))


def _fail(node: Node, message: str, source: str) -> CompileError:
    return CompileError(
        message,
        source=source,
        line=node.line,
        column=node.column,
        length=node.length,
    )


def compile_query(
    source: str | Statement,
    database,
    context: ExecutionContext | None = None,
) -> CompiledQuery:
    """Compile one statement against a catalog.

    ``source`` is statement text (parsed here, so
    :class:`~repro.errors.ParseError` can also escape) or an
    already-parsed :class:`~repro.lang.nodes.Statement`.  ``database``
    is the :class:`~repro.relations.Database` naming the relations;
    ``context`` attaches execution options (algorithm, shards, tracer)
    and always gains ``database=database`` so catalogued indexes and
    statistics are shared.
    """
    statement = source if isinstance(source, Statement) else parse(source)
    text = statement.source or statement.normalized

    relations = []
    seen: set[str] = set()
    for ref in statement.relations:
        if ref.name in seen:
            raise _fail(
                ref,
                f"relation {ref.name!r} named twice in FROM (each "
                "relation joins once; self-joins need distinct names)",
                text,
            )
        seen.add(ref.name)
        if ref.name not in database:
            known = ", ".join(sorted(database.names())) or "none"
            raise _fail(
                ref,
                f"unknown relation {ref.name!r} (catalogued: {known})",
                text,
            )
        relations.append(database[ref.name])
    attributes: set[str] = set()
    for relation in relations:
        attributes.update(relation.attributes)

    def check_attribute(node: Node, name: str, what: str) -> None:
        if name not in attributes:
            known = ", ".join(
                sorted(attributes)
            ) or "none"
            raise _fail(
                node,
                f"{what} names unknown attribute {name!r} "
                f"(the join's attributes: {known})",
                text,
            )

    base_context = context if context is not None else ExecutionContext()
    builder = Q(*relations, context=base_context.replace(database=database))

    for condition in statement.conditions:
        check_attribute(condition, condition.attribute, "WHERE")
        try:
            if isinstance(condition, Equals):
                builder = builder.where(
                    **{condition.attribute: condition.value}
                )
            elif isinstance(condition, InSet):
                builder = builder.where_in(
                    condition.attribute, condition.values
                )
        except QueryError as error:
            raise _fail(condition, str(error), text) from error

    aggregates = statement.aggregates
    plain = statement.plain_columns
    for aggregate in aggregates:
        if aggregate.argument is not None:
            check_attribute(aggregate, aggregate.argument, aggregate.label)
    for column in plain:
        check_attribute(column, column.name, "SELECT")
    for key in statement.group_by:
        check_attribute(key, key.name, "GROUP BY")

    if statement.group_by:
        if not aggregates:
            raise _fail(
                statement.group_by[0],
                "GROUP BY needs at least one aggregate in the select "
                "list (for bare distinct keys, select the keys without "
                "GROUP BY)",
                text,
            )
        keys = {key.name for key in statement.group_by}
        for column in plain:
            if column.name not in keys:
                raise _fail(
                    column,
                    f"column {column.name!r} is neither aggregated nor "
                    "in GROUP BY",
                    text,
                )
        # Selected keys lead the output in select-list order; grouping
        # keys missing from the select list still group (SQL allows
        # this) but are appended so every key is visible in the output.
        ordered = [column.name for column in plain]
        ordered += [
            key.name for key in statement.group_by
            if key.name not in set(ordered)
        ]
        key_columns = tuple(ordered)
        if statement.sample is not None:
            raise _fail(
                statement,
                "SAMPLE does not combine with GROUP BY",
                text,
            )
        columns = key_columns + tuple(a.label for a in aggregates)
        # Re-order the grouping keys to the output order.
        from dataclasses import replace as _replace

        rebuilt = _replace(
            statement,
            group_by=tuple(
                next(k for k in statement.group_by if k.name == name)
                for name in key_columns
            ),
        )
        kind = "group"
        return _finish(rebuilt, builder, kind, columns)

    if aggregates:
        if plain:
            raise _fail(
                plain[0],
                f"column {plain[0].name!r} is not aggregated; mixing "
                "plain columns with aggregates requires GROUP BY",
                text,
            )
        if statement.sample is not None:
            raise _fail(
                statement,
                "SAMPLE does not combine with aggregates (it samples "
                "result rows)",
                text,
            )
        columns = tuple(a.label for a in aggregates)
        return _finish(statement, builder, "aggregate", columns)

    if not isinstance(statement.select, Star):
        try:
            builder = builder.select(
                *(column.name for column in plain)
            )
        except QueryError as error:
            raise _fail(plain[0], str(error), text) from error
    columns = builder.output_attributes
    if statement.sample is not None:
        if statement.sample < 1:
            raise _fail(
                statement,
                f"SAMPLE needs a positive row count, got "
                f"{statement.sample}",
                text,
            )
        return _finish(statement, builder, "sample", columns)
    return _finish(statement, builder, "rows", columns)


def _finish(
    statement: Statement,
    builder: QueryBuilder,
    kind: str,
    columns: tuple[str, ...],
) -> CompiledQuery:
    if statement.explain:
        kind = "explain_analyze" if statement.analyze else "explain"
    return CompiledQuery(statement, builder, kind, columns)
