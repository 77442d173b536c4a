"""Generic Join: the attribute-at-a-time worst-case optimal join.

**Extension beyond the paper.**  The NPRR authors' follow-up ("Skew strikes
back: new developments in the theory of join algorithms", 2013) distilled
Algorithm 2 into *Generic Join*: fix a global attribute order; at depth
``i`` intersect, over every relation containing attribute ``v_i``, the set
of values extending the current prefix; recurse per value.  With
smallest-first intersection the run time is ``O(mn * AGM)`` — the same
worst-case optimality guarantee as Algorithm 2, with no per-tuple case
analysis.

We include it (and Leapfrog Triejoin) because the paper's stated future
work is to implement and compare these ideas; the benchmark harness uses
them as independently-implemented cross-checks for NPRR.

The executor is *backend generic*: "the set of values extending the
prefix" is whatever the relation's current index node holds — a hash
trie's node is read as the ``value -> child`` mapping it is, an array
range through the :class:`~repro.engine.backends.IndexBackend` protocol
(``fanout_hint`` / ``children``) — and kinds may be mixed per relation.
:meth:`GenericJoin.iter_join` streams result rows, in no specified
order, from the loop nest :mod:`repro.core.descent` compiles per binding
shape; :meth:`GenericJoin.execute` is the thin materializing wrapper.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Mapping, Sequence

from repro.core.descent import bind, hash_levels, iter_rows
from repro.core.query import JoinQuery
from repro.errors import QueryError
from repro.relations.database import DEFAULT_BACKEND, Database
from repro.relations.relation import Relation, Row, Value


class GenericJoin:
    """Executor for Generic Join over one query.

    Parameters
    ----------
    query:
        The natural join query.
    attribute_order:
        Global variable order; defaults to the query's attribute order.
        Any order is worst-case optimal; orders that put selective
        attributes first are faster in practice (see
        :mod:`repro.engine.planner`).
    database:
        Optional catalog supplying cached indexes.
    backend:
        Index backend kind (``"trie"``, ``"sorted"``, or ``"compact"``,
        see :data:`repro.relations.database.INDEX_BACKENDS`), or a mapping
        of relation name to kind for a **per-relation** choice (the
        statistics-driven planner emits these for skewed inputs);
        relations absent from the mapping use the default backend.
        The descent kernel decides how to read each relation's nodes
        from its own index, so mixing kinds within one join is safe.
    filters:
        Optional mapping of attribute name to a single-value predicate
        (the query layer's residual selections).  Each predicate runs at
        the level that binds its attribute, on the values present in
        every participant and *before* recursing — a value failing its
        filter prunes the whole subtree, so the search never pays for
        completions the selection would discard.
    telemetry:
        Optional :class:`~repro.observe.telemetry.TelemetryProbe` whose
        ``order`` matches this executor's.  When attached, the loop
        nest is compiled with the lines that count partials, candidates
        and matches per level into it; with ``None`` (the default) they
        are not in its text.
    """

    def __init__(
        self,
        query: JoinQuery,
        attribute_order: Sequence[str] | None = None,
        database: Database | None = None,
        backend: str | Mapping[str, str] = DEFAULT_BACKEND,
        filters: Mapping[str, Callable[[Value], bool]] | None = None,
        telemetry=None,
    ) -> None:
        self.query = query
        if isinstance(backend, Mapping):
            # Label from what each relation will actually get: a partial
            # mapping leaves the absent relations on the default kind.
            kinds = {
                backend.get(eid, DEFAULT_BACKEND) for eid in query.edge_ids
            }
            self.backend = kinds.pop() if len(kinds) == 1 else "mixed"
        else:
            self.backend = backend
        self._binding = bind(
            query, attribute_order, backend, database, filters
        )
        self.order = self._binding.order
        if telemetry is not None and tuple(telemetry.order) != self.order:
            raise QueryError(
                f"telemetry probe order {telemetry.order!r} does not match "
                f"the executor's attribute order {self.order!r}"
            )
        self.telemetry = telemetry

    def iter_join(self) -> Iterator[Row]:
        """Stream the join's rows (query attribute order, no repeats).

        Rows are yielded as soon as the search completes a full prefix —
        nothing beyond one parent's surviving values is held, so callers
        can stop early or pipeline the output.
        """
        return iter_rows(*self._descent(), self.telemetry)

    def _descent(self) -> tuple:
        """``(levels, root, perm)``: what every run's loop nest walks."""
        binding = self._binding
        return hash_levels(binding), binding.roots(), binding.output_perm

    def execute(self, name: str = "J") -> Relation:
        """Run Generic Join; returns the join in query attribute order."""
        return Relation(name, self.query.attributes, self.iter_join())

    def fold(self, folder):
        """Fold an aggregate through the level loops, skipping rows.

        Runs the same smallest-first descent as :meth:`iter_join`, but
        compiled to add each prefix the spec reads to ``folder.state``
        once, with its number of rows, and to multiply counts in-line
        where every remaining level has one unfiltered participant —
        see :func:`repro.aggregate.fold.fold_executor`.  Returns it.
        """
        # Lazy: repro.core must not import repro.aggregate at module
        # load (the aggregate package reaches back into repro.core).
        from repro.aggregate.fold import fold_executor

        return fold_executor(self, folder)


def generic_join(
    query: JoinQuery,
    attribute_order: Sequence[str] | None = None,
    database: Database | None = None,
    name: str = "J",
    backend: str = DEFAULT_BACKEND,
) -> Relation:
    """One-shot convenience wrapper for Generic Join."""
    return GenericJoin(query, attribute_order, database, backend).execute(name)
