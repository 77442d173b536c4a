"""Telemetry counters: the invariants that make ``EXPLAIN ANALYZE``'s
per-level counts sound, for both level strategies of the descent
kernel.  (Row parity of observed and plain runs, per sink and backend,
lives in ``tests/core/test_descent.py``.)"""

import pytest

from repro import Q, execute
from repro.core.generic_join import GenericJoin
from repro.core.leapfrog import LeapfrogTriejoin
from repro.core.query import JoinQuery
from repro.errors import QueryError
from repro.observe.telemetry import TelemetryProbe
from repro.relations.relation import Relation
from repro.workloads import generators
from tests.helpers import assert_counter_chain


@pytest.fixture(scope="module")
def trap():
    return generators.zipf_trap_triangle(
        120, 500, seed=7, match_fraction=0.05, decoy_domain=8
    )


class TestCounterInvariants:
    def _run(self, trap, cls, order):
        probe = TelemetryProbe(order)
        rows = list(
            cls(trap, attribute_order=order, telemetry=probe).iter_join()
        )
        return probe, rows

    @pytest.mark.parametrize("cls", [GenericJoin, LeapfrogTriejoin])
    def test_chain_invariants(self, trap, cls):
        probe, rows = self._run(trap, cls, ("B", "C", "A"))
        assert_counter_chain(probe, len(rows))

    @pytest.mark.parametrize("cls", [GenericJoin, LeapfrogTriejoin])
    @pytest.mark.parametrize("empty", ["R", "S", "T"])
    def test_empty_input(self, trap, cls, empty):
        # Leapfrog used to return before counting anything
        # (partials == [0, 0, 0]) where Generic Join reported the root.
        query = JoinQuery(
            [
                Relation(
                    name, rel.attributes, [] if name == empty else rel.tuples
                )
                for name, rel in trap.relations.items()
            ]
        )
        probe, rows = self._run(query, cls, ("A", "B", "C"))
        assert rows == []
        assert_counter_chain(probe, 0)

    @pytest.mark.parametrize("cls", [GenericJoin, LeapfrogTriejoin])
    def test_filtered(self, trap, cls):
        order = ("B", "A", "C")
        probe = TelemetryProbe(order)
        executor = cls(
            trap,
            attribute_order=order,
            filters={"B": lambda v: v != 0},
            telemetry=probe,
        )
        rows = list(executor.iter_join())
        assert rows and all(row[1] != 0 for row in rows)
        assert_counter_chain(probe, len(rows))
        # The filter rejects candidates before they become matches.
        assert probe.candidates[0] > probe.matches[0]

    @pytest.mark.parametrize("cls", [GenericJoin, LeapfrogTriejoin])
    @pytest.mark.parametrize("taken", [1, 2, 57])
    def test_abandoned_mid_stream(self, trap, cls, taken):
        order = ("B", "C", "A")
        probe = TelemetryProbe(order)
        stream = cls(trap, attribute_order=order, telemetry=probe).iter_join()
        for _ in range(taken):
            next(stream)
        stream.close()
        assert_counter_chain(probe, taken)

    def test_generic_sees_dead_ends(self, trap):
        # The trap's payoff attribute prunes hard when bound last: the
        # hash-probe executor enumerates candidates that fail.
        probe, _rows = self._run(trap, GenericJoin, ("B", "C", "A"))
        assert probe.candidates[2] > probe.matches[2]

    def test_reset_zeroes_counters(self, trap):
        order = ("A", "B", "C")
        probe = TelemetryProbe(order)
        executor = GenericJoin(trap, attribute_order=order, telemetry=probe)
        first = list(executor.iter_join())
        after_first = list(probe.candidates)
        probe.reset()
        assert probe.candidates == [0, 0, 0]
        second = list(executor.iter_join())
        assert second == first
        assert list(probe.candidates) == after_first

    def test_order_mismatch_rejected(self, trap):
        probe = TelemetryProbe(("A", "B", "C"))
        with pytest.raises(QueryError, match="telemetry probe order"):
            GenericJoin(
                trap, attribute_order=("B", "A", "C"), telemetry=probe
            )
        with pytest.raises(QueryError, match="telemetry probe order"):
            LeapfrogTriejoin(
                trap, attribute_order=("B", "A", "C"), telemetry=probe
            )


class TestSnapshot:
    def test_snapshot_fields(self):
        probe = TelemetryProbe(("A", "B"))
        probe.partials[0] = 1
        probe.candidates[0] = 10
        probe.matches[0] = 4
        probe.partials[1] = 4
        probe.candidates[1] = 8
        probe.matches[1] = 8
        telemetry = probe.snapshot(rows=8)
        assert telemetry.attribute_order == ("A", "B")
        assert telemetry.rows == 8
        a, b = telemetry.levels
        assert (a.attribute, a.position) == ("A", 0)
        assert (a.partials, a.candidates, a.matches) == (1, 10, 4)
        assert (b.attribute, b.position) == ("B", 1)
        assert (b.partials, b.candidates, b.matches) == (4, 8, 8)
        assert telemetry.total_candidates == 18


class TestAttachment:
    """Only ``EXPLAIN ANALYZE`` pays for a probe: no other run path
    counts per-level work."""

    @pytest.fixture()
    def probes(self, monkeypatch):
        from repro.query import prepared

        made = []

        class Counting(TelemetryProbe):
            def __init__(self, order):
                made.append(order)
                super().__init__(order)

        monkeypatch.setattr(prepared, "TelemetryProbe", Counting)
        return made

    @pytest.mark.parametrize(
        "run",
        [
            lambda b: list(execute(b)),
            lambda b: execute(b).count(),
            lambda b: list(b.prepare().stream()),
            lambda b: b.explain(),
        ],
        ids=["iter", "count", "prepared", "explain"],
    )
    def test_no_other_path_attaches_a_probe(self, trap, probes, run):
        run(Q(trap).using(algorithm="generic"))
        assert probes == []

    def test_explain_analyze_attaches_one(self, trap, probes):
        analyzed = Q(trap).using(algorithm="generic").explain(analyze=True)
        assert probes == [analyzed.plan.attribute_order]
        assert analyzed.rows == len(list(execute(Q(trap))))
