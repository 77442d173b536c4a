"""Telemetry counters: the invariants that make the feedback loop's
arithmetic sound, for both level strategies of the descent kernel.
(Row parity of observed and plain runs, per sink and backend, lives in
``tests/core/test_descent.py``.)"""

import pytest

from repro.core.generic_join import GenericJoin
from repro.core.leapfrog import LeapfrogTriejoin
from repro.core.query import JoinQuery
from repro.errors import QueryError
from repro.feedback.telemetry import (
    ExecutionTelemetry,
    ObservedLevel,
    TelemetryProbe,
    estimate_divergence,
)
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
        telemetry = probe.snapshot(rows=8, seconds=0.5, complete=True)
        assert telemetry.attribute_order == ("A", "B")
        assert telemetry.rows == 8
        assert telemetry.complete
        a = telemetry.level("A")
        assert a.prefix == ()
        assert a.selectivity == pytest.approx(0.4)
        assert a.fanout == pytest.approx(4.0)
        b = telemetry.level("B")
        assert b.prefix == ("A",)
        assert b.selectivity == pytest.approx(1.0)
        assert b.fanout == pytest.approx(2.0)
        assert telemetry.level("Z") is None
        assert telemetry.total_candidates == 18

    def test_degenerate_level_ratios(self):
        level = ObservedLevel(
            attribute="A",
            position=0,
            prefix=(),
            partials=0,
            candidates=0,
            matches=0,
        )
        assert level.selectivity == 1.0
        assert level.fanout == 0.0


class TestEstimateDivergence:
    def _telemetry(self, matches_by_attr):
        levels = tuple(
            ObservedLevel(
                attribute=attr,
                position=i,
                prefix=tuple(matches_by_attr)[:i],
                partials=1,
                candidates=max(matches, 1),
                matches=matches,
            )
            for i, (attr, matches) in enumerate(matches_by_attr.items())
        )
        return ExecutionTelemetry(
            attribute_order=tuple(matches_by_attr),
            levels=levels,
            rows=0,
            seconds=0.0,
            complete=True,
        )

    def test_exact_estimates_diverge_by_one(self):
        telemetry = self._telemetry({"A": 10, "B": 100})
        assert estimate_divergence(
            (("A", 10.0), ("B", 100.0)), telemetry
        ) == pytest.approx(1.0)

    def test_both_directions_count(self):
        telemetry = self._telemetry({"A": 10})
        assert estimate_divergence(
            (("A", 100.0),), telemetry
        ) == pytest.approx(10.0)
        assert estimate_divergence((("A", 1.0),), telemetry) == pytest.approx(
            10.0
        )

    def test_unobserved_levels_skipped(self):
        telemetry = self._telemetry({"A": 10})
        assert estimate_divergence(
            (("A", 10.0), ("Z", 1e9)), telemetry
        ) == pytest.approx(1.0)
