"""The untraced run: end-to-end metrics through the default front doors.

Every phase sends the same request — the full natural join, all
attributes out — through one front door with nothing pinned
(``algorithm="auto"``), in a closed loop, one request at a time, and
checks every answer against the oracle:

* ``cold``    fresh ``Relation`` objects and a fresh ``Database`` per
  sample; ``execute(...)`` timed to the last row;
* ``warm``    the same ``Database``, repeated;
* ``count``   ``.count()`` on the warm ``Database``;
* ``server``  one ``ServerClient``, the statement text in, last row decoded.

At most one thread of the benchmark and one of the server are ever
runnable, so the two cpus of the reference host are never oversubscribed.
The front doors that run more than that at once — two server clients, the
process-pool shards, the worker fleet — spread 5-15% from run to run on
that host, 25% in the driver's check, so they are timed in the traced run
(``e2e_layers``: ``server_qps``, ``sharded_query_s``, ``fleet_query_s``)
and gate nothing.

Phases are interleaved round-robin rather than run back to back: on a
shared host, a slow stretch of seconds then lands on every phase alike,
where back-to-back phases would hand it to one metric.

Each metric is the *fast decile* of its samples: the mean of the fastest
tenth.  Interference on the shared reference host only ever adds time,
comes in bursts of about a second that slow a request by 30-60%, and in
a bad hour covers most of a run; the median then measures the neighbours
(run-to-run spread over ten seeds up to 22% in a quiet hour, 29% in a bad
one), the fast decile the program (7% and 15%) — README, "Steadiness".
Plain medians are recorded beside it, and the raw samples.
"""

from __future__ import annotations

from statistics import median

from repro import execute
from repro.query.builder import Q
from repro.relations.database import Database

from e2e_harness import Fixture, Ops, fast_decile, fresh_relations, perf

#: Untimed passes over every phase before measuring (caches fill, the
#: prepared cache holds the statement, the connection is open).
WARMUP_PASSES = 2
#: A run never reports a phase from fewer samples than this.
MIN_ROUNDS = 11
#: Phase -> the end-to-end metric it reports.
METRIC_OF_PHASE = {
    "cold": "cold_query_s",
    "warm": "warm_query_s",
    "count": "count_query_s",
    "server": "server_query_s",
}


def _phases(fx: Fixture, ops: Ops) -> dict:
    """Phase name -> zero-argument callable returning seconds or None."""
    oracle = fx.oracle
    client = fx.client()

    def cold() -> float | None:
        relations = fresh_relations(fx.relations)
        builder = Q(*relations).on(Database(relations))
        return ops.timed("cold", lambda: list(execute(builder)), oracle.matches)

    def warm() -> float | None:
        return ops.timed("warm", lambda: list(execute(fx.builder)), oracle.matches)

    def count() -> float | None:
        return ops.timed(
            "count", lambda: execute(fx.builder).count(), lambda n: n == len(oracle)
        )

    def server() -> float | None:
        return ops.timed(
            "server",
            lambda: client.query(fx.statement),
            lambda outcome: oracle.matches(outcome.rows, outcome.columns),
        )

    return {"cold": cold, "warm": warm, "count": count, "server": server}


def measure(fx: Fixture, ops: Ops, seconds: float, min_rounds: int = MIN_ROUNDS) -> dict:
    """Measure for ``seconds``; returns ``{"samples": ..., "metrics": ...}``
    (a phase with no clean sample is left out of the metrics)."""
    phases = _phases(fx, ops)
    samples: dict[str, list[float]] = {name: [] for name in phases}

    for _ in range(WARMUP_PASSES):
        for run in phases.values():
            run()

    slice_s = seconds / 200.0
    start = perf()
    rounds = 0
    while True:
        elapsed = perf() - start
        if elapsed >= seconds and (rounds >= min_rounds or elapsed >= 4 * seconds):
            break
        for name, run in phases.items():
            slice_start = perf()
            while True:
                taken = run()
                if taken is not None:
                    samples[name].append(taken)
                if perf() - slice_start >= slice_s:
                    break
        rounds += 1

    metrics = {
        METRIC_OF_PHASE[phase]: {"value": fast_decile(values), "unit": "s"}
        for phase, values in samples.items()
        if values
    }
    return {
        "samples": {phase: len(values) for phase, values in samples.items()},
        "medians": {METRIC_OF_PHASE[phase]: median(v) for phase, v in samples.items() if v},
        "raw_samples": samples,
        "rounds": rounds,
        "metrics": metrics,
    }
