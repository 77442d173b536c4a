"""The traced run: every layer timed from outside, plus the staged replay.

Each metric below calls one layer's public functions directly — the
language front-end, the cover LP, the statistics provider, the planner,
the index builders, each executor, the aggregate folds, the query
builder, the server, the shard drivers, the fleet — and reports the
median of a few samples (counts are read once and must repeat exactly;
the three front doors too unsteady to gate get a longer look, see
``FRONT_DOOR_SLOTS``).
Ratios carry the name of their base.  ``replay`` then walks one cold and
one warm request through those same layers stage by stage, each stage
inside a harness span; the stage times are the ledger, and the share of
the real cold request they fail to explain is
``ledger.unattributed_share``.

Metric names are the contract later issues cite; the README holds the
glossary and which end-to-end metric each one should move.
"""

from __future__ import annotations

import gc
import json
import socket
import threading
from statistics import median

from repro import execute
from repro.core.query import JoinQuery
from repro.distributed import DispatchScheduler, LoopbackTransport
from repro.engine.parallel import batches
from repro.engine.planner import plan_join
from repro.errors import ReproError
from repro.hypergraph.agm import agm_bound, optimal_fractional_cover
from repro.lang import compile_query, normalize, parse
from repro.observe.tracing import Tracer
from repro.query.builder import Q
from repro.query.context import ExecutionContext
from repro.query.shards import ShardSpec
from repro.relations.database import Database, build_index
from repro.server import ServerClient, ServerError
from repro.server.protocol import encode
from repro.stats.provider import StatsProvider

from e2e_harness import (
    CLIENTS,
    FLEET_WORKERS,
    Fixture,
    Ops,
    Spans,
    cpus,
    fast_decile,
    fresh_relations,
    perf,
    sample,
)

#: The per-metric sampling budget is ``seconds / SLOTS`` (about sixty
#: timed metrics share one run).
SLOTS = 60
#: Slots, and least samples, of each front door that keeps more than two
#: threads or processes busy at once (``server_qps``, ``sharded_query_s``,
#: ``fleet_query_s``): end-to-end timings in all but steadiness, so they
#: get the untraced run's statistic, the fast decile, over a longer look.
FRONT_DOOR_SLOTS = 6
FRONT_DOOR_SAMPLES = 11
#: Rows per response line of the server (its default), used by the
#: replay's delivery stage.
SERVER_BATCH_ROWS = 256
#: Cold and warm requests replayed; a ledger stage is the median over them.
REPLAYS = 5
#: The replay's stages, in request order.
STAGES = (
    "lang.parse",
    "lang.compile",
    "stats.profile",
    "engine.plan",
    "relations.build",
    "core.descent",
    "query.delivery",
)


def throughput_window(fx: Fixture, ops: Ops, clients: list, requests: int) -> float | None:
    """``requests`` statements down each client connection, concurrently;
    requests per second over the window, or ``None`` if any failed."""
    outcomes: list[list] = [[] for _ in clients]

    def loop(client, sink: list) -> None:
        for _ in range(requests):
            try:
                sink.append(client.query(fx.statement))
            except Exception as error:  # counted below, per request
                sink.append(error)

    threads = [
        threading.Thread(target=loop, args=(client, sink))
        for client, sink in zip(clients, outcomes)
    ]
    start = perf()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = perf() - start
    clean = True
    for sink in outcomes:
        for outcome in sink:
            ok = not isinstance(outcome, Exception) and fx.oracle.matches(
                outcome.rows, outcome.columns
            )
            clean = ops.record(ok, f"server_qps: {outcome!r}"[:200]) and clean
    return len(clients) * requests / elapsed if clean else None


def _joined_pairs(relations):
    return [
        (source, target)
        for source in relations
        for target in relations
        if source is not target and source.attribute_set & target.attribute_set
    ]


class _Layers:
    def __init__(
        self,
        fx: Fixture,
        ops: Ops,
        seconds: float,
        min_samples: int,
        front_door_samples: int,
        replays: int,
    ) -> None:
        self.fx = fx
        self.ops = ops
        self.budget = seconds / SLOTS
        self.min_samples = min_samples
        self.front_door_samples = front_door_samples
        self.replays = replays
        self.query = JoinQuery(fx.relations)
        self.metrics: dict[str, dict] = {}
        self.bases: dict[str, str] = {}
        self.samples: dict[str, int] = {}
        self.notes: list[str] = []
        self.spans = Spans()
        self._result = None

    # -- recording ------------------------------------------------------------

    def put(self, name: str, value: float, unit: str, base: str | None = None) -> None:
        self.metrics[name] = {"value": value, "unit": unit}
        if base is not None:
            self.bases[name] = base

    def value(self, name: str) -> float:
        return self.metrics[name]["value"]

    def ratio(self, name: str, numerator: str, base: str) -> None:
        if numerator in self.metrics and base in self.metrics:
            self.put(name, self.value(numerator) / self.value(base), "ratio", base)

    def time(
        self, name, run, verify=lambda result: True, prepare=None, pick=None, front_door=False
    ):
        """Sample one operation; record and return the median seconds
        (of a ``front_door``: the fast decile, see ``FRONT_DOOR_SLOTS``).

        ``prepare`` builds the operation's argument off the clock;
        ``pick`` extracts the seconds to record from the result when the
        interesting time is not the whole call.
        """

        def once() -> float | None:
            argument = prepare() if prepare is not None else None
            call = (lambda: run(argument)) if prepare is not None else run

            def keep(result):
                self._result = result
                return verify(result)

            seconds = self.ops.timed(name, call, keep)
            if seconds is not None and pick is not None:
                return pick(self._result)
            return seconds

        if front_door:
            times = sample(once, FRONT_DOOR_SLOTS * self.budget, self.front_door_samples)
        else:
            times = sample(once, self.budget, self.min_samples)
        self.samples[name] = len(times)
        if not times:
            return None
        self.put(name, fast_decile(times) if front_door else median(times), "s")
        return self.value(name)

    def rows_ok(self, rows) -> bool:
        return self.fx.oracle.matches(rows, self.query.attributes)

    # -- layers ---------------------------------------------------------------

    def front_end(self) -> None:
        fx = self.fx
        self.time("lang.parse_s", lambda: parse(fx.statement))
        statement = parse(fx.statement)
        self.time(
            "lang.compile_s",
            lambda: compile_query(statement, fx.database, ExecutionContext()),
        )
        self.time("lang.normalize_s", lambda: normalize(fx.statement))

        hypergraph, sizes = self.query.hypergraph, self.query.sizes()

        def bound() -> float:
            return agm_bound(
                hypergraph, sizes, optimal_fractional_cover(hypergraph, sizes)
            )

        self.time("hypergraph.cover_lp_s", bound)
        self.put("hypergraph.agm_bound_rows", bound(), "count")

    def statistics_and_planning(self) -> None:
        fx = self.fx

        def profile(relations) -> None:
            provider = StatsProvider()
            for relation in relations:
                provider.profile(relation)
            for source, target in _joined_pairs(relations):
                provider.selectivity(source, target)
            provider.heavy_hitters(JoinQuery(relations))

        self.time(
            "stats.profile_s", profile, prepare=lambda: fresh_relations(fx.relations)
        )

        def fresh_catalog():
            relations = fresh_relations(fx.relations)
            return JoinQuery(relations), ExecutionContext(database=Database(relations))

        self.time(
            "engine.plan_cold_s",
            lambda prepared: plan_join(prepared[0], context=prepared[1]),
            prepare=fresh_catalog,
        )
        warm = ExecutionContext(database=fx.database)
        self.time("engine.plan_warm_s", lambda: plan_join(self.query, context=warm))

    def index_builds(self) -> None:
        fx = self.fx
        requirements = plan_join(
            self.query, "generic", database=fx.database
        ).index_requirements()
        for kind, layer in (("trie", "relations"), ("sorted", "relations"), ("compact", "engine")):
            built = self.time(
                f"{layer}.build_{kind}_s",
                lambda kind=kind: [
                    build_index(fx.database[name], order, kind)
                    for name, order, _kind in requirements
                ],
            )
            if built is not None:
                self.put(
                    f"{layer}.index_bytes_{kind}",
                    sum(index.nbytes() for index in self._result),
                    "count",
                )

        # One cold and three warm auto requests against a fresh catalog:
        # what the index cache did for them.
        relations = fresh_relations(fx.relations)
        database = Database(relations)
        builder = Q(*relations).on(database)
        for _ in range(4):
            self.ops.timed("cache-probe", lambda: list(execute(builder)), fx.oracle.matches)
        info = database.cache_info()
        self.put("relations.cache_hits", info.hits, "count")
        self.put("relations.cache_misses", info.misses, "count")
        self.put("relations.cache_evictions", info.evictions, "count")

    def executor(self, name: str, algorithm: str, backend: str | None = None) -> None:
        """Time one executor's row stream, indexes already built.  A shape
        the algorithm does not admit leaves the metric out."""
        fx = self.fx
        try:
            plan = plan_join(self.query, algorithm, backend=backend, database=fx.database)
            executor = plan.executor(database=fx.database)
        except ReproError:
            return
        self.time(name, lambda: list(executor.iter_join()), self.rows_ok)

    def kernels(self) -> None:
        fx = self.fx
        self.executor("core.auto_executor_s", "auto")
        for backend in ("trie", "sorted", "compact"):
            self.executor(f"core.generic_{backend}_s", "generic", backend)
        self.executor("core.leapfrog_s", "leapfrog")
        self.executor("core.nprr_s", "nprr")
        self.executor("core.lw_s", "lw")
        self.executor("core.arity2_s", "arity2")
        self.ratio("core.auto_vs_generic", "core.auto_executor_s", "core.generic_trie_s")

        analysis = (
            Q(*fx.relations).on(fx.database).using(algorithm="generic").explain(analyze=True)
        )
        self.ops.record(analysis.rows == len(fx.oracle), "explain analyze: row count")
        candidates = sum(level.candidates or 0 for level in analysis.levels)
        self.put("core.generic_candidates", candidates, "count")
        self.put(
            "core.generic_matches",
            sum(level.matches or 0 for level in analysis.levels),
            "count",
        )
        self.put("core.rows_out", analysis.rows, "count")
        # Per row *found*; an empty join divides by one.
        self.put(
            "core.candidates_per_row", candidates / max(analysis.rows, 1), "ratio",
            "core.rows_out",
        )
        self.put(
            "core.candidates_over_agm",
            candidates / self.value("hypergraph.agm_bound_rows"),
            "ratio",
            "hypergraph.agm_bound_rows",
        )

    def aggregates(self) -> None:
        fx = self.fx
        expected = len(fx.oracle)
        self.time(
            "aggregate.count_generic_s",
            lambda: execute(fx.builder, algorithm="generic").count(),
            lambda n: n == expected,
        )
        self.ratio("aggregate.count_vs_enumerate", "aggregate.count_generic_s", "core.generic_trie_s")
        self.time(
            "aggregate.sample_100_s",
            lambda: execute(fx.builder).sample(100, seed=7),
            lambda rows: len(rows) == min(100, expected) and fx.oracle.contains(rows),
        )

    def query_layer(self) -> None:
        fx = self.fx
        self.time("warm_query_s", lambda: list(execute(fx.builder)), fx.oracle.matches)
        self.time(
            "cold_query_s",
            lambda builder: list(execute(builder)),
            fx.oracle.matches,
            prepare=self._cold_builder,
        )
        self.time("query.prepare_s", lambda: fx.builder.prepare())
        prepared = fx.builder.prepare()
        self.time("query.prepared_run_s", lambda: list(prepared.stream()), fx.oracle.matches)
        self.time(
            "query.batches_s",
            lambda: list(execute(fx.builder).batches(1024)),
            lambda chunks: fx.oracle.matches([row for chunk in chunks for row in chunk]),
        )
        self.put(
            "query.overhead_s",
            self.value("warm_query_s") - self.value("core.auto_executor_s"),
            "s",
        )
        self.time(
            "observe.traced_query_s",
            lambda tracer: list(execute(fx.builder, tracer=tracer)),
            fx.oracle.matches,
            prepare=Tracer,
        )
        self.ratio("observe.tracer_overhead", "observe.traced_query_s", "warm_query_s")
        self.put("baselines.hash_join_s", fx.hash_join_s, "s")
        self.ratio("baselines.hash_vs_warm", "baselines.hash_join_s", "warm_query_s")

    def _cold_builder(self):
        relations = fresh_relations(self.fx.relations)
        return Q(*relations).on(Database(relations))

    def server(self) -> None:
        fx = self.fx
        client = fx.client()
        self.time("server.ping_s", client.ping)
        self.time(
            "server_query_s",
            lambda: client.query(fx.statement),
            lambda outcome: fx.oracle.matches(outcome.rows, outcome.columns),
        )
        self.put(
            "server.wire_share",
            (self.value("server_query_s") - self.value("warm_query_s"))
            / self.value("server_query_s"),
            "ratio",
            "server_query_s",
        )

        # A literal no relation holds makes every normalized text new (a
        # prepared-cache miss: parse + compile + plan + prepare) while the
        # one live value keeps execution small.
        first = fx.relations[0]
        attribute, anchor = first.attributes[0], min(row[0] for row in first.tuples)
        names = ", ".join(r.name for r in fx.relations)
        self.time(
            "server.cache_miss_s",
            lambda text: client.query(text),
            lambda outcome: not outcome.cached and len(outcome.rows) == 1,
            prepare=lambda: (
                f"select count(*) from {names} "
                f"where {attribute} in ({anchor}, {next(fx.unused_literals)});"
            ),
        )

        with socket.create_connection(("127.0.0.1", fx.server_port), 30.0) as raw:
            reader = raw.makefile("rb")
            request = (json.dumps({"id": 1, "op": "query", "q": fx.statement}) + "\n").encode()

            def stream():
                start = perf()
                raw.sendall(request)
                line = reader.readline()
                first_line = perf() - start
                received = len(line)
                while not json.loads(line).get("final"):
                    line = reader.readline()
                    if not line:
                        raise ConnectionError("server hung up mid-response")
                    received += len(line)
                return first_line, received, json.loads(line)

            self.time(
                "server.first_batch_s",
                stream,
                lambda result: result[2].get("ok") and result[2]["rows_total"] == len(fx.oracle),
                pick=lambda result: result[0],
            )
            _first, received, _final = self._result
            # Response bytes per row delivered; an empty join divides by one.
            self.put("server.bytes_per_row", received / max(len(fx.oracle), 1), "count")

        one, two = [fx.client()], [fx.client() for _ in range(CLIENTS)]
        per_window = max(1, min(50, round(0.1 / self.value("server_query_s"))))

        def windows(name: str, clients: list, budget_s: float, min_n: int) -> list[float]:
            rates = sample(
                lambda: throughput_window(fx, self.ops, clients, per_window), budget_s, min_n
            )
            self.samples[name] = len(rates)
            return rates

        alone = windows("server.qps_1client", one, self.budget, self.min_samples)
        together = windows(
            "server_qps", two, FRONT_DOOR_SLOTS * self.budget, self.front_door_samples
        )
        if alone and together:
            self.put("server.qps_1client", median(alone), "1/s")
            self.put("server_qps", fast_decile(together, higher_is_better=True), "1/s")
            # Median over median: the gain compares like with like.
            self.put(
                "server.concurrency_gain", median(together) / median(alone), "ratio",
                "server.qps_1client",
            )

        def refused() -> str:
            try:
                guarded.query(fx.statement)
            except ServerError as error:
                return error.kind
            return "admitted"

        with ServerClient("127.0.0.1", fx.start_server("--row-budget", "1")) as guarded:
            self.time("server.admission_reject_s", refused, lambda kind: kind == "admission")

    def sharding(self) -> None:
        fx = self.fx
        spec = ShardSpec(FLEET_WORKERS)

        def rows(**options):
            return lambda: list(execute(fx.builder, **options))

        self.time("sharded_query_s", rows(shards=spec), fx.oracle.matches, front_door=True)
        self.time("engine.shards_thread_s", rows(shards=spec, mode="thread"), fx.oracle.matches)
        self.time("engine.shards_process_s", rows(shards=spec, mode="process"), fx.oracle.matches)
        # A measured wall ratio on this host, never a modelled critical path.
        self.put(
            "engine.shard_speedup",
            self.value("warm_query_s") / self.value("sharded_query_s"),
            "ratio",
            "warm_query_s",
        )
        if cpus() < 2:
            self.notes.append(
                "engine.shard_speedup was measured on a host with fewer than "
                "2 cpus; it says nothing about parallel speed-up"
            )

        loopback = DispatchScheduler([LoopbackTransport() for _ in range(FLEET_WORKERS)])
        self.time(
            "distributed.loopback_query_s", rows(shards=spec, scheduler=loopback), fx.oracle.matches
        )
        self.time(
            "distributed.steal_query_s",
            rows(shards=ShardSpec(FLEET_WORKERS, steal=True), scheduler=fx.scheduler),
            fx.oracle.matches,
        )
        self.time(
            "distributed.presplit_query_s",
            rows(shards=ShardSpec(FLEET_WORKERS, predictive=True), scheduler=fx.scheduler),
            fx.oracle.matches,
        )

        overheads = []

        def fleet():
            start = perf()
            result = list(execute(fx.builder, shards=spec, scheduler=fx.scheduler))
            wall = perf() - start
            overheads.append(wall - fx.scheduler.last_run["max_shard_seconds"])
            return result

        self.time("fleet_query_s", fleet, fx.oracle.matches, front_door=True)
        last = fx.scheduler.last_run
        for metric, key in (
            ("shards_run", "shards"), ("steals", "steals"),
            ("presplits", "presplits"), ("retries", "retries"),
        ):
            self.put(f"distributed.{metric}", last[key], "count")
        self.put("distributed.shard_seconds", last["shard_seconds"], "s")
        self.put("distributed.max_shard_seconds", last["max_shard_seconds"], "s")
        self.put("distributed.dispatch_overhead_s", median(overheads), "s")

    # -- the staged replay ----------------------------------------------------

    def replay(self, request: str, database: Database, consulted) -> None:
        """One request, text in to serialized rows out, one stage at a
        time.  ``consulted`` is the statistics the real plan asks for
        (``plan.statistics`` of an untimed probe), so the statistics stage
        does that work and no more."""
        fx, span = self.fx, self.spans.span
        relations = list(database)
        by_name = {r.name: r for r in relations}
        with span("request", request):
            with span("lang.parse", request):
                statement = parse(fx.statement)
            with span("lang.compile", request):
                compiled = compile_query(statement, database, ExecutionContext())
            with span("stats.profile", request):
                if consulted is not None:
                    provider = database.stats()
                    for relation in relations:
                        provider.profile(relation)
                    for source, target, _p in consulted.selectivities:
                        provider.selectivity(by_name[source], by_name[target])
                    provider.heavy_hitters(compiled.builder.query)
            with span("engine.plan", request):
                plan = compiled.builder.plan()
            with span("relations.build", request):
                for name, order, kind in plan.index_requirements():
                    with span(f"relations.build:{name}", request):
                        database.index(name, order, kind)
            with span("core.descent", request):
                rows = list(plan.executor(database=database).iter_join())
            with span("query.delivery", request):
                for batch in batches(iter(rows), SERVER_BATCH_ROWS):
                    encode({"id": 1, "rows": [list(row) for row in batch]})
        self.ops.record(
            fx.oracle.matches(rows, plan.query.attributes), f"replay {request}: oracle mismatch"
        )

    def ledger(self) -> None:
        fx = self.fx
        probe = fresh_relations(fx.relations)
        consulted = plan_join(
            JoinQuery(probe), context=ExecutionContext(database=Database(probe))
        ).statistics
        for kind, prefix in (("cold", "ledger."), ("warm", "ledger.warm.")):
            replays = []
            for number in range(self.replays):
                database = (
                    Database(fresh_relations(fx.relations)) if kind == "cold" else fx.database
                )
                gc.collect()
                self.replay(f"{kind}-{number}", database, consulted)
                replays.append(self.spans.stage_seconds(f"{kind}-{number}"))
            for stage in STAGES:
                self.put(f"{prefix}{stage}_s", median([r[stage] for r in replays]), "s")
            self.put(
                f"{prefix}staged_total_s", median([sum(r.values()) for r in replays]), "s"
            )
        self.put(
            "ledger.unattributed_share",
            abs(self.value("cold_query_s") - self.value("ledger.staged_total_s"))
            / self.value("cold_query_s"),
            "ratio",
            "cold_query_s",
        )


def measure(
    fx: Fixture,
    ops: Ops,
    seconds: float,
    setup_parts: dict[str, float],
    min_samples: int = 3,
    front_door_samples: int = FRONT_DOOR_SAMPLES,
    replays: int = REPLAYS,
) -> dict:
    layers = _Layers(fx, ops, seconds, min_samples, front_door_samples, replays)
    for name, value in setup_parts.items():
        layers.put(name, value, "s")
    layers.front_end()
    layers.statistics_and_planning()
    layers.index_builds()
    layers.kernels()
    layers.aggregates()
    layers.query_layer()
    layers.server()
    layers.sharding()
    layers.ledger()
    layers.put("failed_ops_share", ops.failed / max(ops.attempted, 1), "ratio")
    return {
        "metrics": layers.metrics,
        "bases": layers.bases,
        "samples": layers.samples,
        "notes": layers.notes,
        "spans": layers.spans.records,
    }
