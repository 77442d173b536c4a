"""Command-line interface: worst-case optimal joins over CSV files.

Usage::

    python -m repro join R.csv S.csv T.csv [--algorithm nprr] [-o out.csv]
    python -m repro join R.csv S.csv T.csv --stream
    python -m repro join R.csv S.csv T.csv --shards 4 --batch 500
    python -m repro join R.csv S.csv T.csv --workers 127.0.0.1:7102,127.0.0.1:7103 \\
        --steal --predictive
    python -m repro join R.csv S.csv T.csv --where A=1 --where-in B=2,3 \\
        --select A,C
    python -m repro join R.csv S.csv T.csv --count
    python -m repro join R.csv S.csv T.csv --sample 5 --seed 7
    python -m repro join R.csv S.csv T.csv --trace trace.json \\
        --metrics metrics.prom
    python -m repro bound R.csv S.csv T.csv
    python -m repro explain R.csv S.csv T.csv [--algorithm leapfrog]
    python -m repro explain R.csv S.csv T.csv --where A=1
    python -m repro explain R.csv S.csv T.csv --analyze
    python -m repro repl R.csv S.csv T.csv
    python -m repro serve R.csv S.csv T.csv --port 7712 --row-budget 1000000
    python -m repro worker --port 7102
    python -m repro --version

* ``join``    — compute the natural join (attributes join by column name);
                with ``--stream``, rows are printed as the engine finds
                them instead of being materialized and sorted; with
                ``--shards K``, the first join attribute is partitioned
                into K work-balanced shards run on a worker pool; with
                ``--batch N``, rows are written in batches of N (implies
                ``--stream`` delivery).  ``--where A=1`` binds an
                attribute to a constant (pushed into the plan: the
                attribute's level is eliminated), ``--where-in B=2,3``
                keeps rows whose value is in the set (a per-level filter
                inside the executors), and ``--select A,C`` projects the
                streamed output (deduplicated on the fly).  ``--count``
                prints only the number of result rows — folded into the
                join's level loops, never enumerating the result (with
                ``--shards`` the workers return partial counts) — and
                ``--sample K`` prints K distinct uniform result rows
                drawn exactly from one count (``--seed S`` repeats the
                draw on the same data wherever its values hash alike:
                ints in any process, strings only under one
                ``PYTHONHASHSEED``).  ``--workers host:port,...``
                dispatches the shards to a fleet of ``worker``
                processes instead of the local pool; ``--steal``
                enables within-run work stealing and ``--predictive``
                pre-splits hub-heavy shards at plan time
* ``bound``   — print the AGM output bound, the optimal fractional cover,
                and the dual packing certificate
* ``explain`` — print the engine's join plan (algorithm, attribute order,
                index backend, AGM estimate — plus bound attributes and
                residual filters when ``--where`` / ``--where-in`` /
                ``--select`` are given) and the query-plan tree and
                total order Algorithm 2 would use; with ``--stats``, also
                the statistics that justified each decision (distinct
                counts, exact selectivities, heavy hitters); with
                ``--analyze``, *execute* the query and print per-level
                estimated vs observed cardinalities beside the phase
                span timings (``EXPLAIN ANALYZE``)
* ``repl``    — interactive query shell over the loaded relations: the
                SQL-flavored language of :mod:`repro.lang` (joins,
                where/in, aggregates, group by, sample, explain), with
                caret diagnostics and ``\\timing``-style meta-commands
* ``serve``   — long-lived asyncio server speaking newline-delimited
                JSON over TCP: concurrent clients multiplexed over
                worker threads, a prepared-query cache keyed by
                normalized statement text, and AGM admission control
                (``--row-budget N`` rejects enumeration queries whose
                fractional-cover output bound exceeds N before running
                them; ``--queue-budget N`` serializes heavy queries)
* ``worker``  — shard worker for distributed execution: serves pickled
                shard tasks over the length-prefixed frame protocol of
                :mod:`repro.distributed` until interrupted; point
                ``join --workers`` (or a
                :class:`~repro.distributed.DispatchScheduler`) at a
                fleet of these

``join --trace FILE`` records a span tree of the run (plan,
stats-profile, index-build, execute / per-shard) and writes it as JSON;
``join --metrics FILE`` writes the run's metrics registry in Prometheus
text format.  Both headers carry the package version, as does
``--version`` itself.

Each CSV needs a header row of attribute names; the file stem is the
relation name.  ``--where`` / ``--where-in`` values are typed the way
the loader typed the attribute's columns: integers when every loaded
cell parses as one, strings otherwise.
"""

from __future__ import annotations

import argparse
import sys

from repro.api import ALGORITHMS
from repro.engine.parallel import batches
from repro.errors import QueryError
from repro.core.qptree import QPTree
from repro.core.query import JoinQuery
from repro.engine.backends import backend_kinds
from repro.hypergraph.agm import agm_bound, optimal_fractional_cover
from repro.hypergraph.duality import optimal_vertex_packing, packing_lower_bound
from repro.io import load_database_csv, save_relation_csv
from repro.observe.metrics import MetricsRegistry
from repro.observe.tracing import Tracer
from repro.query.builder import Q, QueryBuilder
from repro.version import __version__


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Worst-case optimal joins over CSV relations "
        "(Ngo-Porat-Re-Rudra, PODS 2012).",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"repro {__version__}",
        help="print the package version and exit",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    join_cmd = commands.add_parser("join", help="compute the natural join")
    join_cmd.add_argument("files", nargs="+", help="CSV files, one relation each")
    join_cmd.add_argument(
        "--algorithm",
        choices=ALGORITHMS,
        default="auto",
        help="join algorithm (default: auto)",
    )
    join_cmd.add_argument(
        "--backend",
        choices=backend_kinds(),
        default=None,
        help="index backend (default: planner's choice)",
    )
    join_cmd.add_argument(
        "--stream",
        action="store_true",
        help="print rows as the engine yields them (no materialization)",
    )
    join_cmd.add_argument(
        "--shards",
        type=_shard_count,
        default=None,
        metavar="K",
        help="partition the first join attribute into K shards run on a "
        "worker pool ('auto' picks from data statistics and CPU count)",
    )
    join_cmd.add_argument(
        "--batch",
        type=_batch_size,
        default=None,
        metavar="N",
        help="write output rows in batches of N (implies --stream delivery)",
    )
    join_cmd.add_argument(
        "--workers",
        type=_worker_addresses,
        default=None,
        metavar="HOST:PORT,...",
        help="dispatch shards to this fleet of 'python -m repro worker' "
        "servers instead of the local pool (implies --shards auto "
        "unless --shards is given)",
    )
    join_cmd.add_argument(
        "--steal",
        action="store_true",
        help="within-run work stealing: shards a rate model over "
        "completed-shard timings flags as hot are sub-split at claim "
        "time so idle workers steal them",
    )
    join_cmd.add_argument(
        "--predictive",
        action="store_true",
        help="pre-split shards holding heavy-hitter values at plan time",
    )
    join_cmd.add_argument(
        "--count",
        action="store_true",
        help="print the number of result rows instead of the rows; the "
        "count is folded into the join's level loops (no enumeration), "
        "and with --shards K the workers return partial counts",
    )
    join_cmd.add_argument(
        "--sample",
        type=_batch_size,
        default=None,
        metavar="K",
        help="print K distinct uniform result rows instead of the full "
        "result, drawn exactly from one count without materializing "
        "the join (repeatable with --seed)",
    )
    join_cmd.add_argument(
        "--seed",
        type=int,
        default=None,
        metavar="S",
        help="random seed for --sample: a fixed seed repeats the sample "
        "on int data; string data also needs a fixed PYTHONHASHSEED, as "
        "strings hash differently in each process",
    )
    join_cmd.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="record a span tree of the run (plan, stats-profile, "
        "index-build, execute / per-shard) and write it as JSON",
    )
    join_cmd.add_argument(
        "--metrics",
        default=None,
        metavar="FILE",
        help="write the run's metrics registry in Prometheus text format",
    )
    _add_query_options(join_cmd)
    join_cmd.add_argument(
        "-o", "--output", help="write the result CSV here (default: stdout)"
    )

    worker_cmd = commands.add_parser(
        "worker",
        help="shard worker server for distributed join execution",
    )
    worker_cmd.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: loopback)"
    )
    worker_cmd.add_argument(
        "--port",
        type=int,
        default=0,
        help="listen port (default: an ephemeral port, printed at startup)",
    )

    bound_cmd = commands.add_parser(
        "bound", help="print the AGM bound and its certificates"
    )
    bound_cmd.add_argument("files", nargs="+")

    explain_cmd = commands.add_parser(
        "explain", help="print the engine's join plan"
    )
    explain_cmd.add_argument("files", nargs="+")
    explain_cmd.add_argument(
        "--algorithm",
        choices=ALGORITHMS,
        default="auto",
        help="plan for this algorithm (default: auto)",
    )
    explain_cmd.add_argument(
        "--backend",
        choices=backend_kinds(),
        default=None,
        help="plan with this index backend (default: planner's choice)",
    )
    explain_cmd.add_argument(
        "--stats",
        action="store_true",
        help="also print the statistics that justified each decision "
        "(distinct counts, exact selectivities, heavy hitters)",
    )
    explain_cmd.add_argument(
        "--analyze",
        action="store_true",
        help="execute the query and print per-level estimated vs observed "
        "cardinalities beside the phase span timings (EXPLAIN ANALYZE)",
    )
    _add_query_options(explain_cmd)

    repl_cmd = commands.add_parser(
        "repl",
        help="interactive query shell over CSV-loaded relations",
    )
    repl_cmd.add_argument(
        "files", nargs="+", help="CSV files, one relation each"
    )
    repl_cmd.add_argument(
        "--algorithm",
        choices=ALGORITHMS,
        default="auto",
        help="join algorithm for every statement (default: auto)",
    )

    serve_cmd = commands.add_parser(
        "serve",
        help="long-lived NDJSON-over-TCP query server with AGM "
        "admission control",
    )
    serve_cmd.add_argument(
        "files", nargs="+", help="CSV files, one relation each"
    )
    serve_cmd.add_argument(
        "--host", default="127.0.0.1", help="bind address"
    )
    serve_cmd.add_argument(
        "--port",
        type=int,
        default=7712,
        help="TCP port (0 picks a free one; default: 7712)",
    )
    serve_cmd.add_argument(
        "--algorithm",
        choices=ALGORITHMS,
        default="auto",
        help="join algorithm for every statement (default: auto)",
    )
    serve_cmd.add_argument(
        "--row-budget",
        type=float,
        default=None,
        metavar="N",
        help="reject enumeration queries whose AGM output bound exceeds "
        "N rows (aggregates and samples stay admitted; default: no limit)",
    )
    serve_cmd.add_argument(
        "--queue-budget",
        type=float,
        default=None,
        metavar="N",
        help="serialize queries whose AGM bound exceeds N rows (one "
        "heavy query at a time; default: no queueing)",
    )
    serve_cmd.add_argument(
        "--max-concurrent",
        type=_batch_size,
        default=32,
        metavar="K",
        help="concurrent query ceiling across all clients (default: 32)",
    )
    serve_cmd.add_argument(
        "--cache-capacity",
        type=_batch_size,
        default=128,
        metavar="K",
        help="prepared-query cache entries, LRU-evicted (default: 128)",
    )
    serve_cmd.add_argument(
        "--batch",
        type=_batch_size,
        default=None,
        metavar="N",
        help="rows on a response's first streamed line; each later "
        "line doubles, up to 4096 (default: the server default, 256)",
    )

    return parser


def _add_query_options(command: argparse.ArgumentParser) -> None:
    """The query-layer clauses, shared by ``join`` and ``explain``."""
    command.add_argument(
        "--where",
        type=_where_clause,
        action="append",
        default=[],
        metavar="ATTR=VALUE",
        help="bind an attribute to a constant (repeatable); the binding "
        "is pushed into the plan and the attribute's level is eliminated",
    )
    command.add_argument(
        "--where-in",
        type=_where_in_clause,
        action="append",
        default=[],
        metavar="ATTR=V1,V2,...",
        help="keep rows whose attribute value is in the set (repeatable); "
        "runs as a per-level filter inside the executors",
    )
    command.add_argument(
        "--select",
        type=_select_list,
        default=None,
        metavar="A,B,...",
        help="project the output onto these attributes "
        "(streamed, deduplicated)",
    )


def _coerce(query: JoinQuery, attribute: str, text: str):
    """Type a clause value the way the CSV loader typed the column.

    ``load_relation_csv`` stores a column as ints only when *every*
    cell parses; mirroring that per loaded relation keeps ``--where
    A=1`` matching the data it was loaded against — on a mixed (string-
    typed) column the value stays a string, instead of becoming an int
    that can never equal anything.
    """
    try:
        as_int = int(text)
    except ValueError:
        return text
    for relation in query.relations.values():
        if attribute not in relation.attribute_set:
            continue
        position = relation.position(attribute)
        if any(
            not isinstance(row[position], int) for row in relation.tuples
        ):
            return text
    return as_int


def _where_clause(text: str) -> tuple[str, str]:
    """argparse type for ``--where``: ``ATTR=VALUE`` (value typed later,
    against the loaded columns)."""
    attribute, sep, value = text.partition("=")
    if not sep or not attribute.strip():
        raise argparse.ArgumentTypeError(
            f"expected ATTR=VALUE, got {text!r}"
        )
    return attribute.strip(), value.strip()


def _where_in_clause(text: str) -> tuple[str, tuple]:
    """argparse type for ``--where-in``: ``ATTR=V1,V2,...`` (values
    typed later, against the loaded columns)."""
    attribute, sep, values = text.partition("=")
    if not sep or not attribute.strip() or not values.strip():
        raise argparse.ArgumentTypeError(
            f"expected ATTR=V1,V2,..., got {text!r}"
        )
    return attribute.strip(), tuple(v.strip() for v in values.split(","))


def _select_list(text: str) -> tuple[str, ...]:
    """argparse type for ``--select``: a comma-separated attribute list."""
    attributes = tuple(a.strip() for a in text.split(",") if a.strip())
    if not attributes:
        raise argparse.ArgumentTypeError(
            f"expected a comma-separated attribute list, got {text!r}"
        )
    return attributes


def _build_query(args: argparse.Namespace) -> QueryBuilder:
    """Assemble the fluent builder every query command drives."""
    query = _load_query(args.files)
    builder = Q(query).using(algorithm=args.algorithm, backend=args.backend)
    for attribute, value in args.where:
        builder = builder.where(
            **{attribute: _coerce(query, attribute, value)}
        )
    for attribute, values in args.where_in:
        builder = builder.where_in(
            attribute, tuple(_coerce(query, attribute, v) for v in values)
        )
    if args.select is not None:
        builder = builder.select(*args.select)
    return builder


def _shard_count(text: str) -> int | str:
    """argparse type for ``--shards``: a positive int or the word 'auto'."""
    if text == "auto":
        return text
    try:
        count = int(text)
    except ValueError:
        count = 0
    if count < 1:
        raise argparse.ArgumentTypeError(
            f"expected a positive shard count or 'auto', got {text!r}"
        )
    return count


def _batch_size(text: str) -> int:
    """argparse type for ``--batch``: a positive int.

    Rejected here so a bad value is a clean usage error — not a
    traceback after ``-o`` has already opened (and truncated) the
    output file.
    """
    try:
        size = int(text)
    except ValueError:
        size = 0
    if size < 1:
        raise argparse.ArgumentTypeError(
            f"expected a positive batch size, got {text!r}"
        )
    return size


def _worker_addresses(text: str) -> list[tuple[str, int]]:
    """argparse type for ``--workers``: comma-separated host:port pairs."""
    addresses = []
    for part in text.split(","):
        host, sep, port_text = part.strip().rpartition(":")
        try:
            port = int(port_text)
        except ValueError:
            port = 0
        if not sep or not host or not 0 < port < 65536:
            raise argparse.ArgumentTypeError(
                f"expected HOST:PORT[,HOST:PORT...], got {part!r}"
            )
        addresses.append((host, port))
    return addresses


def _sharding(builder: QueryBuilder, args: argparse.Namespace) -> QueryBuilder:
    """Attach the sharding spec (and the fleet, with ``--workers``)."""
    if (
        args.shards is None
        and args.workers is None
        and not args.steal
        and not args.predictive
    ):
        return builder
    from repro.query.shards import ShardSpec

    spec = ShardSpec(
        args.shards if args.shards is not None else "auto",
        predictive=args.predictive,
        steal=args.steal or None,
    )
    if args.workers is None:
        return builder.using(shards=spec)
    from repro.distributed import DispatchScheduler, SocketTransport

    fleet = DispatchScheduler(
        [SocketTransport(host, port) for host, port in args.workers]
    )
    return builder.using(shards=spec, scheduler=fleet)


def _load_query(files: list[str]) -> JoinQuery:
    return JoinQuery(load_database_csv(files))


def _cmd_join(args: argparse.Namespace) -> int:
    if args.count and args.sample is not None:
        raise QueryError("--count and --sample are mutually exclusive")
    if (args.count or args.sample is not None) and (
        args.stream or args.batch is not None
    ):
        raise QueryError(
            "--count/--sample replace the output; they do not combine "
            "with --stream or --batch"
        )
    builder = _build_query(args)  # QueryError -> usage error via main()
    tracer = Tracer(name="join") if args.trace is not None else None
    registry = MetricsRegistry() if args.metrics is not None else None
    if tracer is not None or registry is not None:
        builder = builder.using(tracer=tracer, metrics=registry)
    status = _run_join(builder, args)
    if tracer is not None:
        with open(args.trace, "w", encoding="utf-8") as sink:
            sink.write(tracer.export_json() + "\n")
        print(f"trace -> {args.trace}", file=sys.stderr)
    if registry is not None:
        with open(args.metrics, "w", encoding="utf-8") as sink:
            sink.write(registry.to_prometheus())
        print(f"metrics -> {args.metrics}", file=sys.stderr)
    return status


def _run_join(builder: QueryBuilder, args: argparse.Namespace) -> int:
    """Dispatch one ``join`` invocation (count/sample/stream/materialize)."""
    builder = _sharding(builder, args)
    if args.count:
        print(builder.count())
        return 0
    if args.sample is not None:
        rows = builder.sample(args.sample, seed=args.seed)
        print(",".join(builder.output_attributes))
        for row in rows:
            print(",".join(str(v) for v in row))
        return 0
    if args.stream or builder.context.parallel or args.batch is not None:
        return _stream_join(builder, args)
    result = builder.run()
    if args.output:
        save_relation_csv(result, args.output)
        print(f"{len(result)} tuples -> {args.output}")
    else:
        print(",".join(result.attributes))
        for row in sorted(result.tuples, key=repr):
            print(",".join(str(v) for v in row))
    return 0


def _stream_join(builder: QueryBuilder, args: argparse.Namespace) -> int:
    """End-to-end streaming: rows leave the process as they are found.

    ``--shards`` routes through the parallel sharded driver; ``--batch``
    groups rows into fixed-size batches and writes each batch with a
    single call, so per-row write overhead is amortized.
    """
    rows = builder.stream()
    header = ",".join(builder.output_attributes)

    def chunks():
        """(csv text, row count) pairs — one per batch, or per row."""
        if args.batch is not None:
            for batch in batches(rows, args.batch):
                text = "".join(
                    ",".join(str(v) for v in row) + "\n" for row in batch
                )
                yield text, len(batch)
        else:
            for row in rows:
                yield ",".join(str(v) for v in row) + "\n", 1

    if args.output:
        count = 0
        with open(args.output, "w", encoding="utf-8", newline="") as sink:
            sink.write(header + "\n")
            for text, rows_in_chunk in chunks():
                sink.write(text)
                count += rows_in_chunk
        print(f"{count} tuples -> {args.output}")
    else:
        print(header)
        for text, _ in chunks():
            print(text, end="")
    return 0


def _cmd_bound(args: argparse.Namespace) -> int:
    query = _load_query(args.files)
    sizes = query.sizes()
    cover = optimal_fractional_cover(query.hypergraph, sizes)
    bound = agm_bound(query.hypergraph, sizes, cover)
    packing = optimal_vertex_packing(query.hypergraph, sizes)
    print(f"relations: {', '.join(f'{e}({n})' for e, n in sizes.items())}")
    print(f"AGM bound: {bound:.3f} output tuples")
    print("optimal fractional cover:")
    for eid, weight in cover.items():
        print(f"  x[{eid}] = {weight}")
    print("dual packing certificate (worst-case witness):")
    for vertex, weight in packing.items():
        print(f"  y[{vertex}] = {weight}")
    print(f"certified worst case: {packing_lower_bound(packing):.3f} tuples")
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    builder = _build_query(args)
    if args.analyze:
        analysis = builder.explain(analyze=True)
        print(analysis.describe(show_stats=args.stats))
        return 0
    plan = builder.plan()
    print(plan.describe(show_stats=args.stats))
    print()
    print("Algorithm 2 query-plan tree (for --algorithm nprr):")
    tree = QPTree(builder.query.hypergraph)
    print(tree.render())
    return 0


def _cmd_repl(args: argparse.Namespace) -> int:
    from repro.lang.repl import Repl
    from repro.query.context import ExecutionContext
    from repro.relations.database import Database

    database = Database(load_database_csv(args.files))
    context = ExecutionContext(algorithm=args.algorithm)
    return Repl(database, context=context).run()


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.query.context import ExecutionContext
    from repro.relations.database import Database
    from repro.server.admission import AdmissionController
    from repro.server.cache import PreparedCache
    from repro.server.service import DEFAULT_BATCH_ROWS, JoinServer

    database = Database(load_database_csv(args.files))
    server = JoinServer(
        database,
        host=args.host,
        port=args.port,
        admission=AdmissionController(
            row_budget=args.row_budget,
            queue_budget=args.queue_budget,
            max_concurrent=args.max_concurrent,
        ),
        cache=PreparedCache(capacity=args.cache_capacity),
        context=ExecutionContext(algorithm=args.algorithm),
        batch_rows=args.batch or DEFAULT_BATCH_ROWS,
    )

    async def run() -> None:
        host, port = await server.start()
        budget = (
            f"row budget {args.row_budget:g}"
            if args.row_budget is not None
            else "no row budget"
        )
        print(
            f"repro server listening on {host}:{port} "
            f"({len(database)} relation(s), {budget})",
            file=sys.stderr,
        )
        await server.serve_forever()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    from repro.distributed.worker import WorkerServer

    server = WorkerServer(host=args.host, port=args.port)
    host, port = server.address
    print(f"repro worker listening on {host}:{port}", file=sys.stderr)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "join": _cmd_join,
        "bound": _cmd_bound,
        "explain": _cmd_explain,
        "repl": _cmd_repl,
        "serve": _cmd_serve,
        "worker": _cmd_worker,
    }
    try:
        return handlers[args.command](args)
    except QueryError as error:
        # Bad query-layer input (unknown --where attribute, conflicting
        # bindings, ...) is a usage error, like every other bad flag —
        # never a traceback.
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
