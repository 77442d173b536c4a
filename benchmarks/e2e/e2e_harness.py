"""Shared machinery of the end-to-end benchmark: the fixture that owns
one workload's inputs and subprocesses, the oracle, operation accounting,
sampling, and harness-side spans.

Everything here times the library *from outside*, through public entry
points; nothing under ``src/`` knows the benchmark exists.
"""

from __future__ import annotations

import gc
import itertools
import os
import pathlib
import platform
import re
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from collections.abc import Callable, Iterable
from contextlib import contextmanager

from repro.baselines.hash_join import hash_join
from repro.core.query import JoinQuery
from repro.distributed import DispatchScheduler, SocketTransport
from repro.io import save_relation_csv
from repro.query.builder import Q
from repro.relations.database import Database
from repro.relations.relation import Relation
from repro.server import ServerClient

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: A subprocess that has not reported its port by then fails the run.
STARTUP_TIMEOUT_S = 30.0
#: Socket-fleet width and closed-loop client count (= nproc on the
#: reference host; load is never generated from more threads than that).
FLEET_WORKERS = 2
CLIENTS = 2
#: No per-layer metric takes more samples than this.
MAX_SAMPLES = 300

_LISTENING = re.compile(r"listening on [^\s:]+:(\d+)")

perf = time.perf_counter


def cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def host_info() -> dict:
    return {
        "cpus": cpus(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def peak_rss_mb(children: bool = False) -> float:
    """Peak resident set of this process, or the largest among the child
    processes it has waited for (server, workers, shard pools)."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


class Ops:
    """Operations attempted and failed.  An operation fails when it
    raises, is refused, or returns something the oracle rejects."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def record(self, ok: bool, what: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(what)
        return ok

    def timed(self, label: str, run: Callable, verify: Callable) -> float | None:
        """Run one operation to completion under the clock, then verify
        its result off the clock.  Returns seconds, or ``None`` when the
        operation failed (a failed operation contributes no sample)."""
        gc.collect()
        start = perf()
        try:
            result = run()
        except Exception as error:  # the benchmark counts failures, it does not die of them
            self.record(False, f"{label}: {type(error).__name__}: {error}")
            return None
        elapsed = perf() - start
        if not self.record(bool(verify(result)), f"{label}: oracle mismatch"):
            return None
        return elapsed


class Oracle:
    """The expected result: the pairwise hash-join baseline's rows."""

    def __init__(self, attributes: Iterable[str], rows: Iterable[tuple]) -> None:
        self.attributes = tuple(attributes)
        self._rows = frozenset(rows)
        self._permuted = {self.attributes: self._rows}

    def __len__(self) -> int:
        return len(self._rows)

    def _expected(self, columns: Iterable[str] | None) -> frozenset | None:
        """The expected rows in ``columns`` order (``None``: wrong schema)."""
        columns = self.attributes if columns is None else tuple(columns)
        expected = self._permuted.get(columns)
        if expected is None and sorted(columns) == sorted(self.attributes):
            index = [self.attributes.index(c) for c in columns]
            expected = frozenset(tuple(r[i] for i in index) for r in self._rows)
            self._permuted[columns] = expected
        return expected

    def matches(self, rows: Iterable[tuple], columns: Iterable[str] | None = None) -> bool:
        """Is ``rows`` exactly the expected multiset, given its column
        order?  (The expected rows are distinct, so equal length plus
        equal sets is multiset equality.)"""
        expected = self._expected(columns)
        rows = list(rows)
        return (
            expected is not None
            and len(rows) == len(expected)
            and set(rows) == expected
        )

    def contains(self, rows: Iterable[tuple], columns: Iterable[str] | None = None) -> bool:
        """Are ``rows`` distinct rows of the expected result?"""
        expected = self._expected(columns)
        rows = list(rows)
        return (
            expected is not None
            and len(set(rows)) == len(rows)
            and expected.issuperset(rows)
        )


def sample(
    run: Callable[[], float | None], budget_s: float, min_n: int = 3
) -> list[float]:
    """Call ``run`` (which returns seconds or ``None``) until the later of
    ``min_n`` samples and ``budget_s``, at most ``MAX_SAMPLES`` times; give
    up on an operation that keeps failing."""
    times: list[float] = []
    deadline = perf() + budget_s
    misses = 0
    while len(times) < MAX_SAMPLES and misses < min_n:
        if len(times) >= min_n and perf() >= deadline:
            break
        seconds = run()
        if seconds is None:
            misses += 1
        else:
            times.append(seconds)
    return times


def fast_decile(values: list[float], higher_is_better: bool = False) -> float:
    """The mean of the best tenth of the samples (of fewer than twenty,
    the best one)."""
    ranked = sorted(values, reverse=higher_is_better)
    best = ranked[: max(1, len(ranked) // 10)]
    return sum(best) / len(best)


class Spans:
    """Harness-side spans: name, start, end, parent, request id.  Kept in
    memory; the caller writes them out when the run ends."""

    def __init__(self) -> None:
        self.records: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, request: str):
        record = {
            "id": len(self.records),
            "name": name,
            "request": request,
            "parent": self._open[-1] if self._open else None,
            "start": perf(),
            "end": None,
        }
        self.records.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = perf()
            self._open.pop()

    def stage_seconds(self, request: str) -> dict[str, float]:
        """Duration of each direct child of the request's root span (the
        stages; their own children only refine them)."""
        mine = [r for r in self.records if r["request"] == request]
        root = next(r["id"] for r in mine if r["parent"] is None)
        return {
            r["name"]: r["end"] - r["start"] for r in mine if r["parent"] == root
        }


def fresh_relations(relations: Iterable[Relation]) -> list[Relation]:
    """New ``Relation`` objects over the same tuples: every identity-keyed
    cache (statistics, indexes) misses on them."""
    return [Relation(r.name, r.attributes, r.tuples) for r in relations]


class Fixture:
    """One workload's inputs and the processes that serve them.

    ``setup()`` does what a deployment does before the first request:
    generate, load, write CSVs, start ``python -m repro serve`` and
    ``FLEET_WORKERS`` x ``python -m repro worker``.  It may be called
    repeatedly (each call replaces the previous state) so that set-up time
    is a median, not one draw.  ``close()`` stops every process and
    removes every file; use the fixture as a context manager.
    """

    def __init__(
        self, build: Callable[[int, bool], JoinQuery], seed: int, smoke: bool = False
    ) -> None:
        self.build = build
        self.seed = seed
        self.smoke = smoke
        self._processes: list[subprocess.Popen] = []
        self._tempdir: pathlib.Path | None = None
        self._clients: list[ServerClient] = []
        self.oracle: Oracle | None = None
        self.hash_join_s = 0.0
        #: Integers no relation holds, each handed out once per fixture.
        self.unused_literals = itertools.count(10_000_000)

    def __enter__(self) -> "Fixture":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- set-up ---------------------------------------------------------------

    def setup(self) -> dict[str, float]:
        """Build everything; returns the seconds each part took."""
        self.close()
        parts: dict[str, float] = {}

        start = perf()
        self.query = self.build(self.seed, self.smoke)
        parts["workloads.generate_s"] = perf() - start

        start = perf()
        self.relations = fresh_relations(self.query.relations.values())
        self.database = Database(self.relations)
        parts["relations.load_s"] = perf() - start
        self.builder = Q(*self.relations).on(self.database)
        names = ", ".join(r.name for r in self.relations)
        self.statement = f"select * from {names};"

        start = perf()
        OUT.mkdir(exist_ok=True)
        self._tempdir = pathlib.Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
        self.csv_files = []
        for relation in self.relations:
            path = self._tempdir / f"{relation.name}.csv"
            save_relation_csv(relation, path)
            self.csv_files.append(str(path))
        parts["io.csv_write_s"] = perf() - start

        start = perf()
        self.server_port = self.start_server()
        parts["server.startup_s"] = perf() - start

        start = perf()
        workers = [self._spawn("worker", "--port", "0") for _ in range(FLEET_WORKERS)]
        self.worker_ports = [self._await_port(*w) for w in workers]
        self.scheduler = DispatchScheduler(
            [SocketTransport("127.0.0.1", port) for port in self.worker_ports]
        )
        parts["distributed.worker_startup_s"] = perf() - start
        return parts

    def compute_oracle(self) -> None:
        start = perf()
        expected = hash_join(self.query)
        self.hash_join_s = perf() - start
        self.oracle = Oracle(expected.attributes, expected.tuples)

    def start_server(self, *options: str) -> int:
        """Start ``python -m repro serve`` over the CSVs on a free port;
        returns the port once the server answers a ping."""
        port = self._await_port(
            *self._spawn("serve", *self.csv_files, "--port", "0", *options)
        )
        with ServerClient("127.0.0.1", port) as client:
            client.ping()
        return port

    def client(self) -> ServerClient:
        """A client connection the fixture closes with everything else."""
        client = ServerClient("127.0.0.1", self.server_port)
        self._clients.append(client)
        return client

    def _spawn(self, *arguments: str) -> tuple[subprocess.Popen, pathlib.Path]:
        log = self._tempdir / f"proc-{len(self._processes)}.log"
        environment = dict(os.environ, PYTHONPATH=str(SRC))
        with log.open("wb") as sink:
            process = subprocess.Popen(
                [sys.executable, "-m", "repro", *arguments],
                env=environment,
                stdin=subprocess.DEVNULL,
                stdout=sink,
                stderr=subprocess.STDOUT,
            )
        self._processes.append(process)
        return process, log

    def _await_port(self, process: subprocess.Popen, log: pathlib.Path) -> int:
        """The port the process reported (it binds port 0), or an error —
        never a hang — when it exits or stays silent."""
        deadline = perf() + STARTUP_TIMEOUT_S
        while perf() < deadline:
            match = _LISTENING.search(log.read_text(errors="replace"))
            if match:
                return int(match.group(1))
            if process.poll() is not None:
                break
            time.sleep(0.005)
        raise RuntimeError(
            f"{' '.join(process.args[1:4])} did not report a port within "
            f"{STARTUP_TIMEOUT_S:g}s (exit code {process.poll()}): "
            f"{log.read_text(errors='replace')[-500:]}"
        )

    # -- tear-down ------------------------------------------------------------

    def close(self) -> None:
        for client in self._clients:
            client.close()
        self._clients = []
        for process in self._processes:
            if process.poll() is None:
                process.terminate()
        for process in self._processes:
            try:
                process.wait(timeout=5)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        self._processes = []
        if self._tempdir is not None:
            shutil.rmtree(self._tempdir, ignore_errors=True)
            self._tempdir = None
