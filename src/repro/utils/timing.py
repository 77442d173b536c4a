"""Timing helpers for the benchmark harness."""

from __future__ import annotations

import time
from dataclasses import dataclass
from collections.abc import Callable
from typing import Any


@dataclass
class Timed:
    """A measured call: its result and the elapsed wall-clock seconds."""

    result: Any
    seconds: float


def timed(fn: Callable[[], Any]) -> Timed:
    """Run ``fn`` once under a monotonic clock."""
    start = time.perf_counter()
    result = fn()
    return Timed(result, time.perf_counter() - start)


def best_of(fn: Callable[[], Any], repeats: int = 3) -> Timed:
    """Run ``fn`` several times; keep the last result and the *minimum*
    time (the usual noise-robust summary for micro-benchmarks)."""
    best = None
    result = None
    for _ in range(max(1, repeats)):
        measurement = timed(fn)
        result = measurement.result
        if best is None or measurement.seconds < best:
            best = measurement.seconds
    assert best is not None
    return Timed(result, best)


class Stopwatch:
    """Context manager measuring a ``with`` block.

    >>> with Stopwatch() as sw:
    ...     total = sum(range(1000))
    >>> sw.seconds >= 0
    True
    """

    def __init__(self) -> None:
        self.seconds = 0.0
        self._start = 0.0

    def __enter__(self) -> "Stopwatch":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self.seconds = time.perf_counter() - self._start
