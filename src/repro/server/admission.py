"""AGM admission control: bound the damage before running the query.

The fractional-cover (AGM) bound is computed at *plan* time, before a
single row is enumerated — the property the source paper proves and
the one thing most query engines wish they had at the front door.  The
controller uses it three ways:

* **Reject**: an enumeration query whose bound exceeds ``row_budget``
  is refused outright with a typed error naming the bound and the
  budget.  The client knows *why* and by how much — not a timeout half
  an hour in.
* **Queue**: a query whose bound exceeds ``queue_budget`` (but fits
  the row budget) is *serialized* — one such heavy query's worker hop
  (a descent and one line's encoding) runs at a time, so a burst of
  large-but-legitimate queries degrades to a queue, not a CPU pile-up.
* **Exempt**: aggregates and samples never enumerate the result (the
  fold prunes subtrees; the sampler counts once and unranks), so by default
  they bypass the row budget — the paper's cheap answers stay cheap
  even when the result itself would be over budget.  ``explain`` never
  executes and is always exempt; ``explain analyze`` executes but only
  counts rows, so it classifies with the aggregates.

The controller is asyncio-native: :meth:`AdmissionController.admit` is
an async context manager acquiring the concurrency semaphore (and the
heavy-query lock when applicable) and releasing both on exit.  A
streamed answer holds them per worker hop only, so a stream that is
draining counts against neither ``max_concurrent`` nor the heavy lock.
"""

from __future__ import annotations

import asyncio
from contextlib import asynccontextmanager
from dataclasses import dataclass

from repro.server.protocol import AdmissionRejected

__all__ = ["AdmissionController", "AdmissionDecision"]

#: Query kinds that enumerate result rows (subject to the row budget).
ENUMERATING_KINDS = frozenset({"rows"})


@dataclass(frozen=True)
class AdmissionDecision:
    """What the controller decided for one query, for logging/metrics."""

    admitted: bool
    bound: float
    queued: bool
    reason: str


class AdmissionController:
    """Per-server admission state (budgets, locks, counters)."""

    def __init__(
        self,
        row_budget: float | None = None,
        queue_budget: float | None = None,
        max_concurrent: int = 32,
        exempt_aggregates: bool = True,
    ) -> None:
        if row_budget is not None and row_budget <= 0:
            raise ValueError(
                f"row_budget must be positive or None, got {row_budget}"
            )
        if queue_budget is not None and queue_budget <= 0:
            raise ValueError(
                f"queue_budget must be positive or None, got {queue_budget}"
            )
        if max_concurrent < 1:
            raise ValueError(
                f"max_concurrent must be >= 1, got {max_concurrent}"
            )
        self.row_budget = row_budget
        self.queue_budget = queue_budget
        self.exempt_aggregates = exempt_aggregates
        self._slots = asyncio.Semaphore(max_concurrent)
        self._heavy = asyncio.Lock()
        self.admitted = 0
        self.rejected = 0
        self.queued = 0

    def decide(self, kind: str, bound: float) -> AdmissionDecision:
        """Classify one query; raises :class:`AdmissionRejected` when it
        blows the row budget."""
        enumerates = kind in ENUMERATING_KINDS or not self.exempt_aggregates
        if (
            enumerates
            and self.row_budget is not None
            and bound > self.row_budget
        ):
            self.rejected += 1
            raise AdmissionRejected(
                f"query rejected: AGM output bound {bound:.1f} rows "
                f"exceeds the server's row budget {self.row_budget:.1f} "
                "(narrow the query with WHERE, or ask for an aggregate "
                "or SAMPLE — those never enumerate)",
                bound=bound,
                budget=self.row_budget,
            )
        queued = (
            self.queue_budget is not None and bound > self.queue_budget
        )
        return AdmissionDecision(
            admitted=True,
            bound=bound,
            queued=queued,
            reason="queued-heavy" if queued else "admitted",
        )

    def admit(self, kind: str, bound: float) -> "_Admission":
        """``async with controller.admit(kind, bound):`` — decide, then
        hold the concurrency slot (and the heavy lock when queued) for
        the duration of the block."""
        decision = self.decide(kind, bound)
        return _Admission(self, decision)


class _Admission:
    """The held admission: semaphore slot + optional heavy lock."""

    def __init__(
        self, controller: AdmissionController, decision: AdmissionDecision
    ) -> None:
        self.controller = controller
        self.decision = decision
        self.held = False

    async def __aenter__(self) -> AdmissionDecision:
        await self._acquire()
        if self.decision.queued:
            self.controller.queued += 1
        self.controller.admitted += 1
        return self.decision

    async def __aexit__(self, *exc_info) -> None:
        self._release()

    @asynccontextmanager
    async def released(self):
        """Hand the slot (and lock) back for the block; retake them unless it raised."""
        self._release()
        yield
        await self._acquire()

    async def _acquire(self) -> None:
        await self.controller._slots.acquire()
        if self.decision.queued:
            try:
                await self.controller._heavy.acquire()
            except BaseException:
                self.controller._slots.release()
                raise
        self.held = True

    def _release(self) -> None:
        if self.held:
            self.held = False
            if self.decision.queued:
                self.controller._heavy.release()
            self.controller._slots.release()
