"""ShardSpec and StealPolicy: the typed home for parallel execution.

``ExecutionContext.shards`` historically took a bare int (or ``"auto"``)
— enough to say *how many* shards, but nowhere to hang the scheduler
policies the distributed fabric adds: predictive pre-splitting of
hub-heavy shards and within-run work stealing.  :class:`ShardSpec` is
that home.  Bare ints and ``"auto"`` still work everywhere — the context
auto-coerces them via :meth:`ShardSpec.coerce` — but they are the
deprecated spelling; new code writes::

    from repro import ExecutionContext, ShardSpec, StealPolicy

    ctx = ExecutionContext(
        shards=ShardSpec("auto", predictive=True, steal=StealPolicy())
    )

This module is import-light by design (only :mod:`repro.errors`): the
context imports it, the engine imports the context, and the distributed
package re-exports both classes — no cycles.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import PlanError

__all__ = ["ShardSpec", "StealPolicy"]


@dataclass(frozen=True)
class StealPolicy:
    """Within-run work stealing: when and how to sub-split hot shards.

    A rate model (seconds per unit of planned weight, fitted over the
    shards completed so far in *this* run) predicts each pending shard's
    wall time.  When a claimed shard's prediction crosses
    ``hot_factor`` times the median completed time — and idle capacity
    exists — the claiming worker splits it on the next attribute of the
    plan's order and takes only the first sub-shard; idle workers steal
    the rest (:func:`~repro.engine.parallel.split_entry`, the same
    split predictive pre-splitting uses).
    """

    #: Sub-shards a hot shard is split into.
    split_factor: int = 4
    #: A pending shard is hot when its predicted seconds exceed this
    #: multiple of the median completed-shard seconds.
    hot_factor: float = 2.0
    #: Completed shards required before the rate model is trusted.
    min_completed: int = 2
    #: Split-chain depth bound (a sub-shard may split again, one
    #: attribute deeper, at most this many times total).
    max_split_depth: int = 2

    def __post_init__(self) -> None:
        if not isinstance(self.split_factor, int) or self.split_factor < 2:
            raise PlanError(
                f"steal split_factor must be an int >= 2, "
                f"got {self.split_factor!r}"
            )
        if self.hot_factor <= 0:
            raise PlanError(
                f"steal hot_factor must be positive, got {self.hot_factor!r}"
            )
        if not isinstance(self.min_completed, int) or self.min_completed < 1:
            raise PlanError(
                f"steal min_completed must be an int >= 1, "
                f"got {self.min_completed!r}"
            )


@dataclass(frozen=True)
class ShardSpec:
    """How a query is sharded: count plus scheduler policies.

    ``count`` is a positive int or ``"auto"`` (sized from heavy-hitter
    mass and CPU count, as before).  ``predictive`` pre-splits shards
    whose value group contains a heavy-hitter value *at first-plan time*
    — run one of a hub-heavy query behaves like run two used to.
    ``steal`` switches on within-run stealing (``True`` for the default
    :class:`StealPolicy`).

    ``ShardSpec.coerce`` accepts the legacy spellings — a bare int,
    ``"auto"``, ``None``, or an existing spec — so no caller breaks.
    """

    count: int | str = "auto"
    predictive: bool = False
    steal: StealPolicy | None = None

    def __post_init__(self) -> None:
        if self.count != "auto" and (
            not isinstance(self.count, int)
            or isinstance(self.count, bool)
            or self.count < 1
        ):
            raise PlanError(
                f"shard count must be a positive int or 'auto', "
                f"got {self.count!r}"
            )
        if self.steal is True:
            object.__setattr__(self, "steal", StealPolicy())
        if self.steal is not None and not isinstance(self.steal, StealPolicy):
            raise PlanError(
                f"steal must be a StealPolicy (or True/None), "
                f"got {self.steal!r}"
            )

    @classmethod
    def coerce(cls, value) -> "ShardSpec | None":
        """Normalize every accepted ``shards=`` spelling.

        ``None`` stays ``None`` (serial execution); a spec passes
        through; a positive int or ``"auto"`` becomes a plain spec.
        """
        if value is None or isinstance(value, cls):
            return value
        if value == "auto" or (
            isinstance(value, int) and not isinstance(value, bool)
        ):
            return cls(count=value)
        raise PlanError(
            f"shards must be a positive int, 'auto', a ShardSpec, or "
            f"None, got {value!r}"
        )

    def __repr__(self) -> str:
        parts = [repr(self.count)]
        if self.predictive:
            parts.append("predictive=True")
        if self.steal is not None:
            parts.append(f"steal={self.steal!r}")
        return f"ShardSpec({', '.join(parts)})"
