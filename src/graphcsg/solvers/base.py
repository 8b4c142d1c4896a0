"""Shared solver types: run statistics, results, control errors, the
incumbent every solver but the oracle keeps, and the one budget rule.

The budget rule: every solver loop that can run long counts its units of
work (subsets, search ticks, states or structures) and checks its deadline
at its first unit, then once per `DEADLINE_STRIDE` units, through
`next_check`, the only code that reads the clock against a deadline."""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING

from ..games import Partition, Value
from ..graph import DisconnectedGraphError, Graph

if TYPE_CHECKING:
    from .dptable import DpTable


DEADLINE_STRIDE = 256
# A unit count no loop reaches: with no deadline, no check comes due.
_NEVER = 1 << 62


class BudgetExceededError(RuntimeError):
    """A solver hit its wall-clock deadline before finishing."""


class InternalInvariantError(RuntimeError):
    """A solver's own bookkeeping broke; results would be untrustworthy."""


@dataclass(slots=True)
class SearchStats:
    """Work counters exposed on every result so benchmarks can compare
    effort, not just wall time."""

    subsets_enumerated: int = 0
    dp_subproblems: int = 0
    nodes_expanded: int = 0
    nodes_pruned: int = 0
    structures_visited: int = 0
    tsp_star_shortcuts: int = 0
    # Always 0 (a table miss raises); perfbench/tracing.py still reads it.
    tsp_star_fallbacks: int = 0
    frontier_crossed: bool = False

    def merged_with(self, other: "SearchStats") -> "SearchStats":
        """Counters summed; `frontier_crossed` when either crossed."""
        merged = SearchStats(*(getattr(self, f.name) + getattr(other, f.name)
                               for f in fields(SearchStats)))
        merged.frontier_crossed = self.frontier_crossed or other.frontier_crossed
        return merged


# (elapsed_microseconds, incumbent_value) points; values never decrease.
TracePoint = tuple[int, Value]


@dataclass(slots=True)
class SolverResult:
    best: Partition
    best_value: Value
    stats: SearchStats
    trace: list[TracePoint] = field(default_factory=list)
    completed: bool = True
    table: "DpTable | None" = None


def require_connected(g: Graph) -> None:
    if not g.is_connected(g.full_mask):
        raise DisconnectedGraphError(
            "solver requires a connected graph; split per component first")


def elapsed_us(t0: float) -> int:
    return int((time.monotonic() - t0) * 1_000_000)


def next_check(deadline: float | None, units: int, doing: str) -> int:
    """The unit count at which a loop that has done `units` units of work
    next checks `deadline`; BudgetExceededError("deadline hit <doing>")
    once it has passed. A loop keeps the int it returns and calls again
    when its count reaches it, starting from 0."""
    if deadline is None:
        return _NEVER
    if time.monotonic() >= deadline:
        raise BudgetExceededError(f"deadline hit {doing}")
    return units + DEADLINE_STRIDE


class _Incumbent:
    """Best structure so far, shared by the workers of one run.

    `offer` is every solver's new-best rule but the oracle's: it keeps a value
    that beats the best by more than the tolerance, under a lock, so a stale
    competing offer loses cleanly. Unlocked reads of `value` are fine
    everywhere: the value only rises, and a stale read merely delays pruning.
    `blocks` and `trace` are read directly once every worker has stopped.

    `on_event(kind, *fields)`, when given, observes the run; the run's
    workers read it from here. The kinds are:
    - "incumbent", t_us, value, partition: from `offer`, under the lock,
      once per trace point after the first;
    - "structure", blocks: a full structure that `tsp`, `d_tsp`'s search or
      `cfss` visits, as a tuple of masks.
    """

    __slots__ = ("value", "blocks", "trace", "on_event", "_lock", "_t0",
                 "_tol")

    def __init__(self, blocks, value, tolerance, on_event=None):
        self.blocks = list(blocks)
        self.value = value
        self.trace = [(0, value)]
        self._lock = threading.Lock()
        self._t0 = time.monotonic()
        self._tol = tolerance
        self.on_event = on_event

    def offer(self, blocks, value) -> None:
        with self._lock:
            if not value > self.value + self._tol:
                return
            self.blocks = list(blocks)
            self.value = value
            t = elapsed_us(self._t0)
            self.trace.append((t, value))
            if self.on_event is not None:
                self.on_event("incumbent", t, value, Partition(self.blocks))
