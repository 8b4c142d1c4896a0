"""Shared solver types: run statistics, results, control errors, and the
incumbent that the sweep and search workers share."""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING

from ..games import Partition, Value
from ..graph import DisconnectedGraphError, Graph

if TYPE_CHECKING:
    from .dptable import DpTable


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


def deadline_passed(deadline: float | None) -> bool:
    return deadline is not None and time.monotonic() >= deadline


class _Incumbent:
    """Best structure so far, shared by the workers of one run.

    `offer` is compare-and-improve under a lock, so a stale competing offer
    loses cleanly. Unlocked reads of `value` are fine everywhere: the value
    only rises, and a stale read merely delays pruning. `blocks` and `trace`
    are read directly once every worker has stopped.
    """

    __slots__ = ("value", "blocks", "trace", "_lock", "_t0", "_tol", "_hook")

    def __init__(self, blocks, value, t0, tolerance, hook=None):
        self.blocks = list(blocks)
        self.value = value
        self.trace = [(0, value)]
        self._lock = threading.Lock()
        self._t0 = t0
        self._tol = tolerance
        self._hook = hook

    def offer(self, blocks, value) -> bool:
        with self._lock:
            if not value > self.value + self._tol:
                return False
            self.blocks = list(blocks)
            self.value = value
            t = elapsed_us(self._t0)
            self.trace.append((t, value))
            if self._hook is not None:
                self._hook(t, value, Partition(self.blocks))
        return True
