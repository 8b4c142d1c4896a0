"""Hybrid solver: table-filling sweep and seeded tree search sharing state.

The sweep fills table levels from the back of the breadth-first order and
after each level scans the candidate first-agent blocks that level settles.
The tree search consumes seed stages from the front. Both families are
indexed the same way (by the first agent, in order, excluded from the
first block), so once the sweep's next level drops below the search's
pending stage the two sides have jointly covered every structure and the
shared incumbent is optimal.

The search keeps its open nodes on an explicit stack, so it can pause
between any two nodes and resume later. Work is measured in ticks: one
enumerated subset, or one table entry a shortcut looks up. Interleaved,
the two sides take equal turns: a sweep level, then as many search ticks
as that level enumerated subsets. Equal shares keep the hybrid within
about twice its faster side (the time-sharing argument for algorithm
portfolios) and keep the run deterministic.

Before expanding a node the search consults the table: when the whole
uncovered remainder lies within published levels, the best completion is a
handful of lookups and the subtree is skipped. The needed entries are
expected to exist whenever that trigger fires (remainder components keep
connected complements); a missing entry is logged, counted, and answered
by falling back to plain search for that node.
"""

from __future__ import annotations

import logging
import threading
import time

from ..games import Game, Partition
from ..graph import Graph
from ..pseudotree import Pseudotree
from .base import (BudgetExceededError, InternalInvariantError, SearchStats,
                   SolverResult, deadline_passed, elapsed_us,
                   require_connected)
from .dp import _solve_level
from .dptable import DpTable, reconstruct_blocks
from .treesearch import tsp_star_step

log = logging.getLogger(__name__)

_DEADLINE_STRIDE = 1024


class _Control:
    __slots__ = ("stop", "deadline_hit", "error")

    def __init__(self):
        self.stop = False
        self.deadline_hit = False
        self.error = None


class _Incumbent:
    """Best structure so far, shared by both workers.

    `offer` is compare-and-improve under a lock, so a stale competing offer
    loses cleanly. Unlocked reads of `value` are fine everywhere: the value
    only rises, and a stale read merely delays pruning.
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

    def snapshot(self):
        with self._lock:
            return list(self.blocks), self.value, list(self.trace)


class _Sweep:
    """Table-filling worker; `next_level` is its frontier."""

    __slots__ = ("game", "g", "pt", "table", "inc", "stats", "deadline",
                 "control", "next_level")

    def __init__(self, game, g, pt, table, inc, stats, deadline, control):
        self.game = game
        self.g = g
        self.pt = pt
        self.table = table
        self.inc = inc
        self.stats = stats
        self.deadline = deadline
        self.control = control
        self.next_level = g.n

    def step(self) -> bool:
        """Fill one level and scan the first blocks it settles."""
        level = self.next_level
        if level < 2:
            return False
        _solve_level(self.game.value, self.g, self.pt, self.table, level,
                     self.stats, self.deadline)
        self._scan(level)
        self.next_level = level - 1
        return True

    def _scan(self, level: int) -> None:
        g = self.g
        game = self.game
        v = game.value
        table = self.table
        inc = self.inc
        full = g.full_mask
        tv = table.values
        component_of = g.component_of
        ground = full ^ (1 << self.pt.order[level - 1])
        seen = 0
        for s in g.connected_subsets(ground,
                                     required=self.pt.prefix_masks[level]):
            seen += 1
            if seen % _DEADLINE_STRIDE == 0:
                if deadline_passed(self.deadline):
                    self.stats.subsets_enumerated += seen
                    raise BudgetExceededError("deadline hit during level scan")
                if self.control.stop:
                    break
            val = v(s)
            rest = full & ~s
            try:
                while rest:
                    comp = component_of(rest)
                    val += tv[comp]
                    rest &= ~comp
            except KeyError as e:
                raise InternalInvariantError(
                    f"missing table entry for mask {e.args[0]}") from None
            if game.improves(val, inc.value):
                comps = g.connected_components(full & ~s)
                inc.offer([s] + reconstruct_blocks(table, comps, g), val)
        self.stats.subsets_enumerated += seen


class _Search:
    """Seeded tree-search worker, resumable between any two nodes.

    The open nodes sit on an explicit stack. The bottom frame enumerates the
    seeds of the pending stage; each frame above it is a node, holding its
    children iterator, covered mask, value and order position. `_blocks`
    mirrors the stack: one chosen block per node frame. `next_stage` is the
    frontier (the stage whose seeds are pending, n+1 once all stages are
    done); it advances only once a stage's whole seed frame is exhausted.
    """

    __slots__ = ("game", "g", "pt", "table", "inc", "stats", "bound",
                 "deadline", "control", "crossed", "next_stage", "_stack",
                 "_blocks")

    def __init__(self, game, g, pt, table, inc, stats, bound, deadline,
                 control, crossed):
        self.game = game
        self.g = g
        self.pt = pt
        self.table = table
        self.inc = inc
        self.stats = stats
        self.bound = bound
        self.deadline = deadline
        self.control = control
        self.crossed = crossed
        self.next_stage = 2
        self._stack = []
        self._blocks = []

    def step(self, budget) -> bool:
        """Advance the search by about `budget` ticks, where a tick is one
        subset handled: a seed or child enumerated, or a remainder
        component a table shortcut looks up. False when out of work,
        crossed or told to stop; True when the budget ran out first."""
        g = self.g
        n = g.n
        full = g.full_mask
        order = self.pt.order
        v = self.game.value
        improves = self.game.improves
        inc = self.inc
        stats = self.stats
        bound = self.bound
        stack = self._stack
        blocks = self._blocks
        ticks = 0
        next_check = _DEADLINE_STRIDE
        while ticks < budget:
            if ticks >= next_check:
                next_check = ticks + _DEADLINE_STRIDE
                if deadline_passed(self.deadline):
                    raise BudgetExceededError("deadline hit during search")
            if not stack:
                stage = self.next_stage
                if stage > n or self.control.stop or self.crossed():
                    return False
                # A seed holds every agent before the stage agent and
                # leaves it out, so its node opens at position `stage`.
                stack.append((g.connected_subsets(
                    full ^ (1 << order[stage - 1]),
                    required=self.pt.prefix_masks[stage]), 0, 0, stage - 1))
            seeds = len(stack) == 1
            children, covered, value, pos = stack[-1]
            limit = min(budget, next_check)
            for c in children:
                ticks += 1
                stats.subsets_enumerated += 1
                ncov = covered | c
                nval = value + v(c)
                descend = True
                if not seeds:
                    stats.nodes_expanded += 1
                    if ncov == full:
                        descend = False
                        stats.structures_visited += 1
                        if improves(nval, inc.value):
                            inc.offer(blocks + [c], nval)
                    elif bound is not None \
                            and not inc.value < bound(nval, full & ~ncov):
                        descend = False
                        stats.nodes_pruned += 1
                if descend:
                    spent = self._open(c, ncov, nval, pos + 1)
                    if not spent:
                        break
                    ticks += spent
                if ticks >= limit:
                    break
            else:
                stack.pop()
                if stack:
                    blocks.pop()
                else:
                    self.next_stage += 1
        return True

    def _open(self, block, covered, value, pos) -> int:
        """Open the node reached by choosing `block`: push its frame, or
        finish it from the table when the table covers its remainder.
        Returns the ticks a shortcut spent (one per remainder component
        looked up), or 0 when a frame was pushed."""
        g = self.g
        table = self.table
        order = self.pt.order
        blocks = self._blocks
        blocks.append(block)
        while (1 << order[pos - 1]) & covered:
            pos += 1
        rem = g.full_mask & ~covered
        if pos >= table.published_level:
            comps = g.connected_components(rem)
            if all(c in table for c in comps):
                self.stats.tsp_star_shortcuts += 1
                res = tsp_star_step(table, self.game, g, blocks,
                                    self.inc.value)
                if res is not None:
                    self.inc.offer(res[0], res[1])
                blocks.pop()
                return len(comps)
            self.stats.tsp_star_fallbacks += 1
            log.warning("table completion unavailable below partial %s; "
                        "searching the subtree instead",
                        [hex(b) for b in blocks])
        self._stack.append((g.connected_subsets(
            rem, required=1 << order[pos - 1]), covered, value, pos))
        return 0


def d_tsp(game: Game, g: Graph, pt: Pseudotree, bound=None, *,
          mode: str = "interleaved", on_incumbent=None,
          deadline: float | None = None,
          tsp_worker_enabled: bool = True) -> SolverResult:
    """Run the sweep and the search together until their frontiers cross.

    `mode` is "interleaved" (one thread taking turns, deterministic) or
    "parallel" (two threads). In interleaved mode each turn fills and
    scans one sweep level and then gives the search as many ticks as that
    level enumerated subsets, so both sides do equal work and the run costs
    about twice its faster side. In parallel mode the search runs in steps
    of a fixed tick budget, checking the stop flag and the crossing between
    steps. `tsp_worker_enabled=False` parks the search worker, degenerating
    to the sweep alone. Hitting the deadline returns the incumbent with
    completed=False instead of raising.
    """
    require_connected(g)
    if mode not in ("interleaved", "parallel"):
        raise ValueError(f"unknown mode {mode!r}")
    t0 = time.monotonic()
    full = g.full_mask
    table = DpTable(g.n)
    inc = _Incumbent([full], game.value(full), t0, game.tolerance,
                     on_incumbent)
    control = _Control()
    sweep_stats = SearchStats()
    search_stats = SearchStats()
    sweep = _Sweep(game, g, pt, table, inc, sweep_stats, deadline, control)

    def crossed() -> bool:
        return sweep.next_level < search.next_stage

    search = _Search(game, g, pt, table, inc, search_stats, bound, deadline,
                     control, crossed)

    completed = True
    if mode == "interleaved":
        try:
            while not crossed():
                if deadline_passed(deadline):
                    completed = False
                    break
                before = sweep_stats.subsets_enumerated
                sweep.step()
                if crossed() or not tsp_worker_enabled:
                    continue
                search.step(sweep_stats.subsets_enumerated - before)
        except BudgetExceededError:
            completed = False
    else:
        def run(step):
            try:
                while not control.stop and not crossed():
                    if deadline_passed(deadline):
                        control.deadline_hit = True
                        control.stop = True
                        break
                    if not step():
                        break
            except BudgetExceededError:
                control.deadline_hit = True
                control.stop = True
            except BaseException as e:
                control.error = e
                control.stop = True

        worker = None
        if tsp_worker_enabled:
            worker = threading.Thread(
                target=run, args=(lambda: search.step(_DEADLINE_STRIDE),),
                name="block-search", daemon=True)
            worker.start()
        run(sweep.step)
        if worker is not None:
            worker.join()
        if control.error is not None:
            raise control.error
        completed = not control.deadline_hit

    stats = sweep_stats.merged_with(search_stats)
    stats.frontier_crossed = crossed()
    blocks, value, trace = inc.snapshot()
    return SolverResult(best=Partition(blocks), best_value=value, stats=stats,
                        trace=trace, completed=completed, table=table)
