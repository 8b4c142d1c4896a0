"""Hybrid solver: table-filling sweep and seeded tree search sharing state.

`d_tsp` drives the two workers that `dype_star` and `tsp` run alone: the
sweep (`dp._Sweep`) fills table levels from the back of the breadth-first
order and after each level runs that level's search stage, whose seeds the
table finishes; the search (`treesearch._Search`) consumes seed stages
from the front. Both families are indexed the same way (by the first
agent, in order, excluded from the first block), so once the sweep's next
level drops below the search's pending stage the two sides have jointly
covered every structure and the shared incumbent is optimal. After every
sweep level the search's `last_stage` is lowered to the sweep's next
level, so it never starts a stage the sweep has already run.

Work is measured in ticks: one enumerated subset, or one table entry a
completion looks up. Interleaved, the two sides take equal turns: a sweep
level, then as many search ticks as that level enumerated subsets. Equal
shares keep the hybrid within about twice its faster side (the
time-sharing argument for algorithm portfolios) and keep the run
deterministic.

Before expanding a node the search consults the table: when the whole
uncovered remainder lies within published levels, the best completion is a
handful of lookups and the subtree is skipped. The needed entries are
expected to exist whenever that trigger fires (remainder components keep
connected complements); a missing entry is logged, counted, and answered
by falling back to plain search for that node.
"""

from __future__ import annotations

import threading
import time

from ..games import Game, Partition
from ..graph import Graph
from ..pseudotree import Pseudotree
from .base import (BudgetExceededError, SearchStats, SolverResult, _Control,
                   _Incumbent, deadline_passed, require_connected)
from .dp import _Sweep
from .dptable import DpTable
from .treesearch import _DEADLINE_STRIDE, _Search


def d_tsp(game: Game, g: Graph, pt: Pseudotree, bound=None, *,
          mode: str = "interleaved", on_incumbent=None,
          deadline: float | None = None) -> SolverResult:
    """Run the sweep and the search together until their frontiers cross.

    `mode` is "interleaved" (one thread taking turns, deterministic) or
    "parallel" (two threads). In interleaved mode each turn fills and
    scans one sweep level and then gives the search as many ticks as that
    level enumerated subsets, so both sides do equal work and the run costs
    about twice its faster side. In parallel mode the search runs in steps
    of a fixed tick budget, checking the stop flag and the crossing between
    steps. Hitting the deadline returns the incumbent with completed=False
    instead of raising.
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
    search = _Search(game, g, pt, table, inc, search_stats, bound, deadline,
                     control)

    def crossed() -> bool:
        return sweep.next_level < search.next_stage

    def sweep_step() -> bool:
        more = sweep.step()
        search.last_stage = sweep.next_level
        return more

    completed = True
    if mode == "interleaved":
        try:
            while not crossed():
                if deadline_passed(deadline):
                    completed = False
                    break
                before = sweep_stats.subsets_enumerated
                sweep_step()
                if not crossed():
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

        worker = threading.Thread(
            target=run, args=(lambda: search.step(_DEADLINE_STRIDE),),
            name="block-search", daemon=True)
        worker.start()
        run(sweep_step)
        worker.join()
        if control.error is not None:
            raise control.error
        completed = not control.deadline_hit

    stats = sweep_stats.merged_with(search_stats)
    stats.frontier_crossed = crossed()
    return SolverResult(best=Partition(inc.blocks), best_value=inc.value,
                        stats=stats, trace=inc.trace, completed=completed,
                        table=table)
