"""Hybrid solver: table-filling sweep and seeded tree search sharing state.

`d_tsp` runs `dp._drive` with both of the workers that `dype_star` and
`tsp` run alone: the sweep (`dp._Sweep`) fills table levels from the back
of the breadth-first order and after each level prices that level's stage
seeds itself; the search (`treesearch._Search`) consumes seed stages from
the front. Both families are indexed the same way (by the first agent, in
order, excluded from the first block), so once the sweep's next level
drops below the search's pending stage the two sides have jointly covered
every structure and the shared incumbent is optimal. After every sweep
level the search's `last_stage` is lowered to the sweep's next level, so
it never starts a stage the sweep has already run.

Work is measured in ticks: one enumerated subset, or one table entry a
completion looks up. Interleaved, the two sides take equal turns: a sweep
level, then as many search ticks as that level enumerated subsets. Equal
shares keep the hybrid within about twice its faster side (the
time-sharing argument for algorithm portfolios) and keep the run
deterministic.

Before expanding a node the search consults the table: when the whole
uncovered remainder lies within published levels, the best completion is a
handful of lookups (`tsp_star_step`, which only this search calls) and
the subtree is skipped. The needed entries are expected to exist whenever
that trigger fires (remainder components keep connected complements); a
missing entry is logged, counted, and answered by falling back to plain
search for that node.
"""

from __future__ import annotations

from ..games import Game
from ..graph import Graph
from ..pseudotree import Pseudotree
from .base import SolverResult
# The two workers keep their names here: perfbench/tracing.py times them.
from .dp import _Sweep, _drive  # noqa: F401
from .treesearch import _Search  # noqa: F401


def d_tsp(game: Game, g: Graph, pt: Pseudotree, bound=None, *,
          mode: str = "interleaved", on_incumbent=None,
          deadline: float | None = None) -> SolverResult:
    """Run the sweep and the search together until their frontiers cross.

    `mode` is "interleaved" (one thread taking turns, deterministic) or
    "parallel" (two threads). Interleaved, each turn fills and scans one
    sweep level, whose seeds the sweep prices itself, and then gives the
    search as many ticks as that level enumerated subsets, so both sides
    do equal work and the run costs about twice its faster side. In
    parallel mode the search runs in steps of a fixed tick budget, checking
    the stop flag and the crossing between steps. Hitting the deadline
    returns the incumbent with completed=False instead of raising.
    """
    return _drive(game, g, pt, bound, mode=mode, on_incumbent=on_incumbent,
                  deadline=deadline)
