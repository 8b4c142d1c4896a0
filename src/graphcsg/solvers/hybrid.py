"""Hybrid solver: table-filling sweep and seeded tree search sharing state.

`d_tsp` runs `dp._drive` with both of the workers that `dype_star` and
`tsp` run alone: the sweep (`dp._Sweep`) fills table levels from the back
of the breadth-first order and after each level prices that level's stage
seeds itself; the search (`treesearch._Search`) consumes seed stages from
the front. Both families are indexed the same way (by the first agent, in
order, excluded from the first block), and the table's `published_level`
is the one frontier both sides read: the sweep fills the level below it,
and the search starts no stage at or past it. The frontiers cross once
`published_level <= next_stage`: the two sides have then jointly covered
every structure, and the shared incumbent is optimal.

Work is measured in ticks: one enumerated subset, or one completion
looked up in the table. Interleaved, the two sides take equal turns: a
sweep level, then as many search ticks as that level enumerated subsets.
Equal shares keep the hybrid within about twice its faster side (the
time-sharing argument for algorithm portfolios) and keep the run
deterministic.

Before expanding a node the search consults the table: when the whole
uncovered remainder lies within published levels, the best completion is
one lookup of the sweep's remainder sums (`tsp_star_step`, which only
this search calls) and the subtree is skipped. The sum always exists. The
covered set is connected (so is the seed, and each later block holds the
first uncovered agent, whose tree parent is covered), and it holds every
agent before its first missing position L: a stage-L seed. The sweep
summed every stage-L seed's remainder before it published level L. A miss
is a fault and raises InternalInvariantError.
"""

from __future__ import annotations

from ..games import Game
from ..graph import Graph
from ..pseudotree import Pseudotree
from .base import SolverResult
# The two workers keep their names here: perfbench/tracing.py times them.
from .dp import MODES, _Sweep, _drive  # noqa: F401
from .treesearch import _Search  # noqa: F401


def d_tsp(game: Game, g: Graph, pt: Pseudotree, bound=None, *,
          mode: str = "interleaved", on_event=None,
          deadline: float | None = None) -> SolverResult:
    """Run the sweep and the search together until their frontiers cross.

    `mode` is "interleaved" (one thread taking the equal turns above, so
    the run is deterministic) or "parallel" (the search in a second thread,
    in steps of a fixed tick budget, checking the stop flag and the
    crossing between steps); any other mode is a ValueError. Hitting the
    deadline returns the incumbent with completed=False instead of raising.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    return _drive(game, g, pt, bound, search=mode, on_event=on_event,
                  deadline=deadline)
