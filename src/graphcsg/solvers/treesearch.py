"""Depth-first search over coalition structures, seeded stage by stage.

Stage k enumerates every candidate block for the first agent whose first
excluded agent (in breadth-first order) is the stage agent; the search
below a seed repeatedly carves a connected block around the earliest
uncovered agent, so each structure but the one-block partition is reached
exactly once. A bound hook may prune any node whose optimistic value
cannot beat the incumbent, stage seeds included: a pruned seed counts as
seeded and as pruned, and opens nothing.

`_Search` keeps its open nodes on an explicit stack, so it can pause
between any two nodes. A node whose remainder lies within the table's
published levels is finished by `tsp_star_step` instead of searched; only
the hybrid's search reaches that path, and a missing entry there is an
`InternalInvariantError`. `tsp` runs the search alone over an empty
table, from the better of the one-block and all-singletons partitions.
The sweep (dp.py), which `dype` and `dype_star` run alone, prices the
seeds of stage L itself once level L is published; the hybrid runs this
search in turns with the sweep.
"""

from __future__ import annotations

import math

from ..games import Game, Partition, Value
from ..graph import Graph
from ..pseudotree import Pseudotree
from .base import (BudgetExceededError, InternalInvariantError, SearchStats,
                   SolverResult, _Incumbent, deadline_passed,
                   require_connected)
from .dptable import DpTable, reconstruct_blocks

_DEADLINE_STRIDE = 1024


class _Search:
    """Seeded tree-search worker, resumable between any two nodes.

    The open nodes sit on an explicit stack. The bottom frame enumerates the
    seeds of the pending stage; each frame above it is a node, holding its
    children iterator, covered mask, value, order position and the block
    chosen to reach it (the seed frame covers nothing). `next_stage` is the
    frontier (the stage whose seeds are pending); it advances only once a
    stage's whole seed frame is exhausted. The search stops before any
    stage past `last_stage` (n unless a driver lowers it).
    `structure_hook`, when given, observes every full structure reached.
    """

    __slots__ = ("game", "g", "pt", "table", "inc", "stats", "bound",
                 "deadline", "structure_hook", "next_stage", "last_stage",
                 "_stack")

    def __init__(self, game, g, pt, table, inc, stats, bound, deadline,
                 structure_hook=None):
        self.game = game
        self.g = g
        self.pt = pt
        self.table = table
        self.inc = inc
        self.stats = stats
        self.bound = bound
        self.deadline = deadline
        self.structure_hook = structure_hook
        self.next_stage = 2
        self.last_stage = g.n
        self._stack = []

    def step(self, budget) -> bool:
        """Advance the search by about `budget` ticks, where a tick is one
        subset handled: a seed or child enumerated, or a remainder
        component a table completion looks up. False when past
        `last_stage`; True when the budget ran out first."""
        g = self.g
        full = g.full_mask
        connected_subsets = g.connected_subsets
        order = self.pt.order
        game = self.game
        v = game.value
        tol = game.tolerance
        table = self.table
        inc = self.inc
        stats = self.stats
        bound = self.bound
        hook = self.structure_hook
        stack = self._stack
        ticks = 0
        looked_up = 0
        seeded = 0
        # The next tick count at which to stop or to check the deadline.
        limit = min(budget, _DEADLINE_STRIDE)
        try:
            while True:
                if ticks >= limit:
                    if ticks >= budget:
                        return True
                    if deadline_passed(self.deadline):
                        raise BudgetExceededError("deadline hit during search")
                    limit = min(budget, ticks + _DEADLINE_STRIDE)
                if not stack:
                    stage = self.next_stage
                    if stage > self.last_stage:
                        return False
                    # A seed holds every agent before the stage agent and
                    # leaves it out, so its node opens at position `stage`.
                    stack.append((connected_subsets(
                        full ^ (1 << order[stage - 1]),
                        required=self.pt.prefix_masks[stage]),
                        0, 0, stage - 1, 0))
                children, covered, value, pos, _ = stack[-1]
                seeds = not covered  # only the seed frame covers nothing
                for c in children:
                    ticks += 1
                    ncov = covered | c
                    nval = value + v(c)
                    if seeds:
                        seeded += 1
                    elif ncov == full:
                        stats.structures_visited += 1
                        if hook is not None:
                            hook(tuple(self._partial()) + (c,))
                        if nval > inc.value + tol:
                            inc.offer(self._partial() + [c], nval)
                        if ticks >= limit:
                            break
                        continue
                    # No seed covers every agent, so seeds are bounded too.
                    if bound is not None \
                            and not inc.value < bound(nval, full & ~ncov):
                        stats.nodes_pruned += 1
                        if ticks >= limit:
                            break
                        continue
                    # Open the node: its children hold its first uncovered
                    # agent, unless the table can finish it.
                    npos = pos + 1
                    while (1 << order[npos - 1]) & ncov:
                        npos += 1
                    if npos >= table.published_level:
                        spent, total, rest = tsp_star_step(
                            table, game, g, full & ~ncov, nval, inc.value)
                        if not seeds:
                            stats.tsp_star_shortcuts += 1
                        if rest is not None:
                            inc.offer(self._partial() + [c] + rest, total)
                        ticks += spent
                        looked_up += spent
                        if ticks >= limit:
                            break
                        continue
                    stack.append((connected_subsets(
                        full & ~ncov, required=1 << order[npos - 1]),
                        ncov, nval, npos, c))
                    break
                else:
                    stack.pop()
                    if not stack:
                        self.next_stage += 1
        finally:
            # Ticks not spent on lookups enumerated subsets: seeds or nodes.
            stats.subsets_enumerated += ticks - looked_up
            stats.nodes_expanded += ticks - looked_up - seeded

    def _partial(self) -> list:
        """The blocks chosen on the way to the open node, seed first."""
        return [frame[4] for frame in self._stack[1:]]


def tsp(game: Game, g: Graph, pt: Pseudotree, bound=None, *,
        deadline: float | None = None, structure_hook=None) -> SolverResult:
    """Branch-and-bound tree search; exact for any admissible bound and
    exhaustive with bound=None.

    `bound`, when given, maps (partial_value, remainder_mask) to an upper
    bound on any completion; a stage seed or a node below it is skipped,
    with its subtree, unless its bound strictly beats the incumbent.
    `structure_hook` observes every full structure the search visits (used
    by coverage tests).
    """
    require_connected(g)
    full = g.full_mask
    singles = [1 << a for a in range(g.n)]
    singles_val = sum(game.value(b) for b in singles)
    grand_val = game.value(full)
    if game.improves(grand_val, singles_val):
        inc = _Incumbent([full], grand_val, 0, game.tolerance)
    else:
        inc = _Incumbent(singles, singles_val, 0, game.tolerance)
    stats = SearchStats()
    # An empty table publishes no level, so no node is ever shortcut.
    _Search(game, g, pt, DpTable(g.n), inc, stats, bound, deadline,
            structure_hook).step(math.inf)
    return SolverResult(best=Partition(inc.blocks), best_value=inc.value,
                        stats=stats)


def tsp_star_step(table: DpTable, game: Game, g: Graph, rest: int,
                  partial_value: Value, incumbent_value: Value):
    """Finish a partial partition optimally from table entries instead of
    searching its subtree.

    `partial_value` is the summed value of the partial's blocks and `rest`
    the agents they leave uncovered. Returns (lookups, total, blocks): the
    components looked up, the completed value, and the remainder's optimal
    blocks when the completion beats the incumbent (None otherwise, so
    nothing is built for a loser). A component of `rest` with no table
    entry is a fault (hybrid.py says why) and raises InternalInvariantError.
    """
    tv = table.values
    component_of = g.component_of
    total = partial_value
    lookups = 0
    r = rest
    try:
        while r:
            comp = component_of(r)
            total += tv[comp]
            lookups += 1
            r &= ~comp
    except KeyError:
        raise InternalInvariantError(
            f"missing table entry for mask {comp}") from None
    if game.improves(total, incumbent_value):
        return (lookups, total,
                reconstruct_blocks(table, g.connected_components(rest), g))
    return lookups, total, None
