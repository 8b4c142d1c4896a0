"""Depth-first search over coalition structures, seeded stage by stage.

Stage k enumerates every candidate block for the first agent whose first
excluded agent (in breadth-first order) is the stage agent; the search
below a seed repeatedly carves a connected block around the earliest
uncovered agent, so each structure but the one-block partition is reached
exactly once. A bound hook may prune any node whose optimistic value
cannot beat the incumbent, stage seeds included: a pruned seed counts as
seeded and as pruned, and opens nothing.

While a bound is in use the search also prunes by dominance (Ibaraki, J.
ACM 1977): it keeps, per covered set, the highest partial value it has
let through (opened or completed from the table), and skips a node whose
covered set it holds at a value at least as high, before asking the
bound. This is exact: the search is depth-first and a descendant covers
strictly more than its node, so the earlier node's subtree was finished
before the later node was reached. Each completion of the later node is
worth no more than the same completion of the earlier one, which was
offered, pruned or beaten against an incumbent no higher than today's,
so no improvement beyond the tolerance is lost, and `tsp` keeps the
same incumbents in the same order. The memo holds at most one entry per
node let through. With no bound the search stays an exhaustive walk.

`_Search` keeps its open nodes on an explicit stack, so it can pause
between any two nodes. It starts no stage at or past the table's
`published_level` (hybrid.py), and finishes a node whose remainder lies
within the published levels by `tsp_star_step` instead of searching it;
only the hybrid's search reaches that path, and a missing entry there is
an `InternalInvariantError` (the table raises it). `tsp` runs the search
alone over an empty table, from all-singletons, which the one-block
partition replaces when it beats them by more than the tolerance.
"""

from __future__ import annotations

import math

from ..games import Game, Partition, Value
from ..graph import Graph
from ..masks import agents_of
from ..pseudotree import Pseudotree
from .base import (SearchStats, SolverResult, _Incumbent, next_check,
                   require_connected)
from .dptable import DpTable, reconstruct_blocks


def _stage_seeds(g: Graph, pt: Pseudotree, stage: int):
    """Stage `stage`'s seeds, as a subset stream: the connected first
    blocks that hold every agent before position `stage` in the order and
    leave out the agent at it. The search opens nodes below them; the
    sweep fills level `stage` from their remainders and prices them."""
    return g.connected_subsets(g.full_mask ^ (1 << pt.order[stage - 1]),
                               required=pt.prefix_masks[stage])


class _Search:
    """Seeded tree-search worker, resumable between any two nodes.

    The open nodes sit on an explicit stack. The bottom frame enumerates the
    seeds of the pending stage; each frame above it is a node, holding its
    children iterator, covered mask, value, order position and the block
    chosen to reach it (the seed frame covers nothing). `next_stage` is the
    frontier (the stage whose seeds are pending); it advances only once a
    stage's whole seed frame is exhausted, and stops at the table's
    `published_level`. The incumbent's `on_event` observes every full
    structure reached. `_seen` is the dominance memo (module docstring),
    covered mask -> highest partial value let through; it stays empty
    with no bound.
    """

    __slots__ = ("game", "g", "pt", "table", "inc", "stats", "bound",
                 "deadline", "next_stage", "_stack", "_seen")

    def __init__(self, game, g, pt, table, inc, stats, bound, deadline):
        self.game = game
        self.g = g
        self.pt = pt
        self.table = table
        self.inc = inc
        self.stats = stats
        self.bound = bound
        self.deadline = deadline
        self.next_stage = 2
        self._stack = []
        self._seen = {}

    def step(self, budget) -> bool:
        """Advance the search by about `budget` ticks, where a tick is one
        subset handled: a seed or child enumerated, or a remainder
        component a table completion looks up. A child is a full
        structure, a pruned node, a table-completed node or an opened one;
        the step can stop after any of them. False at the table's
        `published_level`; True when the budget ran out first."""
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
        emit = inc.on_event
        seen = self._seen
        stack = self._stack
        ticks = 0
        looked_up = 0
        seeded = 0
        pruned = 0
        # The next tick count at which to stop or to check the deadline.
        limit = 0
        try:
            while True:
                if ticks >= limit:
                    if ticks >= budget:
                        return True
                    limit = min(budget, next_check(self.deadline, ticks,
                                                   "during search"))
                if not stack:
                    stage = self.next_stage
                    if stage >= table.published_level:
                        return False
                    # A seed holds every agent before the stage agent and
                    # leaves it out, so its node opens at position `stage`.
                    stack.append((_stage_seeds(g, self.pt, stage), 0, 0,
                                  stage - 1, 0))
                children, covered, value, pos, _ = stack[-1]
                seeds = not covered  # only the seed frame covers nothing
                for c in children:
                    ticks += 1
                    ncov = covered | c
                    nval = value + v(c)
                    if seeds:
                        seeded += 1
                    # No seed covers every agent: a full structure is a
                    # node's child, and a seed is bounded like a node.
                    if ncov == full:
                        stats.structures_visited += 1
                        if emit is not None:
                            emit("structure", tuple(self._partial()) + (c,))
                        if nval > inc.value + tol:
                            inc.offer(self._partial() + [c], nval)
                    elif bound is not None and (
                            ncov in seen and seen[ncov] >= nval
                            or not inc.value < bound(nval, full & ~ncov)):
                        # Dominated (module docstring) or bounded.
                        pruned += 1
                    else:
                        if bound is not None:
                            seen[ncov] = nval  # the highest so far
                        # Open the node: its children hold its first
                        # uncovered agent, unless the table can finish it.
                        npos = pos + 1
                        while (1 << order[npos - 1]) & ncov:
                            npos += 1
                        if npos < table.published_level:
                            stack.append((connected_subsets(
                                full & ~ncov, required=1 << order[npos - 1]),
                                ncov, nval, npos, c))
                            break
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
                else:
                    stack.pop()
                    if not stack:
                        self.next_stage += 1
        finally:
            # Ticks not spent on lookups enumerated subsets: seeds or nodes.
            stats.subsets_enumerated += ticks - looked_up
            stats.nodes_expanded += ticks - looked_up - seeded
            stats.nodes_pruned += pruned

    def _partial(self) -> list:
        """The blocks chosen on the way to the open node, seed first."""
        return [frame[4] for frame in self._stack[1:]]


def tsp(game: Game, g: Graph, pt: Pseudotree, bound=None, *,
        deadline: float | None = None, on_event=None) -> SolverResult:
    """Branch-and-bound tree search; exact for any admissible bound and
    exhaustive with bound=None.

    `bound`, when given, maps (partial_value, remainder_mask) to an upper
    bound on any completion; a stage seed or a node below it is skipped,
    with its subtree, unless its bound strictly beats the incumbent; so
    is a node dominated by an earlier one that covered the same agents
    at a partial value no lower (the module docstring proves this exact).
    The dominance memo lasts one run and holds at most one entry per node
    opened. `on_event` observes the incumbents and every full structure
    the search visits; the search never visits the one-block partition.
    """
    require_connected(g)
    singles = [1 << a for a in agents_of(g.full_mask)]
    inc = _Incumbent(singles, sum(map(game.value, singles)), game.tolerance,
                     on_event)
    inc.offer([g.full_mask], game.value(g.full_mask))
    stats = SearchStats()
    # An empty table publishes level pt.n + 1: stages 2..pt.n all run, and
    # no node is ever shortcut.
    _Search(game, g, pt, DpTable(pt.n), inc, stats, bound,
            deadline).step(math.inf)
    return SolverResult(best=Partition(inc.blocks), best_value=inc.value,
                        stats=stats)


def tsp_star_step(table: DpTable, game: Game, g: Graph, rest: int,
                  partial_value: Value, incumbent_value: Value):
    """Finish a partial partition optimally from table entries instead of
    searching its subtree.

    `partial_value` is the summed value of the partial's blocks and `rest`
    the agents they leave uncovered. Returns (lookups, total, blocks): the
    components looked up, the completed value, and the remainder's optimal
    blocks when the completion beats the incumbent beyond the tolerance
    (None otherwise, so nothing is built for a loser). A component of
    `rest` with no entry is a fault (hybrid.py says why): the table raises.
    """
    tv = table.values
    comps = g.connected_components(rest)
    total = partial_value
    for comp in comps:
        total += tv[comp]
    if total > incumbent_value + game.tolerance:
        return len(comps), total, reconstruct_blocks(table, rest, g)
    return len(comps), total, None
