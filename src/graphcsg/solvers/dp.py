"""Exact dynamic-programming solvers driven by a pseudotree order.

The sweep walks the breadth-first order backwards. At each position it
tabulates, for every connected set anchored there whose complement stays
connected, the best way to carve off a connected block around the anchor
and partition the leftovers optimally. Only the tree search (treesearch.py)
assembles whole structures: once level L is published, the table finishes
every seed of search stage L (the first-agent blocks that hold every agent
before position L and leave out the agent at L).

`dype` fills every level and then runs every stage from the one-block
partition. The anytime `dype_star` runs a `_Sweep` worker, which runs each
level's stage right after filling it, so it keeps a running incumbent and
can be stopped early with a feasible answer in hand. The hybrid solver
runs this same worker in turns with its tree search.
"""

from __future__ import annotations

import math
import time

from ..games import Game, Partition
from ..graph import Graph
from ..masks import agents_of
from ..pseudotree import Pseudotree
from .base import (BudgetExceededError, InternalInvariantError, SearchStats,
                   SolverResult, _Control, _Incumbent, require_connected)
from .dptable import DpTable
from .treesearch import _Search

_DEADLINE_STRIDE = 256


def _best_anchored_split(v, g: Graph, table_values, c: int, anchor_bit: int,
                         deadline: float | None = None, ticks: int = 0):
    """Best value over connected blocks S containing the anchor inside c,
    where the rest of c is settled by table lookups per component. A level
    fill passes its deadline and `ticks`, its subset count so far: counting
    on from there, the deadline is checked every `_DEADLINE_STRIDE` subsets.

    Returns (value, block, blocks_scanned); value is None when the deadline
    passed.
    """
    best_val = None
    best_sub = 0
    component_of = g.component_of
    count = ticks
    try:
        for s in g.connected_subsets(c, required=anchor_bit):
            count += 1
            if deadline is not None and count % _DEADLINE_STRIDE == 1 \
                    and time.monotonic() >= deadline:
                return None, 0, count - ticks
            val = v(s)
            rest = c & ~s
            while rest:
                comp = component_of(rest)
                val += table_values[comp]
                rest &= ~comp
            if best_val is None or val > best_val:
                best_val = val
                best_sub = s
    except KeyError as e:
        raise InternalInvariantError(
            f"missing table entry for mask {e.args[0]}") from None
    return best_val, best_sub, count - ticks


def _solve_level(v, g: Graph, pt: Pseudotree, table: DpTable, level: int,
                 stats: SearchStats, deadline: float | None = None) -> None:
    """Fill every table entry anchored at the agent holding `level` in the
    order, then publish the level."""
    anchor_bit = 1 << pt.order[level - 1]
    ground = pt.suffix_masks[level]
    full = g.full_mask
    is_connected = g.is_connected
    tv = table.values
    ticks = 0
    solved = 0
    # Entries and their inner split subsets share one stride: one entry
    # can scan thousands of subsets. The first check comes at the level's
    # first subset.
    try:
        for c in g.connected_subsets(ground, required=anchor_bit):
            ticks += 1
            if deadline is not None and ticks % _DEADLINE_STRIDE == 1 \
                    and time.monotonic() >= deadline:
                raise BudgetExceededError(
                    "deadline hit while filling the table")
            if not is_connected(full & ~c):
                continue
            val, sub, cnt = _best_anchored_split(v, g, tv, c, anchor_bit,
                                                 deadline, ticks)
            ticks += cnt
            if val is None:
                raise BudgetExceededError(
                    "deadline hit while splitting a table entry")
            table.put(c, val, sub)
            solved += 1
    finally:
        stats.subsets_enumerated += ticks
        stats.dp_subproblems += solved
    table.published_level = level


def dype(game: Game, g: Graph, pt: Pseudotree, *,
         deadline: float | None = None) -> SolverResult:
    """Exact table-filling solver; returns an optimal partition of all
    agents into connected blocks (to within the game's tolerance)."""
    require_connected(g)
    full = g.full_mask
    table = DpTable(g.n)
    stats = SearchStats()
    for level in range(g.n, 1, -1):
        _solve_level(game.value, g, pt, table, level, stats, deadline)
    # With every level published the table finishes every seed, so the
    # search prices each first-agent block but the full set exactly once.
    inc = _Incumbent([full], game.value(full), 0, game.tolerance)
    _Search(game, g, pt, table, inc, stats, None, deadline,
            _Control()).step(math.inf)
    # The first block holds the first agent: it is the full set's witness.
    table.put(full, inc.value, inc.blocks[0])
    stats.dp_subproblems += 1
    return SolverResult(best=Partition(inc.blocks), best_value=inc.value,
                        stats=stats, table=table)


class _Sweep:
    """Table-filling worker; `next_level` is its frontier. `dype_star` runs
    it alone and `d_tsp` takes turns between it and the search. It fills
    levels over the table, stats and deadline of the stage search it owns."""

    __slots__ = ("next_level", "_search")

    def __init__(self, game, g, pt, table, inc, stats, deadline, control):
        self.next_level = g.n
        self._search = _Search(game, g, pt, table, inc, stats, None, deadline,
                               control)

    def step(self) -> bool:
        """Fill one level and scan the first blocks it settles."""
        level = self.next_level
        if level < 2:
            return False
        s = self._search
        _solve_level(s.game.value, s.g, s.pt, s.table, level, s.stats,
                     s.deadline)
        self._scan(level)
        self.next_level = level - 1
        return True

    def _scan(self, level: int) -> None:
        """Run search stage `level`, whose seeds the table now finishes."""
        self._search.next_stage = self._search.last_stage = level
        self._search.step(math.inf)


def dype_star(game: Game, g: Graph, pt: Pseudotree, *, on_incumbent=None,
              deadline: float | None = None) -> SolverResult:
    """Anytime variant: keeps a feasible incumbent from the start (the
    one-block partition) and improves it after every completed level."""
    require_connected(g)
    t0 = time.monotonic()
    full = g.full_mask
    table = DpTable(g.n)
    stats = SearchStats()
    inc = _Incumbent([full], game.value(full), t0, game.tolerance,
                     on_incumbent)
    sweep = _Sweep(game, g, pt, table, inc, stats, deadline, _Control())
    completed = True
    try:
        while sweep.step():
            pass
    except BudgetExceededError:
        completed = False
    return SolverResult(best=Partition(inc.blocks), best_value=inc.value,
                        stats=stats, trace=inc.trace, completed=completed,
                        table=table)


def audit_dp_table(table: DpTable, game: Game, g: Graph,
                   pt: Pseudotree) -> None:
    """Recompute every table entry from scratch and re-check its stored
    witness block. Raises InternalInvariantError on the first discrepancy."""
    v = game.value
    tv = table.values
    pos = pt.position
    for c, stored in table.values.items():
        anchor = min(agents_of(c), key=pos)
        best, _, _ = _best_anchored_split(v, g, tv, c, 1 << anchor)
        if best != stored:
            raise InternalInvariantError(
                f"entry for mask {c} stores {stored}, recurrence gives {best}")
        witness = table.subsets[c]
        if witness == 0 or witness & ~c or not (witness >> anchor) & 1 \
                or not g.is_connected(witness):
            raise InternalInvariantError(
                f"entry for mask {c} has an invalid witness block {witness}")
        val = v(witness)
        rest = c & ~witness
        while rest:
            comp = g.component_of(rest)
            if comp not in tv:
                raise InternalInvariantError(
                    f"witness for mask {c} references missing entry {comp}")
            val += tv[comp]
            rest &= ~comp
        if val != stored:
            raise InternalInvariantError(
                f"witness for mask {c} prices at {val}, entry stores {stored}")
