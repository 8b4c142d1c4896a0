"""Exact dynamic-programming solvers driven by a pseudotree order.

The sweep walks the breadth-first order backwards. At each position it
tabulates, for every connected set anchored there whose complement stays
connected, the best way to carve off a connected block around the anchor
and partition the leftovers optimally. A final pass over blocks containing
the first agent assembles the optimum for the whole agent set.

The anytime variant is the same fill run level by level by a `_Sweep`
worker, which after each level also scans every candidate first-agent
block compatible with that level and keeps a running incumbent partition,
so it can be stopped early with a feasible answer in hand. The hybrid
solver runs this same worker in turns with its tree search.
"""

from __future__ import annotations

import time

from ..games import Game, Partition
from ..graph import Graph
from ..masks import agents_of
from ..pseudotree import Pseudotree
from .base import (BudgetExceededError, InternalInvariantError, SearchStats,
                   SolverResult, _Control, _Incumbent, deadline_passed,
                   require_connected)
from .dptable import DpTable, reconstruct_blocks

_DEADLINE_STRIDE = 256


def _best_anchored_split(v, g: Graph, table_values, c: int, anchor_bit: int,
                         deadline: float | None = None):
    """Best value over connected blocks S containing the anchor inside c,
    where the rest of c is settled by table lookups per component. With a
    deadline it is checked every `_DEADLINE_STRIDE` blocks; level fills
    pass none and check between entries instead.

    Returns (value, block, subsets_scanned).
    """
    best_val = None
    best_sub = 0
    component_of = g.component_of
    count = 0
    try:
        for s in g.connected_subsets(c, required=anchor_bit):
            count += 1
            if deadline is not None and count % _DEADLINE_STRIDE == 0 \
                    and time.monotonic() >= deadline:
                raise BudgetExceededError(
                    "deadline hit during the closing split")
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
    return best_val, best_sub, count


def _solve_level(v, g: Graph, pt: Pseudotree, table: DpTable, level: int,
                 stats: SearchStats, deadline: float | None = None) -> None:
    """Fill every table entry anchored at the agent holding `level` in the
    order, then publish the level."""
    anchor_bit = 1 << pt.order[level - 1]
    ground = pt.suffix_masks[level]
    full = g.full_mask
    is_connected = g.is_connected
    tv = table.values
    seen = 0
    solved = 0
    inner = 0
    # Inner split subsets count toward the stride too: one entry can scan
    # thousands of them. The first check comes at the level's first subset.
    next_check = 0
    for c in g.connected_subsets(ground, required=anchor_bit):
        seen += 1
        if deadline is not None and seen + inner > next_check:
            next_check = seen + inner + _DEADLINE_STRIDE
            if time.monotonic() >= deadline:
                stats.subsets_enumerated += seen + inner
                stats.dp_subproblems += solved
                raise BudgetExceededError(
                    "deadline hit while filling the table")
        if not is_connected(full & ~c):
            continue
        val, sub, cnt = _best_anchored_split(v, g, tv, c, anchor_bit)
        inner += cnt
        table.put(c, val, sub)
        solved += 1
    stats.subsets_enumerated += seen + inner
    stats.dp_subproblems += solved
    table.published_level = level


def dype(game: Game, g: Graph, pt: Pseudotree, *,
         deadline: float | None = None) -> SolverResult:
    """Exact table-filling solver; returns an optimal partition of all
    agents into connected blocks."""
    require_connected(g)
    n = g.n
    full = g.full_mask
    v = game.value
    table = DpTable(n)
    stats = SearchStats()
    for level in range(n, 1, -1):
        _solve_level(v, g, pt, table, level, stats, deadline)
    best, sub, cnt = _best_anchored_split(v, g, table.values, full,
                                          1 << pt.order[0], deadline)
    stats.subsets_enumerated += cnt
    table.put(full, best, sub)
    stats.dp_subproblems += 1
    blocks = reconstruct_blocks(table, [full], g)
    return SolverResult(best=Partition(blocks), best_value=best, stats=stats,
                        table=table)


class _Sweep:
    """Table-filling worker; `next_level` is its frontier. `dype_star` runs
    it alone and `d_tsp` takes turns between it and the search."""

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
        """Price every first-agent block whose first excluded agent sits at
        this level; the table now prices all of their complements."""
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
