"""Dynamic-programming sweep and the driver of the pseudotree solvers.

The sweep walks the breadth-first order backwards. At each position it
tabulates, for every connected set anchored there whose complement stays
connected, the best way to carve off a connected block around the anchor
and partition the leftovers optimally. Only the tree search (treesearch.py)
assembles whole structures: once level L is published, the table finishes
every seed of search stage L (the first-agent blocks that hold every agent
before position L and leave out the agent at L).

Each sweep memoises every split remainder's summed component entries, so
a recurring remainder is walked once; entries are write-once, and the sums
fold right (`_remainder_value`), so they are exact for integer games.

`_drive` steps a `_Sweep` worker, which runs each level's stage right
after filling it, so the incumbent improves level by level; the hybrid
(hybrid.py) has it take turns with the tree search. The anytime
`dype_star` is the sweep alone. The exact `dype` is the same sweep run to
the end: it raises instead of returning an unfinished incumbent, and keeps
no trace.
"""

from __future__ import annotations

import math
import threading
import time

from ..games import Game, Partition
from ..graph import Graph
from ..masks import agents_of
from ..pseudotree import Pseudotree
from .base import (BudgetExceededError, InternalInvariantError, SearchStats,
                   SolverResult, _Control, _Incumbent, deadline_passed,
                   require_connected)
from .dptable import DpTable
from .treesearch import _DEADLINE_STRIDE as _SEARCH_STRIDE, _Search

_DEADLINE_STRIDE = 256


def _remainder_value(g: Graph, table_values, memo: dict, rest: int):
    """Summed entries of the components of `rest`, stored for `rest` and
    each tail walked as its first component's entry + the tail's value (a
    right fold). A missing entry raises KeyError before anything is stored."""
    comp = g.component_of(rest)
    val = table_values[comp]
    tail = rest & ~comp
    if tail not in memo:
        _remainder_value(g, table_values, memo, tail)
    memo[rest] = val = val + memo[tail]
    return val


def _best_anchored_split(v, g: Graph, table_values, c: int, anchor_bit: int,
                         memo: dict, deadline: float | None = None,
                         ticks: int = 0):
    """Best value over connected blocks S containing the anchor inside c,
    the rest of c priced through `memo` (remainder -> its components' summed
    entries; start it as {0: 0}). A level fill passes its deadline and
    `ticks`, its subset count so far: counting on from there, the deadline
    is checked every `_DEADLINE_STRIDE` subsets.

    Returns (value, block, blocks_scanned); value is None when the deadline
    passed.
    """
    best_val = None
    best_sub = 0
    get = memo.get
    count = ticks
    try:
        for s in g.connected_subsets(c, required=anchor_bit):
            count += 1
            if deadline is not None and count % _DEADLINE_STRIDE == 1 \
                    and time.monotonic() >= deadline:
                return None, 0, count - ticks
            rest = c & ~s
            r = get(rest)
            if r is None:
                r = _remainder_value(g, table_values, memo, rest)
            val = v(s) + r
            if best_val is None or val > best_val:
                best_val = val
                best_sub = s
    except KeyError as e:
        raise InternalInvariantError(
            f"missing table entry for mask {e.args[0]}") from None
    return best_val, best_sub, count - ticks


def _solve_level(v, g: Graph, pt: Pseudotree, table: DpTable, level: int,
                 stats: SearchStats, memo: dict,
                 deadline: float | None = None) -> None:
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
                                                 memo, deadline, ticks)
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


class _Sweep:
    """Table-filling worker; `next_level` is its frontier. `_drive` steps it
    alone or in turns with the search. It fills levels over the table,
    stats and deadline of the stage search it owns."""

    __slots__ = ("next_level", "_search", "_memo")

    def __init__(self, game, g, pt, table, inc, stats, deadline, control):
        self.next_level = g.n
        self._memo = {0: 0}
        self._search = _Search(game, g, pt, table, inc, stats, None, deadline,
                               control)

    def step(self) -> bool:
        """Fill one level and scan the first blocks it settles."""
        level = self.next_level
        if level < 2:
            return False
        s = self._search
        _solve_level(s.game.value, s.g, s.pt, s.table, level, s.stats,
                     self._memo, s.deadline)
        self._scan(level)
        self.next_level = level - 1
        return True

    def _scan(self, level: int) -> None:
        """Run search stage `level`, whose seeds the table now finishes."""
        self._search.next_stage = self._search.last_stage = level
        self._search.step(math.inf)


def _drive(game: Game, g: Graph, pt: Pseudotree, bound=None, *,
           search: bool = True, mode: str = "interleaved", on_incumbent=None,
           deadline: float | None = None) -> SolverResult:
    """Run the sweep, and with `search` the tree search, over one table and
    one incumbent until the sweep's next level drops below the search's
    pending stage. `d_tsp` describes the two modes; with `search` off the
    search never gets a turn. Hitting the deadline returns the incumbent
    with completed=False instead of raising."""
    require_connected(g)
    if mode not in ("interleaved", "parallel"):
        raise ValueError(f"unknown mode {mode!r}")
    full = g.full_mask
    table = DpTable(g.n)
    inc = _Incumbent([full], game.value(full), time.monotonic(),
                     game.tolerance, on_incumbent)
    control = _Control()
    sweep_stats = SearchStats()
    search_stats = SearchStats()
    sweep = _Sweep(game, g, pt, table, inc, sweep_stats, deadline, control)
    searcher = _Search(game, g, pt, table, inc, search_stats, bound, deadline,
                       control)

    def crossed() -> bool:
        return sweep.next_level < searcher.next_stage

    def sweep_step() -> bool:
        more = sweep.step()
        searcher.last_stage = sweep.next_level
        return more

    completed = True
    if mode == "interleaved" or not search:
        try:
            while not crossed():
                if deadline_passed(deadline):
                    completed = False
                    break
                before = sweep_stats.subsets_enumerated
                sweep_step()
                if search and not crossed():
                    searcher.step(sweep_stats.subsets_enumerated - before)
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
            target=run, args=(lambda: searcher.step(_SEARCH_STRIDE),),
            name="block-search", daemon=True)
        worker.start()
        run(sweep_step)
        worker.join()
        if control.error is not None:
            raise control.error
        completed = not control.deadline_hit

    stats = sweep_stats.merged_with(search_stats)
    stats.frontier_crossed = search and crossed()
    return SolverResult(best=Partition(inc.blocks), best_value=inc.value,
                        stats=stats, trace=inc.trace, completed=completed,
                        table=table)


def dype(game: Game, g: Graph, pt: Pseudotree, *,
         deadline: float | None = None) -> SolverResult:
    """The `dype_star` sweep run to the end: optimal to within the game's
    tolerance per component, or BudgetExceededError at the deadline."""
    res = _drive(game, g, pt, search=False, deadline=deadline)
    if not res.completed:
        raise BudgetExceededError("deadline hit before the sweep finished")
    res.trace = []
    return res


def dype_star(game: Game, g: Graph, pt: Pseudotree, *, on_incumbent=None,
              deadline: float | None = None) -> SolverResult:
    """Anytime variant: keeps a feasible incumbent from the start (the
    one-block partition) and improves it after every completed level."""
    return _drive(game, g, pt, search=False, on_incumbent=on_incumbent,
                  deadline=deadline)


def audit_dp_table(table: DpTable, game: Game, g: Graph,
                   pt: Pseudotree) -> None:
    """Recompute every table entry from scratch and re-check its stored
    witness block. Raises InternalInvariantError on the first discrepancy."""
    v = game.value
    tv = table.values
    pos = pt.position
    memo = {0: 0}
    for c, stored in table.values.items():
        anchor = min(agents_of(c), key=pos)
        best, _, _ = _best_anchored_split(v, g, tv, c, 1 << anchor, memo)
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
