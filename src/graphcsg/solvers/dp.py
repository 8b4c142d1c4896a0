"""Dynamic-programming sweep and the driver of the pseudotree solvers.

The sweep walks the breadth-first order backwards. At each position it
tabulates, for every connected set anchored there whose complement stays
connected, the best way to carve off a connected block around the anchor
and partition the leftovers optimally. Those sets are found from the
complement side, as DPccp pairs a block with its complement (Moerkotte and
Neumann, VLDB 2006): they are the connected remainders of stage L's seeds,
the connected first blocks that hold every agent before position L and
leave out the agent at L. One pass over the seeds fills level L; then the
sweep prices every seed as its value plus its remainder's summed entries,
completing every structure that starts with it. Only the hybrid's own
search (treesearch.py) uses `tsp_star_step`.

Each sweep memoises every split and seed remainder's summed component
entries, so a recurring remainder is walked once; entries are write-once,
and the sums fold right (`_remainder_value`), so they are exact for
integer games. Only the sweep's thread touches its memo.

`_drive` steps a `_Sweep`, alone (`dype_star`) or in turns with the tree
search (hybrid.py). The exact `dype` is the same sweep run to the end: it
raises instead of returning an unfinished incumbent, and keeps no trace.
"""

from __future__ import annotations

import threading
import time

from ..games import Game, Partition
from ..graph import Graph
from ..masks import agents_of
from ..pseudotree import Pseudotree
from .base import (BudgetExceededError, InternalInvariantError, SearchStats,
                   SolverResult, _Incumbent, deadline_passed,
                   require_connected)
from .dptable import DpTable, reconstruct_blocks
from .treesearch import _DEADLINE_STRIDE as _SEARCH_STRIDE, _Search

_DEADLINE_STRIDE = 256


def _remainder_value(g: Graph, table_values, memo: dict, rest: int):
    """Summed entries of the components of `rest`, stored for `rest` and
    each tail walked as its first component's entry + the tail's value (a
    right fold). A missing entry is a fault, raised before anything is
    stored."""
    comp = g.component_of(rest)
    try:
        val = table_values[comp]
    except KeyError:
        raise InternalInvariantError(
            f"missing table entry for mask {comp}") from None
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
    return best_val, best_sub, count - ticks


def _solve_level(v, g: Graph, pt: Pseudotree, table: DpTable, level: int,
                 stats: SearchStats, memo: dict,
                 deadline: float | None = None) -> list:
    """Fill every table entry anchored at the agent holding `level` in the
    order (the stage seeds' connected remainders, each also memoised as its
    own summed value), publish the level, and return the seeds."""
    anchor_bit = 1 << pt.order[level - 1]
    full = g.full_mask
    component_of = g.component_of
    tv = table.values
    seeds = []
    ticks = 0
    solved = 0
    # Seeds and split subsets share one stride, as one entry can split
    # over thousands; the first check comes at the level's first seed.
    try:
        for d in g.connected_subsets(full ^ anchor_bit,
                                     required=pt.prefix_masks[level]):
            ticks += 1
            if deadline is not None and ticks % _DEADLINE_STRIDE == 1 \
                    and time.monotonic() >= deadline:
                raise BudgetExceededError(
                    "deadline hit while filling the table")
            seeds.append(d)
            c = full & ~d
            if component_of(c) != c:
                continue
            val, sub, cnt = _best_anchored_split(v, g, tv, c, anchor_bit,
                                                 memo, deadline, ticks)
            ticks += cnt
            if val is None:
                raise BudgetExceededError(
                    "deadline hit while splitting a table entry")
            table.put(c, val, sub)
            memo[c] = val
            solved += 1
    finally:
        stats.subsets_enumerated += ticks
        stats.dp_subproblems += solved
    table.published_level = level
    return seeds


class _Sweep:
    """Table-filling worker; `next_level` is its frontier. `_drive` steps it
    alone or in turns with the search. Each step fills a level and then
    prices that level's stage seeds itself, from the table."""

    __slots__ = ("game", "g", "pt", "table", "inc", "stats", "deadline",
                 "next_level", "_memo")

    def __init__(self, game, g, pt, table, inc, stats, deadline):
        self.game = game
        self.g = g
        self.pt = pt
        self.table = table
        self.inc = inc
        self.stats = stats
        self.deadline = deadline
        self.next_level = g.n
        self._memo = {0: 0}

    def step(self) -> bool:
        """Fill one level and scan the seeds it settles."""
        level = self.next_level
        if level < 2:
            return False
        seeds = _solve_level(self.game.value, self.g, self.pt, self.table,
                             level, self.stats, self._memo, self.deadline)
        self._scan(level, seeds)
        self.next_level = level - 1
        return True

    def _scan(self, level: int, seeds: list) -> None:
        """Price each seed D of stage `level` as v(D) plus its remainder's
        summed entries (from the memo), and offer every total that beats
        the incumbent, in seed order, as D and the remainder's blocks."""
        v = self.game.value
        tol = self.game.tolerance
        g = self.g
        table = self.table
        memo = self._memo
        inc = self.inc
        deadline = self.deadline
        count = 0
        for d in seeds:
            count += 1
            if deadline is not None and count % _DEADLINE_STRIDE == 1 \
                    and time.monotonic() >= deadline:
                raise BudgetExceededError(
                    f"deadline hit while scanning level {level}")
            rest = g.full_mask & ~d
            r = memo.get(rest)
            if r is None:
                r = _remainder_value(g, table.values, memo, rest)
            total = v(d) + r
            if total > inc.value + tol:
                inc.offer([d] + reconstruct_blocks(
                    table, g.connected_components(rest), g), total)


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
    sweep_stats = SearchStats()
    search_stats = SearchStats()
    sweep = _Sweep(game, g, pt, table, inc, sweep_stats, deadline)
    searcher = _Search(game, g, pt, table, inc, search_stats, bound, deadline)

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
        stop = threading.Event()
        errors = [None, None]  # one slot per worker, read after the join

        def run(slot, step):
            try:
                while not stop.is_set() and not crossed():
                    if deadline_passed(deadline):
                        raise BudgetExceededError("deadline hit")
                    if not step():
                        break
            except BaseException as e:
                errors[slot] = e
            finally:
                stop.set()

        worker = threading.Thread(
            target=run, args=(1, lambda: searcher.step(_SEARCH_STRIDE)),
            name="block-search", daemon=True)
        worker.start()
        run(0, sweep_step)
        worker.join()
        for e in errors:
            if e is not None and not isinstance(e, BudgetExceededError):
                raise e
        completed = errors == [None, None]

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
        rest = c & ~witness
        if rest not in memo:
            _remainder_value(g, tv, memo, rest)
        val = v(witness) + memo[rest]
        if val != stored:
            raise InternalInvariantError(
                f"witness for mask {c} prices at {val}, entry stores {stored}")
