"""Dynamic-programming sweep and the driver of the pseudotree solvers.

The sweep walks the breadth-first order backwards. At each position it
tabulates, for every connected set anchored there whose complement stays
connected, the DyPE split (Vinyals et al., 2013): the best connected block
around the anchor plus the rest, priced from the table (`_solve_level`;
`audit_dp_table` re-derives it with its own loop). The sets are found from
the complement side, as DPccp pairs a block with its complement (Moerkotte
and Neumann, VLDB 2006): the connected remainders of stage L's seeds, the
connected first blocks that hold every agent before position L and leave
out the agent at L. One pass over the seeds finds level L's entries, one
walk over their union prices each block against every entry holding it,
and then the sweep prices every seed as its value plus its remainder's
summed entries, completing every structure that starts with it. Only the
hybrid's own search (treesearch.py) uses `tsp_star_step`.

Each sweep memoises every entry and seed remainder's summed component
entries, so a split reads its remainder in one lookup (`_solve_level`
proves it is there); entries are write-once, and the sums fold right
(`_remainder_value`), so they are exact for integer games. Only the
sweep's thread touches its memo.

`_drive` steps a `_Sweep`, alone (`dype_star`) or with the tree search
(hybrid.py). The exact `dype` is the same sweep run to the end: it raises
instead of returning an unfinished incumbent, and keeps no trace.
"""

from __future__ import annotations

import threading
import time

from ..games import Game, Partition
from ..graph import Graph
from ..masks import agents_of
from ..pseudotree import Pseudotree
from .base import (DEADLINE_STRIDE, BudgetExceededError,
                   InternalInvariantError, SearchStats, SolverResult,
                   _Incumbent, deadline_passed, require_connected)
from .dptable import DpTable, reconstruct_blocks
from .treesearch import _Search, _stage_seeds

# The parallel search runs in steps of this many ticks; between steps its
# thread checks the stop flag, the crossing and the deadline.
_PARALLEL_STEP_TICKS = 1024


def _remainder_value(g: Graph, table_values, memo: dict, rest: int,
                     comp: int = 0):
    """Summed entries of the components of `rest`, stored for `rest` and
    each tail walked as its first component's entry + the tail's value (a
    right fold). `comp`, when given, is rest's first component, already
    found by the caller. A missing entry is a fault: the table raises
    InternalInvariantError before anything is stored."""
    if not comp:
        comp = g.component_of(rest)
    val = table_values[comp]
    tail = rest & ~comp
    if tail not in memo:
        _remainder_value(g, table_values, memo, tail)
    memo[rest] = val = val + memo[tail]
    return val


def _solve_level(v, g: Graph, pt: Pseudotree, table: DpTable, level: int,
                 stats: SearchStats, memo: dict,
                 deadline: float | None = None) -> list:
    """Fill level `level`, publish it, and return its stage seeds, each as a
    pair of the seed and its remainder's first component. Each connected
    remainder c is an entry: the best v(S) + memo[c - S] over connected
    blocks S of c holding the anchor (the agent at `level`), where the memo
    maps a remainder to its components' summed entries; c is memoised too.

    One depth-first walk from the anchor over the entries' union, under
    `Graph.connected_subsets`' push/ban rule, yields each block once. A
    frame carries the entries holding its block; a child keeps those that
    hold its new agent, and is dropped, its agent still banned, if none
    do. Restricted to an entry c the walk is `connected_subsets(c,
    required=anchor)`: in c the frontiers and bans coincide, and no child
    outside c has a subset of c below it. So c keeps that stream's first
    strict best. A tick is a seed or a priced (block, entry) pair; the
    walk checks the deadline after its first block, then after each block
    that ends a stride of ticks since the last check.

    memo[c - S] is always there: S holds the anchor, whose tree parent lies
    before position `level`, in the seed D = full - c. So D | S is
    connected and holds every agent before its first missing position
    L' > `level`: a stage-L' seed, whose remainder c - S `_scan` memoised
    before this level was filled (or every agent, and memo[0] = 0). A miss
    would be a fault, and the plain dict raises KeyError."""
    anchor = pt.order[level - 1]
    full = g.full_mask
    component_of = g.component_of
    adj = g.adj
    seeds = []
    entries = []
    ground = ticks = check_at = 0
    try:
        for d in _stage_seeds(g, pt, level):
            ticks += 1
            if deadline is not None and ticks % DEADLINE_STRIDE == 1 \
                    and time.monotonic() >= deadline:
                raise BudgetExceededError(
                    "deadline hit while filling the table")
            c = full & ~d
            comp = component_of(c)
            seeds.append((d, comp))
            if comp == c:
                entries.append(c)
                ground |= c
        best_val = dict.fromkeys(entries, float("-inf"))
        best_sub = {}
        stack = [(1 << anchor, adj[anchor] & ground, 0, entries)] \
            if entries else []
        pop = stack.pop
        push = stack.append
        while stack:
            sub, nbr, ban, held = pop()
            vs = v(sub)
            for c in held:
                val = vs + memo[c ^ sub]
                if val > best_val[c]:
                    best_val[c] = val
                    best_sub[c] = sub
            ticks += len(held)
            if deadline is not None and ticks >= check_at:
                if time.monotonic() >= deadline:
                    raise BudgetExceededError(
                        "deadline hit while splitting the level's entries")
                check_at = ticks + DEADLINE_STRIDE
            ext = nbr & ~sub & ~ban
            while ext:
                u = ext & -ext
                ext ^= u
                keep = [c for c in held if c & u]
                if keep:
                    push((sub | u, nbr | (adj[u.bit_length() - 1] & ground),
                          ban, keep))
                ban |= u
        for c in entries:
            memo[c] = val = best_val[c]
            table.put(c, val, best_sub[c])
        stats.dp_subproblems += len(entries)
    finally:
        stats.subsets_enumerated += ticks
    table.published_level = level
    return seeds


class _Sweep:
    """Table-filling worker, whose frontier is the table's
    `published_level`. `_drive` steps it alone or with the search. Each
    step fills a level and then prices that level's stage seeds itself,
    from the table."""

    __slots__ = ("game", "g", "pt", "table", "inc", "stats", "deadline",
                 "_memo")

    def __init__(self, game, g, pt, table, inc, stats, deadline):
        self.game = game
        self.g = g
        self.pt = pt
        self.table = table
        self.inc = inc
        self.stats = stats
        self.deadline = deadline
        self._memo = {0: 0}

    def step(self) -> None:
        """Fill the level below the published one and scan the seeds it
        settles. `_drive` stops at the crossing, before level 1."""
        level = self.table.published_level - 1
        self._scan(level, _solve_level(self.game.value, self.g, self.pt,
                                       self.table, level, self.stats,
                                       self._memo, self.deadline))

    def _scan(self, level: int, seeds: list) -> None:
        """Price each seed D of stage `level`, given as (D, the first
        component of its remainder), as v(D) plus its remainder's summed
        entries (from the memo), and offer every total that beats the
        incumbent, in seed order, as D and the remainder's blocks."""
        v = self.game.value
        tol = self.game.tolerance
        g = self.g
        table = self.table
        memo = self._memo
        inc = self.inc
        deadline = self.deadline
        count = 0
        for d, comp in seeds:
            count += 1
            if deadline is not None and count % DEADLINE_STRIDE == 1 \
                    and time.monotonic() >= deadline:
                raise BudgetExceededError(
                    f"deadline hit while scanning level {level}")
            rest = g.full_mask & ~d
            r = memo.get(rest)
            if r is None:
                r = _remainder_value(g, table.values, memo, rest, comp)
            total = v(d) + r
            if total > inc.value + tol:
                inc.offer([d] + reconstruct_blocks(table, rest, g), total)


# The hybrid's schedules: the values of `_drive`'s `search` besides None.
MODES = ("interleaved", "parallel")


def _drive(game: Game, g: Graph, pt: Pseudotree, bound=None, *,
           search: str | None = None, on_event=None,
           deadline: float | None = None) -> SolverResult:
    """Run the sweep, and the tree search as `search` schedules it, over
    one table and one incumbent until their frontiers cross. `search` is
    None (the sweep alone), "interleaved" or "parallel" (`d_tsp` describes
    both). Every worker runs the same loop over its own step: the main
    thread takes the sweep's turns, and in parallel mode a second thread
    takes the search's steps. Hitting the deadline returns the incumbent
    with completed=False instead of raising. `on_event` observes the run."""
    require_connected(g)
    full = g.full_mask
    table = DpTable(g.n)
    inc = _Incumbent([full], game.value(full), game.tolerance, on_event)
    sweep = _Sweep(game, g, pt, table, inc, SearchStats(), deadline)
    searcher = _Search(game, g, pt, table, inc, SearchStats(), bound,
                       deadline, on_event)
    stop = threading.Event()
    faults = []  # read after the join; the first is re-raised
    completed = True

    def crossed() -> bool:
        return table.published_level <= searcher.next_stage

    def turn() -> None:
        """One sweep level; interleaved, then as many search ticks as that
        level enumerated subsets."""
        before = sweep.stats.subsets_enumerated
        sweep.step()
        if search == "interleaved" and not crossed():
            searcher.step(sweep.stats.subsets_enumerated - before)

    def run(step):
        nonlocal completed
        try:
            while not stop.is_set() and not crossed():
                if deadline_passed(deadline):
                    raise BudgetExceededError("deadline hit")
                step()
        except BudgetExceededError:
            # Not stored: its traceback holds this frame, which refers to
            # `faults`, so the cycle would keep the table for the collector.
            completed = False
        except BaseException as e:
            faults.append(e)
        finally:
            stop.set()

    if search == "parallel":
        worker = threading.Thread(
            target=run, name="block-search", daemon=True,
            args=(lambda: searcher.step(_PARALLEL_STEP_TICKS),))
        worker.start()
    run(turn)
    if search == "parallel":
        worker.join()
    if faults:
        raise faults[0]
    stats = sweep.stats.merged_with(searcher.stats)
    stats.frontier_crossed = search is not None and crossed()
    return SolverResult(best=Partition(inc.blocks), best_value=inc.value,
                        stats=stats, trace=inc.trace, completed=completed,
                        table=table)


def dype(game: Game, g: Graph, pt: Pseudotree, *,
         deadline: float | None = None) -> SolverResult:
    """The `dype_star` sweep run to the end: optimal to within the game's
    tolerance per component, or BudgetExceededError at the deadline."""
    res = _drive(game, g, pt, deadline=deadline)
    if not res.completed:
        raise BudgetExceededError("deadline hit before the sweep finished")
    res.trace = []
    return res


def dype_star(game: Game, g: Graph, pt: Pseudotree, *, on_event=None,
              deadline: float | None = None) -> SolverResult:
    """Anytime variant: keeps a feasible incumbent from the start (the
    one-block partition) and improves it after every completed level."""
    return _drive(game, g, pt, on_event=on_event, deadline=deadline)


def audit_dp_table(table: DpTable, game: Game, g: Graph,
                   pt: Pseudotree) -> None:
    """Recompute every table entry from scratch and re-check its stored
    witness block. Raises InternalInvariantError on the first discrepancy."""
    v = game.value
    tv = table.values
    pos = pt.position
    memo = {0: 0}

    def price(block: int, c: int):
        """v(block) plus the rest of c's summed entries (the audit's memo)."""
        rest = c & ~block
        if rest not in memo:
            _remainder_value(g, tv, memo, rest)
        return v(block) + memo[rest]

    for c, stored in tv.items():
        anchor = min(agents_of(c), key=pos)
        best = max(price(s, c)
                   for s in g.connected_subsets(c, required=1 << anchor))
        if best != stored:
            raise InternalInvariantError(
                f"entry for mask {c} stores {stored}, recurrence gives {best}")
        witness = table.subsets[c]
        if witness == 0 or witness & ~c or not (witness >> anchor) & 1 \
                or not g.is_connected(witness):
            raise InternalInvariantError(
                f"entry for mask {c} has an invalid witness block {witness}")
        val = price(witness, c)
        if val != stored:
            raise InternalInvariantError(
                f"witness for mask {c} prices at {val}, entry stores {stored}")
