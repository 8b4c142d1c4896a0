"""Search over coalition structures by contracting graph edges.

A search state is a coalition structure whose adjacent block pairs are
each solid (may still be contracted) or dashed (permanently forbidden).
The i-th child of a state contracts its i-th solid pair, in (lower,
higher) order of the blocks' lowest agents, after dashing the first i-1.
The walk from the all-singletons root visits every feasible structure
exactly once.

`cfss` keeps one state, changed in place on the way down and restored on
the way up, so no state allocates a dict or sorts. A block is named by
its representative r, its lowest agent, and `reps` masks them:
- `blk[r]` is the block (0 for an agent that represents none), `val[r]`
  its value, `nbr[r]` its neighbour mask and `dn[r]` its dashed-neighbour
  mask: the agents across a dashed pair;
- `own[a]` is the representative of a's block, one hop away: the child
  that contracts (r, y), linking y to r until its undo, has dashed every
  solid pair of every representative below r, so below it no such block
  merges and r never merges downward.

Dashing a pair ORs each whole block into the other's `dn`, which stays
exact because blocks only grow: a pair is dashed once any part of it was,
so blocks r and q form a dashed pair iff `dn[r]` meets `blk[q]`, read
from either side, and a solid one iff they are adjacent and not dashed.
A contraction ORs the two blocks' `nbr` and `dn`, and no third block's
masks change.
"""

from __future__ import annotations

from ..games import Game, Partition
from ..graph import Graph
from .base import (SearchStats, SolverResult, _Incumbent, next_check,
                   require_connected)


def cfss(game: Game, g: Graph, bound=None, *, deadline: float | None = None,
         on_event=None) -> SolverResult:
    """Exact contraction search; with a bound hook it prunes subtrees whose
    optimistic value cannot beat the incumbent.

    `bound`, when given, maps (blocks, merged_blocks) to an upper bound on
    every structure in the subtree, merged_blocks being the coarsest
    reachable coarsening: the groups of blocks joined by solid pairs. The
    incumbent starts at all-singletons and reports every `on_event` event.
    """
    require_connected(g)
    v = game.value
    tol = game.tolerance
    blk = [1 << a & g.full_mask for a in range(g.n)]
    val = [b and v(b) for b in blk]
    nbr = list(g.adj)
    dn = [0] * g.n
    own = list(range(g.n))
    inc = _Incumbent(filter(None, blk), sum(val), tol, on_event)
    emit = inc.on_event

    def visit(value, reps):
        nonlocal count, pruned, check_at
        if count >= check_at:
            check_at = next_check(deadline, count,
                                  "during contraction search")
        count += 1
        if emit is not None:
            emit("structure", tuple(filter(None, blk)))
        if value > inc.value + tol:
            inc.offer(tuple(filter(None, blk)), value)
        # part[r]: the representatives of r's solid partners; lows: the
        # representatives with a solid partner above them.
        part = [0] * g.n
        lows = 0
        rest = reps
        while rest:
            rb = rest & -rest
            rest ^= rb
            r = rb.bit_length() - 1
            d = dn[r]
            # Every agent of a block above r lies above r.
            c = nbr[r] & ~d & -rb
            while c:
                y = own[(c & -c).bit_length() - 1]
                b = blk[y]
                c &= ~b
                if y > r and not d & b:
                    part[r] |= 1 << y
                    part[y] |= rb
                    lows |= rb
        if not lows:
            return
        if bound is not None:
            # merged: the groups of blocks joined by solid pairs.
            merged = []
            left = reps
            while left:
                todo = left & -left
                left ^= todo
                group = 0
                while todo:
                    xb = todo & -todo
                    todo ^= xb
                    x = xb.bit_length() - 1
                    group |= blk[x]
                    join = part[x] & left
                    left ^= join
                    todo |= join
                merged.append(group)
            if not inc.value < bound(tuple(filter(None, blk)), tuple(merged)):
                pruned += 1
                return
        keep = None
        while lows:
            rb = lows & -lows
            lows ^= rb
            r = rb.bit_length() - 1
            d = dn[r]
            above = part[r] & -(rb << 1)
            while above:
                yb = above & -above
                above ^= yb
                y = yb.bit_length() - 1
                br, by, nr, vr = blk[r], blk[y], nbr[r], val[r]
                m = br | by
                vm = v(m)
                blk[r], blk[y], val[r] = m, 0, vm
                nbr[r] = (nr | nbr[y]) & ~m
                dn[r] = d | dn[y]
                own[y] = r
                visit(value - vr - val[y] + vm, reps ^ yb)
                own[y] = y
                blk[r], blk[y], val[r], nbr[r], dn[r] = br, by, vr, nr, d
                # Dash the pair for the later siblings.
                if keep is None:
                    keep = dn[:]
                d |= by
                dn[r] = d
                dn[y] |= br
        if keep is not None:
            dn[:] = keep

    count = pruned = check_at = 0
    visit(inc.value, g.full_mask)
    stats = SearchStats(nodes_expanded=count, nodes_pruned=pruned,
                        structures_visited=count)
    return SolverResult(Partition(inc.blocks), inc.value, stats)
