"""Search over coalition structures by contracting graph edges.

A search state is a `(blocks, dashed)` pair: the blocks of a coalition
structure, sorted by lowest agent, and a mask over the original graph
edges that are dashed (permanently forbidden). Between adjacent blocks
the edge is solid (may still be contracted) unless a crossing original
edge is dashed, which is exactly the merge rule for contracted parallel
edges. `_children` lists a state's children: the i-th contracts the i-th
solid edge and first marks the preceding i-1 edges dashed, which makes the
walk from the all-singletons root visit every feasible structure exactly
once. `cfss` walks the tree with it, and so do the tests.

Each state also carries its crossing map: for every adjacent pair of
blocks, dashed or not, the mask of original edges between them.
`_crossing_map` builds the root's map from the graph's edges once;
`_contract_crossing` derives each child's map from its parent's, so no
node re-reads all m edges. `_solid_pairs` filters a map by `dashed`.
"""

from __future__ import annotations

import time

from ..games import Game, Partition
from ..graph import Graph
from ..masks import agents_of
from .base import (DEADLINE_STRIDE, BudgetExceededError, SearchStats,
                   SolverResult, _Incumbent, require_connected)


def _crossing_map(g: Graph, blocks) -> dict[tuple[int, int], int]:
    """{(i, j): mask of the edges between blocks i < j} over every adjacent
    pair of `blocks`, built from the graph's edges."""
    block_of = {a: idx for idx, b in enumerate(blocks) for a in agents_of(b)}
    crossing: dict[tuple[int, int], int] = {}
    for k, (u, w) in enumerate(g.edges):
        bu = block_of[u]
        bw = block_of[w]
        if bu != bw:
            key = (bu, bw) if bu < bw else (bw, bu)
            crossing[key] = crossing.get(key, 0) | (1 << k)
    return crossing


def _contract_crossing(crossing, i: int, j: int):
    """The crossing map once block i absorbs block j (i < j): j becomes i,
    the blocks above j shift down by one, and the masks of pairs that land
    on the same pair are OR-ed together (only pairs with j can land on
    another pair)."""
    out: dict[tuple[int, int], int] = {}
    joined = []
    for key, cross in crossing.items():
        a, b = key
        if b < j:
            out[key] = cross
        elif a == j or b == j:
            joined.append((b if a == j else a, cross))
        else:
            out[a - 1 if a > j else a, b - 1] = cross
    for x, cross in joined:
        if x != i:
            if x > j:
                x -= 1
            key = (x, i) if x < i else (i, x)
            out[key] = out.get(key, 0) | cross
    return out


def _solid_pairs(crossing, dashed: int):
    """Solid block-pair edges as (i, j, crossing_edges_mask), ordered by
    block ids, which equal tuple positions because blocks stay sorted."""
    return [(i, j, cross) for (i, j), cross in sorted(crossing.items())
            if not cross & dashed]


def _children(blocks, dashed: int, pairs):
    """Children of state (blocks, dashed) in order, given its solid
    `pairs`, as (i, j, child_blocks, child_dashed): block i absorbs
    block j."""
    acc = dashed
    for i, j, cross in pairs:
        # i < j, so the union keeps block i's lowest agent and the order.
        yield i, j, (blocks[:i] + (blocks[i] | blocks[j],) + blocks[i + 1:j]
                     + blocks[j + 1:]), acc
        acc |= cross


def _merge_all(blocks, pairs):
    """Coarsening that merges every group of blocks joined by the solid
    `pairs` (union-find over block indices). Every structure in the
    state's subtree refines it."""
    parent = list(range(len(blocks)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j, _ in pairs:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[rj] = ri
    groups: dict[int, int] = {}
    for idx, b in enumerate(blocks):
        r = find(idx)
        groups[r] = groups.get(r, 0) | b
    return tuple(groups[r] for r in sorted(groups))


def cfss(game: Game, g: Graph, bound=None, *, deadline: float | None = None,
         structure_hook=None) -> SolverResult:
    """Exact contraction search; with a bound hook it prunes subtrees whose
    optimistic value cannot beat the incumbent.

    `bound`, when given, maps (blocks, merged_blocks) to an upper bound on
    every structure in the subtree, merged_blocks being the coarsest
    reachable coarsening. The incumbent starts at the all-singletons root.
    """
    require_connected(g)
    v = game.value
    tol = game.tolerance
    stats = SearchStats()
    root = tuple(1 << a for a in range(g.n))
    inc = _Incumbent(root, sum(map(v, root)), 0, tol)

    def visit(blocks, value, dashed, crossing):
        stats.structures_visited += 1
        stats.nodes_expanded += 1
        if deadline is not None \
                and stats.nodes_expanded % DEADLINE_STRIDE == 1 \
                and time.monotonic() >= deadline:
            raise BudgetExceededError("deadline hit during contraction search")
        if structure_hook is not None:
            structure_hook(tuple(blocks))
        if value > inc.value + tol:
            inc.offer(blocks, value)
        pairs = _solid_pairs(crossing, dashed)
        if not pairs:
            return
        if bound is not None:
            merged = _merge_all(blocks, pairs)
            if not inc.value < bound(blocks, merged):
                stats.nodes_pruned += 1
                return
        for i, j, nb, nd in _children(blocks, dashed, pairs):
            visit(nb, value - v(blocks[i]) - v(blocks[j]) + v(nb[i]), nd,
                  _contract_crossing(crossing, i, j))

    visit(root, inc.value, 0, _crossing_map(g, root))
    return SolverResult(best=Partition(inc.blocks), best_value=inc.value,
                        stats=stats)
