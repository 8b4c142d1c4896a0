"""Exhaustive enumeration of feasible structures and the brute-force
oracle built on it. The oracle is the reference every other solver is
checked against, so it stays as plain as possible."""

from __future__ import annotations

from ..games import Game, Partition
from ..graph import Graph
from .base import SearchStats, SolverResult, next_check

# Bell(12) is ~4.2M; anything past that is not a desk-scale oracle run.
ORACLE_MAX_N = 12


def structure_masks(g: Graph, ground: int | None = None):
    """Yield every partition of `ground` (default: all agents) into
    connected blocks, as a tuple of masks, each partition exactly once.

    The next block always contains the lowest-index uncovered agent, so the
    tuples come out sorted by lowest agent and disconnected graphs work per
    component without special casing.
    """
    if ground is None:
        ground = g.full_mask
    connected_subsets = g.connected_subsets
    acc = []

    def rec(rest):
        if not rest:
            yield tuple(acc)
            return
        low = rest & -rest
        for c in connected_subsets(rest, required=low):
            acc.append(c)
            yield from rec(rest & ~c)
            acc.pop()

    yield from rec(ground)


def brute_force_best(game: Game, g: Graph, *,
                     deadline: float | None = None) -> SolverResult:
    """Scan every feasible structure and keep the first-found maximum. The
    cap counts the graph's agents, so it admits a small component view."""
    n = g.full_mask.bit_count()
    if n > ORACLE_MAX_N:
        raise ValueError(
            f"brute force capped at n <= {ORACLE_MAX_N}, got n = {n}")
    v = game.value
    best_masks = None
    best_val = 0
    count = check_at = 0
    for masks in structure_masks(g):
        if count >= check_at:
            check_at = next_check(deadline, count, "during exhaustive scan")
        count += 1
        val = sum(map(v, masks))
        if best_masks is None or val > best_val:
            best_val = val
            best_masks = masks
    return SolverResult(best=Partition(best_masks), best_value=best_val,
                        stats=SearchStats(structures_visited=count))
