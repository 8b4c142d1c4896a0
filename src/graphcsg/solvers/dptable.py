"""Write-once table of optimal partition values for connected agent sets.

Each entry stores, for a connected set C, the value of the best feasible
partition of C together with the chosen block containing C's anchor agent.
Entries never change once written; `published_level` advertises how far
the filling sweep has progressed so concurrent readers know which suffix
of the agent order is safe to consult.
"""

from __future__ import annotations

from ..games import Value
from ..graph import Graph
from .base import InternalInvariantError


class DpTable:
    __slots__ = ("values", "subsets", "published_level")

    def __init__(self, n: int):
        self.values: dict[int, Value] = {}
        self.subsets: dict[int, int] = {}
        # Smallest order position whose whole suffix of entries is complete.
        self.published_level = n + 1

    def put(self, c: int, value: Value, best_subset: int) -> None:
        if c in self.values:
            raise InternalInvariantError(f"duplicate table entry for mask {c}")
        self.values[c] = value
        self.subsets[c] = best_subset

    def __len__(self) -> int:
        return len(self.values)


def reconstruct_blocks(table: DpTable, blocks, g: Graph) -> list[int]:
    """Expand blocks into final partition blocks by repeatedly splitting
    any block whose table entry prefers a proper sub-block.

    A split emits the chosen sub-block as final and re-splits the rest into
    connected components, which the table is guaranteed to cover (every
    component was consulted when the entry was computed). Singletons are
    final without a lookup.
    """
    out = []
    work = list(blocks)
    subsets = table.subsets
    while work:
        c = work.pop()
        if c & (c - 1) == 0:
            out.append(c)
            continue
        try:
            bs = subsets[c]
        except KeyError:
            raise InternalInvariantError(
                f"missing table entry for mask {c} during reconstruction"
            ) from None
        if bs == c:
            out.append(c)
            continue
        out.append(bs)
        work += g.connected_components(c & ~bs)
    return out
