"""Write-once table of optimal partition values for connected agent sets.

Each entry stores, for a connected set C, the value of the best feasible
partition of C together with the chosen block containing C's anchor agent.
Rows never change once written; `published_level` is the last level whose
rows, `sums` included, are all written, so concurrent readers know which
suffix of the agent order is safe to consult. A miss in `values` or
`subsets` raises InternalInvariantError; `sums` is a plain dict (dp.py).
"""

from __future__ import annotations

from ..games import Value
from ..graph import Graph
from .base import InternalInvariantError


class _Column(dict):
    __slots__ = ()

    def __missing__(self, c):
        raise InternalInvariantError(f"missing table entry for mask {c}")


class DpTable:
    __slots__ = ("values", "subsets", "sums", "published_level")

    def __init__(self, n: int):
        self.values: dict[int, Value] = _Column()
        self.subsets: dict[int, int] = _Column()
        self.sums: dict[int, Value] = {0: 0}  # the sweep's remainder memo
        # Smallest order position whose whole suffix of rows is complete.
        self.published_level = n + 1

    def put(self, c: int, value: Value, best_subset: int) -> None:
        if c in self.values:
            raise InternalInvariantError(f"duplicate table entry for mask {c}")
        self.values[c] = value
        self.subsets[c] = best_subset

    def __len__(self) -> int:
        return len(self.values)


def reconstruct_blocks(table: DpTable, rest: int, g: Graph) -> list[int]:
    """The optimal blocks of the agents `rest`, read from the table. Each
    pending mask gives up its lowest agent's component: a singleton is
    final without a lookup, any other yields its entry's chosen block and
    leaves the rest of the component pending. The table covers every
    component this reaches (each was consulted for the entry above it)."""
    out = []
    work = [rest]
    while work:
        m = work.pop()
        if m:
            c = g.component_of(m)
            bs = c if c & (c - 1) == 0 else table.subsets[c]
            out.append(bs)
            work += (m & ~c, c & ~bs)
    return out
