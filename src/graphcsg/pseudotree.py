"""Rooted spanning trees whose branches absorb every graph edge.

A depth-first spanning tree of a connected graph has the property that
every non-tree edge joins an ancestor to a descendant, so sibling subtrees
are independent. The solvers schedule their work along the breadth-first
order of that tree's nodes.
"""

from __future__ import annotations

from .graph import DisconnectedGraphError, Graph
from .masks import agents_of


class Pseudotree:
    """Rooted tree over the agents plus the breadth-first visit order.

    `n` counts the tree's agents; `parent` and `depth` are indexed up to
    the graph's `n`. `order[i-1]` is the agent at (1-based) position i;
    `position(a)` is the inverse. Positions are layered by depth, ties
    broken by discovery time of the depth-first construction.
    """

    __slots__ = ("n", "root", "parent", "depth", "order", "_pos",
                 "prefix_masks")

    def __init__(self, root: int, parent: tuple[int, ...],
                 depth: tuple[int, ...], order: tuple[int, ...]):
        n = len(order)
        self.n = n
        self.root = root
        self.parent = parent
        self.depth = depth
        self.order = order
        pos = [0] * len(parent)
        for i, a in enumerate(order):
            pos[a] = i + 1
        self._pos = tuple(pos)
        # prefix_masks[i] = agents at positions < i
        prefix = [0] * (n + 2)
        for i in range(1, n + 2):
            prefix[i] = prefix[i - 1] | (1 << order[i - 2] if i >= 2 else 0)
        self.prefix_masks = tuple(prefix)

    def position(self, a: int) -> int:
        """1-based breadth-first position of agent a."""
        if not (0 <= a < len(self._pos) and self._pos[a]):
            raise ValueError(f"agent {a} out of range: not in the tree")
        return self._pos[a]

    def __repr__(self) -> str:
        return f"Pseudotree(root={self.root}, order={list(self.order)})"


def build_pseudotree(g: Graph, root: int = 0) -> Pseudotree:
    """Depth-first spanning tree from `root`, neighbors visited in
    ascending index order; requires a connected graph and a root among its
    agents. The recursion nests at most n <= 63 calls."""
    n = g.n
    if not (0 <= root < n and g.full_mask >> root & 1):
        raise ValueError(f"root {root} is not an agent of the graph")
    if not g.is_connected(g.full_mask):
        raise DisconnectedGraphError("pseudotree requires a connected graph")
    adj = g.adj
    parent = [-1] * n
    depth = [0] * n
    discovered = [root]

    def visit(node: int) -> None:
        for u in agents_of(adj[node]):
            if u != root and parent[u] < 0:
                parent[u] = node
                depth[u] = depth[node] + 1
                discovered.append(u)
                visit(u)

    visit(root)
    # A stable sort: agents of one depth keep their discovery order.
    order = sorted(discovered, key=depth.__getitem__)
    return Pseudotree(root, tuple(parent), tuple(depth), tuple(order))
