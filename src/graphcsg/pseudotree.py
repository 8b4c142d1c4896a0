"""Rooted spanning trees whose branches absorb every graph edge.

A depth-first spanning tree of a connected graph has the property that
every non-tree edge joins an ancestor to a descendant, so sibling subtrees
are independent. The solvers schedule their work along the breadth-first
order of that tree's nodes.
"""

from __future__ import annotations

from .graph import DisconnectedGraphError, Graph


class Pseudotree:
    """Rooted tree over the agents plus the breadth-first visit order.

    `order[i-1]` is the agent at (1-based) position i; `position(a)` is the
    inverse. Positions are layered by depth, ties broken by discovery time
    of the depth-first construction.
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
        pos = [0] * n
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
        if not 0 <= a < self.n:
            raise ValueError(f"agent {a} out of range for n={self.n}")
        return self._pos[a]

    def is_ancestor(self, anc: int, node: int) -> bool:
        """True when anc lies on the root path of node (inclusive)."""
        while node != -1:
            if node == anc:
                return True
            node = self.parent[node]
        return False

    def __repr__(self) -> str:
        return f"Pseudotree(root={self.root}, order={list(self.order)})"


def build_pseudotree(g: Graph, root: int = 0) -> Pseudotree:
    """Depth-first spanning tree from `root`, neighbors visited in
    ascending index order; requires a connected graph."""
    n = g.n
    if not 0 <= root < n:
        raise ValueError(f"root {root} out of range for n={n}")
    if not g.is_connected(g.full_mask):
        raise DisconnectedGraphError("pseudotree requires a connected graph")
    adj = g.adj
    parent = [-1] * n
    depth = [0] * n
    disc = [-1] * n
    disc[root] = 0
    t = 1
    stack = [[root, adj[root]]]
    while stack:
        frame = stack[-1]
        rem = frame[1]
        if rem:
            u_bit = rem & -rem
            frame[1] = rem ^ u_bit
            u = u_bit.bit_length() - 1
            if disc[u] < 0:
                node = frame[0]
                disc[u] = t
                t += 1
                parent[u] = node
                depth[u] = depth[node] + 1
                stack.append([u, adj[u]])
        else:
            stack.pop()
    order = sorted(range(n), key=lambda a: (depth[a], disc[a]))
    return Pseudotree(root, tuple(parent), tuple(depth), tuple(order))
