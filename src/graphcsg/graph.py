"""Undirected graphs over agents 0..n-1 with bitmask adjacency.

A Graph's agents are the bits of its `full_mask`, and `n` bounds their
indices. A component view (`Graph.component`) shares its graph's `adj`
and tables, so a view of a graph past `_CACHE_MAX_N` agents walks
adjacency, however small its component.

The solvers spend nearly all their time finding components and
enumerating connected subsets, so a Graph precomputes adjacency masks and,
up to `_CACHE_MAX_N` agents, two half-width neighborhood tables: `_lo`
holds the neighborhood of every set of the agents below h = ceil(n/2),
`_hi` that of every set of the agents from h up. The neighborhood of any
set is then one lookup in each, so the tables keep 2^h + 2^(n-h) entries
rather than 2^n. Both are built eagerly in `__init__` by doubling: agent
i's sets are the lower sets joined with adj[i]. Games read their per-agent
sums from two tables in the same layout, under the same cap
(`masks.half_sums`).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from .masks import HALF_TABLE_MAX_N, agents_of

# Up to this size the two half-width neighborhood tables hold at most
# 2 * 2^12 entries: a Graph keeps 21 KiB at n = 16 and 322 KiB at n = 24.
# Above it, component_of walks adjacency agent by agent.
_CACHE_MAX_N = HALF_TABLE_MAX_N

MAX_N = 63  # the agent cap of every graph, game and instance


class DisconnectedGraphError(ValueError):
    """Raised when an operation requires a connected graph."""


class Graph:
    """Immutable undirected graph with agents identified by index.

    Edges are normalized: each stored as (min, max), deduplicated, sorted.
    `adj[i]` is the neighbor mask of agent i.
    """

    __slots__ = ("n", "edges", "adj", "full_mask", "_lo", "_hi", "_h",
                 "_lo_mask")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if not 1 <= n <= MAX_N:
            raise ValueError(f"agent count must be in 1..{MAX_N}, got {n}")
        norm = set()
        adj = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop on agent {u}")
            if u > v:
                u, v = v, u
            norm.add((u, v))
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self.n = n
        self.edges: tuple[tuple[int, int], ...] = tuple(sorted(norm))
        self.adj: tuple[int, ...] = tuple(adj)
        self.full_mask = (1 << n) - 1
        h = self._h = (n + 1) // 2
        self._lo_mask = (1 << h) - 1
        self._lo = self._hi = None
        if n <= _CACHE_MAX_N:
            self._lo = _neighborhoods(adj[:h])
            self._hi = _neighborhoods(adj[h:])

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={list(self.edges)})"

    def component(self, comp: int) -> Graph:
        """This graph on its component `comp`: the same `n`, `adj` and
        tables, `full_mask` comp and only comp's `edges` (the graph itself
        when comp is all of it). Any other mask is a ValueError."""
        if comp != self.full_mask and (not comp or comp & ~self.full_mask
                or any(self.adj[a] & ~comp for a in agents_of(comp))) \
                or self.component_of(comp) != comp:
            raise ValueError(f"mask {comp} is not a component of the graph")
        if comp == self.full_mask:
            return self
        view = Graph.__new__(Graph)
        for name in Graph.__slots__:
            setattr(view, name, getattr(self, name))
        view.full_mask = comp
        view.edges = tuple(e for e in self.edges if comp >> e[0] & 1)
        return view

    def component_of(self, s: int) -> int:
        """Connected component of s that contains its lowest-index agent."""
        if s == 0:
            raise ValueError("empty agent set")
        comp = s & -s
        lo = self._lo
        if lo is not None:
            hi = self._hi
            m = self._lo_mask
            h = self._h
            while True:
                grow = (lo[comp & m] | hi[comp >> h]) & s & ~comp
                if not grow:
                    return comp
                comp |= grow
        adj = self.adj
        frontier = comp
        while frontier:
            nb = 0
            f = frontier
            while f:
                b = f & -f
                f ^= b
                nb |= adj[b.bit_length() - 1]
            frontier = nb & s & ~comp
            comp |= frontier
        return comp

    def is_connected(self, s: int) -> bool:
        """True when s induces a connected subgraph. Empty and singleton
        sets count as connected."""
        return s & (s - 1) == 0 or self.component_of(s) == s

    def connected_components(self, s: int) -> list[int]:
        """Components of s as masks, ordered by their lowest agent."""
        comps = []
        while s:
            comp = self.component_of(s)
            comps.append(comp)
            s &= ~comp
        return comps

    def connected_subsets(self, ground: int,
                          required: int = 0) -> Iterator[int]:
        """Yield every nonempty connected subset S with
        required <= S <= ground, exactly once.

        Enumeration grows a connected set from each seed agent (the lowest
        required one, or else every agent of `ground` with the earlier ones
        banned) one frontier vertex at a time; each branch bans the vertices
        already offered to its elder siblings, which is what makes the
        stream duplicate-free. A multi-agent `required` may span several
        components of the seed's neighborhood: supersets are emitted only
        once they absorb all of it.
        """
        ground &= self.full_mask
        if required & ~ground:
            return
        adj = self.adj
        seeds = required & -required if required else ground
        banned = 0
        stack = []
        pop = stack.pop
        push = stack.append
        while seeds:
            seed = seeds & -seeds
            seeds ^= seed
            push((seed, adj[seed.bit_length() - 1] & ground, banned))
            banned |= seed
            while stack:
                sub, nbr, ban = pop()
                if not required & ~sub:
                    yield sub
                ext = nbr & ~sub & ~ban
                while ext:
                    u = ext & -ext
                    ext ^= u
                    push((sub | u, nbr | (adj[u.bit_length() - 1] & ground),
                          ban))
                    ban |= u
                    if ban & required:
                        # every later sibling would exclude a required agent
                        break


def _neighborhoods(adj) -> list[int]:
    """Union of adj[i] over the bits i of each index, for every index below
    2^len(adj)."""
    nbr = [0]
    for a in adj:
        nbr += [x | a for x in nbr]
    return nbr

