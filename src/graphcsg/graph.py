"""Undirected graphs over agents 0..n-1 with bitmask adjacency.

The solvers spend nearly all their time finding components and
enumerating connected subsets, so a Graph precomputes adjacency masks and,
for small n, the neighborhood of every agent set.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

# Above this size the per-subset neighborhood table would not fit; fall
# back to per-agent adjacency walks.
_CACHE_MAX_N = 16

_MAX_N = 63


class DisconnectedGraphError(ValueError):
    """Raised when an operation requires a connected graph."""


class Graph:
    """Immutable undirected graph with agents identified by index.

    Edges are normalized: each stored as (min, max), deduplicated, sorted.
    `adj[i]` is the neighbor mask of agent i.
    """

    __slots__ = ("n", "edges", "adj", "full_mask", "_nbr")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if not 1 <= n <= _MAX_N:
            raise ValueError(f"agent count must be in 1..{_MAX_N}, got {n}")
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
        if n <= _CACHE_MAX_N:
            size = 1 << n
            nbr = [0] * size
            for m in range(1, size):
                low = m & -m
                nbr[m] = nbr[m ^ low] | adj[low.bit_length() - 1]
            self._nbr = nbr
        else:
            self._nbr = None

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={list(self.edges)})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def component_of(self, s: int) -> int:
        """Connected component of s that contains its lowest-index agent."""
        if s == 0:
            raise ValueError("empty agent set")
        comp = s & -s
        nbr = self._nbr
        if nbr is not None:
            while True:
                grow = nbr[comp] & s & ~comp
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

        Enumeration grows a connected set from a seed agent one frontier
        vertex at a time; each branch bans the vertices already offered to
        its elder siblings, which is what makes the stream duplicate-free.
        A multi-agent `required` may span several components of the seed's
        neighborhood: supersets are emitted only once they absorb all of it.
        """
        ground &= self.full_mask
        if required & ~ground:
            return
        adj = self.adj
        if required:
            seed = required & -required
            yield from self._grow(seed, ground, 0, required)
            return
        banned = 0
        rest = ground
        while rest:
            seed = rest & -rest
            rest ^= seed
            yield from self._grow(seed, ground, banned, 0)
            banned |= seed

    def _grow(self, seed: int, ground: int, banned: int, required: int) -> Iterator[int]:
        adj = self.adj
        stack = [(seed, adj[seed.bit_length() - 1] & ground, banned)]
        pop = stack.pop
        push = stack.append
        while stack:
            sub, nbr, ban = pop()
            if not required & ~sub:
                yield sub
            ext = nbr & ~sub & ~ban
            while ext:
                u = ext & -ext
                ext ^= u
                push((sub | u, nbr | (adj[u.bit_length() - 1] & ground), ban))
                ban |= u
                if ban & required:
                    # every later sibling would exclude a required agent
                    break


def make_graph(n: int, edges: Iterable[tuple[int, int]] = ()) -> Graph:
    """Construct a Graph; edge pairs are validated and normalized."""
    return Graph(n, edges)
