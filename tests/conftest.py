"""Shared test helpers.

The checking logic here is deliberately independent of the package:
connectivity is re-derived with a plain BFS over edge lists, and
partitions are enumerated by assigning agents to blocks one at a time,
so the package's own enumerators have something external to disagree
with.
"""

import pytest

from graphcsg import make_graph


def agents_of(mask):
    out = []
    a = 0
    while mask:
        if mask & 1:
            out.append(a)
        mask >>= 1
        a += 1
    return out


def mask_of(agents):
    m = 0
    for a in agents:
        m |= 1 << a
    return m


def bfs_reach(edges, members, start):
    """Agents reachable from start walking only inside members."""
    members = set(members)
    seen = {start}
    queue = [start]
    while queue:
        u = queue.pop()
        for a, b in edges:
            w = b if a == u else a if b == u else None
            if w is not None and w in members and w not in seen:
                seen.add(w)
                queue.append(w)
    return seen


def is_connected_agents(edges, members):
    members = set(members)
    if not members:
        return False
    start = next(iter(members))
    return bfs_reach(edges, members, start) == members


def all_set_partitions(items):
    """Every partition of items, as lists of lists."""
    items = list(items)

    def rec(i, blocks):
        if i == len(items):
            yield [list(b) for b in blocks]
            return
        x = items[i]
        for b in blocks:
            b.append(x)
            yield from rec(i + 1, blocks)
            b.pop()
        blocks.append([x])
        yield from rec(i + 1, blocks)
        blocks.pop()

    if not items:
        yield []
        return
    yield from rec(0, [])


def feasible_partitions_by_filter(n, edges):
    """All partitions of range(n) with connected blocks, as a set of
    frozensets of block bitmasks."""
    out = set()
    for part in all_set_partitions(range(n)):
        if all(is_connected_agents(edges, b) for b in part):
            out.add(frozenset(mask_of(b) for b in part))
    return out


def connected_subsets_reference(g, ground, required=0):
    """Filter-based reference for `Graph.connected_subsets`.

    Walks all submasks of the ground set and keeps the connected ones
    that contain `required`. Kept deliberately independent of the
    streaming enumerator so the two can be checked against each other.
    """
    ground &= g.full_mask
    if required & ~ground:
        return
    sub = ground
    while True:
        if sub and not required & ~sub and g.is_connected(sub):
            yield sub
        if sub == 0:
            return
        sub = (sub - 1) & ground


def random_connected_edges(rng, n, extra=None):
    """Random spanning tree plus a few extra edges."""
    if n == 1:
        return []
    nodes = list(range(n))
    rng.shuffle(nodes)
    edges = set()
    for i in range(1, n):
        u = nodes[rng.randrange(i)]
        w = nodes[i]
        edges.add((min(u, w), max(u, w)))
    if extra is None:
        extra = rng.randrange(0, n)
    for _ in range(extra):
        u = rng.randrange(n)
        w = rng.randrange(n)
        if u != w:
            edges.add((min(u, w), max(u, w)))
    return sorted(edges)


def canon(blocks):
    """Order-free form of a partition given as an iterable of masks."""
    return frozenset(blocks)


FOUR_CYCLE_EDGES = [(0, 1), (1, 2), (2, 3), (3, 0)]


@pytest.fixture
def four_cycle():
    return make_graph(4, FOUR_CYCLE_EDGES)


@pytest.fixture
def k4():
    return make_graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
