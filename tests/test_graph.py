import itertools
import random

import pytest

from graphcsg import DisconnectedGraphError, make_graph
from graphcsg.solvers.base import require_connected

from conftest import (FOUR_CYCLE_EDGES, agents_of,
                      connected_subsets_reference, is_connected_agents,
                      random_connected_edges)


def test_make_graph_validates_input():
    with pytest.raises(ValueError):
        make_graph(0)
    with pytest.raises(ValueError):
        make_graph(64)
    with pytest.raises(ValueError):
        make_graph(3, [(0, 0)])
    with pytest.raises(ValueError):
        make_graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        make_graph(3, [(-1, 2)])


def test_make_graph_normalizes_edges():
    g = make_graph(3, [(1, 0), (0, 1), (2, 1)])
    assert g.edges == ((0, 1), (1, 2))
    assert g.full_mask == 0b111
    assert g.adj[0] == 0b010
    assert g.adj[1] == 0b101


def test_is_connected_matches_bfs():
    rng = random.Random(31)
    for _ in range(40):
        n = rng.randint(1, 6)
        # allow disconnected graphs here on purpose
        edges = [e for e in random_connected_edges(rng, n)
                 if rng.random() < 0.7]
        g = make_graph(n, edges)
        assert g.is_connected(0)  # empty set counts as connected
        for mask in range(1, 1 << n):
            expect = is_connected_agents(edges, agents_of(mask))
            assert g.is_connected(mask) == expect, (n, edges, mask)


def test_connected_components_partition_the_mask():
    rng = random.Random(32)
    for _ in range(40):
        n = rng.randint(1, 8)
        edges = [e for e in random_connected_edges(rng, n)
                 if rng.random() < 0.6]
        g = make_graph(n, edges)
        for _ in range(20):
            mask = rng.randrange(1 << n)
            comps = g.connected_components(mask)
            union = 0
            for c in comps:
                assert c and g.is_connected(c)
                assert union & c == 0
                union |= c
            assert union == mask
            if mask:
                lo = mask & -mask
                assert g.component_of(mask) == next(c for c in comps if c & lo)


def test_component_of_contains_lowest_agent(four_cycle):
    g = four_cycle
    assert g.component_of(0b0101) == 0b0001
    assert g.component_of(0b0111) == 0b0111


def test_streaming_enumerator_equals_reference_exhaustively():
    rng = random.Random(33)
    for _ in range(30):
        n = rng.randint(1, 6)
        edges = [e for e in random_connected_edges(rng, n)
                 if rng.random() < 0.8]
        g = make_graph(n, edges)
        for ground in range(1 << n):
            got = sorted(g.connected_subsets(ground))
            ref = sorted(connected_subsets_reference(g, ground))
            assert got == ref, (n, edges, ground)
            assert len(set(got)) == len(got)


def test_reference_enumerator_matches_independent_filter():
    rng = random.Random(34)
    for _ in range(20):
        n = rng.randint(1, 6)
        edges = random_connected_edges(rng, n)
        g = make_graph(n, edges)
        for ground in range(1 << n):
            ref = set(connected_subsets_reference(g, ground))
            ind = {m for m in range(1, 1 << n)
                   if m & ground == m
                   and is_connected_agents(edges, agents_of(m))}
            assert ref == ind


def test_required_filter():
    rng = random.Random(35)
    for _ in range(25):
        n = rng.randint(2, 6)
        edges = random_connected_edges(rng, n)
        g = make_graph(n, edges)
        ground = rng.randrange(1, 1 << n)
        req = ground & (1 << rng.randrange(n))
        got = set(g.connected_subsets(ground, required=req))
        want = {m for m in g.connected_subsets(ground) if m & req == req}
        assert got == want, (n, edges, ground, req)


def test_four_cycle_has_13_connected_subsets(four_cycle):
    subs = list(four_cycle.connected_subsets(four_cycle.full_mask))
    assert len(subs) == 13
    assert len(set(subs)) == 13


def test_complete_graph_every_nonempty_subset_connected():
    g = make_graph(5, itertools.combinations(range(5), 2))
    assert sorted(g.connected_subsets(g.full_mask)) == list(range(1, 32))


def test_require_connected():
    g = make_graph(4, [(0, 1), (2, 3)])
    with pytest.raises(DisconnectedGraphError):
        require_connected(g)
    require_connected(make_graph(1))
