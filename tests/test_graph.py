import itertools
import random
import tracemalloc

import pytest

from graphcsg import DisconnectedGraphError, Graph
from graphcsg.solvers.base import require_connected

from conftest import (FOUR_CYCLE_EDGES, agents_of, bfs_reach,
                      connected_subsets_reference, is_connected_agents,
                      random_connected_edges)


def test_graph_validates_input():
    with pytest.raises(ValueError):
        Graph(0)
    with pytest.raises(ValueError):
        Graph(64)
    with pytest.raises(ValueError):
        Graph(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph(3, [(-1, 2)])


def test_graph_normalizes_edges():
    g = Graph(3, [(1, 0), (0, 1), (2, 1)])
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
        g = Graph(n, edges)
        assert g.is_connected(0)  # empty set counts as connected
        for mask in range(1, 1 << n):
            expect = is_connected_agents(edges, agents_of(mask))
            assert g.is_connected(mask) == expect, (n, edges, mask)


def test_cached_component_of_matches_an_adjacency_walk():
    # n <= 24 answers from the two half-width neighborhood tables, larger n
    # from the per-agent walk; compare both with a walk over the edge list,
    # on every subset up to n = 10 and on sampled subsets above
    rng = random.Random(33)
    for n in range(1, 31):
        for _ in range(3 if n <= 10 else 1):
            p = rng.random() if n <= 10 else rng.uniform(0.5, 4) / n
            edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                     if rng.random() < p]
            g = Graph(n, edges)
            masks = (range(1, 1 << n) if n <= 10 else
                     [rng.randrange(1, 1 << n) for _ in range(2000)])
            for mask in masks:
                members = agents_of(mask)
                reach = bfs_reach(edges, members, members[0])
                assert g.component_of(mask) == sum(1 << a for a in reach), \
                    (n, edges, mask)


@pytest.mark.parametrize("n, max_kib", [(16, 64), (24, 512)])
def test_graph_keeps_half_width_tables_only(n, max_kib):
    # a full 2^n neighborhood table keeps 2.5 MiB at n = 16; the two
    # half-width tables keep 2^(n/2) entries each
    edges = [(i, (i + 1) % n) for i in range(n)] + [(0, n // 2)]
    tracemalloc.start()
    try:
        g = Graph(n, edges)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert g.component_of(g.full_mask) == g.full_mask
    assert kept <= max_kib * 1024, (n, kept)


def test_connected_components_partition_the_mask():
    rng = random.Random(32)
    for _ in range(40):
        n = rng.randint(1, 8)
        edges = [e for e in random_connected_edges(rng, n)
                 if rng.random() < 0.6]
        g = Graph(n, edges)
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


def test_component_of_refuses_the_empty_set(four_cycle):
    with pytest.raises(ValueError, match="empty agent set"):
        four_cycle.component_of(0)


def test_streaming_enumerator_equals_reference_exhaustively():
    rng = random.Random(33)
    for _ in range(30):
        n = rng.randint(1, 6)
        edges = [e for e in random_connected_edges(rng, n)
                 if rng.random() < 0.8]
        g = Graph(n, edges)
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
        g = Graph(n, edges)
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
        g = Graph(n, edges)
        ground = rng.randrange(1, 1 << n)
        req = ground & (1 << rng.randrange(n))
        got = set(g.connected_subsets(ground, required=req))
        want = {m for m in g.connected_subsets(ground) if m & req == req}
        assert got == want, (n, edges, ground, req)


def test_a_required_agent_outside_the_ground_yields_no_subset(four_cycle):
    assert list(four_cycle.connected_subsets(0b0011, required=0b0100)) == []
    assert list(four_cycle.connected_subsets(0b0011, required=0b0110)) == []


def test_four_cycle_has_13_connected_subsets(four_cycle):
    subs = list(four_cycle.connected_subsets(four_cycle.full_mask))
    assert len(subs) == 13
    assert len(set(subs)) == 13


def test_complete_graph_every_nonempty_subset_connected():
    g = Graph(5, itertools.combinations(range(5), 2))
    assert sorted(g.connected_subsets(g.full_mask)) == list(range(1, 32))


def test_require_connected():
    g = Graph(4, [(0, 1), (2, 3)])
    with pytest.raises(DisconnectedGraphError):
        require_connected(g)
    require_connected(Graph(1))


def test_a_component_view_keeps_the_graph_and_narrows_its_agents():
    # two triangles on interleaved labels, and an isolated agent
    g = Graph(7, [(0, 2), (2, 4), (0, 4), (1, 3), (3, 5), (1, 5)])
    for comp in g.connected_components(g.full_mask):
        view = g.component(comp)
        assert (view.n, view.full_mask) == (7, comp)
        assert view.adj is g.adj and view._lo is g._lo
        assert view.edges == tuple(e for e in g.edges if comp >> e[0] & 1)
        assert view.is_connected(view.full_mask)
        assert set(view.connected_subsets(g.full_mask)) \
            == set(g.connected_subsets(comp))
    connected = Graph(3, [(0, 1), (1, 2)])
    assert connected.component(0b111) is connected


@pytest.mark.parametrize("mask", [0, 0b000101, 0b001111, 0b1111111, 1 << 7],
                         ids=["empty", "part-of-one", "union-of-two", "all",
                              "past-n"])
def test_component_refuses_a_mask_that_is_not_a_component(mask):
    g = Graph(7, [(0, 2), (2, 4), (0, 4), (1, 3), (3, 5), (1, 5)])
    with pytest.raises(ValueError, match="is not a component"):
        g.component(mask)
    view = g.component(0b010101)
    with pytest.raises(ValueError, match="is not a component"):
        view.component(0b101010)
