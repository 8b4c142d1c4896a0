import random

import pytest

from graphcsg import build_pseudotree, make_graph

from conftest import random_connected_edges


def check_layering(pt):
    """Depth never decreases along the order and a parent always comes
    before its child."""
    for i in range(1, pt.n):
        assert pt.depth[pt.order[i - 1]] <= pt.depth[pt.order[i]]
    for a in range(pt.n):
        p = pt.parent[a]
        if p >= 0:
            assert pt.position(p) < pt.position(a)
            assert pt.depth[a] == pt.depth[p] + 1
        else:
            assert a == pt.root and pt.depth[a] == 0


def test_order_is_a_permutation_and_positions_invert():
    rng = random.Random(40)
    for _ in range(30):
        n = rng.randint(1, 10)
        g = make_graph(n, random_connected_edges(rng, n))
        root = rng.randrange(n)
        pt = build_pseudotree(g, root)
        assert sorted(pt.order) == list(range(n))
        assert pt.order[0] == root
        for i, a in enumerate(pt.order, start=1):
            assert pt.position(a) == i


def test_every_edge_joins_ancestor_and_descendant():
    rng = random.Random(41)
    for _ in range(60):
        n = rng.randint(1, 10)
        edges = random_connected_edges(rng, n)
        g = make_graph(n, edges)
        pt = build_pseudotree(g, rng.randrange(n))
        for u, w in edges:
            assert pt.is_ancestor(u, w) or pt.is_ancestor(w, u), \
                (n, edges, pt.root, (u, w))
        check_layering(pt)


def test_is_ancestor_is_reflexive_and_follows_parents():
    g = make_graph(5, [(0, 1), (1, 2), (2, 3), (0, 4)])
    pt = build_pseudotree(g, 0)
    for a in range(5):
        assert pt.is_ancestor(a, a)
    assert pt.is_ancestor(0, 3)
    assert not pt.is_ancestor(3, 0)
    assert not pt.is_ancestor(4, 3)


def test_prefix_masks():
    rng = random.Random(42)
    for _ in range(20):
        n = rng.randint(1, 9)
        g = make_graph(n, random_connected_edges(rng, n))
        pt = build_pseudotree(g, rng.randrange(n))
        for i in range(0, n + 1):
            mask = 0
            for a in pt.order[:i]:
                mask |= 1 << a
            # prefix_masks[i] covers the first i-1 agents, 1-based
            assert pt.prefix_masks[i + 1] == mask


def test_path_rooted_at_end_is_the_path_order():
    g = make_graph(4, [(0, 1), (1, 2), (2, 3)])
    pt = build_pseudotree(g, 0)
    assert pt.order == (0, 1, 2, 3)
    assert pt.depth == (0, 1, 2, 3)


def test_star_center_root_puts_leaves_one_level_down():
    g = make_graph(5, [(0, i) for i in range(1, 5)])
    pt = build_pseudotree(g, 0)
    assert pt.order == (0, 1, 2, 3, 4)
    assert pt.depth == (0, 1, 1, 1, 1)


def test_pinned_five_agent_reconstruction():
    g = make_graph(5, [(2, 0), (2, 3), (0, 1), (3, 4), (2, 1)])
    pt = build_pseudotree(g, 2)
    assert pt.order == (2, 0, 3, 1, 4)
    assert pt.position(2) == 1
    assert pt.position(1) == 4
    for u, w in g.edges:
        assert pt.is_ancestor(u, w) or pt.is_ancestor(w, u)


def test_root_out_of_range():
    g = make_graph(2, [(0, 1)])
    with pytest.raises(ValueError):
        build_pseudotree(g, 2)
