import random

import pytest

from graphcsg import DisconnectedGraphError, Graph, build_pseudotree

from conftest import is_ancestor, random_connected_edges


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
        g = Graph(n, random_connected_edges(rng, n))
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
        g = Graph(n, edges)
        pt = build_pseudotree(g, rng.randrange(n))
        for u, w in edges:
            assert is_ancestor(pt, u, w) or is_ancestor(pt, w, u), \
                (n, edges, pt.root, (u, w))
        check_layering(pt)


def test_is_ancestor_is_reflexive_and_follows_parents():
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (0, 4)])
    pt = build_pseudotree(g, 0)
    for a in range(5):
        assert is_ancestor(pt, a, a)
    assert is_ancestor(pt, 0, 3)
    assert not is_ancestor(pt, 3, 0)
    assert not is_ancestor(pt, 4, 3)


def test_prefix_masks():
    rng = random.Random(42)
    for _ in range(20):
        n = rng.randint(1, 9)
        g = Graph(n, random_connected_edges(rng, n))
        pt = build_pseudotree(g, rng.randrange(n))
        for i in range(0, n + 1):
            mask = 0
            for a in pt.order[:i]:
                mask |= 1 << a
            # prefix_masks[i] covers the first i-1 agents, 1-based
            assert pt.prefix_masks[i + 1] == mask


def test_path_rooted_at_end_is_the_path_order():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    pt = build_pseudotree(g, 0)
    assert pt.order == (0, 1, 2, 3)
    assert pt.depth == (0, 1, 2, 3)


def test_63_agent_path_from_either_end():
    # the depth-first construction nests 62 levels below the root
    g = Graph(63, [(i, i + 1) for i in range(62)])
    pt = build_pseudotree(g, 0)
    assert pt.parent == (-1,) + tuple(range(62))
    assert pt.depth == tuple(range(63))
    assert pt.order == tuple(range(63))
    pt = build_pseudotree(g, 62)
    assert pt.parent == tuple(range(1, 63)) + (-1,)
    assert pt.depth == tuple(range(62, -1, -1))
    assert pt.order == tuple(range(62, -1, -1))


def test_star_center_root_puts_leaves_one_level_down():
    g = Graph(5, [(0, i) for i in range(1, 5)])
    pt = build_pseudotree(g, 0)
    assert pt.order == (0, 1, 2, 3, 4)
    assert pt.depth == (0, 1, 1, 1, 1)


def test_pinned_five_agent_reconstruction():
    g = Graph(5, [(2, 0), (2, 3), (0, 1), (3, 4), (2, 1)])
    pt = build_pseudotree(g, 2)
    assert pt.order == (2, 0, 3, 1, 4)
    assert pt.position(2) == 1
    assert pt.position(1) == 4
    for u, w in g.edges:
        assert is_ancestor(pt, u, w) or is_ancestor(pt, w, u)


def test_root_out_of_range():
    g = Graph(2, [(0, 1)])
    with pytest.raises(ValueError):
        build_pseudotree(g, 2)


@pytest.mark.parametrize("agent", [-1, 3])
def test_position_refuses_an_agent_outside_the_tree(agent):
    pt = build_pseudotree(Graph(3, [(0, 1), (1, 2)]), 0)
    with pytest.raises(ValueError, match=f"agent {agent} out of range"):
        pt.position(agent)


def test_build_refuses_a_disconnected_graph():
    with pytest.raises(DisconnectedGraphError):
        build_pseudotree(Graph(3, [(0, 1)]), 0)


def test_a_view_tree_holds_the_component_and_refuses_an_outside_root():
    g = Graph(6, [(0, 2), (2, 4), (1, 3), (3, 5)])
    view = g.component(0b010101)
    pt = build_pseudotree(view, 2)
    assert (pt.n, pt.order) == (3, (2, 0, 4))
    assert [pt.position(a) for a in (2, 0, 4)] == [1, 2, 3]
    for agent in (1, 3, 5):
        with pytest.raises(ValueError, match="not an agent of the graph"):
            build_pseudotree(view, agent)
        with pytest.raises(ValueError, match=f"agent {agent} out of range"):
            pt.position(agent)
