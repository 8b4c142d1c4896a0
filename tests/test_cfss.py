import itertools
import random
import time

import pytest

from graphcsg import (BudgetExceededError, Graph, brute_force_best, cfss,
                      make_cfss_bound, make_supersub_game, partition_value,
                      random_table_game, structure_masks)
from graphcsg.solvers.contraction import (_children, _contract_crossing,
                                          _crossing_map, _merge_all,
                                          _solid_pairs)

from conftest import FOUR_CYCLE_EDGES, canon, random_connected_edges


def root_state(g):
    return tuple(1 << a for a in range(g.n)), 0


def children_of(g, blocks, dashed):
    """(child_blocks, child_dashed) pairs, from cfss's own expansion."""
    pairs = _solid_pairs(_crossing_map(g, blocks), dashed)
    return [(kid, kd) for _, _, kid, kd in _children(blocks, dashed, pairs)]


def walk_states(g, blocks, dashed):
    yield blocks, dashed
    for kid, kd in children_of(g, blocks, dashed):
        yield from walk_states(g, kid, kd)


def test_children_merge_one_adjacent_pair():
    rng = random.Random(90)
    for _ in range(20):
        n = rng.randint(2, 7)
        g = Graph(n, random_connected_edges(rng, n))
        stack = [root_state(g)]
        while stack:
            blocks, dashed = stack.pop()
            seen = set()
            for kid, kd in children_of(g, blocks, dashed):
                assert len(kid) == len(blocks) - 1
                assert kd & dashed == dashed
                old = set(blocks)
                new = set(kid)
                merged = list(new - old)
                gone = sorted(old - new)
                assert len(merged) == 1 and len(gone) == 2
                assert merged[0] == gone[0] | gone[1]
                assert g.is_connected(merged[0])
                key = canon(kid)
                assert key not in seen  # siblings all differ
                seen.add(key)
                stack.append((kid, kd))


def test_contraction_tree_covers_structures_exactly_once():
    rng = random.Random(91)
    for _ in range(20):
        n = rng.randint(1, 7)
        g = Graph(n, random_connected_edges(rng, n))
        seen = [canon(b) for b, _ in walk_states(g, *root_state(g))]
        assert len(seen) == len(set(seen)), (n, g.edges)
        assert set(seen) == {canon(s) for s in structure_masks(g)}


def test_pinned_tree_sizes():
    for g, size in ((Graph(4, FOUR_CYCLE_EDGES), 12),
                    (Graph(4, itertools.combinations(range(4), 2)), 15)):
        assert sum(1 for _ in walk_states(g, *root_state(g))) == size
        gm = random_table_game(4, seed=size)
        assert cfss(gm, g).stats.structures_visited == size


def test_derived_crossing_maps_match_maps_built_from_edges():
    """cfss derives each child's crossing map from its parent's; on every
    state of small trees it equals the map built from the edges."""
    rng = random.Random(96)
    graphs = [Graph(4, FOUR_CYCLE_EDGES),
              Graph(4, itertools.combinations(range(4), 2)),
              Graph(8, itertools.combinations(range(8), 2))]
    graphs += [Graph(n, random_connected_edges(rng, n))
               for n in (rng.randint(1, 8) for _ in range(20))]
    sizes = []
    for g in graphs:
        blocks, dashed = root_state(g)
        stack = [(blocks, dashed, _crossing_map(g, blocks))]
        states = 0
        while stack:
            blocks, dashed, crossing = stack.pop()
            states += 1
            assert crossing == _crossing_map(g, blocks), (g.edges, blocks)
            pairs = _solid_pairs(crossing, dashed)
            for i, j, kid, kd in _children(blocks, dashed, pairs):
                stack.append((kid, kd, _contract_crossing(crossing, i, j)))
        assert states == sum(1 for _ in structure_masks(g))
        sizes.append(states)
    assert sizes[:2] == [12, 15]


def test_merged_partition_is_reachable_coarsening():
    """Every structure in a state's subtree refines the merged partition."""
    rng = random.Random(92)
    for _ in range(10):
        n = rng.randint(2, 6)
        g = Graph(n, random_connected_edges(rng, n))
        for blocks, dashed in walk_states(g, *root_state(g)):
            limit = _merge_all(blocks, _solid_pairs(_crossing_map(g, blocks),
                                                    dashed))
            for sub, _ in walk_states(g, blocks, dashed):
                for b in sub:
                    assert any(b & m == b for m in limit), (blocks, sub)


def test_cfss_matches_oracle():
    rng = random.Random(93)
    for _ in range(25):
        n = rng.randint(1, 7)
        g = Graph(n, random_connected_edges(rng, n))
        gm = random_table_game(n, seed=rng.randrange(10 ** 6))
        res = cfss(gm, g)
        assert res.best_value == brute_force_best(gm, g).best_value
        assert partition_value(gm, res.best) == res.best_value
        assert all(g.is_connected(b) for b in res.best)
        assert res.stats.structures_visited == \
            sum(1 for _ in structure_masks(g))


def test_cfss_hook_sees_every_structure_once():
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    gm = random_table_game(5, seed=4)
    seen = []
    cfss(gm, g, structure_hook=lambda s: seen.append(canon(s)))
    assert len(seen) == len(set(seen))
    assert set(seen) == {canon(s) for s in structure_masks(g)}


def test_cfss_with_bound_stays_exact_and_prunes():
    rng = random.Random(94)
    pruned_anywhere = False
    for _ in range(20):
        n = rng.randint(2, 7)
        g = Graph(n, random_connected_edges(rng, n))
        gm = make_supersub_game(n, seed=rng.randrange(10 ** 6))
        plain = cfss(gm, g)
        bounded = cfss(gm, g, bound=make_cfss_bound(gm, "supersub"))
        assert bounded.best_value == plain.best_value
        assert bounded.stats.structures_visited <= \
            plain.stats.structures_visited
        pruned_anywhere |= bounded.stats.nodes_pruned > 0
    assert pruned_anywhere


def test_cfss_bound_on_synthetic_split_tables():
    rng = random.Random(95)
    for _ in range(15):
        n = rng.randint(2, 6)
        g = Graph(n, random_connected_edges(rng, n))
        gm = random_table_game(n, seed=rng.randrange(10 ** 6))
        bounded = cfss(gm, g, bound=make_cfss_bound(gm, "supersub"))
        assert bounded.best_value == brute_force_best(gm, g).best_value


def test_cfss_deadline():
    g = Graph(11, [(i, j) for i in range(11) for j in range(i + 1, 11)])
    gm = random_table_game(11, seed=3)
    with pytest.raises(BudgetExceededError):
        cfss(gm, g, deadline=time.monotonic() - 1)
