import itertools
import random
import time

import pytest

from graphcsg import (BudgetExceededError, Graph, Partition, brute_force_best,
                      partition_value, random_table_game, structure_masks)
from graphcsg.solvers import exhaustive

from conftest import (FOUR_CYCLE_EDGES, canon, feasible_partitions_by_filter,
                      random_connected_edges)

BELL = [1, 1, 2, 5, 15, 52, 203, 877]


def test_complete_graph_counts_are_bell_numbers():
    for n in range(1, 8):
        g = Graph(n, itertools.combinations(range(n), 2))
        assert sum(1 for _ in structure_masks(g)) == BELL[n]


def test_four_cycle_has_12_feasible_structures():
    g = Graph(4, FOUR_CYCLE_EDGES)
    structs = [canon(s) for s in structure_masks(g)]
    assert len(structs) == 12
    assert len(set(structs)) == 12
    # 15 partitions of 4 agents minus the 3 with a disconnected pair
    assert canon([0b0101, 0b1010]) not in set(structs)


def test_structures_match_independent_filter():
    rng = random.Random(60)
    for _ in range(25):
        n = rng.randint(1, 6)
        edges = random_connected_edges(rng, n)
        g = Graph(n, edges)
        got = {canon(s) for s in structure_masks(g)}
        assert len(got) == sum(1 for _ in structure_masks(g))
        assert got == feasible_partitions_by_filter(n, edges)


def test_structures_of_disconnected_graph_and_sub_ground():
    g = Graph(4, [(0, 1), (2, 3)])
    got = {canon(s) for s in structure_masks(g)}
    assert got == feasible_partitions_by_filter(4, [(0, 1), (2, 3)])
    # restricting the ground set enumerates partitions of that subset only
    sub = {canon(s) for s in structure_masks(g, ground=0b0011)}
    assert sub == {canon([0b0011]), canon([0b0001, 0b0010])}


def test_enumerate_feasible_structures_yields_partitions():
    g = Graph(3, [(0, 1), (1, 2)])
    parts = [Partition(s) for s in structure_masks(g)]
    assert all(p.covered == 0b111 for p in parts)
    assert {canon(p.blocks) for p in parts} == \
        feasible_partitions_by_filter(3, [(0, 1), (1, 2)])


def test_brute_force_matches_exhaustive_scan():
    rng = random.Random(61)
    for _ in range(20):
        n = rng.randint(1, 7)
        edges = random_connected_edges(rng, n)
        g = Graph(n, edges)
        gm = random_table_game(n, seed=rng.randrange(10 ** 6))
        res = brute_force_best(gm, g)
        want = max(partition_value(gm, s) for s in structure_masks(g))
        assert res.best_value == want
        assert partition_value(gm, res.best) == want
        assert res.best.covered == g.full_mask
        assert all(g.is_connected(b) for b in res.best)
        assert res.completed
        assert res.stats.structures_visited == \
            sum(1 for _ in structure_masks(g))


def test_brute_force_refuses_large_instances(monkeypatch):
    g = Graph(13, [(i, i + 1) for i in range(12)])
    with pytest.raises(ValueError):
        brute_force_best(random_table_game(13, seed=0), g)
    # the cap is read at call time
    monkeypatch.setattr(exhaustive, "ORACLE_MAX_N", 13)
    res = brute_force_best(random_table_game(13, seed=0), g)
    assert res.completed


def test_brute_force_deadline():
    g = Graph(10, [(i, j) for i in range(10) for j in range(i + 1, 10)])
    gm = random_table_game(10, seed=1)
    with pytest.raises(BudgetExceededError):
        brute_force_best(gm, g, deadline=time.monotonic())


def test_oracle_cap_counts_a_views_agents():
    # a 3-agent path and a 13-agent path in one 16-agent graph
    g = Graph(16, [(0, 1), (1, 2)] + [(i, i + 1) for i in range(3, 15)])
    game = random_table_game(16, seed=3)
    small, large = g.connected_components(g.full_mask)
    with pytest.raises(ValueError, match="got n = 13$"):
        brute_force_best(game, g.component(large))
    res = brute_force_best(game, g.component(small))
    assert res.best.covered == small
    assert res.best_value == max(partition_value(game, p)
                                 for p in structure_masks(g, ground=small))
