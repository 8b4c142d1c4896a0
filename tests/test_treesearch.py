import itertools
import random
import time

import pytest

from graphcsg import (BudgetExceededError, Game, Graph, InternalInvariantError,
                      brute_force_best, build_pseudotree, cfss, dype,
                      make_supersub_game, make_tsp_bound, partition_value,
                      random_table_game, structure_masks, tsp, tsp_star_step)
from graphcsg.solvers.base import DEADLINE_STRIDE

from conftest import (FOUR_CYCLE_EDGES, canon, observer,
                      random_connected_edges)


def test_tsp_matches_oracle_without_bound():
    rng = random.Random(80)
    for _ in range(25):
        n = rng.randint(1, 7)
        g = Graph(n, random_connected_edges(rng, n))
        gm = random_table_game(n, seed=rng.randrange(10 ** 6))
        pt = build_pseudotree(g, rng.randrange(n))
        res = tsp(gm, g, pt)
        assert res.best_value == brute_force_best(gm, g).best_value
        assert partition_value(gm, res.best) == res.best_value
        assert all(g.is_connected(b) for b in res.best)


def test_tsp_with_bound_stays_exact():
    rng = random.Random(81)
    for _ in range(25):
        n = rng.randint(1, 7)
        g = Graph(n, random_connected_edges(rng, n))
        gm = random_table_game(n, seed=rng.randrange(10 ** 6))
        pt = build_pseudotree(g, 0)
        plain = tsp(gm, g, pt)
        bounded = tsp(gm, g, pt, bound=make_tsp_bound(gm, "supersub"))
        assert bounded.best_value == plain.best_value
        assert bounded.stats.nodes_expanded <= plain.stats.nodes_expanded


def test_bound_prunes_on_cooperative_games():
    # strongly merge-rewarding games make the grand coalition optimal and
    # give the bound real teeth
    g = Graph(7, [(i, i + 1) for i in range(6)])
    gm = make_supersub_game(7, weights=(5,) * 7, kappa=1)
    pt = build_pseudotree(g, 0)
    plain = tsp(gm, g, pt)
    bounded = tsp(gm, g, pt, bound=make_tsp_bound(gm, "supersub"))
    assert bounded.best_value == plain.best_value
    assert bounded.stats.nodes_pruned > 0


def test_bound_prunes_stage_seeds():
    # with kappa = 0 the one-block partition is optimal and the search
    # starts from it, so the bound cuts every stage seed and nothing opens
    n = 12
    g = Graph(n, [(i, (i + 1) % n) for i in range(n)])
    gm = make_supersub_game(n, seed=5, kappa=0)
    pt = build_pseudotree(g, 0)
    seeds = sum(
        1 for stage in range(2, n + 1) for c in range(1, g.full_mask + 1)
        if not c >> pt.order[stage - 1] & 1
        and c & pt.prefix_masks[stage] == pt.prefix_masks[stage]
        and g.is_connected(c))
    res = tsp(gm, g, pt, bound=make_tsp_bound(gm, "supersub"))
    assert res.best.blocks == (g.full_mask,)
    assert res.stats.nodes_expanded == 0
    assert res.stats.subsets_enumerated == seeds
    assert res.stats.nodes_pruned == seeds
    assert res.stats.structures_visited == 0


def test_dominance_keeps_a_later_better_node():
    # On the path 0-1-2-3 the stage-2 node {0}, {1} covers {0, 1} at value
    # 0 before the stage-3 seed {0, 1} covers it at 10, and only the seed
    # leads to the optimum {0, 1}, {2, 3}. With a bound that never prunes,
    # dominance is the only rule: it keeps that seed, and skips {0}, {1, 2}
    # and the stage-4 seed {0, 1, 2}, since {0}, {1}, {2} (value 0) and
    # {0, 1}, {2} (value 10) covered the same agents first.
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    gm = Game(4, lambda c: 10 if c in (0b0011, 0b1100) else 0)
    seen = []
    res = tsp(gm, g, build_pseudotree(g, 0),
              bound=lambda partial, rest: float("inf"),
              on_event=observer("structure", seen.append))
    assert (res.best.blocks, res.best_value) == ((0b0011, 0b1100), 20)
    assert seen == [(1, 2, 4, 8), (1, 2, 12), (1, 14), (3, 4, 8), (3, 12)]
    assert res.stats.nodes_pruned == 2


def test_dominance_keeps_tsp_exact_past_the_oracle():
    # Cycles with n = 16-24 and random trees with n = 16-22, priced by a
    # merge cost (kappa = 5) that keeps the search deep. Dominance lets
    # the whole set finish in about a second; without it, it takes over
    # 15 s and the deadline stops it.
    deadline = time.monotonic() + 10
    for n in range(16, 25):
        rng = random.Random(n)
        graphs = [Graph(n, [(i, (i + 1) % n) for i in range(n)])]
        if n <= 22:
            graphs.append(Graph(n, [(rng.randrange(i), i)
                                    for i in range(1, n)]))
        for g in graphs:
            gm = make_supersub_game(n, kappa=5, seed=n)
            pt = build_pseudotree(g, rng.randrange(n))
            res = tsp(gm, g, pt, make_tsp_bound(gm, "supersub"),
                      deadline=deadline)
            assert res.best_value == dype(gm, g, pt).best_value
            assert partition_value(gm, res.best) == res.best_value
            assert all(g.is_connected(b) for b in res.best)


def visited_structures(gm, g, pt):
    seen = []
    tsp(gm, g, pt,
        on_event=observer("structure", lambda s: seen.append(canon(s))))
    return seen


def test_search_tree_visits_each_structure_once():
    rng = random.Random(82)
    for _ in range(20):
        n = rng.randint(1, 6)
        g = Graph(n, random_connected_edges(rng, n))
        gm = random_table_game(n, seed=rng.randrange(10 ** 6))
        pt = build_pseudotree(g, rng.randrange(n))
        seen = visited_structures(gm, g, pt)
        assert len(seen) == len(set(seen)), (n, g.edges, pt.root)
        # the two seeded structures complete the count
        inits = {canon([g.full_mask]), canon([1 << a for a in range(n)])}
        everything = {canon(s) for s in structure_masks(g)}
        assert set(seen) | inits == everything


def test_coverage_counts_on_pinned_graphs():
    g = Graph(4, FOUR_CYCLE_EDGES)
    pt = build_pseudotree(g, 0)
    gm = random_table_game(4, seed=7)
    seen = set(visited_structures(gm, g, pt))
    inits = {canon([g.full_mask]), canon([1, 2, 4, 8])}
    assert len(seen | inits) == 12
    k4 = Graph(4, itertools.combinations(range(4), 2))
    seen4 = set(visited_structures(gm, k4, build_pseudotree(k4, 0)))
    assert len(seen4 | inits) == 15


def test_tsp_star_step_completes_optimally():
    rng = random.Random(83)
    for _ in range(20):
        n = rng.randint(2, 7)
        g = Graph(n, random_connected_edges(rng, n))
        gm = random_table_game(n, seed=rng.randrange(10 ** 6))
        pt = build_pseudotree(g, 0)
        table = dype(gm, g, pt).table
        # grow a partial partition the way the search does: each block is
        # anchored at the first agent the partition does not cover yet
        blocks = []
        covered = 0
        for _ in range(rng.randint(1, 3)):
            free = g.full_mask & ~covered
            if not free:
                break
            anchor = next(1 << a for a in pt.order if not covered >> a & 1)
            b = rng.choice(list(g.connected_subsets(free, required=anchor)))
            blocks.append(b)
            covered |= b
        rem = g.full_mask & ~covered
        if rem == 0:
            continue
        # the search hands over the partial's value, summed in block order,
        # and the agents it leaves uncovered
        partial = 0
        for b in blocks:
            partial += gm.value(b)
        got = tsp_star_step(table, gm, g, rem, partial, float("-inf"))
        assert got is not None
        lookups, total, rest_blocks = got
        assert lookups == len(g.connected_components(rem))
        want = partition_value(gm, blocks) + max(
            partition_value(gm, s) for s in structure_masks(g, ground=rem))
        assert total == want
        done_blocks = blocks + rest_blocks
        assert partition_value(gm, done_blocks) == total
        cov = 0
        for b in done_blocks:
            assert g.is_connected(b) and cov & b == 0
            cov |= b
        assert cov == g.full_mask
        # a completion that cannot beat the incumbent is withheld
        assert tsp_star_step(table, gm, g, rem, partial, total) \
            == (lookups, total, None)


def test_tsp_star_step_raises_on_a_missing_entry():
    # every remainder component the search hands over is a table entry, so
    # a miss is a fault, whichever component lacks its entry
    g = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (1, 4)])
    gm = random_table_game(6, seed=5)
    pt = build_pseudotree(g, 0)
    # a stage-3 seed {0, 1, 4} leaves the components {2, 3} and {5}
    assert pt.order[:3] == (0, 1, 2)
    rest = g.full_mask & ~0b010011
    for comp in g.connected_components(rest):
        table = dype(gm, g, pt).table
        lookups, total, _ = tsp_star_step(table, gm, g, rest, 0,
                                          float("-inf"))
        assert lookups == 2
        del table.values[comp]
        with pytest.raises(InternalInvariantError,
                           match=f"missing table entry for mask {comp}$"):
            tsp_star_step(table, gm, g, rest, 0, float("-inf"))


def test_tsp_and_cfss_keep_the_first_best_beyond_the_tolerance():
    # v(C) = |C| prices every structure at n: both keep all-singletons, the
    # first incumbent; v(C) = |C|^2 makes the grand coalition the optimum
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 2)])
    pt = build_pseudotree(g, 0)
    singles = tuple(1 << a for a in range(5))
    for tol in (0, 3):
        flat = Game(5, int.bit_count, tolerance=tol)
        square = Game(5, lambda c: c.bit_count() ** 2, tolerance=tol)
        for res in (tsp(flat, g, pt), cfss(flat, g)):
            assert (res.best.blocks, res.best_value) == (singles, 5)
        for res in (tsp(square, g, pt), cfss(square, g)):
            assert (res.best.blocks, res.best_value) == ((0b11111,), 25)
    # the rule is strict: a lead of exactly the tolerance keeps the first
    pair = Graph(2, [(0, 1)])
    for lead, want in ((2, (1, 2)), (3, (3,))):
        gm = Game(2, lambda c, _l=lead: _l if c == 3 else 0, tolerance=2)
        for res in (tsp(gm, pair, build_pseudotree(pair, 0)), cfss(gm, pair)):
            assert res.best.blocks == want


def test_tsp_deadline():
    g = Graph(11, [(i, j) for i in range(11) for j in range(i + 1, 11)])
    gm = random_table_game(11, seed=2)
    pt = build_pseudotree(g, 0)
    with pytest.raises(BudgetExceededError):
        tsp(gm, g, pt, deadline=time.monotonic() - 1)


def test_tsp_stops_soon_after_the_deadline():
    # A deadline that passes at the K-th value call stops the search within
    # one stride of DEADLINE_STRIDE ticks (one value call each), past the
    # n + 1 calls that price the two starting incumbents.
    n, K = 10, 2000
    g = Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
    base = random_table_game(n, seed=4)
    pt = build_pseudotree(g, 0)
    calls = 0
    deadline = None

    def value(m):
        nonlocal calls
        calls += 1
        if calls == K:
            while time.monotonic() < deadline:
                pass
        return base.value(m)

    gm = Game(n, value)
    deadline = time.monotonic() + 0.05
    with pytest.raises(BudgetExceededError):
        tsp(gm, g, pt, deadline=deadline)
    assert K <= calls <= K + DEADLINE_STRIDE + n
