import itertools
import math
import random
import sys
import time

import pytest

from graphcsg import (BudgetExceededError, Graph, brute_force_best, cfss,
                      make_cfss_bound, make_supersub_game, partition_value,
                      random_table_game, solve_instance, structure_masks)

from conftest import (FOUR_CYCLE_EDGES, agents_of, canon, contraction_tree,
                      observer, random_connected_edges)


def children(tree):
    """Child indices of every state of a `contraction_tree`."""
    kids = [[] for _ in tree]
    for i, (_, parent, _) in enumerate(tree):
        if parent >= 0:
            kids[parent].append(i)
    return kids


def test_children_merge_one_adjacent_pair():
    rng = random.Random(90)
    for _ in range(20):
        n = rng.randint(2, 7)
        g = Graph(n, random_connected_edges(rng, n))
        tree = contraction_tree(g)
        for (blocks, _, _), kids in zip(tree, children(tree)):
            seen = set()
            for k in kids:
                kid = tree[k][0]
                assert len(kid) == len(blocks) - 1
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


def test_contraction_tree_covers_structures_exactly_once():
    rng = random.Random(91)
    for _ in range(20):
        n = rng.randint(1, 7)
        g = Graph(n, random_connected_edges(rng, n))
        seen = [canon(b) for b, _, _ in contraction_tree(g)]
        assert len(seen) == len(set(seen)), (n, g.edges)
        assert set(seen) == {canon(s) for s in structure_masks(g)}


def test_pinned_tree_sizes():
    for g, size in ((Graph(4, FOUR_CYCLE_EDGES), 12),
                    (Graph(4, itertools.combinations(range(4), 2)), 15)):
        assert len(contraction_tree(g)) == size
        gm = random_table_game(4, seed=size)
        assert cfss(gm, g).stats.structures_visited == size


def reference_states(g):
    """The contraction tree in preorder, rebuilt at every state from the
    graph's edges by the edge rule: a pair of blocks is dashed once any
    edge between them is, and the i-th child contracts the i-th solid
    pair after dashing the edges of the first i-1. Yields (blocks,
    dashed), dashed being the set of dashed (lower, higher) block
    pairs."""
    def walk(blocks, dashed_edges):
        block_of = {a: b for b in blocks for a in agents_of(b)}
        crossing = {}
        for k, (u, w) in enumerate(g.edges):
            pair = tuple(sorted((block_of[u], block_of[w]),
                                key=lambda b: b & -b))
            if pair[0] != pair[1]:
                crossing[pair] = crossing.get(pair, 0) | 1 << k
        yield blocks, {p for p, m in crossing.items() if m & dashed_edges}
        acc = dashed_edges
        for (bi, bj), m in sorted(crossing.items(),
                                  key=lambda kv: (kv[0][0] & -kv[0][0],
                                                  kv[0][1] & -kv[0][1])):
            if not m & dashed_edges:
                kid = sorted([b for b in blocks if b not in (bi, bj)]
                             + [bi | bj], key=lambda b: b & -b)
                yield from walk(tuple(kid), acc)
                acc |= m

    yield from walk(tuple(1 << a for a in range(g.n)), 0)


def in_place_states(gm, g):
    """cfss's own state at every node, in preorder, copied from the frame
    that reports the structure event."""
    states = []

    def hook(kind, *fields):
        if kind != "structure":  # incumbents come from `_Incumbent.offer`
            return
        blocks, = fields
        f = sys._getframe(1).f_locals
        states.append((blocks, f["reps"], list(f["blk"]), list(f["val"]),
                       list(f["nbr"]), list(f["dn"]), list(f["own"])))

    cfss(gm, g, on_event=hook)
    return states


def test_state_kept_in_place_matches_state_rebuilt_from_edges():
    """cfss changes its per-agent state in place and restores it on the
    way up; at every state of small trees it equals the state rebuilt
    from the graph's edges, and dashing whole blocks marks exactly the
    pairs the edge rule dashes."""
    rng = random.Random(96)
    graphs = [Graph(4, FOUR_CYCLE_EDGES),
              Graph(4, itertools.combinations(range(4), 2)),
              Graph(8, itertools.combinations(range(8), 2))]
    graphs += [Graph(n, random_connected_edges(rng, n))
               for n in (rng.randint(1, 8) for _ in range(20))]
    sizes = []
    for g in graphs:
        gm = random_table_game(g.n, seed=g.n)
        got = in_place_states(gm, g)
        want = list(reference_states(g))
        assert len(got) == len(want) == sum(1 for _ in structure_masks(g))
        for (blocks, dashed), state in zip(want, got):
            hooked, reps, blk, val, nbr, dn, own = state
            assert hooked == blocks, (g.edges, blocks)
            assert reps == sum(b & -b for b in blocks)
            assert tuple(filter(None, blk)) == blocks
            for b in blocks:
                r = (b & -b).bit_length() - 1
                assert blk[r] == b and val[r] == gm.value(b)
                assert own[r] == r
                for a in agents_of(b):
                    assert own[own[a]] == own[a] == r
                adj = 0
                for a in agents_of(b):
                    adj |= g.adj[a]
                assert nbr[r] == adj & ~b
                assert not dn[r] & b
                for q in blocks:
                    if q != b:
                        pair = tuple(sorted((b, q), key=lambda x: x & -x))
                        assert bool(dn[r] & q) == (pair in dashed), \
                            (g.edges, blocks, b, q)
        sizes.append(len(got))
    assert sizes[:2] == [12, 15]


def test_merged_partition_is_reachable_coarsening():
    """Every structure in a state's subtree refines the merged partition:
    pruning exactly the k-th bound call removes only structures that
    refine that call's merged blocks, and only that state's subtree."""
    rng = random.Random(92)
    for _ in range(15):
        n = rng.randint(2, 7)
        g = Graph(n, random_connected_edges(rng, n))
        gm = random_table_game(n, seed=rng.randrange(10 ** 6))
        tree = contraction_tree(g)
        full = [canon(b) for b, _, _ in tree]
        calls = [i for i, (_, _, merged) in enumerate(tree)
                 if merged is not None]
        for k, i in enumerate(calls):
            seen = []
            count = 0

            def bound(blocks, merged, k=k):
                nonlocal count
                count += 1
                return -math.inf if count == k + 1 else math.inf

            cfss(gm, g, bound, on_event=observer(
                "structure", lambda s: seen.append(canon(s))))
            gone = set(full) - set(seen)
            descendants = set()
            for j in range(i + 1, len(tree)):
                p = tree[j][1]
                if p == i or full[p] in descendants:
                    descendants.add(full[j])
            assert gone == descendants and gone, (g.edges, tree[i][0])
            limit = tree[i][2]
            union = 0
            for m in limit:
                assert not union & m
                union |= m
            assert union == g.full_mask
            for sub in gone | {full[i]}:
                for b in sub:
                    assert any(b & m == b for m in limit), (tree[i][0], sub)


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
    cfss(gm, g,
         on_event=observer("structure", lambda s: seen.append(canon(s))))
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


def test_cfss_counts_match_closed_forms_past_the_oracle():
    """Past the oracle's n <= 12: on cycles and trees the contraction tree
    has a closed-form size, 2^n - n structures on an n-cycle (one per
    subset of its edges, less the n that leave one edge out) and 2^(n-1)
    on an n-agent tree (one per subset of its edges). cfss must visit
    exactly that many and agree with dype's value, with and without the
    supersub bound."""
    rng = random.Random(97)
    graphs = [(Graph(n, [(i, (i + 1) % n) for i in range(n)]), 2 ** n - n)
              for n in (13, 14, 15, 16)]
    graphs += [(Graph(n, random_connected_edges(rng, n, extra=0)),
                2 ** (n - 1)) for n in (13, 14, 15)]
    for k, (g, size) in enumerate(graphs):
        gm = (make_supersub_game(g.n, seed=k) if k % 2 else
              random_table_game(g.n, seed=k))
        want = solve_instance(gm, g, "dype").best_value
        plain = cfss(gm, g)
        assert plain.best_value == want, (g.edges, k)
        assert plain.stats.structures_visited == size, (g.edges, k)
        bounded = cfss(gm, g, make_cfss_bound(gm, "supersub"))
        assert bounded.best_value == want, (g.edges, k)
        assert bounded.stats.structures_visited <= size
        assert partition_value(gm, bounded.best) == want
