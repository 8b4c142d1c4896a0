"""An exact reference past the oracle's cap: edge-sum games on trees and
cycles, solved by a polynomial DP that shares no code with the package.

The game is v(C) = w(E[C]) - kappa*|C|^2, with integer edge weights
w >= 0 and kappa >= 0: the weight of the edges inside C, less a
coordination cost. Its split into `sup_value` = w(E[C]), which never
loses from a merge, and `sub_value` = -kappa*|C|^2, which never gains
from one, is admissible, so the supersub bounds prune on it.

The reference roots a tree and computes f[u][s], the best value of u's
subtree when u's open block holds s of its agents, with that block's edge
weights counted and its cost not yet charged. Each child c either joins
u's block, f[u][s1] + f[c][s2] + w(u, c) at size s1 + s2, or closes its
own, f[u][s1] + max_s (f[c][s] - kappa*s^2): O(n^2) per tree. A cycle is
either one block or has an edge between two blocks, so its optimum is the
best of the whole cycle and its n paths.
"""

import math
import random

from hypothesis import example, given, settings, strategies as st

from graphcsg import (BudgetExceededError, Game, Graph, partition_value,
                      solve_instance)

from conftest import observer

# Every exact configuration past the oracle's cap: the oracle refuses
# each of these graphs up front.
CONFIGS = (("dype", "none", "interleaved"),
           ("dype-star", "none", "interleaved"),
           ("tsp", "none", "interleaved"),
           ("tsp", "supersub", "interleaved"),
           ("d-tsp", "none", "interleaved"),
           ("d-tsp", "supersub", "interleaved"),
           ("d-tsp", "none", "parallel"),
           ("d-tsp", "supersub", "parallel"),
           ("cfss", "none", "interleaved"),
           ("cfss", "supersub", "interleaved"))

# Each configuration's budget on each example. On a 2-core VM the
# exhaustive walks (`tsp` and `cfss` with no bound) take 100-500 ms on a
# 16-agent tree or cycle, and every configuration finishes within 50 ms
# on each part of the 16-agent forest below.
BUDGET_MS = 100


def edge_sum_game(n, wedges, kappa):
    """v(C) = w(E[C]) - kappa*|C|^2 over (u, w, weight) edges, with its
    admissible split."""
    up = [[] for _ in range(n)]  # (higher neighbour's bit, weight)
    for u, w, wt in wedges:
        lo, hi = min(u, w), max(u, w)
        up[lo].append((1 << hi, wt))

    def sup(c):
        total = 0
        rest = c
        while rest:
            low = rest & -rest
            rest ^= low
            for bit, wt in up[low.bit_length() - 1]:
                if c & bit:
                    total += wt
        return total

    def sub(c):
        k = c.bit_count()
        return -kappa * k * k

    return Game(n, lambda c: sup(c) + sub(c), sup_value=sup, sub_value=sub)


def tree_optimum(k, wedges, kappa):
    """The best partition value of a tree (or a path) over agents 0..k-1,
    given as (u, w, weight) edges, by the O(k^2) DP above."""
    nbrs = [[] for _ in range(k)]
    for u, w, wt in wedges:
        nbrs[u].append((w, wt))
        nbrs[w].append((u, wt))

    def closed(f):
        return max(x - kappa * s * s for s, x in enumerate(f) if s)

    def f_of(u, parent):
        f = [-math.inf, 0]  # f[s]: u's open block holds s agents
        for c, wt in nbrs[u]:
            if c == parent:
                continue
            fc = f_of(c, u)
            close = closed(fc)
            g = [x + close for x in f] + [-math.inf] * (len(fc) - 1)
            for s1, x in enumerate(f):
                for s2, y in enumerate(fc):
                    if x + y + wt > g[s1 + s2]:
                        g[s1 + s2] = x + y + wt
            f = g
        return f

    return closed(f_of(0, -1))


def cycle_optimum(k, weights, kappa):
    """The best partition value of the cycle 0-1-...-(k-1)-0, edge i
    joining i and i+1 mod k: the whole cycle, or one of its k paths."""
    edges = [(i, (i + 1) % k, wt) for i, wt in enumerate(weights)]
    return max([sum(weights) - kappa * k * k]
               + [tree_optimum(k, edges[i + 1:] + edges[:i], kappa)
                  for i in range(k)])


def build(spec):
    """(game, graph, reference optimum) for a spec: kappa, the parts, and
    the agent each part-local index maps to. A part is ("tree", edges)
    with edges (parent of agent i, weight) for agents i = 1.., or
    ("cycle", weights)."""
    kappa, parts, labels = spec
    wedges = []
    reference = 0
    base = 0
    for shape, data in parts:
        if shape == "tree":
            k = len(data) + 1
            local = [(p, i + 1, wt) for i, (p, wt) in enumerate(data)]
            reference += tree_optimum(k, local, kappa)
        else:
            k = len(data)
            local = [(i, (i + 1) % k, wt) for i, wt in enumerate(data)]
            reference += cycle_optimum(k, data, kappa)
        wedges += [(labels[base + u], labels[base + w], wt)
                   for u, w, wt in local]
        base += k
    g = Graph(base, [(u, w) for u, w, _ in wedges])
    return edge_sum_game(base, wedges, kappa), g, reference


def seeded_spec(seed, sizes, shapes, kappa):
    """A spec whose weights, tree parents and agent labels are drawn from
    `random.Random(seed)`, so a part need not hold consecutive agents."""
    rng = random.Random(seed)
    parts = []
    for k, shape in zip(sizes, shapes):
        if shape == "cycle":
            parts.append((shape, tuple(rng.randint(0, 20)
                                       for _ in range(k))))
        else:
            parts.append((shape, tuple((rng.randrange(i), rng.randint(0, 20))
                                       for i in range(1, k))))
    labels = list(range(sum(sizes)))
    rng.shuffle(labels)
    return kappa, tuple(parts), tuple(labels)


@st.composite
def specs(draw):
    """A tree, a cycle, or a forest of two of them, with n = 13-30 agents
    in all."""
    n = draw(st.integers(13, 30))
    first = draw(st.one_of(st.just(n), st.integers(3, n - 3)))
    sizes = (n,) if first == n else (first, n - first)
    shapes = tuple(draw(st.sampled_from(("tree", "cycle"))) for _ in sizes)
    return seeded_spec(draw(st.integers(0, 2 ** 32)), sizes, shapes,
                       draw(st.integers(0, 4)))


def test_every_configuration_meets_the_edge_sum_reference():
    """Every exact configuration that finishes within its budget reaches
    the reference optimum, and every incumbent any configuration reports
    through `solve_instance`, finished or not, lies at or below it."""
    finished = set()

    @settings(max_examples=10, derandomize=True, deadline=None,
              database=None)
    @given(specs())
    @example(seeded_spec(1, (16,), ("tree",), 2))
    @example(seeded_spec(2, (16,), ("cycle",), 3))
    @example(seeded_spec(3, (8, 8), ("tree", "cycle"), 2))
    def check(spec):
        game, g, reference = build(spec)
        for config in CONFIGS:
            alg, bound, mode = config
            seen = []
            try:
                res = solve_instance(
                    game, g, alg, bound=bound, mode=mode,
                    budget_ms=BUDGET_MS, on_event=observer(
                        "incumbent", lambda t, v, p: seen.append((v, p))))
            except BudgetExceededError:
                res = None
            for v, p in seen:
                assert v <= reference, (config, v, reference)
                assert p.covered == g.full_mask, config
                assert partition_value(game, p) == v, config
            if res is None:
                continue
            assert res.best_value <= reference, config
            assert partition_value(game, res.best) == res.best_value, config
            if res.completed:
                assert res.best_value == reference, (config, reference)
                assert all(g.is_connected(b) for b in res.best), config
                finished.add(config)

    check()
    assert finished == set(CONFIGS)


def test_the_reference_matches_the_oracle_on_small_trees_and_cycles():
    rng = random.Random(10)
    for _ in range(40):
        k = rng.randint(3, 10)
        shape = rng.choice(("tree", "cycle"))
        spec = seeded_spec(rng.randrange(10 ** 6), (k,), (shape,),
                           rng.randint(0, 4))
        game, g, reference = build(spec)
        assert solve_instance(game, g, "oracle").best_value == reference, \
            spec
