"""Property test over every configuration `solve_instance` can reach: graph
shape (connected or two components), game kind, tolerance, algorithm,
bound, mode, root and budget, each checked against the brute-force
oracle."""

from hypothesis import given, settings, strategies as st

from graphcsg import (BudgetExceededError, Game, build_pseudotree, dype,
                      dype_star, make_graph, make_supersub_game,
                      partition_value, random_table_game, solve_instance)
from graphcsg.harness import ALGORITHMS, ANYTIME_ALGORITHMS
from graphcsg.solvers.dp import audit_dp_table


@st.composite
def instances(draw):
    """(game, graph, tolerance-free game, root) with agents shuffled, so a
    component need not hold consecutive agents."""
    n = draw(st.integers(1, 8))
    first = draw(st.integers(1, n - 1)) if n > 1 and draw(st.booleans()) \
        else n
    perm = draw(st.permutations(range(n)))
    edges = []
    for lo, size in ((0, first), (first, n - first)):
        if not size:
            continue
        for a in range(1, size):
            edges.append((lo + draw(st.integers(0, a - 1)), lo + a))
        for u, w in draw(st.lists(st.tuples(st.integers(0, size - 1),
                                            st.integers(0, size - 1)),
                                  max_size=size)):
            if u != w:
                edges.append((lo + u, lo + w))
    g = make_graph(n, [(perm[u], perm[w]) for u, w in edges])
    seed = draw(st.integers(0, 10 ** 6))
    if draw(st.booleans()):
        base = random_table_game(n, seed=seed)
    else:
        base = make_supersub_game(n, seed=seed)
    tol = draw(st.one_of(st.just(0), st.integers(1, 5)))
    game = Game(n, base.value, sup_value=base.sup_value,
                sub_value=base.sub_value, tolerance=tol)
    root = draw(st.one_of(st.none(), st.integers(0, n - 1)))
    return game, g, base, root


def check_feasible(game, g, res):
    assert res.best.covered == g.full_mask
    assert all(g.is_connected(b) for b in res.best)
    assert partition_value(game, res.best) == res.best_value


@settings(max_examples=500, derandomize=True, deadline=None)
@given(instances(), st.sampled_from(("none", "supersub")),
       st.sampled_from(("interleaved", "parallel")),
       st.sampled_from((None, 0)))
def test_every_configuration_against_the_oracle(inst, bound, mode, budget):
    game, g, base, root = inst
    comps = g.connected_components(g.full_mask)
    optimum = solve_instance(base, g, "oracle").best_value
    # Each component is solved on its own, to within the tolerance.
    slack = game.tolerance * len(comps)
    start = sum(game.value(c) for c in comps)
    for alg in ALGORITHMS:
        try:
            res = solve_instance(game, g, alg, bound=bound, mode=mode,
                                 root=root, budget_ms=budget)
        except BudgetExceededError:
            assert budget == 0 and alg not in ANYTIME_ALGORITHMS, alg
            continue
        check_feasible(game, g, res)
        anytime = alg in ANYTIME_ALGORITHMS
        if budget is None or not anytime:
            assert optimum - slack <= res.best_value <= optimum, alg
            if slack == 0:
                assert res.best_value == optimum, alg
        else:
            assert res.best_value <= optimum, alg
        if anytime:
            trace = res.trace
            assert trace[0] == (0, start), alg
            for (t0, v0), (t1, v1) in zip(trace, trace[1:]):
                assert t1 >= t0 and v1 >= v0, alg
            assert trace[-1][1] == res.best_value, alg
    if len(comps) == 1 and budget is None:
        pt = build_pseudotree(g, root or 0)
        for solver in (dype, dype_star):
            audit_dp_table(solver(game, g, pt).table, game, g, pt)
