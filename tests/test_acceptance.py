"""Release acceptance suite.

Each test here is one numbered gate and prints a single pass/fail line.
The first gate runs the full verification grid (7 graph models, sizes 1
through 9, 100 random integer games per cell, every solver configuration)
and the later gates that quantify over "every run of the grid" reuse its
report. All value comparisons are exact integer equality.
"""

import itertools
import random
import time

import pytest

from graphcsg import (Graph, brute_force_best, build_pseudotree, cfss,
                      make_cfss_bound, make_supersub_game, make_tsp_bound,
                      partition_value, random_table_game, structure_masks, tsp,
                      verify_matrix)
from graphcsg.instances import model_edges

from conftest import (FOUR_CYCLE_EDGES, canon, connected_subsets_reference,
                      contraction_tree, is_ancestor, observer,
                      random_connected_edges)

GRID_MODELS = ("path", "cycle", "star", "complete", "gnp:0.2", "gnp:0.5",
               "gnp:0.8")
GRID_SIZES = range(1, 10)
GAMES_PER_CELL = 100
GRID_BUDGET_SECONDS = 600


def emit(num, name, ok, detail):
    print(f"criterion {num} {name}: {'pass' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} {name}: {detail}"


@pytest.fixture(scope="module")
def grid():
    t0 = time.monotonic()
    report = verify_matrix(models=GRID_MODELS, ns=GRID_SIZES,
                           games_per_cell=GAMES_PER_CELL)
    return report, time.monotonic() - t0


def small_graphs(n_max, seed=1000):
    """The deterministic models plus seeded sparse/medium/dense random
    graphs, at every size up to n_max."""
    out = []
    for n in range(1, n_max + 1):
        for name in ("path", "cycle", "star", "complete"):
            out.append((f"{name}/n={n}", Graph(n, model_edges(name, n))))
        for p in (0.2, 0.5, 0.8):
            rng = random.Random(seed + n * 100 + int(p * 10))
            edges = model_edges("gnp", n, p=p, rng=rng)
            out.append((f"gnp:{p}/n={n}", Graph(n, edges)))
    return out


def test_criterion_1_oracle_equivalence(grid):
    report, elapsed = grid
    problems = report.value_mismatches + report.feasibility_failures
    ok = (not problems
          and report.instances == 7 * 9 * GAMES_PER_CELL
          and report.runs == report.instances * 8
          and elapsed < GRID_BUDGET_SECONDS)
    emit(1, "oracle equivalence over the full grid", ok,
         f"{report.instances} instances, {report.runs} runs, "
         f"{len(problems)} failures, {elapsed:.1f}s"
         + ("" if not problems else "; first: " + problems[0]))


def test_criterion_2_exactly_once_coverage():
    failures = []
    for label, g in small_graphs(7):
        gm = random_table_game(g.n, seed=g.n)
        pt = build_pseudotree(g, 0)
        feasible = {canon(s) for s in structure_masks(g)}

        seen = []
        tsp(gm, g, pt,
            on_event=observer("structure", lambda s: seen.append(canon(s))))
        inits = {canon([g.full_mask]), canon(1 << a for a in range(g.n))}
        if len(seen) != len(set(seen)):
            failures.append(f"{label}: tsp revisited a structure")
        if set(seen) | inits != feasible:
            failures.append(f"{label}: tsp covered {len(set(seen) | inits)} "
                            f"of {len(feasible)} structures")

        walked = []
        res = cfss(gm, g, on_event=observer(
            "structure", lambda s: walked.append(canon(s))))
        if res.stats.structures_visited != len(feasible) \
                or len(walked) != len(set(walked)) \
                or set(walked) != feasible:
            failures.append(f"{label}: cfss visited "
                            f"{res.stats.structures_visited} "
                            f"of {len(feasible)} structures")

    four = Graph(4, FOUR_CYCLE_EDGES)
    if sum(1 for _ in structure_masks(four)) != 12:
        failures.append("4-cycle structure count is not 12")
    k4 = Graph(4, itertools.combinations(range(4), 2))
    if sum(1 for _ in structure_masks(k4)) != 15:
        failures.append("K4 structure count is not 15")

    emit(2, "exactly-once structure coverage", not failures,
         f"models up to n=7, pinned counts 12 and 15"
         + ("" if not failures else "; " + failures[0]))


def test_criterion_3_enumerator_equivalence():
    rng = random.Random(3000)
    failures = []
    for k in range(50):
        n = rng.randint(1, 6)
        edges = random_connected_edges(rng, n)
        g = Graph(n, edges)
        for ground in range(1 << n):
            got = sorted(g.connected_subsets(ground))
            ref = sorted(connected_subsets_reference(g, ground))
            if got != ref:
                failures.append(
                    f"graph {k} (n={n}, edges {edges}) ground {ground}: "
                    f"streaming {got} reference {ref}")
    four = Graph(4, FOUR_CYCLE_EDGES)
    count = sum(1 for _ in four.connected_subsets(four.full_mask))
    if count != 13:
        failures.append(f"4-cycle connected subset count {count} != 13")
    emit(3, "streaming enumerator equals filter reference", not failures,
         "50 random graphs, all 2^n ground sets, pinned count 13"
         + ("" if not failures else "; " + failures[0]))


def reachable_partials(g, pt):
    """Every partial partition the tree search can hold: blocks are carved
    off anchored at the first uncovered agent in the order."""
    full = g.full_mask
    out = []

    def rec(covered, blocks):
        out.append((tuple(blocks), full & ~covered))
        if covered == full:
            return
        anchor = next(1 << a for a in pt.order if not covered >> a & 1)
        for c in g.connected_subsets(full & ~covered, required=anchor):
            blocks.append(c)
            rec(covered | c, blocks)
            blocks.pop()

    rec(0, [])
    return out


def check_cfss_bound(g, gm, bound, failures, label):
    """Check the bound at every state of the contraction tree against the
    best structure in the state's subtree. A leaf's merged blocks are its
    own blocks."""
    tree = contraction_tree(g)
    best = [partition_value(gm, blocks) for blocks, _, _ in tree]
    for i in range(len(tree) - 1, 0, -1):
        parent = tree[i][1]
        best[parent] = max(best[parent], best[i])
    for (blocks, _, merged), top in zip(tree, best):
        ub = bound(blocks, blocks if merged is None else merged)
        if ub < top:
            failures.append(f"{label}: state {blocks} bound {ub} "
                            f"below subtree best {top}")


def test_criterion_4_bound_admissibility():
    failures = []
    for label, g in small_graphs(7):
        if g.n < 2:
            continue
        pt = build_pseudotree(g, 0)
        games = [("table", random_table_game(g.n, seed=g.n * 7 + 1)),
                 ("supersub", make_supersub_game(g.n, seed=g.n * 7 + 2))]
        for kind, gm in games:
            where = f"{label}/{kind}"
            best_of = {0: 0}
            tsp_bound = make_tsp_bound(gm, "supersub")
            for blocks, rem in reachable_partials(g, pt):
                if rem not in best_of:
                    best_of[rem] = max(partition_value(gm, s)
                                       for s in structure_masks(g, ground=rem))
                partial_value = partition_value(gm, blocks)
                ub = tsp_bound(partial_value, rem)
                want = partial_value + best_of[rem]
                if ub < want:
                    failures.append(
                        f"{where}: partial {blocks} bound {ub} below best "
                        f"extension {want}")
            cfss_bound = make_cfss_bound(gm, "supersub")
            check_cfss_bound(g, gm, cfss_bound, failures, where)
    emit(4, "pruning bounds dominate everything they cut", not failures,
         "all partials and contraction subtrees up to n=7, zero violations"
         + ("" if not failures else "; " + failures[0]))


def test_criterion_5_pseudotree_branch_property():
    rng = random.Random(5000)
    failures = []
    for k in range(1000):
        n = rng.randint(1, 12)
        edges = random_connected_edges(rng, n)
        g = Graph(n, edges)
        root = rng.randrange(n)
        pt = build_pseudotree(g, root)
        for u, w in g.edges:
            if not (is_ancestor(pt, u, w) or is_ancestor(pt, w, u)):
                failures.append(f"graph {k}: edge ({u},{w}) joins "
                                f"unrelated branches")
        for i in range(1, n):
            if pt.depth[pt.order[i - 1]] > pt.depth[pt.order[i]]:
                failures.append(f"graph {k}: order not layered by depth")
        for a in range(n):
            p = pt.parent[a]
            if p >= 0 and pt.position(p) >= pt.position(a):
                failures.append(f"graph {k}: agent {a} precedes its parent")

    g = Graph(5, [(2, 0), (2, 3), (0, 1), (3, 4), (2, 1)])
    pt = build_pseudotree(g, 2)
    if pt.order != (2, 0, 3, 1, 4):
        failures.append(f"pinned instance order {pt.order}")
    if pt.position(2) != 1 or pt.position(1) != 4:
        failures.append("pinned instance positions moved")

    emit(5, "pseudotree keeps every edge on one branch", not failures,
         "1000 random connected graphs up to n=12, pinned 5-agent order"
         + ("" if not failures else "; " + failures[0]))


def test_criterion_6_anytime_contract(grid):
    report, _ = grid
    ok = not report.trace_violations
    emit(6, "anytime traces rise from V(A) to the optimum", ok,
         f"checked across {report.runs} grid runs"
         + ("" if ok else "; first: " + report.trace_violations[0]))


def test_criterion_7_frontier_crossing_and_guard(grid):
    report, _ = grid
    problems = report.crossing_failures + report.faults
    emit(7, "hybrid frontiers cross and no grid run faults",
         not problems,
         f"both modes across the grid"
         + ("" if not problems else "; first: " + problems[0]))


def test_criterion_8_dp_recurrence_audit(grid):
    report, _ = grid
    ok = not report.audit_failures
    emit(8, "every DP table entry re-derives exactly", ok,
         f"audited after each table-filling run in the grid"
         + ("" if ok else "; first: " + report.audit_failures[0]))
