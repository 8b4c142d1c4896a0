"""Golden answers: every non-parallel, unbudgeted `solve_instance`
configuration over a small fixed, seeded instance set, hashed into two
digests, and every incumbent `tsp`+supersub reaches on a second set,
hashed into a third.

The answer digest covers each run's value, blocks, anytime trace values
and `completed`; the work digest covers its work counters (`SearchStats`).
Times are left out. A change that means to keep every answer keeps the
answer digest, and one that means to keep the work done keeps the work
digest too. One that means to change either records the new digest here
and says why.
"""

import dataclasses
import functools
import hashlib
import json
import random

from graphcsg import (Game, Graph, build_pseudotree, gen_instance,
                      make_supersub_game, make_tsp_bound, realize_instance,
                      solve_instance, tsp)

from conftest import observer

# (algorithm, bound) rows; d-tsp runs in its default interleaved mode.
CONFIGS = (("oracle", None), ("dype", None), ("tsp", "none"),
           ("tsp", "supersub"), ("dype-star", None), ("d-tsp", "none"),
           ("d-tsp", "supersub"), ("cfss", "none"), ("cfss", "supersub"))

# Both recorded at 9f704dd, where they split one digest first recorded at
# 5393aa9. WORK was recorded again when the bounded tree search began to
# skip dominated nodes: only the tsp+supersub rows of instances 0 and 2-6
# and the d-tsp+supersub rows of instances 0, 2, 4 and 5 moved.
ANSWERS = "5b44ab2296807e6b13f0db3d8e3f13433b91319e14f8b3b2d4da29a6072906fd"
WORK = "6e6b517eb8ca92e540ad3bc021a028bff0ff436ada7adaa60b7cf95ce121acaa"

# Recorded at 9f704dd.
INCUMBENTS = "e537e065b3b6209f7d1bb691f91f1312539204b66c4bc4fa3e1d348c728607c8"


def digest(records) -> str:
    return hashlib.sha256(json.dumps(records).encode()).hexdigest()


def golden_instances():
    """Table and supersub games with n <= 10: one rooted, one made of two
    components (a 4-path and a 5-cycle)."""
    two_parts = dataclasses.replace(
        gen_instance("path", 9, game_kind="table", seed=6),
        edges=((0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7), (4, 8),
               (7, 8)))
    return [
        gen_instance("gnp", 8, game_kind="table", seed=1, p=0.4),
        gen_instance("cycle", 9, game_kind="supersub", seed=2),
        gen_instance("gnp", 10, game_kind="supersub", seed=3, p=0.3,
                     root=4),
        gen_instance("star", 7, game_kind="table", seed=4),
        gen_instance("complete", 6, game_kind="table", seed=5),
        gen_instance("gnp", 10, game_kind="table", seed=7, p=0.5),
        two_parts,
    ]


@functools.cache
def golden_records():
    """One (answer, work) record pair per instance and configuration."""
    answers, work = [], []
    for i, inst in enumerate(golden_instances()):
        for alg, bound in CONFIGS:
            game, g, root = realize_instance(inst)
            res = solve_instance(game, g, alg, bound=bound, root=root)
            answers.append([i, alg, bound, res.best_value,
                            list(res.best.blocks),
                            [v for _, v in res.trace], res.completed])
            work.append([i, alg, bound,
                         list(dataclasses.astuple(res.stats))])
    return answers, work


def test_every_configuration_keeps_its_golden_answers():
    assert digest(golden_records()[0]) == ANSWERS


def test_every_configuration_keeps_its_golden_work_counters():
    assert digest(golden_records()[1]) == WORK


def with_tolerance(game, tolerance):
    return Game(game.n, game.value, sup_value=game.sup_value,
                sub_value=game.sub_value, tolerance=tolerance)


def incumbent_runs():
    """(game, graph, root) runs: the golden instances (table and supersub
    games, a rooted one, two components), supersub games on cycles and
    random trees with n = 13-18, whose merge cost kappa = 5 keeps the
    search finding new incumbents, and four of these again with a
    tolerance."""
    runs = [realize_instance(inst) for inst in golden_instances()]
    for n in range(13, 19):
        rng = random.Random(n)
        cycle = Graph(n, [(i, (i + 1) % n) for i in range(n)])
        tree = Graph(n, [(rng.randrange(i), i) for i in range(1, n)])
        for k, g in enumerate((cycle, tree)):
            runs.append((make_supersub_game(n, kappa=5, seed=2 * n + k), g,
                         rng.randrange(n)))
    return runs + [(with_tolerance(runs[i][0], tol),) + runs[i][1:]
                   for i, tol in ((1, 4), (-6, 3), (-3, 3), (-2, 2))]


def test_tsp_supersub_keeps_its_incumbent_sequence():
    # Every incumbent the bounded search keeps, in order, one run per
    # component rooted as `solve_instance` roots it. A change to what the
    # search skips must not move one of them.
    seen = []
    for game, g, root in incumbent_runs():
        for comp in g.connected_components(g.full_mask):
            view = g.component(comp)
            start = root if root is not None and comp >> root & 1 \
                else (comp & -comp).bit_length() - 1
            run = []
            tsp(game, view, build_pseudotree(view, start),
                make_tsp_bound(game, "supersub"),
                on_event=observer("incumbent", lambda t, v, p: run.append(
                    [v, list(p.blocks)])))
            seen.append(run)
    assert digest(seen) == INCUMBENTS
