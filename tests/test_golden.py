"""Golden answers: every non-parallel, unbudgeted `solve_instance`
configuration over a small fixed, seeded instance set, hashed into one
digest.

The digest covers each run's value, blocks, work counters (`SearchStats`)
and anytime trace values; times are left out. A change that means to keep
every answer keeps the digest. One that means to change an answer records
the new digest here and says why.
"""

import dataclasses
import hashlib
import json

from graphcsg import gen_instance, realize_instance, solve_instance

# (algorithm, bound) rows; d-tsp runs in its default interleaved mode.
CONFIGS = (("oracle", None), ("dype", None), ("tsp", "none"),
           ("tsp", "supersub"), ("dype-star", None), ("d-tsp", "none"),
           ("d-tsp", "supersub"), ("cfss", "none"), ("cfss", "supersub"))

# Recorded at the commit that added this test (5393aa9's answers).
GOLDEN = "89c8dd938dfb4bcf8937e1ebf6849d5a0e6c6b85612880039fbe1b600ebcb100"


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


def golden_records():
    records = []
    for i, inst in enumerate(golden_instances()):
        for alg, bound in CONFIGS:
            game, g, root = realize_instance(inst)
            res = solve_instance(game, g, alg, bound=bound, root=root)
            records.append([i, alg, bound, res.best_value,
                            list(res.best.blocks),
                            list(dataclasses.astuple(res.stats)),
                            [v for _, v in res.trace], res.completed])
    return records


def test_every_configuration_keeps_its_golden_answers():
    text = json.dumps(golden_records())
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN
