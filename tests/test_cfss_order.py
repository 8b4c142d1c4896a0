"""cfss's visit order, pinned: the structure-hook sequence, every bound
call's (blocks, merged) pair, the best blocks and the work counters of
`cfss` on fixed graphs, with and without the supersub bound, on table and
supersub games, hashed into one digest.

tests/test_golden.py pins final answers only; this digest also pins the
order in which the contraction tree is walked and what each bound call
sees. A change to how `cfss` keeps its state must keep it unedited.
"""

import dataclasses
import hashlib
import json

from graphcsg import cfss, gen_instance, make_cfss_bound, realize_instance

from conftest import observer

# (model, n, seed, p): n = 4-9 over every graph model.
GRAPHS = (("path", 6, 11, 0.5), ("cycle", 7, 12, 0.5), ("star", 6, 13, 0.5),
          ("complete", 7, 14, 0.5), ("gnp", 7, 15, 0.4), ("gnp", 8, 16, 0.5),
          ("gnp", 9, 17, 0.25), ("cycle", 4, 18, 0.5))

# Recorded at fece959, before the contraction state was kept in place.
ORDER = "54d1c7f7c01b88cf32a488f40fb4e40ab2dec2f40a8b410643535a513304dafb"


def order_records():
    records = []
    for model, n, seed, p in GRAPHS:
        for kind in ("table", "supersub"):
            game, g, _ = realize_instance(
                gen_instance(model, n, game_kind=kind, seed=seed, p=p))
            for bound_kind in ("none", "supersub"):
                hooked, bounded = [], []
                bound = make_cfss_bound(game, bound_kind)
                if bound is not None:
                    inner = bound

                    def bound(blocks, merged, inner=inner):
                        bounded.append([list(blocks), sorted(merged)])
                        return inner(blocks, merged)

                res = cfss(game, g, bound, on_event=observer(
                    "structure", lambda s: hooked.append(list(s))))
                records.append([model, n, kind, bound_kind, hooked, bounded,
                                list(res.best.blocks), res.best_value,
                                list(dataclasses.astuple(res.stats))])
    return records


def test_cfss_keeps_its_visit_order():
    text = json.dumps(order_records())
    assert hashlib.sha256(text.encode()).hexdigest() == ORDER
