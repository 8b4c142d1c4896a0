"""Record what every benchmark job answers and how much work it does, and
compare two such records.

  python3 tools/job_digest.py --out new.json
  python3 tools/job_digest.py --root ../old-checkout --out old.json
  python3 tools/job_digest.py --against old.json

Each workload's seed-1 job list comes from perfbench (`workloads.
build_specs` and `run.setup`, both used as they are). Every job that runs
unbudgeted and not in parallel mode is solved once through
`harness.solve_instance` and recorded as its value, blocks, anytime trace
values, `completed` flag and `SearchStats` tuple; times are left out, so
two runs of one checkout record the same. `--against` then lists each job
whose answer (value, blocks, completed), trace values or work (stats)
differ from the old record, and exits 1 if any does. Standard library only.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

SEED = 1
# Fields compared by --against, in the order they are reported.
PARTS = {"answer": ("value", "blocks", "completed"), "trace": ("trace",),
         "work": ("stats",)}


def records(root: Path) -> list[dict]:
    """One record per unbudgeted, non-parallel seed-1 job of every workload
    of the checkout at `root`, solved with that checkout's program."""
    sys.path.insert(0, str(root / "perfbench"))
    import run  # puts root/src first on the path
    import workloads
    from graphcsg import harness

    out = []
    for w in workloads.WORKLOADS:
        _, jobs = run.setup(workloads.build_specs(w, SEED))
        for j, (spec, job, game, g, root_agent) in enumerate(jobs):
            if job.budget_ms is not None or job.mode == "parallel":
                continue
            res = harness.solve_instance(game, g, job.algorithm,
                                         bound=job.bound, mode=job.mode,
                                         root=root_agent)
            out.append({"workload": w, "job": j, "spec": spec,
                        "label": job.label, "value": res.best_value,
                        "blocks": list(res.best.blocks),
                        "trace": [v for _, v in res.trace],
                        "completed": res.completed,
                        "stats": list(dataclasses.astuple(res.stats))})
    return out


def differences(old: list[dict], new: list[dict]) -> list[str]:
    """A line per job whose parts differ, naming the parts; jobs present
    on one side only are listed too."""
    before = {(r["workload"], r["job"]): r for r in old}
    after = {(r["workload"], r["job"]): r for r in new}
    lines = []
    for k in sorted(before.keys() | after.keys()):
        a, b = before.get(k), after.get(k)
        name = f"{k[0]} job {k[1]} (instance {(a or b)['spec']})"
        if a is None or b is None:
            lines.append(f"{name}: only in the {'new' if a is None else 'old'}"
                         f" record")
            continue
        moved = [p for p, fs in PARTS.items()
                 if any(a[f] != b[f] for f in fs)]
        if moved:
            detail = "; ".join(f"{f} {a[f]} -> {b[f]}" for p in moved
                               for f in PARTS[p] if a[f] != b[f])
            lines.append(f"{name} {b['label']}: {', '.join(moved)} "
                         f"differ ({detail})")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--root", type=Path,
                    default=Path(__file__).resolve().parent.parent,
                    help="checkout whose program and perfbench to run "
                         "(default: this one)")
    ap.add_argument("--out", type=Path, help="write the records here")
    ap.add_argument("--against", type=Path, metavar="OLD.json",
                    help="list the jobs that differ from this record")
    args = ap.parse_args(argv)
    new = records(args.root.resolve())
    if args.out is not None:
        args.out.write_text(json.dumps(new) + "\n")
    print(f"{len(new)} jobs recorded")
    if args.against is None:
        return 0
    lines = differences(json.loads(args.against.read_text()), new)
    for line in lines:
        print(line)
    print(f"{len(lines)} of {len(new)} jobs differ")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
