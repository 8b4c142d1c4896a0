"""The correctness gate: every job's answer is checked with code of the
benchmark's own, from the instance file rather than from the program's
Graph and Game objects.

A job fails on a wrong value, a partition that is not a feasible cover of
all agents pricing at its reported value, a non-monotone anytime trace, an
unbudgeted anytime trace that does not end at the optimum, a budgeted
incumbent better than the optimum, an exception, or an unbudgeted job that
ran past JOB_TIMEOUT_S or stopped early.
"""

from __future__ import annotations

from collections import Counter, deque

# An unbudgeted job slower than this counts as timed out.
JOB_TIMEOUT_S = 60.0


def price(inst, mask: int) -> int:
    """Value of one coalition, straight from the instance file."""
    if inst.game_kind == "table":
        return inst.table[mask - 1]
    size = 0
    weight = 0
    for a in range(inst.n):
        if mask >> a & 1:
            size += 1
            weight += inst.weights[a]
    return weight * size - inst.kappa * size * size


def adjacency(inst) -> list[list[int]]:
    adj = [[] for _ in range(inst.n)]
    for u, v in inst.edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def block_connected(adj, mask: int) -> bool:
    """Breadth-first search inside the block, from its lowest agent."""
    start = (mask & -mask).bit_length() - 1
    seen = {start}
    queue = deque([start])
    while queue:
        for v in adj[queue.popleft()]:
            if mask >> v & 1 and v not in seen:
                seen.add(v)
                queue.append(v)
    return len(seen) == mask.bit_count()


def partition_problem(inst, adj, blocks, value) -> str | None:
    """Why a returned structure is infeasible or mispriced, or None."""
    covered = 0
    total = 0
    for b in blocks:
        if b <= 0 or b & covered:
            return f"block {b:#x} is empty or overlaps another"
        if not block_connected(adj, b):
            return f"block {b:#x} is not connected"
        covered |= b
        total += price(inst, b)
    if covered != (1 << inst.n) - 1:
        return f"blocks cover {covered:#x}, not every agent"
    if total != value:
        return f"blocks price at {total}, reported {value}"
    return None


def trace_problem(trace) -> str | None:
    if not trace:
        return "empty anytime trace"
    for (t0, v0), (t1, v1) in zip(trace, trace[1:]):
        if t1 < t0 or v1 < v0:
            return f"trace not monotone at {(t0, v0)} -> {(t1, v1)}"
    return None


def job_problem(run, inst, adj, outcome, optimum) -> str | None:
    """Why one job failed, or None. `outcome` holds the result or the
    exception and the wall time."""
    if outcome.error is not None:
        return f"raised {outcome.error}"
    res = outcome.result
    problem = partition_problem(inst, adj, res.best.blocks, res.best_value)
    if problem:
        return problem
    if run.budget_ms is None:
        if outcome.wall_s > JOB_TIMEOUT_S:
            return f"unbudgeted job took {outcome.wall_s:.1f} s"
        if not res.completed:
            return "unbudgeted job stopped early"
        if optimum is not None and res.best_value != optimum:
            return f"value {res.best_value}, optimum {optimum}"
    elif optimum is not None and res.best_value > optimum:
        return f"budgeted incumbent {res.best_value} beats optimum {optimum}"
    if run.anytime:
        problem = trace_problem(res.trace)
        if problem:
            return problem
        if run.budget_ms is None and res.trace[-1][1] != res.best_value:
            return (f"trace ends at {res.trace[-1][1]}, result "
                    f"{res.best_value}")
    return None


def consensus(values) -> int | None:
    """Most common value among exact answers; None when there are none."""
    counts = Counter(values)
    return counts.most_common(1)[0][0] if counts else None
