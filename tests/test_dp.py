import random
import time

import pytest

from graphcsg import (BudgetExceededError, Game, Graph, InternalInvariantError,
                      Partition, brute_force_best, build_pseudotree, dype,
                      dype_star, make_supersub_game, partition_value,
                      random_table_game)
from graphcsg.solvers import base, dp
from graphcsg.solvers.dp import audit_dp_table
from graphcsg.solvers.dptable import DpTable, reconstruct_blocks
from graphcsg.solvers.treesearch import _stage_seeds, tsp_star_step

from conftest import (FOUR_CYCLE_EDGES, agents_of, bfs_reach,
                      is_connected_agents, mask_of, random_connected_edges)


def random_instance(rng, n_max=8):
    n = rng.randint(1, n_max)
    edges = random_connected_edges(rng, n)
    g = Graph(n, edges)
    gm = random_table_game(n, seed=rng.randrange(10 ** 6))
    return gm, g


def test_dype_matches_oracle():
    rng = random.Random(70)
    for _ in range(30):
        gm, g = random_instance(rng)
        pt = build_pseudotree(g, rng.randrange(g.n))
        res = dype(gm, g, pt)
        want = brute_force_best(gm, g).best_value
        assert res.best_value == want, (g.edges, pt.root)
        assert partition_value(gm, res.best) == want
        assert res.best.covered == g.full_mask
        assert all(g.is_connected(b) for b in res.best)


def test_dype_root_choice_does_not_change_value():
    rng = random.Random(71)
    gm, g = random_instance(rng, n_max=7)
    vals = {dype(gm, g, build_pseudotree(g, r)).best_value
            for r in range(g.n)}
    assert len(vals) == 1


def test_audit_accepts_fresh_tables():
    rng = random.Random(72)
    for _ in range(15):
        gm, g = random_instance(rng, n_max=7)
        pt = build_pseudotree(g, 0)
        res = dype(gm, g, pt)
        audit_dp_table(res.table, gm, g, pt)
        res2 = dype_star(gm, g, pt)
        audit_dp_table(res2.table, gm, g, pt)


def test_audit_rejects_corrupted_value():
    gm = random_table_game(5, seed=5)
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    pt = build_pseudotree(g, 0)
    res = dype(gm, g, pt)
    table = res.table
    c = max(table.values, key=lambda m: bin(m).count("1"))
    table.values[c] += 1
    with pytest.raises(InternalInvariantError):
        audit_dp_table(table, gm, g, pt)


def test_audit_rejects_corrupted_witness():
    gm = random_table_game(4, seed=6)
    g = Graph(4, FOUR_CYCLE_EDGES)
    pt = build_pseudotree(g, 0)
    table = dype(gm, g, pt).table
    # point some entry's witness at a block that cannot be its best choice
    for c, sub in table.subsets.items():
        other = c & ~sub
        if other and table.values.get(c) is not None:
            wrong = other & -other
            if wrong != sub:
                table.subsets[c] = wrong
                break
    with pytest.raises(InternalInvariantError):
        audit_dp_table(table, gm, g, pt)


def test_audit_rejects_a_valid_witness_that_prices_below_its_entry():
    # the witness is nonzero, inside its entry, holds the anchor and is
    # connected: only its price shows it is not the entry's best block
    gm = random_table_game(5, seed=5)
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    pt = build_pseudotree(g, 0)
    table = dype(gm, g, pt).table

    def price(block, c):
        return gm.value(block) + sum(
            table.values[comp]
            for comp in g.connected_components(c & ~block))

    c, worse = next(
        (c, s) for c, stored in table.values.items()
        for s in g.connected_subsets(
            c, required=1 << min(agents_of(c), key=pt.position))
        if price(s, c) < stored)
    table.subsets[c] = worse
    with pytest.raises(InternalInvariantError,
                       match=f"witness for mask {c} prices at"):
        audit_dp_table(table, gm, g, pt)


@pytest.mark.parametrize("edges,root", [
    ([(0, 1), (1, 2), (2, 3), (1, 4), (4, 5)], 0),
    ([(0, 1), (0, 2), (0, 3), (0, 4)], 1),
], ids=["tree", "star-from-a-leaf"])
def test_audit_rejects_a_sweep_whose_remainder_sums_are_off(
        monkeypatch, edges, root):
    # Some split of an entry leaves a remainder of two or more components,
    # whose summed entries the mutant sweep stores 1 too high; singletons
    # are the best split of every set, so such a split wins. The audit
    # prices splits itself, so it sees the fault.
    def off_by_one(g, table_values, memo, rest, comp=0):
        comp = comp or g.component_of(rest)
        tail = rest & ~comp
        if tail not in memo:
            off_by_one(g, table_values, memo, tail)
        memo[rest] = val = table_values[comp] + memo[tail] + (tail != 0)
        return val

    monkeypatch.setattr(dp, "_remainder_value", off_by_one)
    n = max(map(max, edges)) + 1
    g = Graph(n, edges)
    pt = build_pseudotree(g, root)
    gm = Game(n, lambda m: -m.bit_count() ** 2)
    table = dype(gm, g, pt).table
    with pytest.raises(InternalInvariantError, match="recurrence gives"):
        audit_dp_table(table, gm, g, pt)


def test_table_entries_are_write_once():
    t = DpTable(3)
    t.put(0b011, 7, 0b001)
    assert t.values[0b011] == 7
    assert t.subsets[0b011] == 0b001
    with pytest.raises(InternalInvariantError):
        t.put(0b011, 8, 0b001)
    assert (t.values[0b011], t.subsets[0b011]) == (7, 0b001)
    # a missing entry is reported as a fault, not read as a KeyError
    g = Graph(3, [(0, 1), (1, 2)])
    with pytest.raises(InternalInvariantError):
        reconstruct_blocks(t, 0b111, g)


def test_a_table_miss_raises_in_every_reader():
    # both columns raise on a miss, naming the mask
    t = DpTable(3)
    for column in (t.values, t.subsets):
        with pytest.raises(InternalInvariantError,
                           match="missing table entry for mask 5$"):
            column[5]
    # so do the readers of a dype table that lost one entry
    g = Graph(6, [(0, 1), (1, 2), (2, 3), (1, 4), (4, 5), (3, 5)])
    gm = random_table_game(6, seed=8)
    table = dype(gm, g, build_pseudotree(g, 0)).table
    for c in [c for c in table.values if c & (c - 1)]:
        miss = f"missing table entry for mask {c}$"
        witness = table.subsets.pop(c)
        with pytest.raises(InternalInvariantError, match=miss):
            reconstruct_blocks(table, c, g)
        table.subsets[c] = witness
        value = table.values.pop(c)
        memo = {0: 0}
        with pytest.raises(InternalInvariantError, match=miss):
            dp._remainder_value(g, table.values, memo, c)
        assert memo == {0: 0}  # nothing stored before the miss
        table.values[c] = value


def test_reconstruct_blocks_partitions_a_two_component_remainder():
    # a stage-3 seed {0, 1} leaves the components {2, 3} and {4, 5}
    g = Graph(6, [(0, 1), (1, 2), (2, 3), (1, 4), (4, 5)])
    for seed in range(5):
        gm = random_table_game(6, seed=seed)
        table = dype(gm, g, build_pseudotree(g, 0)).table
        rest = 0b111100
        blocks = reconstruct_blocks(table, rest, g)
        assert Partition(blocks).covered == rest
        assert all(g.is_connected(b) for b in blocks)
        assert partition_value(gm, blocks) \
            == table.values[0b001100] + table.values[0b110000]


def test_published_level_reaches_bottom():
    gm = random_table_game(5, seed=9)
    g = Graph(5, [(i, i + 1) for i in range(4)])
    pt = build_pseudotree(g, 0)
    table = dype(gm, g, pt).table
    assert table.published_level == 2


def test_every_split_remainder_is_memoised_before_its_level():
    # The fill reads memo[c - S] with no fallback: for every entry c of
    # level L and every anchored block S of c, c - S is 0 or the remainder
    # of a seed of a stage above L, which the sweep's scan memoised first.
    rng = random.Random(78)
    later_seeds = 0
    for _ in range(40):
        _, g = random_instance(rng, n_max=9)
        pt = build_pseudotree(g, rng.randrange(g.n))
        full = g.full_mask
        scanned = {0}
        for level in range(g.n, 1, -1):
            anchor = 1 << pt.order[level - 1]
            seeds = list(_stage_seeds(g, pt, level))
            for d in seeds:
                c = full & ~d
                if not g.is_connected(c):
                    continue
                for s in g.connected_subsets(c, required=anchor):
                    assert c & ~s in scanned, (g.edges, pt.root, level, s)
                    later_seeds += c & ~s != 0
            scanned.update(full & ~d for d in seeds)
    assert later_seeds > 0


def test_reconstruction_returns_optimal_feasible_blocks():
    rng = random.Random(73)
    for _ in range(15):
        gm, g = random_instance(rng, n_max=7)
        pt = build_pseudotree(g, 0)
        table = dype(gm, g, pt).table
        for c, val in table.values.items():
            blocks = reconstruct_blocks(table, c, g)
            assert all(g.is_connected(b) for b in blocks)
            # Partition rejects overlapping blocks
            assert Partition(blocks).covered == c
            assert partition_value(gm, blocks) == val


def test_dype_tables_pass_the_audit_under_a_tolerance():
    # a tolerance lets the incumbent stop short of the optimum, but every
    # table entry still holds the recurrence's exact value
    rng = random.Random(76)
    for _ in range(200):
        n = rng.randint(3, 8)
        g = Graph(n, random_connected_edges(rng, n))
        base = random_table_game(n, seed=rng.randrange(10 ** 6))
        gm = Game(n, base.value, tolerance=3)
        pt = build_pseudotree(g, rng.randrange(n))
        res = dype(gm, g, pt)
        audit_dp_table(res.table, gm, g, pt)
        want = brute_force_best(base, g).best_value
        assert want - 3 <= res.best_value <= want
        assert partition_value(gm, res.best) == res.best_value


def test_dype_star_trace_contract():
    rng = random.Random(74)
    for _ in range(15):
        gm, g = random_instance(rng, n_max=7)
        pt = build_pseudotree(g, 0)
        events = []
        res = dype_star(gm, g, pt,
                        on_event=lambda *event: events.append(event))
        assert res.completed
        assert res.trace[0] == (0, gm.value(g.full_mask))
        for (t0, v0), (t1, v1) in zip(res.trace, res.trace[1:]):
            assert t1 >= t0 and v1 > v0
        assert res.trace[-1][1] == res.best_value
        assert res.best_value == brute_force_best(gm, g).best_value
        # the observer sees exactly the improving steps after the first,
        # each an incumbent (the sweep visits no structure) with a
        # partition of the whole graph that prices at its value
        assert [v for _, _, v, _ in events] == [v for _, v in res.trace[1:]]
        assert [e[:3] for e in events] \
            == [("incumbent", t, v) for t, v in res.trace[1:]]
        for _, _, v, p in events:
            assert isinstance(p, Partition) and p.covered == g.full_mask
            assert partition_value(gm, p) == v
            assert all(g.is_connected(b) for b in p)


def test_deadline_behaviour():
    # a deadline already gone stops both solvers in their first level fill
    gm = random_table_game(12, seed=10)
    g = Graph(12, [(i, j) for i in range(12) for j in range(i + 1, 12)])
    pt = build_pseudotree(g, 0)
    past = time.monotonic() - 1
    with pytest.raises(BudgetExceededError):
        dype(gm, g, pt, deadline=past)
    res = dype_star(gm, g, pt, deadline=past)
    assert not res.completed
    assert res.trace[0] == (0, gm.value(g.full_mask))
    for (t0, v0), (t1, v1) in zip(res.trace, res.trace[1:]):
        assert t1 >= t0 and v1 > v0
    assert res.trace[-1][1] == res.best_value
    assert res.best.covered == g.full_mask
    assert all(g.is_connected(b) for b in res.best)


def level_entries(g, pt, level):
    """Stage `level`'s seeds and the level's entries, their connected
    remainders (plain BFS)."""
    full = g.full_mask
    seeds = list(g.connected_subsets(full ^ (1 << pt.order[level - 1]),
                                     required=pt.prefix_masks[level]))
    edges = g.edges
    return seeds, [full & ~d for d in seeds
                   if is_connected_agents(edges, agents_of(full & ~d))]


def fill_ticks(g, pt, calls):
    """(call number, level, ticks) after each value call in `calls`, the
    masks of a run's calls in order, that prices a fill block. Fill blocks
    leave out the root; the scan's seeds hold it. A level's seeds tick
    before its first block, and a block ticks once per entry of its level
    that holds it: the (block, entry) pairs priced."""
    root_bit = 1 << pt.root
    entries = {}
    ticks = 0
    entered = g.n + 1
    out = []
    for i, m in enumerate(calls, 1):
        if m & root_bit:
            continue
        level = min(map(pt.position, agents_of(m)))
        while entered > level:
            entered -= 1
            seeds, entries[entered] = level_entries(g, pt, entered)
            ticks += len(seeds)
        ticks += sum(1 for c in entries[level] if not m & ~c)
        out.append((i, level, ticks))
    return out


def stalling_game(base, stall_at):
    """`base` with its value calls recorded in `calls`; the `stall_at[0]`-th
    call spins until `deadline[0]` (the lists are the caller's to set)."""
    calls = []
    deadline = [0.0]

    def value(m):
        calls.append(m)
        if len(calls) == stall_at[0]:
            while time.monotonic() < deadline[0]:
                pass
        return base.value(m)

    game = Game(base.n, value)
    calls.clear()  # the constructor's check of the empty coalition
    return game, calls, deadline


def test_dype_star_stops_soon_after_the_deadline():
    # A deadline already gone stops the first level fill at its first
    # seed. One that passes mid-level (here: at the value call of the
    # 100th block of the last level's walk) stops within a stride of
    # ticks, at the first block that ends one.
    n = 10
    g = Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
    base = random_table_game(n, seed=3)
    pt = build_pseudotree(g, 0)
    res = dype_star(base, g, pt, deadline=time.monotonic())
    assert not res.completed
    assert res.stats.subsets_enumerated <= 16

    stall_at = [-1]
    gm, calls, deadline = stalling_game(base, stall_at)
    whole = dype_star(gm, g, pt).stats.subsets_enumerated
    walk = [(i, t) for i, level, t in fill_ticks(g, pt, calls) if level == 2]
    assert walk[-1][1] == whole
    stall_at[0], at_stall = walk[99]
    stop_by = next(t for _, t in walk if t >= at_stall + dp.DEADLINE_STRIDE)
    assert stop_by < whole
    calls.clear()
    deadline[0] = time.monotonic() + 0.05
    res = dype_star(gm, g, pt, deadline=deadline[0])
    assert not res.completed
    assert at_stall <= res.stats.subsets_enumerated <= stop_by


def test_dype_stops_soon_after_the_deadline_in_the_last_scan():
    # On a star the level fills are tiny, and the sweep's last call is the
    # scan of stage 2: it prices the 2^(n-2) first blocks around the centre
    # that leave out the agent at position 2, each from the table, with one
    # value call per block. A deadline that passes at that scan's first
    # value call is seen at the scan's next check, which comes 256 seeds
    # later, well short of the stage's 1,024.
    n = 12
    g = Graph(n, [(0, a) for a in range(1, n)])
    base = random_table_game(n, seed=5)
    pt = build_pseudotree(g, 0)
    calls = 0
    K = -1  # no stall while the run's value calls are counted
    deadline = None

    def value(m):
        nonlocal calls
        calls += 1
        if calls == K:
            while time.monotonic() < deadline:
                pass
        return base.value(m)

    gm = Game(n, value)
    calls = 0
    dype(gm, g, pt)
    seeds = sum(1 for _ in g.connected_subsets(
        g.full_mask ^ (1 << pt.order[1]), required=1 << pt.order[0]))
    assert seeds == 1 << (n - 2)
    K = calls - seeds + 1
    calls = 0
    deadline = time.monotonic() + 0.05
    with pytest.raises(BudgetExceededError):
        dype(gm, g, pt, deadline=deadline)
    assert K <= calls <= K + 256 + n


def test_dype_star_stops_soon_after_the_deadline_inside_a_split():
    # On K12 the last level's walk prices 2^10 blocks. A deadline that
    # passes at its second block's value call is noticed inside the walk,
    # within one stride of 256 ticks, so of 256 blocks.
    n = 12
    g = Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
    base = random_table_game(n, seed=6)
    pt = build_pseudotree(g, 0)
    stall_at = [-1]
    gm, calls, deadline = stalling_game(base, stall_at)
    t0 = time.monotonic()
    dype_star(gm, g, pt)
    elapsed = time.monotonic() - t0
    walk = [i for i, level, _ in fill_ticks(g, pt, calls) if level == 2]
    assert len(walk) == 1 << (n - 2)
    K = stall_at[0] = walk[1]
    calls.clear()
    # late enough that the run reaches the K-th value call before it
    deadline[0] = time.monotonic() + 2 * elapsed + 0.5
    res = dype_star(gm, g, pt, deadline=deadline[0])
    assert not res.completed
    assert K <= len(calls) <= K + 256 + n


def test_a_fill_stopped_inside_a_split_counts_the_split():
    # A value call in the middle of a K12 level's walk stalls past the
    # deadline; the stopped run's subset count must hold every tick the
    # fill made, the stopped block's (block, entry) pairs included, as an
    # independent count of the run's value calls gives them.
    n = 12
    g = Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
    base = random_table_game(n, seed=6)
    pt = build_pseudotree(g, 0)
    stall_at = [-1]
    gm, calls, deadline = stalling_game(base, stall_at)
    t0 = time.monotonic()
    dype_star(gm, g, pt)
    elapsed = time.monotonic() - t0
    walk = [i for i, level, _ in fill_ticks(g, pt, calls) if level == 2]
    stall_at[0] = walk[len(walk) // 2]
    calls.clear()
    # late enough that the run reaches the stalling call before it
    deadline[0] = time.monotonic() + 2 * elapsed + 0.5
    res = dype_star(gm, g, pt, deadline=deadline[0])
    assert not res.completed
    counted = fill_ticks(g, pt, calls)
    assert counted[-1][:2] == (len(calls), 2) and len(calls) >= stall_at[0]
    assert res.stats.subsets_enumerated == counted[-1][2]


def per_entry_table(game, g, pt):
    """The DyPE table filled entry by entry: each level's entries in seed
    order, each taking the first strictly best block of its own
    `connected_subsets(c, required=anchor)` stream, priced with its rest's
    components (plain BFS) read from the entries already filled. Also
    counts the entries whose best is reached by more than one block."""
    values, witnesses = {}, {}
    tied = 0

    def rest_value(rest):
        left = set(agents_of(rest))
        total = 0
        while left:
            comp = bfs_reach(g.edges, left, min(left))
            total += values[mask_of(comp)]
            left -= comp
        return total

    for level in range(g.n, 1, -1):
        anchor = 1 << pt.order[level - 1]
        for c in level_entries(g, pt, level)[1]:
            best = None
            for s in g.connected_subsets(c, required=anchor):
                val = game.value(s) + rest_value(c & ~s)
                if best is None or val > best:
                    best, witnesses[c], reached = val, s, 0
                reached += val == best
            values[c] = best
            tied += reached > 1
    return values, witnesses, tied


def test_ties_go_to_each_entrys_first_best_block_in_its_own_stream():
    # The fill prices a block against every entry holding it in one walk;
    # on tie-heavy tables each entry must still keep the block the
    # per-entry fill keeps, and the entries must go in in the same order.
    rng = random.Random(81)
    ties = 0
    for i in range(240):
        n = rng.randint(2, 9)
        edges = random_connected_edges(rng, n)
        for _ in range(rng.randint(0, n)):
            u, w = rng.sample(range(n), 2)
            edges.append((u, w))
        g = Graph(n, edges)
        top = (1, 3)[i % 2]
        vals = [0] + [rng.randint(0, top) for _ in range(1, 1 << n)]
        gm = Game(n, vals.__getitem__)
        pt = build_pseudotree(g, rng.randrange(n))
        table = dype_star(gm, g, pt).table
        values, witnesses, tied = per_entry_table(gm, g, pt)
        assert list(table.values.items()) == list(values.items()), edges
        assert list(table.subsets.items()) == list(witnesses.items()), edges
        ties += tied
    assert ties > 800


def test_dype_and_dype_star_do_the_same_work():
    # dype is dype-star's sweep run to the end: same answer, same work,
    # same table
    rng = random.Random(75)
    for _ in range(15):
        gm, g = random_instance(rng)
        pt = build_pseudotree(g, rng.randrange(g.n))
        exact = dype(gm, g, pt)
        anytime = dype_star(gm, g, pt)
        assert exact.best_value == anytime.best_value
        assert exact.best == anytime.best
        assert exact.stats == anytime.stats
        assert exact.table.values == anytime.table.values
        assert exact.table.subsets == anytime.table.subsets
        assert exact.trace == []


def test_sweep_memo_holds_each_remainders_summed_entries():
    # every remainder the sweep memoises in the table's sums maps to its
    # components' summed table entries, the components found by a plain BFS
    rng = random.Random(77)
    checked = 0
    for _ in range(60):
        n = rng.randint(3, 10)
        edges = random_connected_edges(rng, n)
        g = Graph(n, edges)
        seed = rng.randrange(10 ** 6)
        gm = (random_table_game(n, seed=seed) if rng.random() < 0.5
              else make_supersub_game(n, seed=seed))
        table = dype(gm, g, build_pseudotree(g, rng.randrange(n))).table
        assert table.sums[0] == 0
        for rest, val in table.sums.items():
            left = set(agents_of(rest))
            want = 0
            while left:
                comp = bfs_reach(edges, left, min(left))
                want += table.values[mask_of(comp)]
                left -= comp
            assert val == want, (edges, rest)
        checked += len(table.sums) - 1
    assert checked > 1000


def random_sweep_instance(rng):
    """A random connected graph, root and game, table or supersub, with
    a tolerance now and then."""
    n = rng.randint(2, 9)
    edges = random_connected_edges(rng, n)
    g = Graph(n, edges)
    seed = rng.randrange(10 ** 6)
    base_game = (random_table_game(n, seed=seed) if rng.random() < 0.5
                 else make_supersub_game(n, seed=seed))
    gm = Game(n, base_game.value, tolerance=rng.choice((0, 0, 3)))
    return gm, g, edges, build_pseudotree(g, rng.randrange(n))


def test_each_level_writes_the_anchored_sets_with_connected_complements():
    # level L's entries: connected, holding the agent at position L, inside
    # the suffix from L, with a nonempty connected complement (plain BFS)
    rng = random.Random(78)
    solve_level = dp._solve_level
    for _ in range(60):
        gm, g, edges, pt = random_sweep_instance(rng)
        written = {}

        def spy(v, g, pt, table, level, *args):
            before = set(table.values)
            seeds = solve_level(v, g, pt, table, level, *args)
            written[level] = set(table.values) - before
            return seeds

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dp, "_solve_level", spy)
            dype(gm, g, pt)
        n = g.n
        for level in range(2, n + 1):
            anchor = pt.order[level - 1]
            suffix = set(pt.order[level - 1:])
            want = set()
            for c in range(1, 1 << n):
                members = set(agents_of(c))
                rest = set(range(n)) - members
                if anchor in members and members <= suffix and rest \
                        and is_connected_agents(edges, members) \
                        and is_connected_agents(edges, rest):
                    want.add(c)
            assert written[level] == want, (edges, pt.root, level)
        assert set(written) == set(range(2, n + 1))


def test_scan_offers_what_tsp_star_step_completes():
    # the sweep prices each stage seed from its sums; the search's table
    # completion over the same table, seeds and incumbent offers the same
    # structures at the same totals, in the same order. Each seed comes
    # with its remainder's first component (plain BFS from its lowest
    # agent). The completion reads the sums the scan memoised, so it runs
    # after the scan, from the incumbent the scan started with.
    rng = random.Random(79)
    scan = dp._Sweep._scan
    offer = base._Incumbent.offer
    offered = None
    checked = offers = 0

    def spy_scan(self, level, seeds):
        nonlocal offered, checked, offers
        g, pt, game = self.g, self.pt, self.game
        full = g.full_mask
        assert [d for d, _ in seeds] == list(g.connected_subsets(
            full ^ (1 << pt.order[level - 1]),
            required=pt.prefix_masks[level]))
        for d, comp in seeds:
            members = agents_of(full & ~d)
            reach = bfs_reach(g.edges, members, members[0])
            assert comp == sum(1 << a for a in reach), (g.edges, d)
        incumbent = self.inc.value
        offered = []
        scan(self, level, seeds)
        want = []
        for d, _ in seeds:
            total, rest = tsp_star_step(self.table, game, g, full & ~d,
                                        game.value(d), incumbent)
            if rest is not None:
                want.append(([d] + rest, total))
                incumbent = total
        assert offered == want
        checked += len(seeds)
        offers += len(want)
        offered = None

    def spy_offer(self, blocks, value):
        if offered is not None:
            offered.append((list(blocks), value))
        return offer(self, blocks, value)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dp._Sweep, "_scan", spy_scan)
        mp.setattr(base._Incumbent, "offer", spy_offer)
        for _ in range(60):
            gm, g, edges, pt = random_sweep_instance(rng)
            res = dype_star(gm, g, pt)
            assert res.best_value == partition_value(gm, res.best)
    assert checked > 500 and offers > 100


def test_dype_counts_each_seed_and_each_inner_split_subset_once():
    rng = random.Random(80)
    for _ in range(40):
        gm, g, edges, pt = random_sweep_instance(rng)
        res = dype(gm, g, pt)
        full = g.full_mask
        seeds = sum(1 for level in range(2, g.n + 1)
                    for _ in g.connected_subsets(
                        full ^ (1 << pt.order[level - 1]),
                        required=pt.prefix_masks[level]))
        inner = sum(1 for c in res.table.values
                    for _ in g.connected_subsets(
                        c, required=1 << min(agents_of(c), key=pt.position)))
        assert res.stats.subsets_enumerated == seeds + inner
        assert res.stats.dp_subproblems == len(res.table)
