import random

from graphcsg.masks import HALF_TABLE_MAX_N, half_sums


def bit_loop_sum(xs, c):
    return sum(xs[a] for a in range(len(xs)) if c >> a & 1)


def test_half_sums_match_a_bit_loop():
    """lo[c & mask] + hi[c >> h] is the sum of xs over the bits of c, for
    every size up to 63 agents, on both sides of the table cap."""
    rng = random.Random(17)
    for n in range(1, 64):
        xs = [rng.randint(-50, 50) for _ in range(n)]
        lo, hi, mask, h = half_sums(xs)
        assert mask == (1 << h) - 1
        if n <= HALF_TABLE_MAX_N:
            assert (h, len(lo), len(hi)) == ((n + 1) // 2, 1 << h,
                                             1 << (n - h))
        full = (1 << n) - 1
        masks = [0, full] + [rng.getrandbits(n) for _ in range(300)]
        for c in masks:
            assert lo[c & mask] + hi[c >> h] == bit_loop_sum(xs, c), (n, c)
