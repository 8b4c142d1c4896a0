"""Bitmask agent-set helpers.

An agent set is a plain int: bit i set means agent i belongs to the set.
Bitwise ops give exact set algebra with no allocation in solver loops, so
everything downstream (graphs, games, solvers) passes masks around. A
per-agent sum over a mask is two lookups in half-width tables
(`half_sums`), the layout `Graph` keeps its neighborhoods in.
"""

from __future__ import annotations

# Up to this many agents both half-width tables are lists: 2 * 2^12
# entries at most. Above it the high half is read byte by byte.
HALF_TABLE_MAX_N = 24


def agents_of(mask: int) -> list[int]:
    """List the agent indices of a mask in ascending order."""
    out = []
    while mask:
        b = mask & -mask
        out.append(b.bit_length() - 1)
        mask ^= b
    return out


def half_sums(xs) -> tuple:
    """Tables (lo, hi, mask, h) such that the sum of xs[a] over the agents
    a of a mask c is `lo[c & mask] + hi[c >> h]`. Up to `HALF_TABLE_MAX_N`
    agents h = ceil(n/2) and both are lists of subset sums; above it `lo`
    covers the low 12 agents and `hi` walks per-byte tables of the rest.
    Exact for integers; distinct single bits sum to their union."""
    n = len(xs)
    h = (n + 1) // 2 if n <= HALF_TABLE_MAX_N else HALF_TABLE_MAX_N // 2
    hi = _sums(xs[h:]) if n <= HALF_TABLE_MAX_N else _ByteSums(xs[h:])
    return _sums(xs[:h]), hi, (1 << h) - 1, h


def _sums(xs) -> list:
    """The sum of xs[i] over the bits i of each index below 2^len(xs),
    built by doubling."""
    t = [0]
    for x in xs:
        t += [s + x for s in t]
    return t


class _ByteSums:
    """Item c is the sum of xs over the bits of c, one lookup per byte."""

    __slots__ = ("tables",)

    def __init__(self, xs):
        self.tables = [_sums(xs[i:i + 8]) for i in range(0, len(xs), 8)]

    def __getitem__(self, c: int):
        s = 0
        for t in self.tables:
            s += t[c & 255]
            c >>= 8
        return s
