"""Bitmask agent-set helpers.

An agent set is a plain int: bit i set means agent i belongs to the set.
Bitwise ops give exact set algebra with no allocation in solver loops, so
everything downstream (graphs, games, solvers) passes masks around.
"""

from __future__ import annotations


def agents_of(mask: int) -> list[int]:
    """List the agent indices of a mask in ascending order."""
    out = []
    while mask:
        b = mask & -mask
        out.append(b.bit_length() - 1)
        mask ^= b
    return out
