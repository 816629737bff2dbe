"""Permutation tables on {0, ..., n-1}, the factor type of canonical forms.

A permutation is stored in word form: a tuple ``p`` with ``p[j]`` the image of
``j``. Composition is read left to right throughout the package: the product
of ``p`` and ``q`` applies ``p`` first and then ``q``, matching the order in
which braid letters act on strand positions.
"""

from __future__ import annotations

import functools
from typing import Sequence

PermTable = tuple[int, ...]


def is_permutation(table: Sequence[int]) -> bool:
    """Check that ``table`` is a bijection of {0, ..., n-1}."""
    n = len(table)
    seen = [False] * n
    for v in table:
        if not isinstance(v, int) or not 0 <= v < n or seen[v]:
            return False
        seen[v] = True
    return True


def identity(n: int) -> PermTable:
    return tuple(range(n))


def reversal(n: int) -> PermTable:
    """The order-reversing permutation i -> n-1-i, the permutation of the half twist."""
    return tuple(range(n - 1, -1, -1))


def inverse(table: Sequence[int]) -> PermTable:
    inv = [0] * len(table)
    for j, v in enumerate(table):
        inv[v] = j
    return tuple(inv)


def inversion_count(table: Sequence[int]) -> int:
    """Number of out-of-order pairs; the positive word length of the factor."""
    n = len(table)
    return sum(1 for i in range(n) for j in range(i + 1, n) if table[i] > table[j])


# Both caches are bounded by entry count, so their bytes grow with n: at n=64
# a table and its key take about 1.2 KB, so 256 tables hold 0.3 MB and 2,048
# hold 2.5 MB (arithmetic). flip's reuse is short range. In 10 s traced
# benchmark runs (seed 1) at 256 tables, not 2,048, it hit 12% of the 44
# calls of a local-n64 round, not 26%, and a tcp-n8 round (prover and
# verifier together) missed 13 of 54.5 calls, not 2.8, each miss an 8-entry
# tuple. Only braid.inverse calls left_complement; selftest at n=4..64 fills
# 470 entries, under its cap, so its size there is a worst-case bound only.
@functools.lru_cache(maxsize=256)
def flip(table: PermTable) -> PermTable:
    """Conjugate by the reversal: the index-flip automorphism on factors."""
    n = len(table)
    return tuple(n - 1 - table[n - 1 - x] for x in range(n))


@functools.lru_cache(maxsize=2048)
def left_complement(table: PermTable) -> PermTable:
    """The factor c with c * table = reversal and lengths adding up.

    Realizes factor inverses: the braid of ``table`` inverted equals a negative
    half twist followed by the braid of the complement.
    """
    inv = inverse(table)
    n = len(table)
    return tuple(inv[n - 1 - x] for x in range(n))
