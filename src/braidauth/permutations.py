"""Permutation tables on {0, ..., n-1}, the factor type of canonical forms.

A permutation is stored in word form: a tuple ``p`` with ``p[j]`` the image of
``j``. Composition is read left to right throughout the package: ``compose(p, q)``
applies ``p`` first and then ``q``, matching the order in which braid letters
act on strand positions.

>>> compose((1, 0, 2), (0, 2, 1))
(2, 0, 1)
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


def is_identity(table: Sequence[int]) -> bool:
    return all(table[i] == i for i in range(len(table)))


def reversal(n: int) -> PermTable:
    """The order-reversing permutation i -> n-1-i, the permutation of the half twist."""
    return tuple(range(n - 1, -1, -1))


def is_reversal(table: Sequence[int]) -> bool:
    n = len(table)
    return all(table[i] == n - 1 - i for i in range(n))


def inverse(table: Sequence[int]) -> PermTable:
    inv = [0] * len(table)
    for j, v in enumerate(table):
        inv[v] = j
    return tuple(inv)


def compose(p: Sequence[int], q: Sequence[int]) -> PermTable:
    """Apply ``p`` first, then ``q``."""
    return tuple(q[v] for v in p)


def descent_set(table: Sequence[int]) -> frozenset[int]:
    """Indices i with table[i] > table[i+1]; the generators dividing the factor
    on the left, shifted down by one."""
    return frozenset(i for i in range(len(table) - 1) if table[i] > table[i + 1])


def inversion_count(table: Sequence[int]) -> int:
    """Number of out-of-order pairs; the positive word length of the factor."""
    n = len(table)
    return sum(1 for i in range(n) for j in range(i + 1, n) if table[i] > table[j])


# Both caches are bounded by entry count, so their bytes grow with n: at
# n=64 a full cache holds under 20 MB, its keys included.
@functools.lru_cache(maxsize=16384)
def flip(table: PermTable) -> PermTable:
    """Conjugate by the reversal: the index-flip automorphism on factors."""
    n = len(table)
    return tuple(n - 1 - table[n - 1 - x] for x in range(n))


@functools.lru_cache(maxsize=16384)
def left_complement(table: PermTable) -> PermTable:
    """The factor c with c * table = reversal and lengths adding up.

    Realizes factor inverses: the braid of ``table`` inverted equals a negative
    half twist followed by the braid of the complement.
    """
    inv = inverse(table)
    n = len(table)
    return tuple(inv[n - 1 - x] for x in range(n))


def descent_mask(table: Sequence[int]) -> int:
    """Descent set packed into an int bitmask (bit i set iff i is a descent)."""
    mask = 0
    prev = table[0] if table else 0
    for i in range(1, len(table)):
        cur = table[i]
        if prev > cur:
            mask |= 1 << (i - 1)
        prev = cur
    return mask


def inverse_descent_mask(table: Sequence[int]) -> int:
    """Descent mask of the inverse permutation, without building it."""
    n = len(table)
    pos = [0] * n
    for p, v in enumerate(table):
        pos[v] = p
    mask = 0
    for i in range(n - 1):
        if pos[i] > pos[i + 1]:
            mask |= 1 << i
    return mask
