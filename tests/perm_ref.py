"""Composition, descent sets and permutation predicates that only the tests use.

``test_hashing``'s left-weightedness referee reads fuzzed forms with these,
apart from ``braid.validate_canonical_form``, which computes its descents
inline.
"""

from __future__ import annotations

from typing import Sequence


def compose(p: Sequence[int], q: Sequence[int]) -> tuple[int, ...]:
    """Apply ``p`` first, then ``q``."""
    return tuple(q[v] for v in p)


def is_identity(table: Sequence[int]) -> bool:
    return all(table[i] == i for i in range(len(table)))


def is_reversal(table: Sequence[int]) -> bool:
    n = len(table)
    return all(table[i] == n - 1 - i for i in range(n))


def descent_set(table: Sequence[int]) -> frozenset[int]:
    """Indices i with table[i] > table[i+1]; the generators dividing the factor
    on the left, shifted down by one."""
    return frozenset(i for i in range(len(table) - 1) if table[i] > table[i + 1])


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
