import itertools
import random

import perm_ref
from braidauth import permutations as perms


def test_is_permutation():
    assert perms.is_permutation(())
    assert perms.is_permutation((0, 1, 2))
    assert perms.is_permutation((2, 0, 1))
    assert not perms.is_permutation((0, 0, 2))
    assert not perms.is_permutation((0, 3, 1))


def test_identity_and_reversal():
    assert perms.identity(4) == (0, 1, 2, 3)
    assert perms.reversal(4) == (3, 2, 1, 0)
    assert perm_ref.is_identity(perms.identity(5))
    assert perm_ref.is_reversal(perms.reversal(5))
    assert not perm_ref.is_reversal(perms.identity(5))


def test_descent_set_examples():
    assert perm_ref.descent_set((0, 1, 2)) == frozenset()
    assert perm_ref.descent_set((2, 1, 0)) == frozenset({0, 1})
    assert perm_ref.descent_set((2, 0, 1)) == frozenset({0})


def test_descent_masks_agree_with_sets():
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randrange(2, 9)
        table = list(range(n))
        rng.shuffle(table)
        table = tuple(table)
        mask = perm_ref.descent_mask(table)
        assert {i for i in range(n - 1) if mask >> i & 1} == set(perm_ref.descent_set(table))
        inv_mask = perm_ref.inverse_descent_mask(table)
        assert {i for i in range(n - 1) if inv_mask >> i & 1} == set(
            perm_ref.descent_set(perms.inverse(table))
        )


def test_compose_left_to_right():
    # apply (1,0,2) first, then (0,2,1)
    assert perm_ref.compose((1, 0, 2), (0, 2, 1)) == (2, 0, 1)


def test_inverse_and_compose_laws():
    for table in itertools.permutations(range(4)):
        inv = perms.inverse(table)
        assert perm_ref.compose(table, inv) == perms.identity(4)
        assert perm_ref.compose(inv, table) == perms.identity(4)


def test_flip_is_involution_and_conjugation():
    for table in itertools.permutations(range(4)):
        flipped = perms.flip(table)
        assert perms.flip(flipped) == table
        w0 = perms.reversal(4)
        assert flipped == perm_ref.compose(perm_ref.compose(w0, table), w0)


def test_left_complement_completes_to_reversal():
    for n in (2, 3, 4, 5):
        for table in itertools.permutations(range(n)):
            comp = perms.left_complement(table)
            assert perm_ref.compose(comp, table) == perms.reversal(n)
            assert perms.inversion_count(comp) + perms.inversion_count(table) == n * (n - 1) // 2


def test_inversion_count():
    assert perms.inversion_count((0, 1, 2)) == 0
    assert perms.inversion_count((2, 1, 0)) == 3
    assert perms.inversion_count((1, 0, 3, 2)) == 2
