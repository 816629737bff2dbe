import itertools
import random
import sys
import threading

import pytest

import braidauth.braid as B
import braidauth.permutations as perms
from braidauth.errors import InvalidParameterError
from braidauth.rewriting import (
    _BRAID_PATTERNS,
    RewritingClosure,
    free_reduce,
    insertion_neighbors,
    rewrite_neighbors,
)
from burau_ref import P61, burau_equal, burau_matrix, burau_mod_p, half_twist_letters, mat_mul
from conftest import random_braid_word


def cf(n, text):
    return B.normalize(B.word(n, text))


def wide_forms(rng):
    """Forms at the widths the benchmark runs, from words of 64 to 128 letters."""
    for n, count in ((16, 3), (64, 2)):
        for _ in range(count):
            yield B.normalize(random_braid_word(rng, n, rng.randrange(64, 129)))


# ---------------------------------------------------------------------------
# Construction and parsing
# ---------------------------------------------------------------------------

def test_identity_is_neutral(rng):
    e3 = B.identity(3)
    assert e3.inf == 0 and e3.factors == ()
    for _ in range(20):
        x = B.normalize(random_braid_word(rng, 3, rng.randrange(0, 8)))
        assert B.multiply(e3, x) == x
        assert B.multiply(x, e3) == x
    assert B.equals(B.identity(4), cf(4, "s1 S1"))


def test_strand_count_validation():
    with pytest.raises(InvalidParameterError):
        B.identity(1)
    with pytest.raises(InvalidParameterError):
        B.delta(0)
    with pytest.raises(InvalidParameterError):
        B.BraidWord(3, (B.GeneratorLetter(3, 1),))
    with pytest.raises(InvalidParameterError):
        B.BraidWord(3, (B.GeneratorLetter(1, 2),))
    B.identity(1024)
    with pytest.raises(InvalidParameterError):
        B.identity(1025)


def test_word_text_round_trip():
    w = B.word(4, "s1 s2 S1 s3")
    assert w.to_text() == "s1 s2 S1 s3"
    assert B.word(4, "s1.s2.S1.s3") == w
    assert B.word(4, "  s1   s2\tS1 s3 ") == w
    with pytest.raises(InvalidParameterError):
        B.word(4, "x1")
    with pytest.raises(InvalidParameterError):
        B.word(4, "s0")


def test_delta_examples():
    assert B.delta(3) == B.CanonicalForm(3, 1, ())
    assert B.delta_word(3).to_text() == "s1 s2 s1"
    assert B.normalize(B.delta_word(3)) == B.delta(3)
    assert B.braidword_to_permutation(B.delta_word(3)) == (2, 1, 0)
    for n in range(2, 9):
        assert len(B.delta_word(n)) == n * (n - 1) // 2
        assert B.braidword_to_permutation(B.delta_word(n)) == tuple(range(n - 1, -1, -1))


def test_canonicalform_rejects_bad_factors():
    with pytest.raises(InvalidParameterError):
        B.CanonicalForm(3, 0, ((0, 1, 2),))  # identity factor
    with pytest.raises(InvalidParameterError):
        B.CanonicalForm(3, 0, ((2, 1, 0),))  # half twist factor
    with pytest.raises(InvalidParameterError):
        B.CanonicalForm(3, 0, ((0, 0, 2),))  # not a bijection
    with pytest.raises(InvalidParameterError):
        # (s2 then s1) is not left weighted
        B.CanonicalForm(3, 0, ((0, 2, 1), (1, 0, 2)))


# ---------------------------------------------------------------------------
# Word <-> permutation
# ---------------------------------------------------------------------------

def test_braidword_to_permutation_examples():
    assert B.braidword_to_permutation(B.word(3, "s1 s2")) == (2, 0, 1)
    assert B.braidword_to_permutation(B.word(3, "")) == (0, 1, 2)
    # permutation forgets crossings: s1 s1 maps to the identity table
    assert B.braidword_to_permutation(B.word(3, "s1 s1")) == (0, 1, 2)
    assert B.normalize(B.word(3, "s1 s1")) != B.identity(3)


def test_permutation_to_braidword_examples():
    assert B.permutation_to_braidword((1, 0, 2)).to_text() == "s1"
    assert B.permutation_to_braidword((2, 1, 0)).to_text() == "s1 s2 s1"
    assert B.permutation_to_braidword((1, 0, 3, 2)).to_text() == "s1 s3"


def test_permutation_braid_bijection_exhaustive_small():
    for n in (2, 3, 4, 5):
        for table in itertools.permutations(range(n)):
            w = B.permutation_to_braidword(table)
            assert all(sign == 1 for _, sign in w.letters)
            assert len(w) == sum(
                1 for i in range(n) for j in range(i + 1, n) if table[i] > table[j]
            )
            assert B.braidword_to_permutation(w) == table


def test_permutation_braid_bijection_random_larger(rng):
    for n in (6, 8, 12, 16):
        for _ in range(25):
            table = list(range(n))
            rng.shuffle(table)
            table = tuple(table)
            assert B.braidword_to_permutation(B.permutation_to_braidword(table)) == table


# ---------------------------------------------------------------------------
# normalize: frozen examples
# ---------------------------------------------------------------------------

def test_normalize_examples():
    assert cf(3, "s1 s2 s1") == B.CanonicalForm(3, 1, ())
    assert cf(3, "s2 s1 s2") == B.CanonicalForm(3, 1, ())
    assert cf(3, "S1") == B.CanonicalForm(3, -1, ((2, 0, 1),))
    assert cf(3, "s1 s1") == B.CanonicalForm(3, 0, ((1, 0, 2), (1, 0, 2)))


def test_multiply_examples(rng):
    for n in (3, 4, 6):
        for _ in range(10):
            x = B.normalize(random_braid_word(rng, n, 8))
            assert B.multiply(x, B.inverse(x)) == B.identity(n)
            assert B.multiply(B.inverse(x), x) == B.identity(n)
    for x in wide_forms(rng):
        assert B.multiply(x, B.inverse(x)) == B.identity(x.n)
        assert B.multiply(B.inverse(x), x) == B.identity(x.n)
    assert B.multiply(cf(4, "s1"), cf(4, "s3")) == B.multiply(cf(4, "s3"), cf(4, "s1"))
    with pytest.raises(InvalidParameterError):
        B.multiply(B.identity(3), B.identity(4))


def test_inverse_examples():
    assert B.inverse(B.identity(5)) == B.identity(5)
    assert B.inverse(cf(3, "s1")) == B.CanonicalForm(3, -1, ((2, 0, 1),))
    assert B.inverse(cf(3, "s1")) == cf(3, "S1")
    # odd inf on both sides, so every complement is flipped on its way out
    x = cf(4, "S1 s2 s3 s2")
    assert x == B.CanonicalForm(4, -1, ((3, 2, 0, 1), (0, 3, 2, 1)))
    assert B.inverse(x) == B.CanonicalForm(4, -1, ((1, 2, 3, 0), (1, 0, 2, 3)))


def test_inverse_involution(rng):
    for n in (3, 5, 8):
        for _ in range(15):
            x = B.normalize(random_braid_word(rng, n, 10))
            assert B.inverse(B.inverse(x)) == x
    for x in wide_forms(rng):
        assert B.inverse(B.inverse(x)) == x


def test_power_examples():
    x = cf(3, "s1")
    assert B.power(x, 5) != B.identity(3)
    assert B.power(x, 1) == x
    assert B.power(x, 0) == B.identity(3)
    assert B.power(cf(3, "s1 s2"), 3) == B.CanonicalForm(3, 2, ())
    with pytest.raises(InvalidParameterError):
        B.power(x, -1)


def test_power_matches_repeated_multiply(rng):
    for n in (3, 6):
        for _ in range(10):
            x = B.normalize(random_braid_word(rng, n, 6))
            acc = B.identity(n)
            for e in range(5):
                assert B.power(x, e) == acc
                acc = B.multiply(acc, x)


def test_equals_examples():
    assert B.equals(cf(3, "s1 s2 s1"), cf(3, "s2 s1 s2"))
    assert not B.equals(cf(3, "s1"), cf(3, "s2"))
    with pytest.raises(InvalidParameterError):
        B.equals(B.identity(3), B.identity(4))


def test_canonical_length_examples():
    assert B.canonical_length(B.identity(6)) == 0
    assert B.canonical_length(B.delta(6)) == 0
    assert B.canonical_length(cf(3, "s1 s1")) == 2


# ---------------------------------------------------------------------------
# tau and the half twist
# ---------------------------------------------------------------------------

def test_tau_examples():
    assert B.tau(cf(4, "s1")) == cf(4, "s3")
    assert B.tau(cf(4, "s2")) == cf(4, "s2")
    assert B.equals(
        B.multiply(B.delta(3), cf(3, "s1")), B.multiply(cf(3, "s2"), B.delta(3))
    )


def test_tau_involution_and_twist_commutation(rng):
    for n in (3, 4, 5, 8):
        d = B.delta(n)
        d2 = B.power(d, 2)
        for _ in range(25):
            x = B.normalize(random_braid_word(rng, n, 10))
            assert B.tau(B.tau(x)) == x
            assert B.multiply(d, x) == B.multiply(B.tau(x), d)
            assert B.multiply(d2, x) == B.multiply(x, d2)


# ---------------------------------------------------------------------------
# Structural invariants
# ---------------------------------------------------------------------------

def _referee_word(rng, n, length):
    """Random letters, uniform or mostly negative, with whole half twists and
    inverse half twists spliced in."""
    delta = B.delta_word(n).letters
    delta_inv = tuple(B.GeneratorLetter(i, -1) for i, _ in reversed(delta))
    negative_share = rng.choice((0.5, 0.85))
    letters = []
    while len(letters) < length:
        if rng.random() < 0.1:
            letters.extend(rng.choice((delta, delta_inv)))
        else:
            sign = -1 if rng.random() < negative_share else 1
            letters.append(B.GeneratorLetter(rng.randrange(1, n), sign))
    return B.BraidWord(n, tuple(letters))


def test_left_weightedness_of_all_outputs(rng):
    # The engine builds its outputs without validating them, so the validator
    # referees every entry point here, and each output must equal the form the
    # validating constructor builds from the same data.
    def referee(*forms):
        for z in forms:
            B.validate_canonical_form(z.n, z.inf, z.factors)
            assert z == B.CanonicalForm(z.n, z.inf, z.factors)
            assert hash(z) == hash(B.CanonicalForm(z.n, z.inf, z.factors))

    for n in (3, 4, 8):
        for _ in range(40):
            x = B.normalize(random_braid_word(rng, n, 12))
            y = B.normalize(random_braid_word(rng, n, 12))
            referee(x, y, B.multiply(x, y), B.inverse(x), B.power(x, 3), B.tau(y))
    for n, count, length in ((2, 20, 12), (3, 30, 16), (8, 20, 32), (64, 4, 64)):
        one, twist = B.identity(n), B.delta(n)
        referee(one, twist, *(B.generator(n, i, s) for i in range(1, n) for s in (1, -1)))
        for _ in range(count):
            x = B.normalize(_referee_word(rng, n, length))
            y = B.normalize(_referee_word(rng, n, length))
            referee(
                x, y, B.multiply(x, y), B.multiply(one, y), B.multiply(x, twist),
                B.multiply(twist, x), B.multiply(x, B.inverse(x)), B.inverse(x),
                B.power(x, 0), B.power(y, 3), B.tau(x),
            )


def test_idempotence_of_reexpansion(rng):
    for n in (3, 5, 8):
        for _ in range(30):
            x = B.normalize(random_braid_word(rng, n, 12))
            assert B.normalize(B.to_braidword(x)) == x
    for x in wide_forms(rng):
        assert B.normalize(B.to_braidword(x)) == x


def test_normalize_of_concatenation_is_the_product(rng):
    # Mostly negative letters make half twists surface in the middle of the
    # fold, where they must be absorbed into inf.
    def mostly_negative_word(n, longest):
        letters = tuple(
            B.GeneratorLetter(rng.randrange(1, n), -1 if rng.random() < 0.85 else 1)
            for _ in range(rng.randrange(1, longest + 1))
        )
        return B.BraidWord(n, letters)

    for n, count, longest in ((3, 40, 12), (8, 20, 24), (16, 6, 64), (64, 3, 64)):
        for _ in range(count):
            u = mostly_negative_word(n, longest)
            v = mostly_negative_word(n, longest)
            uv = B.BraidWord(n, u.letters + v.letters)
            assert B.normalize(uv) == B.multiply(B.normalize(u), B.normalize(v))


def _single_letter_fold(w):
    acc = B.identity(w.n)
    for index, sign in w.letters:
        acc = B.multiply(acc, B.generator(w.n, index, sign))
    return acc


def test_normalize_of_long_same_sign_runs(rng):
    # Runs that spell whole half twists, simple runs that end exactly where
    # the next letter would repeat a crossing, and random one-sign stretches.
    for n in (2, 3, 8, 16):
        delta = B.delta_word(n).letters
        delta_inv = tuple(B.GeneratorLetter(i, -1) for i, _ in reversed(delta))
        for _ in range(12 if n > 2 else 4):
            letters = []
            for _ in range(rng.randrange(1, 5)):
                kind = rng.randrange(4)
                if kind == 0:
                    letters.extend(rng.choice((delta, delta_inv)))
                elif kind == 1:
                    table = list(range(n))
                    rng.shuffle(table)
                    sign = rng.choice((1, -1))
                    for index, _ in B.permutation_to_braidword(tuple(table)).letters:
                        letters.append(B.GeneratorLetter(index, sign))
                else:
                    sign = rng.choice((1, -1))
                    for _ in range(rng.randrange(1, 3 * n)):
                        letters.append(B.GeneratorLetter(rng.randrange(1, n), sign))
            w = B.BraidWord(n, tuple(letters))
            assert B.normalize(w) == _single_letter_fold(w)
    assert B.normalize(B.BraidWord(5, B.delta_word(5).letters * 2)) == B.CanonicalForm(5, 2, ())


def test_reexpansion_of_negative_twists_is_cheap(rng, monkeypatch):
    # Each half twist of to_braidword is one run, and each factor's word is
    # one more, so re-normalizing welds one piece per factor and per twist.
    calls = []
    real = B._rebalance_pair

    def counting(a, b):
        calls.append(None)
        return real(a, b)

    monkeypatch.setattr(B, "_rebalance_pair", counting)
    n = 64
    for shift in (2, 3, 5):
        y = B.normalize(random_braid_word(rng, n, 64))
        x = B.CanonicalForm(n, min(y.inf, 0) - shift, y.factors)
        assert x.inf <= -2
        calls.clear()
        assert B.normalize(B.to_braidword(x)) == x
        assert len(calls) <= len(x.factors) + abs(x.inf)


def test_torsion_freeness_spot_check(rng):
    checked = 0
    while checked < 100:
        n = rng.choice((3, 4, 5, 6, 8))
        x = B.normalize(random_braid_word(rng, n, rng.randrange(1, 10)))
        if x == B.identity(n):
            continue
        checked += 1
        for e in (2, 3):
            assert B.power(x, e) != B.identity(n)


def test_associativity(rng):
    for n in (3, 4, 8):
        for _ in range(20):
            x, y, z = (B.normalize(random_braid_word(rng, n, 8)) for _ in range(3))
            assert B.multiply(B.multiply(x, y), z) == B.multiply(x, B.multiply(y, z))


# ---------------------------------------------------------------------------
# The pair kernel against the generator-at-a-time reference
# ---------------------------------------------------------------------------

def _reference_rebalance(a, b):
    """Move generators from the front of b to the back of a until the pair is
    left weighted, smallest eligible index first; None when nothing moved."""
    n = len(a)
    la = list(a)
    lb = list(b)
    apos = [0] * n
    for pos, v in enumerate(la):
        apos[v] = pos
    changed = False
    i = 0
    while i < n - 1:
        # Eligible: i descends in b but not in a^{-1}.
        if lb[i] > lb[i + 1] and apos[i] < apos[i + 1]:
            lb[i], lb[i + 1] = lb[i + 1], lb[i]
            p, q = apos[i], apos[i + 1]
            la[p], la[q] = i + 1, i
            apos[i], apos[i + 1] = q, p
            changed = True
            # A move can newly expose index i-1 only; resume one step back.
            if i:
                i -= 1
        else:
            i += 1
    return (tuple(la), tuple(lb)) if changed else None


def _kernel_cold(a, b):
    B._PAIR_MEMO.clear()
    return B._rebalance_pair(a, b)


def test_pair_kernel_matches_reference_exhaustive_small():
    for n in (4, 5):
        tables = list(itertools.permutations(range(n)))
        for a in tables:
            for b in tables:
                assert _kernel_cold(a, b) == _reference_rebalance(a, b), (a, b)


def test_pair_kernel_matches_reference_random(rng):
    def shuffled(n):
        table = list(range(n))
        rng.shuffle(table)
        return tuple(table)

    for n in (8, 16, 32, 64, 128, 256):
        for _ in range(2000):
            a, b = shuffled(n), shuffled(n)
            assert _kernel_cold(a, b) == _reference_rebalance(a, b), (a, b)
        # Uniform pairs move little. Factors of a real form, paired with their
        # neighbours, complements and flips, move much or nothing at all.
        x = B.normalize(random_braid_word(rng, n, 2 * n))
        tables = [perms.identity(n), perms.reversal(n)]
        for f in x.factors[:6]:
            tables += [f, perms.left_complement(f), perms.flip(f)]
        for a, b in itertools.product(tables, repeat=2):
            assert _kernel_cold(a, b) == _reference_rebalance(a, b), (a, b)
        for a, b in zip(x.factors, x.factors[1:]):
            assert _kernel_cold(a, b) is None


def _weight(n):
    return n * max(n, 8)


def _cap(n):
    return B._PAIR_MEMO_BUDGET // _weight(n)


def test_pair_memo_is_bounded_by_table_entries(rng, monkeypatch):
    assert _cap(8) == 1 << 17 and _cap(16) == 1 << 15
    assert _cap(64) == 1 << 11 and _cap(256) == 1 << 7
    # Below 8 strands a pair weighs as it did under a budget of 2^20 entries.
    assert _cap(6) == (1 << 20) // 6
    # A small budget shows the bound at n=256 without filling 2^7 pairs.
    monkeypatch.setattr(B, "_PAIR_MEMO_BUDGET", _weight(256) * 40)
    _fresh_pair_memo(monkeypatch)
    largest = 0
    for _ in range(6):
        B.normalize(random_braid_word(rng, 256, 48))
        largest = max(largest, _memo_pairs())
        assert _memo_pairs() <= _cap(256)
        assert len(B._TABLE_POOL) <= 2 * _cap(256)
    assert largest > 20
    # Widths share the one budget: their pairs' weights never sum past it.
    monkeypatch.setattr(B, "_PAIR_MEMO_BUDGET", _weight(64) * 16)
    largest = 0
    for n in (8, 64) * 3:
        B.normalize(random_braid_word(rng, n, 48))
        largest = max(largest, _memo_weight())
        assert _memo_weight() == B._pair_memo_weight <= B._PAIR_MEMO_BUDGET
    assert largest > B._PAIR_MEMO_BUDGET // 2


def _fresh_pair_memo(monkeypatch):
    monkeypatch.setattr(B, "_PAIR_MEMO", {})
    monkeypatch.setattr(B, "_TABLE_POOL", {})
    monkeypatch.setattr(B, "_pair_memo_weight", 0)


def _memo_pairs():
    return sum(len(row) for row in B._PAIR_MEMO.values())


def _memo_weight(rows=None):
    rows = B._PAIR_MEMO.items() if rows is None else rows
    return sum(len(row) * _weight(len(a)) for a, row in rows)


def test_equal_kernel_outputs_are_one_object(monkeypatch):
    _fresh_pair_memo(monkeypatch)
    first_seen = {}
    sources = {}
    for a in itertools.permutations(range(5)):
        for b in itertools.permutations(range(5)):
            res = B._rebalance_pair(a, b)
            if res is None:
                continue
            for table in res:
                assert first_seen.setdefault(table, table) is table, (a, b)
                sources.setdefault(table, set()).add((a, b))
            # A memo hit hands back the stored tables themselves.
            assert B._rebalance_pair(a, b) is res
    assert max(len(pairs) for pairs in sources.values()) > 1
    assert _memo_pairs() == 120 * 120
    assert B._pair_memo_weight == 120 * 120 * _weight(5)


def test_table_pool_is_emptied_with_the_memo(rng, monkeypatch):
    _fresh_pair_memo(monkeypatch)
    monkeypatch.setattr(B, "_PAIR_MEMO_BUDGET", _weight(8) * 8)

    def shuffled():
        table = list(range(8))
        rng.shuffle(table)
        return tuple(table)

    moved = set()
    while len(moved) < 9:
        a, b = shuffled(), shuffled()
        if _reference_rebalance(a, b) is not None:
            moved.add((a, b))
    *first, last = moved
    for a, b in first:
        B._rebalance_pair(a, b)
    assert len(B._TABLE_POOL) > 2 and _memo_pairs() == 8
    assert B._pair_memo_weight == B._PAIR_MEMO_BUDGET
    res = B._rebalance_pair(*last)
    assert _memo_pairs() == 1 and B._pair_memo_weight == _weight(8)
    assert set(B._TABLE_POOL) == set(res)


def test_shared_pair_memo_under_thread_switches(rng, monkeypatch):
    _fresh_pair_memo(monkeypatch)
    # 64 pairs at n=8 or 16 at n=16; two widths in flight fill it together.
    monkeypatch.setattr(B, "_PAIR_MEMO_BUDGET", _weight(8) * 64)
    words = [random_braid_word(rng, n, 48) for _ in range(12) for n in (8, 16)]
    expected = [B.normalize(w) for w in words]
    wrong = []
    errors = []
    largest = 0

    def work(offset):
        try:
            for k in range(3 * len(words)):
                i = (offset + 7 * k) % len(words)
                if B.normalize(words[i]) != expected[i]:
                    wrong.append(i)
        except Exception as exc:  # a thread's error would otherwise go unseen
            errors.append(repr(exc))

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            threads = [threading.Thread(target=work, args=(t,), daemon=True) for t in range(8)]
            for t in threads:
                t.start()
            while any(t.is_alive() for t in threads):
                # list() takes the rows without a thread switch; a row cleared
                # while they are summed gains at most a pair per thread.
                largest = max(largest, _memo_weight(list(B._PAIR_MEMO.items())))
                threads[0].join(timeout=0.001)
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(switch)
    assert errors == [] and wrong == []
    # Threads that passed the limit check together may each add one pair, and
    # so may each thread that still holds a row the clear dropped.
    budget = B._PAIR_MEMO_BUDGET
    assert budget // 2 < largest <= budget + 2 * len(threads) * _weight(16)


# ---------------------------------------------------------------------------
# Relation invariance via an in-test rewriter
# ---------------------------------------------------------------------------

def _apply_random_relations(rng, w):
    letters = list(w.letters)
    for _ in range(8):
        move = rng.randrange(3)
        if move == 0:
            spots = [
                i for i in range(len(letters) - 1)
                if abs(letters[i].index - letters[i + 1].index) > 1
            ]
            if spots:
                i = rng.choice(spots)
                letters[i], letters[i + 1] = letters[i + 1], letters[i]
        elif move == 1:
            i = rng.randrange(len(letters) + 1)
            g = B.GeneratorLetter(rng.randrange(1, w.n), rng.choice((1, -1)))
            letters[i:i] = [g, B.GeneratorLetter(g.index, -g.sign)]
        else:
            spots = [
                i for i in range(len(letters) - 2)
                if letters[i].sign == letters[i + 1].sign == letters[i + 2].sign
                and letters[i].index == letters[i + 2].index
                and abs(letters[i].index - letters[i + 1].index) == 1
            ]
            if spots:
                i = rng.choice(spots)
                a, b = letters[i], letters[i + 1]
                letters[i : i + 3] = [b, a, b]
    return B.BraidWord(w.n, tuple(letters))


def test_relation_invariance(rng):
    for n in (3, 4, 8):
        for _ in range(40):
            w = random_braid_word(rng, n, 10)
            w2 = _apply_random_relations(rng, w)
            assert B.equals(B.normalize(w), B.normalize(w2))


# ---------------------------------------------------------------------------
# Independent referees: Burau on 3 strands, rewriting closure
# ---------------------------------------------------------------------------

def test_burau_reference_sanity():
    s1 = B.word(3, "s1")
    s2 = B.word(3, "s2")
    assert burau_equal(B.word(3, "s1 s2 s1"), B.word(3, "s2 s1 s2"))
    assert not burau_equal(s1, s2)
    assert burau_matrix(B.word(3, "s1 S1").letters) == burau_matrix(B.word(3, "").letters)


def test_burau_mod_p_sanity():
    def image(text):
        return burau_mod_p(5, B.word(5, text).letters, 123_456_789)

    assert image("s2 s3 s2") == image("s3 s2 s3")
    assert image("S2 s3 s2") == image("s3 s2 S3")
    assert image("s1 s4") == image("s4 s1")
    assert image("s1 s2") != image("s2 s1")
    assert image("s3 S3") == image("")
    assert mat_mul(image("s1 S2"), image("s4 s2")) == image("s1 S2 s4 s2")


@pytest.mark.parametrize("n, length, pairs", [(8, 64, 20), (16, 128, 20), (64, 64, 2)])
def test_engine_agrees_with_burau_mod_p(n, length, pairs):
    rng = random.Random(f"burau-{n}")
    t = rng.randrange(2, P61 - 1)

    def rho(x):
        word = x if isinstance(x, B.BraidWord) else B.to_braidword(x)
        return burau_mod_p(n, word.letters, t)

    rho_delta = burau_mod_p(n, half_twist_letters(n), t)
    one = burau_mod_p(n, (), t)
    for _ in range(pairs):
        u, v = random_braid_word(rng, n, length), random_braid_word(rng, n, length)
        x, y = B.normalize(u), B.normalize(v)
        rho_u, rho_v = rho(u), rho(v)
        e = rng.choice((2, 3))
        assert rho(x) == rho_u
        assert rho(B.multiply(x, y)) == mat_mul(rho_u, rho_v)
        assert mat_mul(rho(B.inverse(x)), rho_u) == one
        assert rho(B.power(x, e)) == rho(B.BraidWord(n, u.letters * e))
        assert mat_mul(rho(B.tau(x)), rho_delta) == mat_mul(rho_delta, rho_u)


def test_equals_agrees_with_burau(rng):
    for _ in range(300):
        u = random_braid_word(rng, 3, rng.randrange(0, 9))
        v = random_braid_word(rng, 3, rng.randrange(0, 9))
        assert B.equals(B.normalize(u), B.normalize(v)) == burau_equal(u, v)


def test_rewriting_rules_are_sound_by_burau():
    # every closure edge pattern must be a true identity on 3 strands
    from braidauth.rewriting import _BRAID_PATTERNS

    for (sx, sy, sz), (tx, ty, tz) in _BRAID_PATTERNS.items():
        lhs = B.BraidWord(
            3,
            (
                B.GeneratorLetter(1, sx),
                B.GeneratorLetter(2, sy),
                B.GeneratorLetter(1, sz),
            ),
        )
        rhs = B.BraidWord(
            3,
            (
                B.GeneratorLetter(2, tx),
                B.GeneratorLetter(1, ty),
                B.GeneratorLetter(2, tz),
            ),
        )
        assert burau_equal(lhs, rhs)


def test_every_closure_move_keeps_the_burau_image_at_n8():
    # Words over three consecutive generators hold far commutations and braid
    # windows of every sign pattern, in both index orders.
    rng = random.Random("closure-moves")
    n = 8
    t = rng.randrange(2, P61 - 1)
    windows, far_swaps, insertions = set(), 0, 0
    for _ in range(120):
        low = rng.randrange(1, n - 2)
        letters = tuple(
            B.GeneratorLetter(rng.randrange(low, low + 3), rng.choice((1, -1)))
            for _ in range(rng.randrange(3, 10))
        )
        for x, y, z in zip(letters, letters[1:], letters[2:]):
            signs = (x.sign, y.sign, z.sign)
            if x.index == z.index and abs(x.index - y.index) == 1 and signs in _BRAID_PATTERNS:
                windows.add((signs, x.index < y.index))
        far_swaps += sum(abs(x.index - y.index) > 1 for x, y in zip(letters, letters[1:]))
        inserted = insertion_neighbors(letters, n, len(letters) + 2)
        insertions += len(inserted)
        image = burau_mod_p(n, letters, t)
        for nb in rewrite_neighbors(letters) + inserted:
            assert burau_mod_p(n, nb, t) == image, (letters, nb)
    assert len(windows) == 2 * len(_BRAID_PATTERNS)
    assert far_swaps > 0 and insertions > 0


def test_equals_agrees_with_rewriting_closure_small(rng):
    closure = RewritingClosure(3, 7)
    alphabet = [B.GeneratorLetter(i, s) for i in (1, 2) for s in (1, -1)]
    words = [
        B.BraidWord(3, p)
        for length in range(4)
        for p in itertools.product(alphabet, repeat=length)
    ]
    forms = [B.normalize(w) for w in words]
    for i, j in itertools.combinations(range(len(words)), 2):
        assert (forms[i] == forms[j]) == closure.equal(words[i], words[j])


def test_free_reduce():
    w = B.word(3, "s1 S1 s2")
    assert free_reduce(w.letters) == B.word(3, "s2").letters
    assert free_reduce(B.word(3, "s1 s2 S2 S1").letters) == ()
