"""Exact arithmetic in the braid group on n strands.

Elements are held in left canonical form: a power of the fundamental half
twist followed by a left-weighted sequence of permutation-braid factors.
The form is unique, so equality of group elements is structural equality of
``CanonicalForm`` values, and it is the only representation the rest of the
package hashes, serializes, or compares.

Conventions (fixed once, used everywhere):

- A generator letter with 1-based ``index`` i acts on a 0-indexed position
  array by swapping positions i-1 and i. The permutation of a word maps start
  position to end position; words compose left to right.
- A factor permutation ``p`` admits the generator of index i+1 as a left
  divisor exactly when i is a descent of ``p``, and as a right divisor exactly
  when i is a descent of the inverse of ``p``.
- Adjacent factors (A, B) are left weighted when every descent of B is a
  descent of the inverse of A. Factors are never the identity and never the
  half-twist permutation; whole half twists live in the ``inf`` exponent.

Strand counts from 2 to 1024 are supported; factor tables fit 16-bit entries.
"""

from __future__ import annotations

import dataclasses
import functools
import re
from operator import itemgetter
from typing import NamedTuple, Sequence

from . import permutations as perms
from .errors import InvalidParameterError, check_int
from .permutations import PermTable

MAX_STRANDS = 1024


class GeneratorLetter(NamedTuple):
    """A signed Artin generator: ``index`` in [1, n-1], ``sign`` +1 or -1."""

    index: int
    sign: int


@dataclasses.dataclass(frozen=True)
class BraidWord:
    """A word over signed generators of the braid group on ``n`` strands.

    The empty word is the identity. Words are inputs only; all group-level
    questions go through :func:`normalize`.
    """

    n: int
    letters: tuple[GeneratorLetter, ...] = ()

    def __post_init__(self):
        check_int("strand count", self.n, 2, MAX_STRANDS)
        clean = []
        for letter in self.letters:
            index, sign = letter
            if not 1 <= index <= self.n - 1:
                raise InvalidParameterError(
                    f"generator index {index} out of range for n={self.n}"
                )
            if sign not in (1, -1):
                raise InvalidParameterError(f"letter sign must be +1 or -1, got {sign!r}")
            clean.append(GeneratorLetter(index, sign))
        object.__setattr__(self, "letters", tuple(clean))

    def __len__(self) -> int:
        return len(self.letters)

    @classmethod
    def from_text(cls, n: int, text: str) -> "BraidWord":
        """Parse the word notation: tokens ``s<i>`` (positive) and ``S<i>``
        (inverse) separated by spaces or dots, e.g. ``"s1 s2 S1"``."""
        letters = []
        for token in re.split(r"[\s.]+", text.strip()):
            if not token:
                continue
            m = re.fullmatch(r"([sS])(\d+)", token)
            if m is None:
                raise InvalidParameterError(f"bad word token {token!r}")
            letters.append(GeneratorLetter(int(m.group(2)), 1 if m.group(1) == "s" else -1))
        return cls(n, tuple(letters))

    def to_text(self) -> str:
        return " ".join(f"{'s' if sign > 0 else 'S'}{index}" for index, sign in self.letters)

    def __repr__(self):
        return f"BraidWord({self.n}, {self.to_text()!r})"


def word(n: int, text: str) -> BraidWord:
    """Shorthand for :meth:`BraidWord.from_text`."""
    return BraidWord.from_text(n, text)


def validate_canonical_form(n: int, inf: int, factors: Sequence[Sequence[int]]) -> None:
    """Raise InvalidParameterError unless (n, inf, factors) is a left canonical form."""
    check_int("strand count", n, 2, MAX_STRANDS)
    if not isinstance(inf, int):
        raise InvalidParameterError(f"inf must be an int, got {inf!r}")
    full = (1 << n) - 1
    prev_inv_mask = -1
    for f in factors:
        if len(f) != n:
            raise InvalidParameterError(f"factor {f!r} is not a permutation of size {n}")
        seen = 0
        pos = [0] * n
        for p, v in enumerate(f):
            if not isinstance(v, int) or not 0 <= v < n:
                raise InvalidParameterError(f"factor {f!r} is not a permutation of size {n}")
            seen |= 1 << v
            pos[v] = p
        if seen != full:
            raise InvalidParameterError(f"factor {f!r} is not a permutation of size {n}")
        desc = 0
        inv_desc = 0
        for i in range(n - 1):
            if f[i] > f[i + 1]:
                desc |= 1 << i
            if pos[i] > pos[i + 1]:
                inv_desc |= 1 << i
        if desc == 0:
            raise InvalidParameterError("identity permutation may not appear as a factor")
        if desc == (1 << (n - 1)) - 1 and all(f[i] == n - 1 - i for i in range(n)):
            raise InvalidParameterError("half-twist permutation must be absorbed into inf")
        if desc & ~prev_inv_mask:
            raise InvalidParameterError("adjacent factors are not left weighted")
        prev_inv_mask = inv_desc


@dataclasses.dataclass(frozen=True)
class CanonicalForm:
    """A braid in left canonical form: half-twist power ``inf`` and factor tables.

    Instances are immutable; any two values representing the same group
    element are equal as dataclasses. Public construction validates. The
    engine's outputs, left weighted by construction, and forms already
    checked by ``hashing.deserialize`` skip that check.
    """

    n: int
    inf: int
    factors: tuple[PermTable, ...] = ()

    def __post_init__(self):
        validate_canonical_form(self.n, self.inf, self.factors)

    def __repr__(self):
        return f"CanonicalForm(n={self.n}, inf={self.inf}, factors={list(self.factors)!r})"


def _form(n: int, inf: int, factors: tuple[PermTable, ...]) -> CanonicalForm:
    """A form already known to be left canonical, built without validation."""
    x = object.__new__(CanonicalForm)
    x.__dict__.update(n=n, inf=inf, factors=factors)
    return x


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------

def identity(n: int) -> CanonicalForm:
    """The identity braid, the neutral element for multiply."""
    return CanonicalForm(n, 0, ())


def delta(n: int) -> CanonicalForm:
    """The fundamental braid (positive half twist) as a canonical form."""
    return CanonicalForm(n, 1, ())


def delta_word(n: int) -> BraidWord:
    """The defining positive word of the fundamental braid:
    (s1 ... s_{n-1})(s1 ... s_{n-2}) ... (s1)."""
    check_int("strand count", n, 2, MAX_STRANDS)
    letters = [
        GeneratorLetter(i, 1)
        for block_top in range(n - 1, 0, -1)
        for i in range(1, block_top + 1)
    ]
    return BraidWord(n, tuple(letters))


def generator(n: int, index: int, sign: int = 1) -> CanonicalForm:
    """The canonical form of a single signed generator."""
    return normalize(BraidWord(n, (GeneratorLetter(index, sign),)))


# ---------------------------------------------------------------------------
# Permutations of words and factors
# ---------------------------------------------------------------------------

def braidword_to_permutation(w: BraidWord) -> PermTable:
    """The permutation induced on strand positions, start to end.

    Signs are forgotten: each letter swaps the two positions it touches.
    """
    pos = list(range(w.n))
    for index, _sign in w.letters:
        pos[index - 1], pos[index] = pos[index], pos[index - 1]
    return perms.inverse(pos)


def permutation_to_braidword(table: Sequence[int]) -> BraidWord:
    """A positive word realizing ``table`` as a permutation braid.

    Repeatedly emits the smallest descent, so the word is the lexicographically
    least positive representative; its length is the inversion count.
    """
    n = len(table)
    if not perms.is_permutation(table):
        raise InvalidParameterError(f"{table!r} is not a permutation")
    work = list(table)
    letters = []
    i = 0
    while i < n - 1:
        if work[i] > work[i + 1]:
            letters.append(GeneratorLetter(i + 1, 1))
            work[i], work[i + 1] = work[i + 1], work[i]
            i = i - 1 if i else 0
        else:
            i += 1
    return BraidWord(n, tuple(letters))


# ---------------------------------------------------------------------------
# The left-weighting engine
# ---------------------------------------------------------------------------

# One engine left-weights everything: _push slides factors one at a time
# into a left canonical form from the front. multiply pushes a's factors onto
# b's form, and normalize pushes a word's runs onto the identity; inverse
# needs no rebalancing. A pair (A, B) is rebalanced in one step, to
# (A M, M^-1 B) with M the meet of the right complement of A and B: the
# largest permutation braid that A can absorb from the front of B. One
# forward pass of such steps left-weights a factor followed by a left-weighted
# sequence, and a half twist can form only at its front (El-Rifai and Morton
# 1994; Epstein et al., Word Processing in Groups, ch. 9). So no pair is
# combed twice, and no twist or identity walks along the form. normalize
# packs commuting letters into few runs: at n=64 a 64-letter word makes about
# 10 runs, where runs broken at every sign change would make 33. The meet
# is computed on strand orders, never one generator at a time. Every form the
# engine returns is left weighted by this construction, so it is built with
# _form and not validated again; the tests and selftest run
# validate_canonical_form on those outputs as a referee.
#
# Most strands of a real pair directly reach no strand above them or every
# one (28% and 45% on 3,000 kernel pairs from n=64/L=64 rounds), so _meet
# settles those with one comparison against tables of 1 << i and (1 << i) - 1
# (about 205 KB): 0.74x the kernel time on those pairs, 0.83x at n=16.
#
# Pair rebalancing is the innermost operation of every product, and at
# narrow widths identical factor pairs recur constantly, so pairs on at most
# _MEMO_STRANDS strands are memoized, one row per left factor:
# _PAIR_MEMO[a][b]. None means the pair was already left weighted. Wider
# pairs go straight to _meet. Skipping the memo, interleaved in one process
# with identical outputs, made n=8 verifier rounds 3.2x slower and n=10
# rounds 1.28x slower; it was neutral at n=12 (0.96x) and n=16 (0.95-0.98x)
# and faster at n=32/L=64 (0.89x) and n=64/L=64 (0.97x), where hits are rare
# and short range. So wide sessions neither fill the memo nor clear it. The
# memo is cleared before an insert would take the weights of its pairs past
# _PAIR_MEMO_BUDGET, an n-strand pair weighing n * max(n, 8). So it keeps
# 2^17 pairs at n=8 and 2^15 at n=16, and below n=8 the 2^20 // n pairs of a
# budget of 2^20 table entries; it never holds more than 2^20 table entries
# in all. The kernel's outputs for memoized pairs are interned in
# _TABLE_POOL, so the memo and the factor lists built from it share one tuple
# per distinct table, and later lookups with those tables match keys by
# identity. The pool is emptied with the memo. Threads share both without a
# lock: a racing insert may be lost and the weight may be off by a few pairs,
# which costs at most a recomputation or a clear a few pairs early or late.
_PAIR_MEMO: dict[PermTable, dict[PermTable, "tuple[PermTable, PermTable] | None"]] = {}
_TABLE_POOL: dict[PermTable, PermTable] = {}
_pair_memo_weight = 0
_PAIR_MEMO_BUDGET = 1 << 23
_MEMO_STRANDS = 16
_MISS = object()
_BIT = tuple(1 << i for i in range(MAX_STRANDS + 1))
_LOW = tuple(bit - 1 for bit in _BIT)


def _rebalance_pair(a: PermTable, b: PermTable) -> "tuple[PermTable, PermTable] | None":
    """:func:`_meet`, memoized for pairs on at most ``_MEMO_STRANDS`` strands."""
    global _pair_memo_weight
    n = len(a)
    if n > _MEMO_STRANDS:
        return _meet(a, b)
    row = _PAIR_MEMO.get(a)
    if row is not None:
        cached = row.get(b, _MISS)
        if cached is not _MISS:
            return cached  # type: ignore[return-value]
    weight = n * max(n, 8)
    if _pair_memo_weight + weight > _PAIR_MEMO_BUDGET:
        # Reset the weight first: an insert another thread makes in between
        # lands in the memo about to be cleared, not in the fresh one uncounted.
        _pair_memo_weight = 0
        _PAIR_MEMO.clear()
        _TABLE_POOL.clear()
        row = None
    result = _meet(a, b)
    if result is not None:
        am, mb = result
        pool = _TABLE_POOL
        result = (pool.setdefault(am, am), pool.setdefault(mb, mb))
    if row is None:
        row = _PAIR_MEMO.setdefault(a, {})
    row[b] = result
    _pair_memo_weight += weight
    return result


def _meet(a: PermTable, b: PermTable) -> "tuple[PermTable, PermTable] | None":
    """Left-weight the pair (a, b): return (a M, M^-1 b) for M = ∂a ∧ b, or
    None when M is the identity, that is when the pair is already left weighted.

    Here ∂a is the right complement (a ∂a = Δ) and ∧ is the meet in the
    prefix order. A permutation braid is fixed by which pairs of strands it
    keeps in order, and the meet keeps in order exactly the pairs x < y joined
    by a chain x < z1 < ... < y in which every step is kept in order by ∂a or
    by b. Strand x precedes y (x < y) in ∂a iff a^-1 inverts them, and in b
    iff b[x] < b[y]. ``reach[x]`` is a bitmask shifted down by x: bit 0 is x
    itself and bit j is set when x precedes x + j. It is closed over strands
    in descending order by taking in the reach of each direct successor. M's
    strand order is then built by inserting each x just after the strands
    above x that it does not reach. A strand that directly reaches nothing
    above it, or everything, skips the closure: it goes to the back or front.
    """
    n = len(a)
    bit = _BIT
    reach = [0] * n
    # ∂a keeps x = a[s] before every a[s'] with s' < s.
    seen = 0
    for x in a:
        seen |= bit[x]
        reach[x] = seen
    # b keeps x before every strand with a larger image.
    b_inv = [0] * n
    for s, v in enumerate(b):
        b_inv[v] = s
    seen = 0
    for x in reversed(b_inv):
        seen |= bit[x]
        reach[x] = (reach[x] | seen) >> x
    order: list[int] = []
    moved = 0
    low = _LOW
    for x in range(n - 1, -1, -1):
        r = reach[x]
        if r == 1:
            moved |= n - 1 - x
            order.append(x)
            continue
        if r == low[n - x]:
            order.insert(0, x)
            continue
        pending = r ^ 1
        while pending:
            j = (pending & -pending).bit_length() - 1
            rj = reach[x + j] << j
            r |= rj
            pending &= ~rj
            reach[x] = r
        k = n - x - r.bit_count()
        moved |= k
        order.insert(k, x)
    if not moved:
        return None
    m = b_inv
    for k, x in enumerate(order):
        m[x] = k
    # With n >= 2 keys, itemgetter returns the gathered tuple.
    return itemgetter(*a)(m), itemgetter(*order)(b)


def _push(
    n: int, acc: int, pieces: Sequence[tuple[int, PermTable]], factors: list[PermTable]
) -> tuple[int, tuple[PermTable, ...]]:
    """Left-multiply ``twist^acc * factors``, a left canonical form held as
    its half-twist power and factor list, by the product of pieces
    ``twist^shift * factor``, and return the product's power and factors.

    Pieces go on from the last. Each factor crosses the twists in front of
    the list, and is flipped if they are odd in number, then slides forward
    through the list. It stops at the first pair that is already left
    weighted, or vanishes once what it carries is the identity. A half twist
    can form only at the front, where it joins the power.
    """
    id_table = perms.identity(n)
    twist = perms.reversal(n)
    for shift, f in reversed(pieces):
        if acc & 1:
            f = perms.flip(f)
        acc += shift
        if f == twist:
            acc += 1
            continue
        i = 0
        while f != id_table:
            if i == len(factors):
                factors.append(f)
                break
            res = _rebalance_pair(f, factors[i])
            if res is None:
                factors.insert(i, f)
                break
            left, f = res
            if i == 0 and left == twist:
                acc += 1
                del factors[0]
            else:
                factors[i] = left
                i += 1
    return acc, tuple(factors)


def normalize(w: BraidWord) -> CanonicalForm:
    """The unique left canonical form of a word.

    Letters are packed into runs of one sign whose products are permutation
    braids. A letter joins the earliest run of its sign that it reaches by
    commuting past every later run (generator indices 2 or more apart) and
    that still admits it; otherwise it opens a new run. A positive run is one
    factor. A negative run is the inverse of its mirror (its generators in
    reverse order): a negative half twist followed by the mirror's left
    complement, which is the mirror's inverse table read backwards. The runs
    are then pushed onto the identity.
    """
    n = w.n
    # A positive run is held as its inverse table and grows at its end while
    # the two strands it swaps are still in order there; a negative run's
    # mirror is held as its table and grows at its front on the same test.
    # Bit k of a run's mask is set when the run uses generator k, and a letter
    # of generator k passes a run whose bits k-1, k and k+1 are all clear.
    runs: list[list] = []
    for index, sign in w.letters:
        i = index - 1
        home = None
        for run in reversed(runs):
            if run[0] == sign and run[2][i] < run[2][i + 1]:
                home = run
            if run[1] >> i & 7:
                break
        if home is None:
            home = [sign, 0, list(range(n))]
            runs.append(home)
        table = home[2]
        table[i], table[i + 1] = table[i + 1], table[i]
        home[1] |= 1 << index
    pieces = []
    for sign, _, table in runs:
        inv = perms.inverse(table)
        pieces.append((0, inv) if sign > 0 else (-1, inv[::-1]))
    return _form(n, *_push(n, 0, pieces, []))


def multiply(a: CanonicalForm, b: CanonicalForm) -> CanonicalForm:
    """Canonical form of the concatenation ``a`` then ``b``: a's factors are
    pushed onto b's form."""
    if a.n != b.n:
        raise InvalidParameterError(f"strand counts differ: {a.n} vs {b.n}")
    if not b.factors:
        twisted = tuple(perms.flip(f) for f in a.factors) if b.inf & 1 else a.factors
        return _form(a.n, a.inf + b.inf, twisted)
    inf, factors = _push(a.n, b.inf, [(0, f) for f in a.factors], list(b.factors))
    return _form(a.n, a.inf + inf, factors)


def inverse(x: CanonicalForm) -> CanonicalForm:
    """The group inverse.

    Each factor inverts to a negative half twist followed by its complement.
    Moving the twists to the front flips each complement that an odd number
    of them cross. The reversed complements are then already left weighted
    and contain neither identities nor half twists, so no rebalancing is
    needed (El-Rifai and Morton 1994).
    """
    inf = -x.inf
    factors: list[PermTable] = []
    for f in x.factors:
        c = perms.left_complement(f)
        factors.append(perms.flip(c) if inf & 1 else c)
        inf -= 1
    factors.reverse()
    return _form(x.n, inf, tuple(factors))


@functools.lru_cache(maxsize=256)
def power(x: CanonicalForm, e: int) -> CanonicalForm:
    """The e-fold product, e >= 0. Use :func:`inverse` first for negative powers.

    Square and multiply: each set bit of e pushes the square x^(2^k) onto
    the result, and each further bit squares once. So e = 64 takes 7
    products, and exponents 1 to 3 take e.

    Cached: protocol rounds raise the same braid to the same small exponent on
    both sides of the exchange. The cache keeps the 256 most recently used
    (braid, exponent) pairs and their powers, the verifier's ephemeral c, d and
    b among them; that covers the long-term keys in use plus the rounds in
    flight.
    """
    check_int("exponent", e, 0)
    acc = _form(x.n, 0, ())
    while e:
        if e & 1:
            acc = multiply(x, acc)
        e >>= 1
        if e:
            x = multiply(x, x)
    return acc


def equals(a: CanonicalForm, b: CanonicalForm) -> bool:
    """Group equality; canonical forms are unique so this is structural."""
    if a.n != b.n:
        raise InvalidParameterError(f"strand counts differ: {a.n} vs {b.n}")
    return a.inf == b.inf and a.factors == b.factors


def canonical_length(x: CanonicalForm) -> int:
    """The factor count of the canonical form, the standard size measure."""
    return len(x.factors)


def tau(x: CanonicalForm) -> CanonicalForm:
    """The index-flip automorphism, applied factorwise. Involutive, and the
    half twist commutes with any braid up to one application of it."""
    return _form(x.n, x.inf, tuple(perms.flip(f) for f in x.factors))


def to_braidword(x: CanonicalForm) -> BraidWord:
    """Re-expand a canonical form into a word over signed generators."""
    letters: list[GeneratorLetter] = []
    if x.inf >= 0:
        letters.extend(delta_word(x.n).letters * x.inf)
    else:
        flipped = [
            GeneratorLetter(index, -1) for index, _ in reversed(delta_word(x.n).letters)
        ]
        letters.extend(flipped * (-x.inf))
    for f in x.factors:
        letters.extend(permutation_to_braidword(f).letters)
    return BraidWord(x.n, tuple(letters))
