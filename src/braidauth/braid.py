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

# One engine left-weights everything: _weld joins two left-weighted factor
# sequences by rebalancing adjacent pairs. multiply welds its operands, and
# normalize welds a word's pieces on one at a time; inverse needs no
# rebalancing. A pair (A, B) is rebalanced in one step, to (A M, M^-1 B) with
# M the meet of the right complement of A and B: the largest permutation braid
# that A can absorb from the front of B (El-Rifai and Morton 1994; Epstein et
# al., Word Processing in Groups, ch. 9). The meet is computed on strand orders,
# never one generator at a time. Every form the engine returns is left weighted
# by this construction, so it is built with _form and not validated again; the
# tests and selftest run validate_canonical_form on those outputs as a referee.
#
# Pair rebalancing is the innermost operation of every product and identical
# factor pairs recur constantly, so results are memoized, one row per left
# factor: _PAIR_MEMO[a][b]. None means the pair was already left weighted.
# The memo is cleared once the weights of its pairs reach _PAIR_MEMO_BUDGET,
# an n-strand pair weighing n * max(n, 8). So it keeps 2^17 pairs at n=8,
# 2^15 at n=16 and 2^11 at n=64, and below n=8 the 2^20 // n pairs of a
# budget of 2^20 table entries. Mixed widths share the one budget, so the
# memo never holds more than 2^20 table entries in all. Wide pairs cost more
# to keep and their hits are short range (median reuse distance about 30
# pair calls at n=64/L=64). Replayed pair traces (clear-all memo) miss:
#   pairs  n=8 verifier  n=16 L=128  n=32 L=64  n=64 L=64
#   2^11        -          67.1%       83.9%      84.2%
#   2^13        -          64.3%       83.2%      83.5%
#   2^15      25.4%        63.0%       82.2%        -
#   2^17      10.9%        62.3%       80.5%      80.6%
# At n=64, 2^14 pairs took about 10 MB more peak RSS than 2^11.
# The kernel's output tables are interned in _TABLE_POOL, so the memo and the
# factor lists built from it share one tuple per distinct table, and later
# lookups with those tables match keys by identity. The pool is emptied with
# the memo. Threads share both without a lock: a racing insert may be
# lost and the weight may be off by a few pairs, which costs at most a
# recomputation or a clear a few pairs early or late.
_PAIR_MEMO: dict[PermTable, dict[PermTable, "tuple[PermTable, PermTable] | None"]] = {}
_TABLE_POOL: dict[PermTable, PermTable] = {}
_pair_memo_weight = 0
_PAIR_MEMO_BUDGET = 1 << 23
_MISS = object()


def _rebalance_pair(a: PermTable, b: PermTable) -> "tuple[PermTable, PermTable] | None":
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
    above x that it does not reach.
    """
    global _pair_memo_weight
    row = _PAIR_MEMO.get(a)
    if row is not None:
        cached = row.get(b, _MISS)
        if cached is not _MISS:
            return cached  # type: ignore[return-value]
    n = len(a)
    weight = n * max(n, 8)
    if _pair_memo_weight >= _PAIR_MEMO_BUDGET:
        # Reset the weight first: an insert another thread makes in between
        # lands in the memo about to be cleared, not in the fresh one uncounted.
        _pair_memo_weight = 0
        _PAIR_MEMO.clear()
        _TABLE_POOL.clear()
        row = None
    reach = [0] * n
    # ∂a keeps x = a[s] before every a[s'] with s' < s.
    seen = 0
    for x in a:
        seen |= 1 << x
        reach[x] = seen
    # b keeps x before every strand with a larger image.
    b_inv = [0] * n
    for s, v in enumerate(b):
        b_inv[v] = s
    seen = 0
    for x in reversed(b_inv):
        seen |= 1 << x
        reach[x] = (reach[x] | seen) >> x
    order: list[int] = []
    moved = 0
    for x in range(n - 1, -1, -1):
        r = reach[x]
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
    if moved:
        m = b_inv
        for k, x in enumerate(order):
            m[x] = k
        # With n >= 2 keys, itemgetter returns the gathered tuple.
        am = itemgetter(*a)(m)
        mb = itemgetter(*order)(b)
        pool = _TABLE_POOL
        result = (pool.setdefault(am, am), pool.setdefault(mb, mb))
    else:
        result = None
    if row is None:
        row = _PAIR_MEMO.setdefault(a, {})
    row[b] = result
    _pair_memo_weight += weight
    return result


def _strip(n: int, factors: list[PermTable]) -> tuple[int, tuple[PermTable, ...]]:
    """Drop leading half twists and trailing identities from a pairwise
    left-weighted sequence (the only places they can sit)."""
    id_table = perms.identity(n)
    twist_table = perms.reversal(n)
    lo, hi = 0, len(factors)
    while lo < hi and factors[lo] == twist_table:
        lo += 1
    while lo < hi and factors[hi - 1] == id_table:
        hi -= 1
    return lo, tuple(factors[lo:hi])


def _weld(n: int, factors: list[PermTable], junction: int) -> tuple[int, tuple[PermTable, ...]]:
    """Left-weight the concatenation of two sequences that are each already
    left weighted, joined at ``junction``.

    One forward sweep from the junction, combing backward after each change,
    restores the invariant: a pair that needs no move leaves everything to its
    right untouched.
    """
    for i in range(max(junction - 1, 0), len(factors) - 1):
        res = _rebalance_pair(factors[i], factors[i + 1])
        if res is None:
            break
        factors[i], factors[i + 1] = res
        for k in range(i - 1, -1, -1):
            res = _rebalance_pair(factors[k], factors[k + 1])
            if res is None:
                break
            factors[k], factors[k + 1] = res
    return _strip(n, factors)


def _twists_to_front(
    acc: int, pieces: Sequence[tuple[int, PermTable]]
) -> tuple[int, list[PermTable]]:
    """Rewrite the product of pieces ``twist^shift * factor``, followed by
    ``twist^acc``, as one half-twist power and a factor list.

    A factor crossed by an odd number of twists on their way to the front is
    flipped.
    """
    factors: list[PermTable] = []
    for shift, f in reversed(pieces):
        factors.append(perms.flip(f) if acc & 1 else f)
        acc += shift
    factors.reverse()
    return acc, factors


def _run_piece(sign: int, run: list[int]) -> tuple[int, PermTable]:
    """The piece ``twist^shift * factor`` of a same-sign run held as in
    :func:`normalize`. The left complement of a table is its inverse read
    backwards."""
    inv = perms.inverse(run)
    return (0, inv) if sign > 0 else (-1, inv[::-1])


def normalize(w: BraidWord) -> CanonicalForm:
    """The unique left canonical form of a word.

    Each maximal run of same-sign letters whose product is a permutation braid
    becomes one piece. A positive run is its permutation factor. A negative
    run is the inverse of its mirror (the run's generators in reverse order),
    so it becomes a negative half twist followed by the mirror's left
    complement. Half twists migrate to the front through the index-flip
    automorphism, then the factors are welded one at a time onto a
    left-weighted prefix.
    """
    n = w.n
    pieces = []
    # A positive run is held as its inverse table and grows at its end while
    # the two strands it swaps are still in order there; a negative run's
    # mirror is held as its table and grows at its front on the same test.
    run: list[int] = []
    run_sign = 0
    for index, sign in w.letters:
        i = index - 1
        if sign != run_sign or run[i] > run[i + 1]:
            if run_sign:
                pieces.append(_run_piece(run_sign, run))
            run, run_sign = list(range(n)), sign
        run[i], run[i + 1] = run[i + 1], run[i]
    if run_sign:
        pieces.append(_run_piece(run_sign, run))
    inf, factors = _twists_to_front(0, pieces)
    prefix: list[PermTable] = []
    for f in factors:
        prefix.append(f)
        absorbed, weighted = _weld(n, prefix, len(prefix) - 1)
        inf += absorbed
        prefix = list(weighted)
    return _form(n, inf, tuple(prefix))


def multiply(a: CanonicalForm, b: CanonicalForm) -> CanonicalForm:
    """Canonical form of the concatenation ``a`` then ``b``."""
    if a.n != b.n:
        raise InvalidParameterError(f"strand counts differ: {a.n} vs {b.n}")
    inf = a.inf + b.inf
    odd = b.inf & 1
    if not a.factors:
        return _form(a.n, inf, b.factors)
    if not b.factors:
        twisted = tuple(perms.flip(f) for f in a.factors) if odd else a.factors
        return _form(a.n, inf, twisted)
    factors = [perms.flip(f) for f in a.factors] if odd else list(a.factors)
    junction = len(factors)
    factors.extend(b.factors)
    absorbed, weighted = _weld(a.n, factors, junction)
    return _form(a.n, inf + absorbed, weighted)


def inverse(x: CanonicalForm) -> CanonicalForm:
    """The group inverse.

    Each factor inverts to a negative half twist followed by its complement.
    Once the twists are at the front, the reversed complements are already
    left weighted and contain neither identities nor half twists, so no
    rebalancing is needed (El-Rifai and Morton 1994).
    """
    pieces = [(-1, perms.left_complement(f)) for f in reversed(x.factors)]
    inf, factors = _twists_to_front(-x.inf, pieces)
    return _form(x.n, inf, tuple(factors))


@functools.lru_cache(maxsize=256)
def power(x: CanonicalForm, e: int) -> CanonicalForm:
    """The e-fold product, e >= 0. Use :func:`inverse` first for negative powers.

    Cached: protocol rounds raise the same braid to the same small exponent on
    both sides of the exchange. The cache keeps the 256 most recently used
    (braid, exponent) pairs and their powers, the verifier's ephemeral c, d and
    b among them; that covers the long-term keys in use plus the rounds in
    flight.
    """
    check_int("exponent", e, 0)
    acc = _form(x.n, 0, ())
    for _ in range(e):
        acc = multiply(acc, x)
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
