"""Burau matrices: an equality reference that shares no code or theory with
the canonical-form engine.

On 3 strands the reduced representation has entries that are Laurent
polynomials in one variable over the integers, stored as {exponent:
coefficient} dicts. It is faithful there, so matrix equality decides word
equality exactly.

At any strand count the unreduced representation is evaluated at one point t
modulo the prime P61 = 2^61 - 1; matrices are lists of columns. It is not
faithful for n >= 5, so equal images are only necessary for equal braids, but
a product the engine gets wrong gives a different image except for a chance
of about (letters / P61) over the choice of t.
"""

from __future__ import annotations

from operator import mul

Poly = dict[int, int]
Matrix = tuple[tuple[Poly, Poly], tuple[Poly, Poly]]


def poly(*terms: tuple[int, int]) -> Poly:
    out: Poly = {}
    for exp, coef in terms:
        out[exp] = out.get(exp, 0) + coef
        if out[exp] == 0:
            del out[exp]
    return out


def padd(a: Poly, b: Poly) -> Poly:
    out = dict(a)
    for exp, coef in b.items():
        out[exp] = out.get(exp, 0) + coef
        if out[exp] == 0:
            del out[exp]
    return out


def pmul(a: Poly, b: Poly) -> Poly:
    out: Poly = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            exp = e1 + e2
            out[exp] = out.get(exp, 0) + c1 * c2
            if out[exp] == 0:
                del out[exp]
    return out


def mmul(a: Matrix, b: Matrix) -> Matrix:
    return tuple(
        tuple(
            padd(pmul(a[i][0], b[0][j]), pmul(a[i][1], b[1][j]))
            for j in range(2)
        )
        for i in range(2)
    )  # type: ignore[return-value]


_ZERO: Poly = {}
_ONE = poly((0, 1))

GEN_MATRICES = {
    (1, 1): ((poly((1, -1)), _ONE), (_ZERO, _ONE)),
    (2, 1): ((_ONE, _ZERO), (poly((1, 1)), poly((1, -1)))),
    (1, -1): ((poly((-1, -1)), poly((-1, 1))), (_ZERO, _ONE)),
    (2, -1): ((_ONE, _ZERO), (_ONE, poly((-1, -1)))),
}

IDENTITY: Matrix = ((_ONE, _ZERO), (_ZERO, _ONE))


def burau_matrix(letters) -> Matrix:
    """Matrix of a 3-strand word (letters are (index, sign) pairs)."""
    m = IDENTITY
    for index, sign in letters:
        m = mmul(m, GEN_MATRICES[(index, sign)])
    return m


def burau_equal(u, v) -> bool:
    """Exact equality of two 3-strand words."""
    assert u.n == 3 and v.n == 3
    return burau_matrix(u.letters) == burau_matrix(v.letters)


P61 = 2**61 - 1
Columns = list[list[int]]


def burau_mod_p(n: int, letters, t: int) -> Columns:
    """The unreduced Burau matrix of an n-strand word at t mod P61. Right
    multiplication by sigma_i mixes only columns i and i+1 (1-based):
    sigma_i acts there as [[1-t, t], [1, 0]], its inverse as
    [[0, 1], [1/t, 1 - 1/t]]."""
    cols = [[int(i == j) for i in range(n)] for j in range(n)]
    u = pow(t, P61 - 2, P61)
    for index, sign in letters:
        a, b = cols[index - 1], cols[index]
        if sign > 0:
            cols[index - 1] = [((1 - t) * x + y) % P61 for x, y in zip(a, b)]
            cols[index] = [t * x % P61 for x in a]
        else:
            cols[index - 1] = [u * y % P61 for y in b]
            cols[index] = [(x + (1 - u) * y) % P61 for x, y in zip(a, b)]
    return cols


def mat_mul(a: Columns, b: Columns) -> Columns:
    rows = list(zip(*a))
    return [[sum(map(mul, row, col)) % P61 for row in rows] for col in b]


def half_twist_letters(n: int) -> list[tuple[int, int]]:
    """A positive word of the half twist: (s1 ... s_{n-1})(s1 ... s_{n-2}) ... (s1)."""
    return [(i, 1) for top in range(n - 1, 0, -1) for i in range(1, top + 1)]
