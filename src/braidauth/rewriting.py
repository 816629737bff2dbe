"""Word equality by breadth-first closure under the defining relations.

This is the independent referee for the canonical-form machinery: it never
normalizes anything. Two words are judged equal when they are connected inside
the graph whose nodes are all freely reduced words up to a length cap. An
edge joins a word to the free reduction of one rewrite of it, or of it with
one canceling letter pair inserted (under the cap); a rewrite is

- a far-commutation swap (adjacent letters with index distance > 1, any signs),
- a braid-relation rewrite on a 3-letter window (all six sign patterns that
  are consequences of the positive relation).

An insertion alone reduces back to the word itself, so it counts only with
the rewrite that follows it. Every edge is a sound group identity;
completeness depends on the cap being generous enough for the word lengths
being compared, which the callers keep tiny (this is an exhaustive toy-scale
tool, exponential in the cap).
"""

from __future__ import annotations

from .braid import BraidWord, GeneratorLetter
from .errors import InvalidParameterError, check_int
from .sampling import iter_reduced_words, letter_followers

Letters = tuple[GeneratorLetter, ...]

# Sign patterns (sx, sy, sz) of x y x with |index(x) - index(y)| = 1 that equal
# the mirrored word y x y with output signs (tx, ty, tz).
_BRAID_PATTERNS: dict[tuple[int, int, int], tuple[int, int, int]] = {
    (1, 1, 1): (1, 1, 1),
    (-1, -1, -1): (-1, -1, -1),
    (1, 1, -1): (-1, 1, 1),
    (-1, 1, 1): (1, 1, -1),
    (1, -1, -1): (-1, -1, 1),
    (-1, -1, 1): (1, -1, -1),
}


def free_reduce(letters: Letters) -> Letters:
    """Delete adjacent canceling pairs until none remain."""
    out: list[GeneratorLetter] = []
    for letter in letters:
        if out and out[-1].index == letter.index and out[-1].sign == -letter.sign:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def rewrite_neighbors(letters: Letters) -> "list[Letters]":
    result = []
    for i in range(len(letters) - 1):
        x, y = letters[i], letters[i + 1]
        if abs(x.index - y.index) > 1:
            result.append(letters[:i] + (y, x) + letters[i + 2 :])
    for i in range(len(letters) - 2):
        x, y, z = letters[i], letters[i + 1], letters[i + 2]
        if x.index == z.index and abs(x.index - y.index) == 1:
            out = _BRAID_PATTERNS.get((x.sign, y.sign, z.sign))
            if out is not None:
                swapped = (
                    GeneratorLetter(y.index, out[0]),
                    GeneratorLetter(x.index, out[1]),
                    GeneratorLetter(y.index, out[2]),
                )
                result.append(letters[:i] + swapped + letters[i + 3 :])
    return result


def insertion_neighbors(letters: Letters, n: int, cap: int) -> "list[Letters]":
    if len(letters) + 2 > cap:
        return []
    return [
        letters[:p] + (letter, GeneratorLetter(letter.index, -letter.sign)) + letters[p:]
        for p in range(len(letters) + 1)
        for letter in letter_followers(n)[None]
    ]


class RewritingClosure:
    """Connected components of the bounded rewriting graph, built eagerly."""

    def __init__(self, n: int, max_word_length: int):
        self.n = n
        self.cap = check_int("max_word_length", max_word_length, 0)
        words = list(iter_reduced_words(n, max_word_length))
        self._ids = {w: i for i, w in enumerate(words)}
        self._parent = list(range(len(words)))
        for w in words:
            wid = self._ids[w]
            for v in (w, *insertion_neighbors(w, self.n, self.cap)):
                for nb in rewrite_neighbors(v):
                    self._union(wid, self._ids[free_reduce(nb)])

    def _find(self, i: int) -> int:
        parent = self._parent
        root = i
        while parent[root] != root:
            root = parent[root]
        while parent[i] != root:
            parent[i], i = root, parent[i]
        return root

    def _union(self, i: int, j: int) -> None:
        ri, rj = self._find(i), self._find(j)
        if ri != rj:
            self._parent[rj] = ri

    def _id_of(self, w: BraidWord) -> int:
        if w.n != self.n:
            raise InvalidParameterError(f"word has {w.n} strands, closure built for {self.n}")
        reduced = free_reduce(w.letters)
        if len(reduced) > self.cap:
            raise InvalidParameterError(
                f"reduced word length {len(reduced)} exceeds closure cap {self.cap}"
            )
        return self._ids[reduced]

    def equal(self, u: BraidWord, v: BraidWord) -> bool:
        """Whether the closure connects the two words."""
        return self._find(self._id_of(u)) == self._find(self._id_of(v))
