"""Random braid words, the commuting lower/upper strand subgroups, and the
hardness policy used to accept key material.

For strand count n the lower subgroup braids only strands below n/2 and the
upper subgroup only strands above it; generator index n/2 belongs to neither,
so every lower element commutes with every upper element. For odd n the gap
index is floor(n/2), which keeps the commutation guarantee; the lower set is
then empty at n = 3, the degenerate size the toy attack experiments use.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import types
from typing import Iterator

from .braid import MAX_STRANDS, BraidWord, CanonicalForm, GeneratorLetter
from .errors import InvalidParameterError, check_int
from .rng import DeterministicRng


class SubgroupSide(enum.Enum):
    LOWER = "lower"
    UPPER = "upper"


@dataclasses.dataclass(frozen=True)
class SamplerConfig:
    """Parameters of the word sampler.

    ``word_length`` is the freely reduced letter count, ``min_canonical_length``
    the acceptance floor for key material. ``seed`` drives no draw: every
    sampler takes an explicit ``DeterministicRng``, and the field is only echoed.
    """

    n: int
    word_length: int
    min_canonical_length: int = 3
    seed: int = 0

    def __post_init__(self):
        check_int("n", self.n, 2, MAX_STRANDS)
        check_int("word_length", self.word_length, 0)
        check_int("min_canonical_length", self.min_canonical_length, 1)
        check_int("seed", self.seed, 0, 2**64 - 1)
        if self.word_length and self.word_length < self.min_canonical_length:
            raise InvalidParameterError(
                f"word_length {self.word_length} < min_canonical_length "
                f"{self.min_canonical_length}"
            )

    def echo(self) -> str:
        return (
            f"n={self.n} L={self.word_length} "
            f"minlen={self.min_canonical_length} seed={self.seed}"
        )


def lower_generator_indices(n: int) -> range:
    """Generator indices of the lower-strand subgroup: 1 .. n//2 - 1."""
    return range(1, n // 2)


def upper_generator_indices(n: int) -> range:
    """Generator indices of the upper-strand subgroup: n//2 + 1 .. n - 1."""
    return range(n // 2 + 1, n)


def generator_indices(side: SubgroupSide, n: int) -> range:
    return lower_generator_indices(n) if side is SubgroupSide.LOWER else upper_generator_indices(n)


def letter_followers(n: int, indices: "range | list[int] | None" = None) -> types.MappingProxyType:
    """The one reduced-word alphabet: for each last letter (None: the empty
    word), the signed generators of ``indices`` (default all) that may follow
    it, index ascending and + before -. This order fixes every sampled word."""
    return _followers(tuple(sorted(indices if indices is not None else range(1, n))))


@functools.lru_cache(maxsize=64)
def _followers(indices: tuple[int, ...]) -> types.MappingProxyType:
    alphabet = tuple(GeneratorLetter(i, s) for i in indices for s in (1, -1))
    table: dict = {None: alphabet}
    for last in alphabet:
        table[last] = tuple(c for c in alphabet if c != (last.index, -last.sign))
    return types.MappingProxyType(table)  # shared by every caller, so read-only


def iter_reduced_words(
    n: int, max_len: int, indices: "range | list[int] | None" = None
) -> Iterator[tuple[GeneratorLetter, ...]]:
    """All freely reduced words of length <= max_len, shortest first, then
    lexicographic in :func:`letter_followers` order."""
    table = letter_followers(n, indices)

    def extend(prefix: tuple[GeneratorLetter, ...], remaining: int):
        if remaining == 0:
            yield prefix
            return
        for letter in table[prefix[-1] if prefix else None]:
            yield from extend(prefix + (letter,), remaining - 1)

    for length in range(max_len + 1):
        yield from extend((), length)


def sample_word(
    cfg: SamplerConfig,
    rng: DeterministicRng,
    indices: "range | list[int] | None" = None,
) -> BraidWord:
    """A freely reduced word of the configured length, letters uniform over the
    signed generators of ``indices`` (all generators when omitted).

    Immediate cancellations are excluded by construction: each letter is
    drawn from the :func:`letter_followers` of the last. An empty index set
    yields the empty word.
    """
    table = letter_followers(cfg.n, indices)
    if not table[None]:
        return BraidWord(cfg.n, ())
    letters: list[GeneratorLetter] = []
    prev: GeneratorLetter | None = None
    while len(letters) < cfg.word_length:
        prev = rng.choice(table[prev])
        letters.append(prev)
    return BraidWord(cfg.n, tuple(letters))


def sample_subgroup_word(
    side: SubgroupSide, cfg: SamplerConfig, rng: DeterministicRng
) -> BraidWord:
    """As :func:`sample_word`, with letters restricted to one strand block."""
    return sample_word(cfg, rng, generator_indices(side, cfg.n))


def is_hard_instance(x: CanonicalForm, cfg: SamplerConfig) -> bool:
    """Whether a braid is complicated enough to serve as key material:
    canonical length at or above the configured floor, which is at least 1,
    so a pure power of the half twist never qualifies."""
    return len(x.factors) >= cfg.min_canonical_length
