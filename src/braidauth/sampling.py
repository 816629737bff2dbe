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

from .braid import MAX_STRANDS, BraidWord, CanonicalForm, GeneratorLetter
from .errors import InvalidParameterError
from .rng import DeterministicRng


class SubgroupSide(enum.Enum):
    LOWER = "lower"
    UPPER = "upper"


@dataclasses.dataclass(frozen=True)
class SamplerConfig:
    """Parameters of the word sampler.

    ``word_length`` is the freely reduced letter count, ``min_canonical_length``
    the acceptance floor for key material. The seed makes every run replayable.
    """

    n: int
    word_length: int
    min_canonical_length: int = 3
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 2 or self.n > MAX_STRANDS:
            raise InvalidParameterError(f"n must be an int in [2, {MAX_STRANDS}], got {self.n!r}")
        if not isinstance(self.word_length, int) or self.word_length < 0:
            raise InvalidParameterError(f"word_length must be >= 0, got {self.word_length!r}")
        if not isinstance(self.min_canonical_length, int) or self.min_canonical_length < 1:
            raise InvalidParameterError(
                f"min_canonical_length must be >= 1, got {self.min_canonical_length!r}"
            )
        if self.word_length and self.word_length < self.min_canonical_length:
            raise InvalidParameterError(
                f"word_length {self.word_length} < min_canonical_length "
                f"{self.min_canonical_length}"
            )
        if not isinstance(self.seed, int) or not 0 <= self.seed < 2**64:
            raise InvalidParameterError(f"seed must be a 64-bit unsigned int, got {self.seed!r}")

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


def sample_word(
    cfg: SamplerConfig,
    rng: DeterministicRng,
    indices: "range | list[int] | None" = None,
) -> BraidWord:
    """A freely reduced word of the configured length, letters uniform over the
    signed generators of ``indices`` (all generators when omitted).

    Immediate cancellations are excluded by construction. An empty index set
    yields the empty word.
    """
    pool = list(indices) if indices is not None else list(range(1, cfg.n))
    if not pool:
        return BraidWord(cfg.n, ())
    letters: list[GeneratorLetter] = []
    candidates = [GeneratorLetter(i, s) for i in pool for s in (1, -1)]
    prev: GeneratorLetter | None = None
    while len(letters) < cfg.word_length:
        if prev is None:
            allowed = candidates
        else:
            allowed = [c for c in candidates if not (c.index == prev.index and c.sign == -prev.sign)]
        prev = rng.choice(allowed)
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
