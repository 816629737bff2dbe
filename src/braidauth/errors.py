"""Exception types shared across the package."""

from __future__ import annotations


class BraidAuthError(Exception):
    """Base class for every error raised by this package."""


class InvalidParameterError(BraidAuthError, ValueError):
    """An argument violates a documented precondition (wrong n, bad exponent, ...)."""


def check_int(name: str, value, lo: int, hi: "int | None" = None) -> int:
    """Return ``value`` if it is an int in [lo, hi] (hi None: no upper bound);
    the one rule for every integer setting a caller supplies."""
    if not isinstance(value, int) or value < lo or (hi is not None and value > hi):
        bound = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
        raise InvalidParameterError(f"{name} must be an int {bound}, got {value!r}")
    return value


class EncodingError(BraidAuthError, ValueError):
    """Serialization or deserialization failed.

    The ``code`` attribute carries a stable machine-readable reason:
    ``bad-magic``, ``truncated``, ``trailing-data``, ``bad-strand-count``,
    ``not-bijective``, ``not-canonical``, ``inf-overflow``.
    """

    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code


class SamplingFailure(BraidAuthError, RuntimeError):
    """Rejection sampling gave up after too many consecutive misses."""

    def __init__(self, rejected: int, message: str):
        super().__init__(message)
        self.rejected = rejected


class SearchExhausted(BraidAuthError, RuntimeError):
    """A bounded exhaustive search ran out of candidate budget before finishing."""

    def __init__(self, candidates_tested: int, budget: int):
        super().__init__(
            f"search budget exhausted after {candidates_tested} candidates (budget {budget})"
        )
        self.candidates_tested = candidates_tested
        self.budget = budget


class FrameError(BraidAuthError, ValueError):
    """A wire frame violated the framing rules. ``code`` is the 1-byte error code."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code
