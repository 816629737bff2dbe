"""Deterministic random stream backed by a SHA-256 counter.

Every sampler and experiment in the package draws from this stream, so a
64-bit seed replays byte for byte on any platform and Python version.
Independent substreams are derived by label, which keeps prover, verifier,
and experiment randomness separated without coordinating counters.
"""

from __future__ import annotations

import hashlib
from typing import Sequence, TypeVar

from .errors import InvalidParameterError, check_int

T = TypeVar("T")

_BLOCK = 32


class DeterministicRng:
    """SHA-256 counter-mode byte stream with unbiased integer draws."""

    def __init__(self, seed: int, label: str = ""):
        check_int("seed", seed, 0, 2**64 - 1)
        self._key = hashlib.sha256(
            b"braidauth-rng:" + seed.to_bytes(8, "big") + b":" + label.encode()
        ).digest()
        self._counter = 0
        self._pool = b""

    @classmethod
    def _from_key(cls, key: bytes) -> "DeterministicRng":
        rng = cls.__new__(cls)
        rng._key = key
        rng._counter = 0
        rng._pool = b""
        return rng

    def spawn(self, label: str) -> "DeterministicRng":
        """An independent substream; deterministic in (seed, label path)."""
        return DeterministicRng._from_key(
            hashlib.sha256(self._key + b"/" + label.encode()).digest()
        )

    def randbytes(self, k: int) -> bytes:
        while len(self._pool) < k:
            block = hashlib.sha256(self._key + self._counter.to_bytes(8, "big")).digest()
            self._counter += 1
            self._pool += block
        out, self._pool = self._pool[:k], self._pool[k:]
        return out

    def randbelow(self, bound: int) -> int:
        """Uniform int in [0, bound). Rejection sampling keeps it unbiased."""
        check_int("bound", bound, 1)
        nbytes = (bound.bit_length() + 7) // 8
        cap = (256**nbytes // bound) * bound
        while True:
            v = int.from_bytes(self.randbytes(nbytes), "big")
            if v < cap:
                return v % bound

    def choice(self, seq: Sequence[T]) -> T:
        if not seq:
            raise InvalidParameterError("cannot choose from an empty sequence")
        return seq[self.randbelow(len(seq))]
