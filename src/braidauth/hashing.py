"""Collision-resistant hashing of braids via a bit-exact canonical encoding.

Because the canonical form is unique per group element, hashing its
serialization gives a hash function on the group itself: words related by the
braid relations collide exactly, unrelated braids collide only if SHA-256
does. The encoding is also the wire and on-disk format for braids everywhere
in the package.

Layout (big endian throughout)::

    magic "BCF1" | n:2 bytes | inf:4 bytes signed | l:4 bytes | l factor tables

Each factor table is n entries of 2 bytes.
"""

from __future__ import annotations

import hashlib
import struct

from .braid import MAX_STRANDS, CanonicalForm, _form, validate_canonical_form
from .errors import EncodingError, InvalidParameterError

MAGIC = b"BCF1"
_HEADER = struct.Struct(">4sHiI")

DIGEST_SIZE = 32


def serialize(x: CanonicalForm) -> bytes:
    """Encode a canonical form. Injective: distinct forms give distinct bytes."""
    if not -(2**31) <= x.inf < 2**31:
        raise EncodingError("inf-overflow", f"inf {x.inf} does not fit 4 signed bytes")
    parts = [_HEADER.pack(MAGIC, x.n, x.inf, len(x.factors))]
    entry = struct.Struct(f">{x.n}H")
    for f in x.factors:
        parts.append(entry.pack(*f))
    return b"".join(parts)


def split_encoding(data: bytes) -> tuple[int, int, bytes, bytes]:
    """Cut one encoding off the front of ``data`` from its header alone: its
    strand count, its factor count, its bytes and the rest. No table is
    decoded. Raises :class:`EncodingError` (``truncated``, ``bad-magic``,
    ``bad-strand-count``)."""
    if len(data) < _HEADER.size:
        raise EncodingError("truncated", f"need {_HEADER.size} header bytes, got {len(data)}")
    magic, n, _inf, count = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise EncodingError("bad-magic", f"expected {MAGIC!r}, got {magic!r}")
    if n < 2 or n > MAX_STRANDS:
        raise EncodingError("bad-strand-count", f"strand count {n} outside [2, {MAX_STRANDS}]")
    size = _HEADER.size + count * 2 * n
    if len(data) < size:
        raise EncodingError("truncated", f"need {size} bytes for {count} factors, got {len(data)}")
    return n, count, data[:size], data[size:]


def deserialize(data: bytes) -> CanonicalForm:
    """Decode and fully validate a canonical form, the only path from bytes
    to a form: each table must be a permutation, and the whole form must then
    pass :func:`braid.validate_canonical_form`.

    Raises :class:`EncodingError` with a distinct code for each failure mode;
    see the class docstring for the code list.
    """
    n, _count, _blob, rest = split_encoding(data)
    if rest:
        raise EncodingError("trailing-data", f"{len(rest)} bytes past the last factor")
    _magic, _n, inf, _count = _HEADER.unpack_from(data)
    ident = list(range(n))
    factors = tuple(struct.Struct(f">{n}H").iter_unpack(data[_HEADER.size :]))
    for k, table in enumerate(factors):
        if sorted(table) != ident:
            raise EncodingError("not-bijective", f"factor {k} is not a permutation: {table}")
    try:
        validate_canonical_form(n, inf, factors)
    except InvalidParameterError as exc:
        raise EncodingError("not-canonical", str(exc)) from None
    return _form(n, inf, factors)


def hash_braid(x: CanonicalForm) -> bytes:
    """SHA-256 of the canonical encoding; a 32-byte digest, well defined on
    group elements."""
    return hashlib.sha256(serialize(x)).digest()
