import hashlib
import struct

import pytest

import braidauth.braid as B
import braidauth.permutations as perms
import perm_ref
from braidauth.errors import EncodingError, InvalidParameterError
from braidauth.hashing import deserialize, hash_braid, serialize, split_encoding
from conftest import random_braid_word

# Digests of five fixed inputs, frozen at first computation; a change here is
# a wire-format break.
GOLDEN_DIGESTS = {
    "identity3": "aab89d64c8a47494b59948b78b8268ee02345b8905eee69c3122ce0023a22948",
    "delta3": "a56484b1aba447aa2bee2e441fb2888d419e5a18f4ef95d0159f4caa5895cc88",
    "s1s1_b3": "e96ab50d0afa4bdae8731442fffe6198035f05bdfd85a4afa8d779f6459b9fc8",
    "S1_b3": "16a2e8a1de540e2cf69fceed7059b92f899f84544d3c09dc7a66351c156da7bd",
    "s1s2s3_b4": "53b89cf108f064e786c622b8e15e81776961cae4379b6416b56238c395f81621",
}


def golden_inputs():
    return {
        "identity3": B.identity(3),
        "delta3": B.delta(3),
        "s1s1_b3": B.normalize(B.word(3, "s1 s1")),
        "S1_b3": B.normalize(B.word(3, "S1")),
        "s1s2s3_b4": B.normalize(B.word(4, "s1 s2 s3")),
    }


def test_serialize_identity_exact_bytes():
    assert serialize(B.identity(3)).hex() == "4243463100030000000000000000"


def test_serialize_delta_inf_field():
    blob = serialize(B.delta(3))
    assert blob.hex() == "4243463100030000000100000000"
    assert blob[6:10] == (1).to_bytes(4, "big")


def test_serialize_negative_inf_twos_complement():
    blob = serialize(B.CanonicalForm(3, -1, ((2, 0, 1),)))
    assert blob[6:10] == (-1).to_bytes(4, "big", signed=True)


def test_serialize_inf_overflow():
    x = B.CanonicalForm(3, 2**31, ())
    with pytest.raises(EncodingError) as exc:
        serialize(x)
    assert exc.value.code == "inf-overflow"


def test_round_trip_random(rng):
    for _ in range(300):
        n = rng.choice((2, 3, 4, 6, 8))
        x = B.normalize(random_braid_word(rng, n, rng.randrange(0, 12)))
        assert deserialize(serialize(x)) == x


def test_deserialize_rejections():
    good = serialize(B.normalize(B.word(3, "s1 s1")))
    bad_n = bytearray(good)
    bad_n[4:6] = (1).to_bytes(2, "big")

    # The header's refusals, from deserialize and from the header reader.
    for reader in (deserialize, split_encoding):
        for data, code in (
            (b"XXXX" + good[4:], "bad-magic"),
            (good[:10], "truncated"),  # inside the header
            (good[:-1], "truncated"),  # inside the last table
            (bytes(bad_n), "bad-strand-count"),
        ):
            with pytest.raises(EncodingError) as exc:
                reader(data)
            assert exc.value.code == code

    with pytest.raises(EncodingError) as exc:
        deserialize(good + b"\x00")
    assert exc.value.code == "trailing-data"

    # The header reader cuts concatenated encodings apart.
    other = serialize(B.normalize(B.word(4, "s1 s2 s3 S1")))
    assert split_encoding(good + other) == (3, 2, good, other)
    assert split_encoding(other) == (4, 2, other, b"")

    # factor table [0, 0, 2] is not a bijection
    not_bij = bytearray(serialize(B.normalize(B.word(3, "s1"))))
    not_bij[14:20] = b"\x00\x00\x00\x00\x00\x02"
    with pytest.raises(EncodingError) as exc:
        deserialize(bytes(not_bij))
    assert exc.value.code == "not-bijective"

    # identity factor table
    ident_factor = bytearray(serialize(B.normalize(B.word(3, "s1"))))
    ident_factor[14:20] = b"\x00\x00\x00\x01\x00\x02"
    with pytest.raises(EncodingError) as exc:
        deserialize(bytes(ident_factor))
    assert exc.value.code == "not-canonical"

    # factors violating left weighting: (s2 perm, s1 perm)
    two = serialize(B.normalize(B.word(3, "s1 s1")))
    broken = bytearray(two)
    broken[14:20] = b"\x00\x00\x00\x02\x00\x01"  # [0, 2, 1]
    broken[20:26] = b"\x00\x01\x00\x00\x00\x02"  # [1, 0, 2]
    with pytest.raises(EncodingError) as exc:
        deserialize(bytes(broken))
    assert exc.value.code == "not-canonical"


def test_hash_well_defined_on_relation_rewrites():
    assert hash_braid(B.normalize(B.word(3, "s1 s2 s1"))) == hash_braid(
        B.normalize(B.word(3, "s2 s1 s2"))
    )


def test_hash_distinguishes_generators():
    assert hash_braid(B.normalize(B.word(3, "s1"))) != hash_braid(B.normalize(B.word(3, "s2")))


def test_hash_identity_matches_independent_sha256():
    expected = hashlib.sha256(bytes.fromhex("4243463100030000000000000000")).digest()
    assert hash_braid(B.identity(3)) == expected


def test_golden_digests_stable():
    inputs = golden_inputs()
    assert set(inputs) == set(GOLDEN_DIGESTS)
    for name, x in inputs.items():
        assert hash_braid(x).hex() == GOLDEN_DIGESTS[name], name


def test_serialize_injective_smoke(rng):
    seen = {}
    for _ in range(2000):
        n = rng.choice((3, 4, 5))
        x = B.normalize(random_braid_word(rng, n, rng.randrange(0, 10)))
        blob = serialize(x)
        if blob in seen:
            assert seen[blob] == x
        seen[blob] = x
    distinct_forms = len({v for v in ((x.n, x.inf, x.factors) for x in seen.values())})
    assert distinct_forms == len(seen)


def reference_decode(data):
    """A plain decoder kept as the referee for ``deserialize``: it checks the
    header, then each table on its own, then each adjacent pair. Returns
    (failure code or None, (n, inf, tables) or None)."""
    if len(data) < 14:
        return "truncated", None
    magic, n, inf, count = struct.unpack_from(">4sHiI", data)
    if magic != b"BCF1":
        return "bad-magic", None
    if not 2 <= n <= B.MAX_STRANDS:
        return "bad-strand-count", None
    if len(data) - 14 != count * 2 * n:
        return ("truncated" if len(data) - 14 < count * 2 * n else "trailing-data"), None
    tables = tuple(struct.unpack_from(f">{n}H", data, 14 + 2 * n * k) for k in range(count))
    decoded = (n, inf, tables)
    for t in tables:
        if not perms.is_permutation(t):
            return "not-bijective", decoded
        if perm_ref.is_identity(t) or perm_ref.is_reversal(t):
            return "not-canonical", decoded
    for a, b in zip(tables, tables[1:]):
        if perm_ref.descent_mask(b) & ~perm_ref.inverse_descent_mask(a):
            return "not-canonical", decoded
    return None, decoded


def mutations(rng, blob, n):
    """Corruptions of a valid encoding: one table entry, one byte, two
    adjacent factors swapped, an identity or half-twist table inserted."""
    count = (len(blob) - 14) // (2 * n)
    size = 2 * n
    if count:
        k, j = rng.randrange(count), rng.randrange(n)
        at = 14 + k * size + 2 * j
        value = rng.choice((rng.randrange(n), rng.randrange(n, 1 << 16)))
        yield blob[:at] + value.to_bytes(2, "big") + blob[at + 2 :]
    at = rng.randrange(len(blob))
    yield blob[:at] + bytes([blob[at] ^ rng.randrange(1, 256)]) + blob[at + 1 :]
    if count >= 2:
        k = rng.randrange(count - 1)
        at = 14 + k * size
        first, second = blob[at : at + size], blob[at + size : at + 2 * size]
        yield blob[:at] + second + first + blob[at + 2 * size :]
    table = rng.choice((perms.identity(n), perms.reversal(n)))
    at = 14 + rng.randrange(count + 1) * size
    grown = blob[:10] + (count + 1).to_bytes(4, "big") + blob[14:]
    yield grown[:at] + struct.pack(f">{n}H", *table) + grown[at:]


def test_deserialize_agrees_with_the_validator_on_corrupted_encodings(rng):
    codes = set()
    for n in (2, 3, 8, 16):
        for _ in range(60):
            x = B.normalize(random_braid_word(rng, n, rng.randrange(0, 4 * n)))
            for data in mutations(rng, serialize(x), n):
                code, decoded = reference_decode(data)
                if decoded is not None:
                    try:
                        B.validate_canonical_form(*decoded)
                    except InvalidParameterError:
                        assert code is not None
                        with pytest.raises(InvalidParameterError):
                            B.CanonicalForm(*decoded)
                    else:
                        assert code is None
                if code is None:
                    assert deserialize(data) == B.CanonicalForm(*decoded)
                else:
                    with pytest.raises(EncodingError) as exc:
                        deserialize(data)
                    assert exc.value.code == code
                codes.add(code)
    assert {None, "not-bijective", "not-canonical", "truncated"} <= codes
