import inspect
import typing

import pytest

import braidauth.braid as B
import braidauth.protocol as P
import braidauth.wire as W
from braidauth.errors import InvalidParameterError, SamplingFailure
from braidauth.hashing import hash_braid
from braidauth.rng import DeterministicRng
from braidauth.sampling import SamplerConfig


def fixture_keys1(n=4, r=2, s_exp=2):
    """Forced tiny scheme 1 fixture: a = s1, b = s{n-1}."""
    a = B.generator(n, 1)
    b = B.generator(n, n - 1)
    X = B.multiply(B.power(a, r), B.power(b, s_exp))
    return P.SchemeIKeyPair(P.SchemeIPublic(n, r, s_exp, X), a, b)


def fixture_keys2(n=4, e=2, f=2):
    """Forced tiny scheme 2 fixture: a = s1, base = s2."""
    a = B.generator(n, 1)
    base = B.generator(n, 2)
    X = B.multiply(B.multiply(B.power(a, e), base), B.power(a, f))
    return P.SchemeIIKeyPair(P.SchemeIIPublic(n, e, f, base, X), a)


def cfg_for(n, length=8, minlen=3, seed=0):
    return SamplerConfig(n=n, word_length=length, min_canonical_length=minlen, seed=seed)


# ---------------------------------------------------------------------------
# Key generation
# ---------------------------------------------------------------------------

def test_keygen1_fixture_value():
    keys = fixture_keys1()
    assert B.equals(keys.public.X, B.normalize(B.word(4, "s1 s1 s3 s3")))
    assert B.equals(
        B.multiply(B.power(keys.a, 2), B.power(keys.b, 2)), keys.public.X
    )


def test_keygen2_fixture_value():
    keys = fixture_keys2()
    assert B.equals(keys.public.X, B.normalize(B.word(4, "s1 s1 s2 s1 s1")))
    assert B.equals(
        B.multiply(B.multiply(B.power(keys.a, 2), keys.public.base), B.power(keys.a, 2)),
        keys.public.X,
    )


def test_keygen_rejects_small_exponents():
    cfg = cfg_for(4)
    with pytest.raises(InvalidParameterError):
        P.keygen1(cfg, 1, 2, DeterministicRng(0))
    with pytest.raises(InvalidParameterError):
        P.keygen1(cfg, 2, 1, DeterministicRng(0))
    with pytest.raises(InvalidParameterError):
        P.keygen2(cfg, 1, 2, DeterministicRng(0))


def test_keygen_secrets_live_in_their_blocks():
    for n in (4, 8):
        cfg = cfg_for(n, length=12, minlen=2)
        keys = P.keygen1(cfg, 2, 3, DeterministicRng(5, "kg"))
        # a braids only lower strands, b only upper: conjugating the public
        # commutation identity is cheapest checked directly
        assert B.multiply(keys.a, keys.b) == B.multiply(keys.b, keys.a)
        assert B.equals(
            B.multiply(B.power(keys.a, 2), B.power(keys.b, 3)), keys.public.X
        )


def test_keygen_sampling_failure():
    # at n=2 every braid is a power of the half twist, so the scheme 2 base
    # can never pass the hardness floor
    cfg = SamplerConfig(n=2, word_length=4, min_canonical_length=1, seed=0)
    with pytest.raises(SamplingFailure) as exc:
        P.keygen2(cfg, 2, 2, DeterministicRng(1))
    assert exc.value.rejected == 100


def test_keygen_degenerate_odd_toy_size():
    cfg = SamplerConfig(n=3, word_length=2, min_canonical_length=2, seed=3)
    keys = P.keygen1(cfg, 2, 2, DeterministicRng(3, "kg"))
    assert keys.a == B.identity(3)
    assert keys.b != B.identity(3)
    t = P.run_session(keys, P.SessionConfig(2, cfg), DeterministicRng(4))
    assert t.accepted


# ---------------------------------------------------------------------------
# Challenge, respond, verify
# ---------------------------------------------------------------------------

def test_challenge1_fixture_value():
    keys = fixture_keys1()
    # verifier picks c = s3 (upper), d = s1 (lower): Y = s3^2 s1^2
    c = B.generator(4, 3)
    d = B.generator(4, 1)
    Y = B.multiply(B.power(c, 2), B.power(d, 2))
    assert B.equals(Y, B.normalize(B.word(4, "s3 s3 s1 s1")))
    resp = P.respond1(keys, Y)
    assert P.verify1(keys.public, c, d, resp)


def test_challenge1_sides_and_freshness():
    keys = P.keygen1(cfg_for(8, length=32, minlen=2), 2, 2, DeterministicRng(1, "kg"))
    cfg = cfg_for(8, length=32, minlen=2)
    rng = DeterministicRng(2)
    seen = set()
    for _ in range(50):
        ch = P.challenge1(keys.public, cfg, rng)
        assert B.equals(
            ch.Y, B.multiply(B.power(ch.c, 2), B.power(ch.d, 2))
        )
        blob = (ch.Y.n, ch.Y.inf, ch.Y.factors)
        assert blob not in seen
        seen.add(blob)


def test_challenge2_fixture_value():
    keys = fixture_keys2()
    b = B.generator(4, 3)
    Y = B.multiply(B.multiply(B.power(b, 2), keys.public.base), B.power(b, 2))
    assert B.equals(Y, B.normalize(B.word(4, "s3 s3 s2 s3 s3")))
    resp = P.respond2(keys, Y)
    assert P.verify2(keys.public, b, resp)


def test_respond1_degenerate_identity_challenge():
    keys = fixture_keys1()
    resp = P.respond1(keys, B.identity(4))
    assert resp.digest == hash_braid(keys.public.X)


def test_respond2_degenerate_base_challenge():
    keys = fixture_keys2()
    resp = P.respond2(keys, keys.public.base)
    assert resp.digest == hash_braid(keys.public.X)


def test_respond_is_deterministic():
    keys = fixture_keys1()
    Y = B.normalize(B.word(4, "s3 s1 s3"))
    assert P.respond1(keys, Y) == P.respond1(keys, Y)


def test_respond_rejects_wrong_strand_count():
    keys = fixture_keys1()
    with pytest.raises(InvalidParameterError):
        P.respond1(keys, B.identity(6))
    keys2 = fixture_keys2()
    with pytest.raises(InvalidParameterError):
        P.respond2(keys2, B.identity(6))


def test_braid_level_verification_identity():
    # the pre-hash braids agree, which is strictly stronger than digest equality
    for n in (4, 8):
        cfg = cfg_for(n, length=12, minlen=2)
        keys = P.keygen1(cfg, 2, 3, DeterministicRng(7, "kg"))
        rng = DeterministicRng(8)
        for _ in range(20):
            ch = P.challenge1(keys.public, cfg, rng)
            pub = keys.public
            lhs = B.multiply(
                B.multiply(B.power(keys.a, pub.r), ch.Y), B.power(keys.b, pub.s_exp)
            )
            rhs = B.multiply(
                B.multiply(B.power(ch.c, pub.r), pub.X), B.power(ch.d, pub.s_exp)
            )
            assert B.equals(lhs, rhs)

        keys2 = P.keygen2(cfg, 2, 3, DeterministicRng(9, "kg"))
        for _ in range(20):
            ch2 = P.challenge2(keys2.public, cfg, rng)
            pub2 = keys2.public
            lhs = B.multiply(
                B.multiply(B.power(keys2.a, pub2.e), ch2.Y), B.power(keys2.a, pub2.f)
            )
            rhs = B.multiply(
                B.multiply(B.power(ch2.b, pub2.e), pub2.X), B.power(ch2.b, pub2.f)
            )
            assert B.equals(lhs, rhs)


def test_verify_rejects_wrong_digests():
    keys = fixture_keys1()
    cfg = cfg_for(4)
    ch = P.challenge1(keys.public, cfg, DeterministicRng(11))
    good = P.respond1(keys, ch.Y)
    assert P.verify1(keys.public, ch.c, ch.d, good)
    bad = bytes(31) + b"\x01"
    assert not P.verify1(keys.public, ch.c, ch.d, P.Response(bad))
    with pytest.raises(InvalidParameterError):
        P.Response(b"\x00" * 31)


def test_verify_rejects_cross_key_response():
    cfg = cfg_for(8, length=16, minlen=2)
    keys = P.keygen1(cfg, 2, 2, DeterministicRng(21, "kg"))
    other = P.keygen1(cfg, 2, 2, DeterministicRng(22, "kg"))
    rng = DeterministicRng(23)
    rejected = 0
    for _ in range(20):
        ch = P.challenge1(keys.public, cfg, rng)
        forged = P.respond1(other, ch.Y)
        rejected += not P.verify1(keys.public, ch.c, ch.d, forged)
    assert rejected == 20


def test_verify_rejects_tampered_challenge_response():
    cfg = cfg_for(8, length=16, minlen=2)
    keys = P.keygen2(cfg, 2, 2, DeterministicRng(31, "kg"))
    rng = DeterministicRng(32)
    for _ in range(10):
        ch = P.challenge2(keys.public, cfg, rng)
        tampered = B.multiply(ch.Y, B.generator(8, 1))
        resp = P.respond2(keys, tampered)
        assert not P.verify2(keys.public, ch.b, resp)


# ---------------------------------------------------------------------------
# Sessions and the simulator
# ---------------------------------------------------------------------------

def test_run_session_honest_accepts():
    for scheme in (1, 2):
        for n in (4, 8):
            cfg = cfg_for(n, length=12, minlen=2)
            if scheme == 1:
                keys = P.keygen1(cfg, 2, 3, DeterministicRng(41 + n, "kg"))
            else:
                keys = P.keygen2(cfg, 3, 2, DeterministicRng(42 + n, "kg"))
            t = P.run_session(keys, P.SessionConfig(3, cfg), DeterministicRng(43))
            assert t.accepted
            assert len(t.rounds) == 3
            assert all(r.accepted for r in t.rounds)


def test_session_round_count_validation():
    cfg = cfg_for(4)
    with pytest.raises(InvalidParameterError):
        P.SessionConfig(0, cfg)


def test_simulator_matches_real_transcripts_byte_for_byte():
    for scheme in (1, 2):
        cfg = cfg_for(8, length=16, minlen=2)
        if scheme == 1:
            keys = P.keygen1(cfg, 2, 2, DeterministicRng(51, "kg"))
        else:
            keys = P.keygen2(cfg, 2, 3, DeterministicRng(52, "kg"))
        session = P.SessionConfig(3, cfg)
        for k in range(20):
            real = P.run_session(keys, session, DeterministicRng(60 + k, "coins"))
            sim = P.simulate_transcript(keys.public, session, DeterministicRng(60 + k, "coins"))
            assert real == sim
            assert P.transcript_text(real) == P.transcript_text(sim)
            assert real.accepted and sim.accepted


def test_simulator_uses_only_public_inputs():
    hints = typing.get_type_hints(P.simulate_transcript)
    assert P.SchemeIKeyPair not in hints.values()
    assert P.SchemeIIKeyPair not in hints.values()
    params = list(inspect.signature(P.simulate_transcript).parameters)
    assert params == ["pub", "cfg", "rng"]


def test_verify_signatures_never_see_prover_secrets():
    for fn, names in ((P.verify1, ["pub", "c", "d", "response"]),
                      (P.verify2, ["pub", "b", "response"])):
        hints = typing.get_type_hints(fn)
        assert P.SchemeIKeyPair not in hints.values()
        assert P.SchemeIIKeyPair not in hints.values()
        assert list(inspect.signature(fn).parameters) == names


def test_transcript_text_format():
    keys = fixture_keys1()
    cfg = cfg_for(4)
    t = P.run_session(keys, P.SessionConfig(2, cfg), DeterministicRng(71))
    lines = P.transcript_text(t).splitlines()
    assert len(lines) == 2
    for line in lines:
        assert line.startswith("Y=")
        assert " Z=" in line and " verdict=" in line
        assert line.endswith("verdict=1")


# ---------------------------------------------------------------------------
# Key files
# ---------------------------------------------------------------------------

def test_key_file_round_trip_scheme1():
    keys = P.keygen1(cfg_for(8, length=16, minlen=2), 2, 3, DeterministicRng(81, "kg"))
    pub_text = P.format_public_key(keys.public)
    sec_text = P.format_secret_key(keys)
    assert pub_text.splitlines()[0] == "scheme = 1"
    assert "r = 2" in pub_text and "s = 3" in pub_text
    parsed = P.parse_keypair(pub_text, sec_text)
    assert parsed == keys
    assert P.parse_public_key(pub_text) == keys.public


def test_key_file_round_trip_scheme2():
    keys = P.keygen2(cfg_for(8, length=16, minlen=2), 2, 3, DeterministicRng(82, "kg"))
    pub_text = P.format_public_key(keys.public)
    sec_text = P.format_secret_key(keys)
    assert "e = 2" in pub_text and "f = 3" in pub_text and "base = " in pub_text
    parsed = P.parse_keypair(pub_text, sec_text)
    assert parsed == keys


def test_key_file_mismatch_detected():
    k1 = P.keygen1(cfg_for(8, length=16, minlen=2), 2, 3, DeterministicRng(83, "kg"))
    k2 = P.keygen2(cfg_for(8, length=16, minlen=2), 2, 3, DeterministicRng(84, "kg"))
    with pytest.raises(InvalidParameterError):
        P.parse_keypair(P.format_public_key(k1.public), P.format_secret_key(k2))
    with pytest.raises(InvalidParameterError):
        P.parse_public_key("scheme = 9\nn = 4\nX = 00\n")
    with pytest.raises(InvalidParameterError, match="r must be"):
        P.parse_public_key(P.format_public_key(k1.public).replace("r = 2", "r = 1"))


def test_key_exponents_must_fit_the_hello_field():
    # HELLO carries each exponent in 4 unsigned bytes.
    keys = P.keygen2(cfg_for(8, length=16, minlen=2), 2, 3, DeterministicRng(85, "kg"))
    text = P.format_public_key(keys.public)
    top = P.parse_public_key(text.replace("\ne = 2\n", f"\ne = {2**32 - 1}\n"))
    assert W.unpack_hello(W.pack_hello(top)) == top
    with pytest.raises(InvalidParameterError, match=r"e must be an int in \[2, 4294967295\]"):
        P.parse_public_key(text.replace("\ne = 2\n", f"\ne = {2**32}\n"))
    cfg = cfg_for(8, length=16, minlen=2)
    with pytest.raises(InvalidParameterError, match="s must be"):
        P.keygen1(cfg, 2, 2**32, DeterministicRng(85, "kg"))
    with pytest.raises(InvalidParameterError, match="f must be"):
        P.keygen2(cfg, 2, 2**32, DeterministicRng(85, "kg"))
