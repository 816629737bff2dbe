"""Golden bytes of the scheme contract.

The SHA-256 of every byte string a key or a session puts out, for both
schemes at three strand counts, frozen from fixed seeds. A swapped braid
order in HELLO or a key file, a renamed key-file field, or a changed draw
order of the verifier's ephemerals changes one of these digests even where
determinism and simulator agreement still hold. The parsers are held to the
same bytes by a round trip.
"""

import hashlib
import socket

import pytest

import braidauth.protocol as P
from braidauth import wire
from braidauth.netpair import VerifierServer
from braidauth.rng import DeterministicRng
from braidauth.sampling import SamplerConfig

# (scheme, n) -> SHA-256 of hello, public key file, secret key file, session
# transcript, simulated transcript.
GOLDEN = {
    (1, 4): (
        "6b01d38d2a77035a80180e52386f14dc6fe2c51d554f7f9e99b2847af922d859",
        "6ce018889436f53afa2de0cd5bba70faa930e4e494b106109ee28f1b31890c6c",
        "0404f2fadea697ef74d8250f981bc9ef48d1d27df88fc1c4adefe369fba6168d",
        "2f370cd5daea0266869f549c21f244fe387b6eb9c3bb6e4542483fc82310468a",
        "de6cd83066f29933f71c997f7bae3cd3b1220d27724155f34db7e28459f73fbd",
    ),
    (1, 8): (
        "0db353bc81333b5fed3ad0463ec9c15ee2149a1859ee92683b17f679377b3be1",
        "fb25256c6f103e6a96b53638a7811d33702f5c10077ed4b12407e2ed5277f29a",
        "0064e5373caa6b3f1b72a81236133943b3bf761ef073a5865a31fb31b3825889",
        "c7d41e6664ba2c8c08380938e435f3503504da28b713ec3cc8f2f8d8f5f26f1f",
        "b221760065411db796cb370b4486842a66396d818f3df2270d18e6d72ae76d9c",
    ),
    (1, 16): (
        "f0c0afccfe75f23adc5f02891e006365813e35b62f498db9753b57c995da7290",
        "530951679befe0931b11647721e6d2ff5a1ba4fbd0a6bb64b81517257d3f1f70",
        "20900e15f180d0913eb7302c6903601d8d2d0c8c68f5c4776587d8714b73994f",
        "89244f88f1ac5e75553433d96485c0baac915fe96e76389ebfc9f74394f39ece",
        "b51a614cd821b1ee97d57bf05e5c0013654366f044a71c83fd73a34f963af035",
    ),
    (2, 4): (
        "1d2018981c507a28037fc42753f04d4c2ae3cdab8ae26fdb67bde253e524c611",
        "421c33e4a9430cb96131215aa6722da59a9faafcd31ce8b692c4d223c985b46a",
        "44aa2ec59ef0b8a8c412d8866b8bd7808120b2307c722471f458a78eace70c74",
        "110d3f8bb20c374e040612889b64bb41deca0239608b2715d2469bd686653765",
        "4aa6d4ae310029a5ccff70a2f1567ff0fde6a7892be2e095f2994b0f44ac1530",
    ),
    (2, 8): (
        "d7fdc700b4aabe77e432f8880be8d7dfc797b2bb8bb17b63291bc9888c711c84",
        "98b243ffdb0ab94ce339ae924ee668b027baefc6a5c18607b77066c9b94bf466",
        "2a9e463892713674b191b52befbf44a474ccbeccb801f86ef5339d7b9632cb0f",
        "6ca63672a639130aabc5a7b90337c3245f3c03934c49e435654f52f7469c5580",
        "11825e900a5f74c463c31d6e8a3cf300c0e174d3d6efe453fdf164cf0a69d079",
    ),
    (2, 16): (
        "da2de4cb392a0ff4ff92859de7ebe4129589351fd18fca5d42aea7cf31ed608a",
        "8b46f912114b506e95c686a6fb057e1ac04676b37f1f0bdfa11f290173ffebd8",
        "7d5301a21bff02555f81aa721d85ec23aa49d79e5313f6cbd3180d2834ff92e4",
        "ca82455ecbcc2d22108752d09cf2dd52231638a9b23920a4d9b530a4370a22cc",
        "6ae747d6f9af1289681fee8809698c38982724dbbdf073d0e135bf5d2a85785b",
    ),
}


def _keys(scheme, n):
    cfg = SamplerConfig(n=n, word_length=16, min_canonical_length=3, seed=n)
    rng = DeterministicRng(100 + n, f"golden-keygen-{scheme}")
    # Unequal exponents, so a swap of the two shows in every output.
    keys = P.keygen1(cfg, 2, 3, rng) if scheme == 1 else P.keygen2(cfg, 3, 2, rng)
    return keys, cfg


@pytest.mark.parametrize("scheme,n", sorted(GOLDEN))
def test_scheme_outputs_are_the_golden_bytes(scheme, n):
    keys, cfg = _keys(scheme, n)
    session = P.SessionConfig(3, cfg)
    real = P.run_session(keys, session, DeterministicRng(200 + n, "golden-session"))
    sim = P.simulate_transcript(keys.public, session, DeterministicRng(300 + n, "golden-simulator"))
    outputs = (
        wire.pack_hello(keys.public),
        P.format_public_key(keys.public).encode(),
        P.format_secret_key(keys).encode(),
        P.transcript_text(real).encode(),
        P.transcript_text(sim).encode(),
    )
    assert real.accepted
    assert tuple(hashlib.sha256(b).hexdigest() for b in outputs) == GOLDEN[(scheme, n)]


@pytest.mark.parametrize("scheme,n", sorted(GOLDEN))
def test_parsers_give_back_the_golden_bytes(scheme, n):
    keys, _ = _keys(scheme, n)
    hello = wire.pack_hello(keys.public)
    public_text = P.format_public_key(keys.public)
    secret_text = P.format_secret_key(keys)
    assert wire.pack_hello(wire.unpack_hello(hello)) == hello
    assert wire.unpack_hello(hello) == keys.public
    parsed = P.parse_keypair(public_text, secret_text)
    assert parsed == keys
    assert P.format_public_key(parsed.public) == public_text
    assert P.format_secret_key(parsed) == secret_text


# scheme -> SHA-256 of one honest session served over TCP at n=8: a line per
# round with the challenge Y's bytes, the response Z and the verdict.
GOLDEN_SERVED = {
    1: "21736e56dca4b69aee98cd805ed99675def27b4769ab6867196d436e280749a8",
    2: "93fa375ee9490675ba8f5d241ce39ef682a31181955ca8813d9f8067a4e12bfb",
}


def _served_transcript(keys):
    srv = VerifierServer(rounds=3, word_length=16, seed=41)
    srv.start()
    lines = []
    try:
        with socket.create_connection(srv.address, timeout=10) as conn:
            wire.send_frame(conn, wire.MSG_HELLO, wire.pack_hello(keys.public))
            while (frame := wire.recv_frame(conn)) is not None:
                msg_type, payload = frame
                if msg_type == wire.MSG_CHALLENGE:
                    Y = payload
                    Z = keys.scheme.respond(keys, wire.unpack_challenge(Y)).digest
                    wire.send_frame(conn, wire.MSG_RESPONSE, Z)
                else:
                    assert msg_type == wire.MSG_VERDICT
                    accepted, round_index = wire.unpack_verdict(payload)
                    lines.append(f"{round_index} Y={Y.hex()} Z={Z.hex()} verdict={int(accepted)}")
    finally:
        srv.stop()
    return lines


@pytest.mark.parametrize("scheme", sorted(GOLDEN_SERVED))
def test_served_session_is_the_golden_transcript(scheme):
    # The verifier's challenges come off the wire in the order it draws them,
    # so a reordered draw, or a digest computed from other ephemerals, shows.
    keys, _ = _keys(scheme, 8)
    lines = _served_transcript(keys)
    assert [line[0] for line in lines] == ["0", "1", "2"]
    assert all(line.endswith("verdict=1") for line in lines)
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == GOLDEN_SERVED[scheme]
