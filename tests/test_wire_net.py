import random
import socket
import threading
import time

import pytest

import braidauth.protocol as P
import braidauth.wire as W
from braidauth.errors import FrameError
from braidauth.hashing import serialize
from braidauth.braid import CanonicalForm
from braidauth.netpair import (
    MAX_EXPONENT,
    MAX_KEY_FACTORS,
    MAX_SERVED_STRANDS,
    ProverError,
    VerifierServer,
    run_prover,
)
from braidauth.rng import DeterministicRng
from braidauth.sampling import SamplerConfig


def make_keys(scheme=1, n=8, seed=21):
    cfg = SamplerConfig(n=n, word_length=16, min_canonical_length=2, seed=seed)
    if scheme == 1:
        return P.keygen1(cfg, 2, 3, DeterministicRng(seed, "kg"))
    return P.keygen2(cfg, 2, 3, DeterministicRng(seed, "kg"))


@pytest.fixture
def server():
    srv = VerifierServer(rounds=3, word_length=16, seed=77)
    srv.start()
    yield srv
    srv.stop()


# ---------------------------------------------------------------------------
# Frame codec
# ---------------------------------------------------------------------------

def test_frame_round_trip_over_socketpair():
    left, right = socket.socketpair()
    try:
        W.send_frame(left, W.MSG_RESPONSE, bytes(32))
        msg_type, payload = W.recv_frame(right)
        assert msg_type == W.MSG_RESPONSE
        assert payload == bytes(32)
        W.send_frame(left, W.MSG_VERDICT, W.pack_verdict(True, 7))
        msg_type, payload = W.recv_frame(right)
        assert W.unpack_verdict(payload) == (True, 7)
        left.close()
        assert W.recv_frame(right) is None
    finally:
        right.close()


def test_frame_rejects_bad_length_and_type():
    left, right = socket.socketpair()
    try:
        left.sendall((0).to_bytes(4, "big"))
        with pytest.raises(FrameError) as exc:
            W.recv_frame(right)
        assert exc.value.code == W.ERR_BAD_LENGTH
    finally:
        left.close()
        right.close()

    left, right = socket.socketpair()
    try:
        left.sendall((1).to_bytes(4, "big") + b"\x09")
        with pytest.raises(FrameError) as exc:
            W.recv_frame(right)
        assert exc.value.code == W.ERR_UNKNOWN_TYPE
    finally:
        left.close()
        right.close()


def test_hello_round_trip_both_schemes():
    pub1 = make_keys(1).public
    assert W.unpack_hello(W.pack_hello(pub1)) == pub1
    pub2 = make_keys(2).public
    assert W.unpack_hello(W.pack_hello(pub2)) == pub2


def test_hello_rejects_garbage():
    with pytest.raises(FrameError):
        W.unpack_hello(b"\x01\x00")
    pub = make_keys(1).public
    blob = W.pack_hello(pub)
    with pytest.raises(FrameError):
        W.unpack_hello(blob + b"\x00")
    with pytest.raises(FrameError):
        W.unpack_hello(b"\x07" + blob[1:])


# ---------------------------------------------------------------------------
# End-to-end sessions
# ---------------------------------------------------------------------------

def test_honest_prover_accepted(server):
    host, port = server.address
    for scheme in (1, 2):
        verdicts = run_prover(host, port, make_keys(scheme))
        assert len(verdicts) == 3
        assert all(v.accepted for v in verdicts)
        assert [v.round_index for v in verdicts] == [0, 1, 2]


def test_wrong_secret_rejected(server):
    host, port = server.address
    right = make_keys(1, seed=31)
    wrong = make_keys(1, seed=32)
    mixed = P.SchemeIKeyPair(right.public, wrong.a, wrong.b)
    verdicts = run_prover(host, port, mixed)
    assert len(verdicts) == 3
    assert not any(v.accepted for v in verdicts)


def test_scheme_gate():
    srv = VerifierServer(rounds=1, word_length=16, seed=5, expect_scheme=2)
    srv.start()
    try:
        host, port = srv.address
        with pytest.raises(ProverError):
            run_prover(host, port, make_keys(1))
        verdicts = run_prover(host, port, make_keys(2))
        assert all(v.accepted for v in verdicts)
    finally:
        srv.stop()


def test_short_response_payload_gets_bad_length_error(server):
    host, port = server.address
    pub = make_keys(1).public
    with socket.create_connection((host, port), timeout=10) as conn:
        W.send_frame(conn, W.MSG_HELLO, W.pack_hello(pub))
        frame = W.recv_frame(conn)
        assert frame is not None and frame[0] == W.MSG_CHALLENGE
        W.send_frame(conn, W.MSG_RESPONSE, bytes(31))
        frame = W.recv_frame(conn)
        assert frame is not None
        msg_type, payload = frame
        assert msg_type == W.MSG_ERROR
        assert payload == bytes([W.ERR_BAD_LENGTH])


def test_unknown_message_type_gets_error(server):
    host, port = server.address
    with socket.create_connection((host, port), timeout=10) as conn:
        conn.sendall((1).to_bytes(4, "big") + b"\x09")
        frame = W.recv_frame(conn)
        assert frame is not None
        msg_type, payload = frame
        assert msg_type == W.MSG_ERROR
        assert payload == bytes([W.ERR_UNKNOWN_TYPE])


def test_non_hello_first_frame_is_protocol_error(server):
    host, port = server.address
    with socket.create_connection((host, port), timeout=10) as conn:
        W.send_frame(conn, W.MSG_RESPONSE, bytes(32))
        frame = W.recv_frame(conn)
        assert frame is not None
        assert frame[0] == W.MSG_ERROR
        assert frame[1] == bytes([W.ERR_PROTOCOL])


def _first_reply_to_hello(server, pub):
    host, port = server.address
    with socket.create_connection((host, port), timeout=10) as conn:
        t = time.perf_counter()
        W.send_frame(conn, W.MSG_HELLO, W.pack_hello(pub))
        frame = W.recv_frame(conn)
        return frame, time.perf_counter() - t


def test_oversized_exponents_are_refused_before_any_power(server):
    pub1 = make_keys(1).public
    pub2 = make_keys(2).public
    for pub in (
        P.SchemeIPublic(pub1.n, 2**32 - 1, pub1.s_exp, pub1.X),
        P.SchemeIPublic(pub1.n, pub1.r, MAX_EXPONENT + 1, pub1.X),
        P.SchemeIIPublic(pub2.n, pub2.e, 2**32 - 1, pub2.base, pub2.X),
    ):
        frame, elapsed = _first_reply_to_hello(server, pub)
        assert frame == (W.MSG_ERROR, bytes([W.ERR_PROTOCOL]))
        assert elapsed < 1.0
    frame, _ = _first_reply_to_hello(
        server, P.SchemeIPublic(pub1.n, MAX_EXPONENT, pub1.s_exp, pub1.X)
    )
    assert frame is not None and frame[0] == W.MSG_CHALLENGE


def test_over_wide_strand_count_is_refused_before_any_sampling(server):
    n = MAX_SERVED_STRANDS + 1
    X = CanonicalForm(n, 1, ((1, 0) + tuple(range(2, n)),))
    frame, elapsed = _first_reply_to_hello(server, P.SchemeIPublic(n, 2, 2, X))
    assert frame == (W.MSG_ERROR, bytes([W.ERR_PROTOCOL]))
    assert elapsed < 1.0


def test_oversized_keys_are_refused_before_any_sampling(server):
    sigma1 = (1, 0) + tuple(range(2, 8))
    big = CanonicalForm(8, 0, (sigma1,) * (MAX_KEY_FACTORS + 1))
    pub1 = make_keys(1).public
    pub2 = make_keys(2).public
    for pub in (
        P.SchemeIPublic(8, pub1.r, pub1.s_exp, big),
        P.SchemeIIPublic(8, pub2.e, pub2.f, big, pub2.X),
        P.SchemeIIPublic(8, pub2.e, pub2.f, pub2.base, big),
    ):
        frame, elapsed = _first_reply_to_hello(server, pub)
        assert frame == (W.MSG_ERROR, bytes([W.ERR_PROTOCOL]))
        assert elapsed < 1.0
    at_limit = CanonicalForm(8, 0, (sigma1,) * MAX_KEY_FACTORS)
    frame, _ = _first_reply_to_hello(server, P.SchemeIPublic(8, pub1.r, pub1.s_exp, at_limit))
    assert frame is not None and frame[0] == W.MSG_CHALLENGE


def test_session_sockets_send_without_nagle(server, monkeypatch):
    sent = []
    send_frame = W.send_frame

    def recording_send_frame(conn, msg_type, payload):
        sent.append((msg_type, conn.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)))
        send_frame(conn, msg_type, payload)

    monkeypatch.setattr(W, "send_frame", recording_send_frame)
    host, port = server.address
    assert all(v.accepted for v in run_prover(host, port, make_keys(1)))
    # The prover writes HELLO and RESPONSE, the verifier CHALLENGE and VERDICT.
    assert {t for t, _ in sent} == {W.MSG_HELLO, W.MSG_RESPONSE, W.MSG_CHALLENGE, W.MSG_VERDICT}
    assert all(nodelay for _, nodelay in sent)


def test_wire_round_trip_of_recorded_session(server):
    # record the frames of an honest exchange by replaying the prover manually
    host, port = server.address
    keys = make_keys(1)
    challenges = []
    responses = []
    with socket.create_connection((host, port), timeout=10) as conn:
        W.send_frame(conn, W.MSG_HELLO, W.pack_hello(keys.public))
        while True:
            frame = W.recv_frame(conn)
            if frame is None:
                break
            msg_type, payload = frame
            if msg_type == W.MSG_CHALLENGE:
                Y = W.unpack_challenge(payload)
                challenges.append(Y)
                assert serialize(Y) == payload  # byte-exact round trip
                resp = P.respond1(keys, Y)
                responses.append(resp.digest)
                W.send_frame(conn, W.MSG_RESPONSE, resp.digest)
            elif msg_type == W.MSG_VERDICT:
                accepted, _ = W.unpack_verdict(payload)
                assert accepted
                if len(responses) == 3:
                    pass
    assert len(challenges) == 3
    assert len(set(serialize(c) for c in challenges)) == 3


def send_fuzz_frame(host, port, rng):
    """One malformed frame: random bytes, bad type, truncation, or absurd
    length. Fire and close; the server must shrug it off."""
    try:
        with socket.create_connection((host, port), timeout=5) as conn:
            kind = rng.randrange(4)
            if kind == 0:
                conn.sendall(rng.randbytes(rng.randrange(1, 40)))
            elif kind == 1:
                payload = rng.randbytes(rng.randrange(0, 64))
                W.send_frame(conn, rng.randrange(0, 8), payload)
            elif kind == 2:
                conn.sendall((1 << 30).to_bytes(4, "big") + b"\x01")
            else:
                blob = (40).to_bytes(4, "big") + b"\x01" + rng.randbytes(10)
                conn.sendall(blob)  # promised 40 bytes, sent 11
    except OSError:
        pass


def test_fuzzed_frames_never_crash_server():
    srv = VerifierServer(rounds=1, word_length=8, seed=13)
    srv.start()
    host, port = srv.address
    rng = random.Random(99)
    try:
        for k in range(300):
            send_fuzz_frame(host, port, rng)
        # server must still complete an honest session
        verdicts = run_prover(host, port, make_keys(1))
        assert all(v.accepted for v in verdicts)
    finally:
        srv.stop()


def test_back_to_back_connects_do_not_stall(server):
    host, port = server.address
    conns = []
    try:
        for _ in range(64):
            t = time.perf_counter()
            conns.append(socket.create_connection((host, port), timeout=5))
            assert time.perf_counter() - t < 0.5
    finally:
        for conn in conns:
            conn.close()


def test_concurrent_sessions_are_independent(server):
    host, port = server.address
    keys = [make_keys(1, seed=40 + i) for i in range(4)]
    results = {}

    def session(i):
        results[i] = run_prover(host, port, keys[i])

    threads = [threading.Thread(target=session, args=(i,)) for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert set(results) == {0, 1, 2, 3}
    for verdicts in results.values():
        assert all(v.accepted for v in verdicts)


def test_max_sessions_stops_listener():
    srv = VerifierServer(rounds=1, word_length=8, seed=1, max_sessions=1)
    thread = srv.start()
    host, port = srv.address
    verdicts = run_prover(host, port, make_keys(1))
    assert all(v.accepted for v in verdicts)
    thread.join(timeout=10)
    assert not thread.is_alive()
    srv.stop()


def test_finished_session_threads_are_pruned():
    srv = VerifierServer(rounds=1, word_length=8, seed=3)
    srv.start()
    host, port = srv.address
    keys = make_keys(1)
    try:
        for _ in range(50):
            assert all(v.accepted for v in run_prover(host, port, keys))
        for t in list(srv._threads):
            t.join(timeout=10)
        # The next accept prunes every finished thread; this idle connection
        # keeps its own session thread alive until it closes.
        with socket.create_connection((host, port), timeout=10):
            deadline = time.monotonic() + 10
            while not (srv._threads and all(t.is_alive() for t in srv._threads)):
                assert time.monotonic() < deadline, f"{len(srv._threads)} threads kept"
                time.sleep(0.01)
            assert len(srv._threads) == 1
    finally:
        srv.stop()
