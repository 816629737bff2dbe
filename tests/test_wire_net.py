import errno
import random
import socket
import struct
import threading
import time

import pytest

import braidauth.braid as B
import braidauth.netpair as N
import braidauth.protocol as P
import braidauth.wire as W
from braidauth.errors import FrameError, InvalidParameterError
from braidauth.hashing import DIGEST_SIZE, deserialize, serialize
from braidauth.braid import BraidWord, CanonicalForm, GeneratorLetter
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
from conftest import faulty_verifier_frames, one_frame_verifier


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
    # An empty braid of 16 strands in an 8-strand HELLO: only the strand
    # counts disagree.
    with pytest.raises(FrameError) as exc:
        W.unpack_hello(blob[:11] + serialize(CanonicalForm(16, 0, ())))
    assert exc.value.code == W.ERR_MALFORMED
    # An exponent under the key exponents' floor.
    with pytest.raises(FrameError) as exc:
        W.unpack_hello(blob[:3] + (1).to_bytes(4, "big") + blob[7:])
    assert exc.value.code == W.ERR_MALFORMED
    assert "r must be an int >= 2, got 1" in str(exc.value)


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


def test_over_limit_hello_is_refused_before_any_table_is_decoded(server, monkeypatch):
    # 1,025 n=64 tables alternating sigma1 and sigma2: not left weighted, and
    # one factor over the key limit. The limit is read from the braid header.
    n = 64
    sigma = [(1, 0) + tuple(range(2, n)), (0, 2, 1) + tuple(range(3, n))]
    tables = [sigma[k % 2] for k in range(MAX_KEY_FACTORS + 1)]
    X = struct.pack(">4sHiI", b"BCF1", n, 0, len(tables)) + b"".join(
        struct.pack(f">{n}H", *t) for t in tables
    )
    decoded = []

    def counting_deserialize(data):
        decoded.append(len(data))
        return deserialize(data)

    monkeypatch.setattr(W, "deserialize", counting_deserialize)
    host, port = server.address
    # Over the key limit; then a braid with bad magic, refused from its header.
    for braid, code in ((X, W.ERR_PROTOCOL), (b"XXXX" + X[4:], W.ERR_MALFORMED)):
        with socket.create_connection((host, port), timeout=10) as conn:
            W.send_frame(conn, W.MSG_HELLO, struct.pack(">BHII", 1, n, 2, 2) + braid)
            assert W.recv_frame(conn) == (W.MSG_ERROR, bytes([code]))
    assert decoded == []
    assert all(v.accepted for v in run_prover(host, port, make_keys(1)))


def test_session_sockets_send_without_nagle(server):
    host, port = server.address
    keys = make_keys(1)
    with socket.create_connection((host, port), timeout=10) as conn:
        W.send_frame(conn, W.MSG_HELLO, W.pack_hello(keys.public))
        assert W.recv_frame(conn)[0] == W.MSG_CHALLENGE
        # The session now waits for RESPONSE 1, so its socket stays open.
        accepted = [sess.conn for sess in list(server._sessions)]
        assert len(accepted) == 1
        assert all(c.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY) for c in accepted)


def test_each_session_step_is_one_write(server, monkeypatch):
    # The verifier writes with socket.send, the prover with sendall.
    writes = []
    send = socket.socket.send

    def recording_send(sock, data, *flags):
        writes.append(bytes(data))
        return send(sock, data, *flags)

    monkeypatch.setattr(socket.socket, "send", recording_send)
    host, port = server.address
    assert all(v.accepted for v in run_prover(host, port, make_keys(1)))

    def frames(data):
        out = []
        while data:
            (length,) = struct.unpack_from(">I", data)
            out.append((data[4], data[5 : 4 + length]))
            data = data[4 + length :]
        return out

    steps = [frames(w) for w in writes]
    assert [[t for t, _ in step] for step in steps] == [
        [W.MSG_CHALLENGE],
        [W.MSG_VERDICT, W.MSG_CHALLENGE],
        [W.MSG_VERDICT, W.MSG_CHALLENGE],
        [W.MSG_VERDICT],
    ]
    assert [W.unpack_verdict(step[0][1]) for step in steps[1:]] == [(True, 0), (True, 1), (True, 2)]


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


def _wait_for(predicate, what, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, f"timed out waiting for {what}"
        time.sleep(0.01)


def test_reset_session_is_logged_and_server_keeps_serving():
    lines = []
    srv = VerifierServer(rounds=3, word_length=16, seed=5, log=lines.append)
    srv.start()
    host, port = srv.address
    keys = make_keys(1)
    try:
        with socket.create_connection((host, port), timeout=10) as conn:
            W.send_frame(conn, W.MSG_HELLO, W.pack_hello(keys.public))
            assert W.recv_frame(conn)[0] == W.MSG_CHALLENGE
            # Linger on with a zero timeout: the close sends a reset, not a FIN.
            conn.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        _wait_for(lambda: any(x.startswith("session ended: ConnectionResetError") for x in lines),
                  "the reset to be logged")
        # A session error is not a refusal, which the benchmark counts apart.
        assert not any(x.startswith("refusing connection") for x in lines)
        assert all(v.accepted for v in run_prover(host, port, keys))
    finally:
        srv.stop()


def test_trickled_frame_times_out_and_server_keeps_serving(monkeypatch):
    monkeypatch.setattr(N, "READ_TIMEOUT_S", 0.5)
    lines = []
    srv = VerifierServer(rounds=3, word_length=16, seed=5, log=lines.append)
    srv.start()
    host, port = srv.address
    keys = make_keys(1)
    hello = W.pack_hello(keys.public)
    frame = struct.pack(">I", len(hello) + 1) + bytes([W.MSG_HELLO]) + hello

    def timed_out():
        return any(x.startswith("session ended: TimeoutError") for x in lines)

    try:
        start = time.monotonic()
        with socket.create_connection((host, port), timeout=10) as conn:
            # One byte per 0.1 s: every recv is answered well inside its timeout.
            for byte in frame:
                if timed_out() or time.monotonic() - start > 2.0:
                    break
                try:
                    conn.sendall(bytes([byte]))
                except OSError:
                    break
                time.sleep(0.1)
            _wait_for(timed_out, "the trickled HELLO to time out", timeout=2.0)
        assert time.monotonic() - start < 2.0
        assert all(v.accepted for v in run_prover(host, port, keys))
    finally:
        srv.stop()


def test_a_frame_that_arrives_during_another_sessions_step_is_read(monkeypatch):
    monkeypatch.setattr(N, "READ_TIMEOUT_S", 0.5)
    slow_keys, keys = make_keys(1, seed=31), make_keys(1, seed=32)
    step_started = threading.Event()
    original = P._expected_digest1

    def slow(pub, *args):
        if pub == slow_keys.public:
            step_started.set()
            time.sleep(1.0)  # past the other session's HELLO deadline
        return original(pub, *args)

    # The Scheme value calls it by its module-global name.
    monkeypatch.setattr(P, "_expected_digest1", slow)
    srv = VerifierServer(rounds=1, word_length=16, seed=9)
    srv.start()
    try:
        with socket.create_connection(srv.address, timeout=10) as hog, \
                socket.create_connection(srv.address, timeout=10) as conn:
            _wait_for(lambda: len(srv._sessions) == 2, "both connections to be accepted")
            accepted = time.monotonic()
            W.send_frame(hog, W.MSG_HELLO, W.pack_hello(slow_keys.public))
            assert step_started.wait(5)
            W.send_frame(conn, W.MSG_HELLO, W.pack_hello(keys.public))
            assert time.monotonic() - accepted < 0.4, "HELLO not sent inside its deadline"
            assert W.recv_frame(conn)[0] == W.MSG_CHALLENGE
            assert W.recv_frame(hog)[0] == W.MSG_CHALLENGE
    finally:
        srv.stop()


@pytest.mark.parametrize("rounds,challenges", [(3, 2), (1, 1)])
def test_silent_peer_costs_one_digest_and_at_most_one_more_challenge(
    monkeypatch, rounds, challenges
):
    keys = make_keys(1, seed=29)
    calls = {"challenge": 0, "expected": 0}

    def counting(name, original):
        def wrapper(pub, *args):
            result = original(pub, *args)
            if pub == keys.public:
                calls[name] += 1
            return result
        return wrapper

    # The Scheme value calls these by their module-global names.
    monkeypatch.setattr(P, "challenge1", counting("challenge", P.challenge1))
    monkeypatch.setattr(P, "_expected_digest1", counting("expected", P._expected_digest1))
    srv = VerifierServer(rounds=rounds, word_length=16, seed=9)
    srv.start()
    try:
        with socket.create_connection(srv.address, timeout=10) as conn:
            W.send_frame(conn, W.MSG_HELLO, W.pack_hello(keys.public))
            assert W.recv_frame(conn)[0] == W.MSG_CHALLENGE
            want = {"challenge": challenges, "expected": 1}
            _wait_for(lambda: calls == want, f"{want}, have {calls}")
            time.sleep(0.3)
            assert calls == want
    finally:
        srv.stop()


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


def test_bad_sampler_settings_fail_when_the_verifier_is_built():
    # A length-0 challenge is the identity, which a prover holding only the
    # public key answers with hash(X); 7 is just under the floor of 8.
    for kwargs in ({"word_length": -1}, {"word_length": 0}, {"word_length": 7},
                   {"word_length": 8.5}, {"rounds": 2.5}, {"max_sessions": -1},
                   {"port": 70000}, {"expect_scheme": 3}, {"expect_scheme": "1"},
                   {"rounds": 65536}):
        with pytest.raises(InvalidParameterError):
            VerifierServer(**{"rounds": 1, **kwargs})


def test_prover_refuses_a_port_out_of_range():
    # socket.create_connection would dial port 70000 - 65536 instead.
    with pytest.raises(InvalidParameterError):
        run_prover("127.0.0.1", 70000, make_keys(1))


def test_a_verifier_breaking_the_protocol_raises_prover_error():
    keys = make_keys(1, n=8)
    for msg_type, payload in faulty_verifier_frames():
        with pytest.raises(ProverError):
            run_prover(*one_frame_verifier(msg_type, payload), keys, timeout=10)


def test_unseeded_verifiers_send_different_challenges():
    pub = make_keys(1).public
    challenges = []
    for _ in range(2):
        srv = VerifierServer(word_length=16)
        srv.start()
        try:
            (msg_type, payload), _ = _first_reply_to_hello(srv, pub)
        finally:
            srv.stop()
        assert msg_type == W.MSG_CHALLENGE
        challenges.append(payload)
    assert challenges[0] != challenges[1]


def test_max_sessions_stops_listener():
    srv = VerifierServer(rounds=1, word_length=8, seed=1, max_sessions=1)
    thread = srv.start()
    host, port = srv.address
    verdicts = run_prover(host, port, make_keys(1))
    assert all(v.accepted for v in verdicts)
    thread.join(timeout=10)
    assert not thread.is_alive()
    srv.stop()


def test_finished_sessions_leave_no_per_connection_state():
    srv = VerifierServer(rounds=1, word_length=8, seed=3)
    srv.start()
    host, port = srv.address
    keys = make_keys(1)
    threads = threading.active_count()
    try:
        for _ in range(50):
            assert all(v.accepted for v in run_prover(host, port, keys))
        # The loop closes a session before the prover can see the close.
        assert threading.active_count() == threads
        assert not srv._sessions
        assert len(srv._selector.get_map()) == 2  # the listener and the wake socket
    finally:
        srv.stop()


def test_stop_ends_the_serving_thread():
    srv = VerifierServer(rounds=1, word_length=8, seed=3)
    thread = srv.start()
    with socket.create_connection(srv.address, timeout=10):
        _wait_for(lambda: len(srv._sessions) == 1, "the idle connection to be accepted")
        srv.stop()
        thread.join(timeout=2.0)
        assert not thread.is_alive()


def test_stop_before_serving_returns_at_once_and_stop_after_is_harmless():
    srv = VerifierServer(rounds=1, word_length=8, seed=3)
    srv.stop()
    thread = srv.start()
    thread.join(timeout=2.0)
    assert not thread.is_alive()
    srv.stop()


def test_a_failing_accept_pauses_the_listener_without_ending_it(monkeypatch):
    # accept() fails with EMFILE for five pauses' time from its first call, as
    # it would while the process is out of descriptors.
    real_accept = socket.socket.accept
    calls = []

    def accept(sock):
        calls.append(time.monotonic())
        if calls[-1] < calls[0] + 5 * N.ACCEPT_PAUSE_S:
            raise OSError(errno.EMFILE, "Too many open files")
        return real_accept(sock)

    monkeypatch.setattr(socket.socket, "accept", accept)
    lines = []
    srv = VerifierServer(rounds=1, word_length=8, seed=3, log=lines.append)
    thread = srv.start()
    try:
        assert all(v.accepted for v in run_prover(*srv.address, make_keys(1)))
        assert thread.is_alive()
        failed = [t for t in calls if t < calls[0] + 5 * N.ACCEPT_PAUSE_S]
        assert 2 <= len(failed) <= 6
        assert any(line.startswith("accept failed:") for line in lines)
    finally:
        srv.stop()
    thread.join(timeout=2.0)
    assert not thread.is_alive()


def test_connections_over_the_open_session_cap_are_refused(monkeypatch):
    monkeypatch.setattr(N, "MAX_OPEN_SESSIONS", 4)
    lines = []
    srv = VerifierServer(rounds=1, word_length=8, seed=3, log=lines.append)
    srv.start()
    host, port = srv.address
    idle = []
    try:
        idle = [socket.create_connection((host, port), timeout=10) for _ in range(4)]
        _wait_for(lambda: len(srv._sessions) == 4, "four open sessions")
        with socket.create_connection((host, port), timeout=10) as fifth:
            assert W.recv_frame(fifth) == (W.MSG_ERROR, bytes([W.ERR_BUSY]))
            assert W.recv_frame(fifth) is None
        assert lines == ["refusing connection: 4 sessions already open"]
        for conn in idle:
            conn.close()
        _wait_for(lambda: not srv._sessions, "the idle sessions to close")
        assert all(v.accepted for v in run_prover(host, port, make_keys(1)))
    finally:
        for conn in idle:
            conn.close()
        srv.stop()


def test_a_burst_of_connects_is_refused_by_frame_checks_not_the_cap(monkeypatch):
    # 40 connections queue before the loop starts, each with a bad-type frame
    # and its write side shut. The listener keeps its backlog of 128; the
    # loop then accepts 5 at a pass, under a cap of 10.
    srv = VerifierServer(rounds=1, word_length=8, seed=3)
    monkeypatch.setattr(N, "LISTEN_BACKLOG", 5)
    monkeypatch.setattr(N, "MAX_OPEN_SESSIONS", 10)
    conns = []
    try:
        for _ in range(40):
            conn = socket.create_connection(srv.address, timeout=10)
            conn.sendall((1).to_bytes(4, "big") + b"\x09")
            conn.shutdown(socket.SHUT_WR)
            conns.append(conn)
        srv.start()
        replies = [W.recv_frame(conn) for conn in conns]
        assert replies == [(W.MSG_ERROR, bytes([W.ERR_UNKNOWN_TYPE]))] * 40
    finally:
        for conn in conns:
            conn.close()
        srv.stop()


def test_frame_cut_short_by_eof_gets_bad_length():
    lines = []
    srv = VerifierServer(rounds=1, word_length=8, seed=3, log=lines.append)
    srv.start()
    try:
        with socket.create_connection(srv.address, timeout=10) as conn:
            conn.sendall((40).to_bytes(4, "big") + b"\x01" + bytes(6))  # 11 of 44 bytes
            conn.shutdown(socket.SHUT_WR)
            assert W.recv_frame(conn) == (W.MSG_ERROR, bytes([W.ERR_BAD_LENGTH]))
        assert lines == ["refusing connection: connection closed mid-frame"]
    finally:
        srv.stop()


def test_peer_that_stops_reading_does_not_stall_other_sessions():
    n = MAX_SERVED_STRANDS
    X = B.normalize(BraidWord(n, tuple(GeneratorLetter(i, 1) for i in range(1, n, 3))))
    hello = W.pack_hello(P.SchemeIPublic(n, MAX_EXPONENT, MAX_EXPONENT, X))
    srv = VerifierServer(rounds=50, word_length=16, seed=7)
    # Accepted sockets inherit the listener's buffer size: with 4 KiB on both
    # ends the first n=64 challenge (about 16 KB) cannot leave at once.
    srv._sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
    srv.start()
    hog = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        hog.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        hog.connect(srv.address)
        # HELLO and a wrong answer for every round, and not one byte read.
        W.send_frame(hog, W.MSG_HELLO, hello)
        for _ in range(50):
            W.send_frame(hog, W.MSG_RESPONSE, bytes(DIGEST_SIZE))
        _wait_for(lambda: any(s.out for s in srv._sessions), "the verifier to hold unsent bytes")
        start = time.monotonic()
        assert all(v.accepted for v in run_prover(*srv.address, make_keys(1)))
        assert time.monotonic() - start < 5.0
    finally:
        hog.close()
        srv.stop()
