"""A verifier that listens on TCP and a prover that dials it.

One session per connection: the client opens with HELLO carrying its public
key (the server trusts it for the session; binding keys to identities is out
of scope), the server answers with a fixed number of CHALLENGE/RESPONSE
rounds, sending a VERDICT after each. The connection closes after the final
verdict. Malformed input is answered with an ERROR frame and a close; the
server never lets a bad peer take it down.

One thread serves every connection: ``serve_forever`` is a ``selectors``
loop that accepts, reads frames, runs session steps and writes, all without
blocking. Each session is a generator that yields where it waits for the
peer's next frame; a step (expected digest plus next challenge) runs to
completion before the loop serves anyone else. Sessions share the engine's
caches, which hold values that depend only on their arguments, so interleaved
sessions give the outputs they would give alone.
"""

from __future__ import annotations

import dataclasses
import hmac
import secrets
import selectors
import socket
import threading
import time
import traceback

from . import wire
from .errors import BraidAuthError, FrameError, check_int
from .hashing import DIGEST_SIZE, serialize
from .protocol import SCHEMES, SchemeIKeyPair, SchemeIIKeyPair
from .rng import DeterministicRng
from .sampling import SamplerConfig

# The verifier's cost per round grows with the strand count, the exponents and
# the size of the key the client's HELLO names, so a HELLO over any of these
# limits is refused from its head and braid headers, before any table in it is
# decoded. Each limit sits well above what the tests, demos, CLI and benchmark
# send over TCP (n <= 16, small exponents, keys of at most a few hundred
# factors):
# - power squares and multiplies, so exponent 64 takes 7 products, but the
#   last squares are of long forms and its cost still grows about
#   quadratically with the exponent (a 9-factor n=8 braid: 1.7 ms at 32,
#   6.3 ms at 64, with its cache cleared);
# - the pair memo holds at most 2^20 table entries, all of pairs on at most
#   16 strands, so wider sessions add nothing to it; at 64 strands flip keeps
#   256 tables (0.3 MB), left_complement 2,048 (2.5 MB) and power 256 entries
#   of 70-210 KB at exponent 64, about 50 MB (all arithmetic from table sizes
#   and measured factor counts);
# - 1024 factors bounds the size of X and of scheme 2's base, which every
#   round multiplies in.
# One thread runs every session's steps, so a session at all of these limits
# delays the others by its whole step: with 1,024-factor key braids and
# challenge length 32, expected digest plus next challenge took 1.4-2.8 s per
# round (both schemes; Python 3.11, one core of a 2-vCPU Xeon VM).
MAX_EXPONENT = 64
MAX_SERVED_STRANDS = 64
MAX_KEY_FACTORS = 1024
# A length-0 challenge is the identity, passed by answering hash(X) with no
# secret. 8 is the shortest the tests, demos, CLI and benchmark ask for.
MIN_CHALLENGE_LENGTH = 8
# How long the verifier waits for each frame: from the end of a session's
# step (or from the accept, for HELLO) until the next frame is whole and every
# byte the step wrote has left. A session that misses it ends with
# TimeoutError, so a peer that trickles bytes or stops reading holds a session
# for at most this long per frame, over rounds + 1 frames.
READ_TIMEOUT_S = 30.0
# The listen backlog, and the most connections accepted before the loop next
# serves the open sessions.
LISTEN_BACKLOG = 128
# Open connections the verifier serves at once; the next connection gets an
# ERROR frame (ERR_BUSY) and is closed. Accepting at most one backlog per loop
# pass, after serving the sessions already open, keeps a burst of connects
# under it.
MAX_OPEN_SESSIONS = 2 * LISTEN_BACKLOG
# How long the loop stops watching the listener after accept() fails (EMFILE,
# ENOBUFS and the like): such a failure lasts until descriptors or memory free
# up, and the loop would spin on a listener still readable meanwhile.
ACCEPT_PAUSE_S = 0.1


@dataclasses.dataclass(frozen=True)
class RoundVerdict:
    round_index: int
    accepted: bool


class _Session:
    """One open connection: its socket, the frame read so far, the bytes the
    socket has not taken yet, the session generator (None once it is done)
    and when the next frame is due."""

    __slots__ = ("conn", "buf", "out", "steps", "deadline")

    def __init__(self, conn: socket.socket):
        self.conn = conn
        self.buf = bytearray()
        self.out = b""
        self.steps = None
        self.deadline = time.monotonic() + READ_TIMEOUT_S


class VerifierServer:
    """TCP verifier: one ``selectors`` loop on one thread serves every session.

    Sessions have ``rounds`` rounds, at most ``wire.MAX_ROUNDS`` (65,535).
    Challenges are words of ``word_length`` letters, at least
    ``MIN_CHALLENGE_LENGTH``; the strand count always comes from the client's
    HELLO. ``expect_scheme`` is None, 1 or 2; when set, a HELLO for the other
    scheme is refused. ``max_sessions`` is None (no limit) or at least 0: the
    listener stops after that many connections and the loop returns once the
    last of them ends. Only that and ``stop()`` end the listener: a failed
    ``accept()`` is logged and pauses it for ``ACCEPT_PAUSE_S``. ``seed``
    replays a fixed challenge stream; None, the default, draws a seed from OS
    entropy, so challenges do not repeat across restarts.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        rounds: int = 1,
        word_length: int = 32,
        seed: int | None = None,
        expect_scheme: int | None = None,
        max_sessions: int | None = None,
        log=None,
    ):
        check_int("port", port, 0, 65535)
        self.rounds = check_int("rounds", rounds, 1, wire.MAX_ROUNDS)
        self.word_length = check_int("word_length", word_length, MIN_CHALLENGE_LENGTH)
        if expect_scheme is not None:
            check_int("expect_scheme", expect_scheme, min(SCHEMES), max(SCHEMES))
        self.expect_scheme = expect_scheme
        if max_sessions is not None:
            check_int("max_sessions", max_sessions, 0)
        self.max_sessions = max_sessions
        self._log = log or (lambda msg: None)
        seed = secrets.randbits(64) if seed is None else seed
        self._rng = DeterministicRng(seed, "verifier-server")
        self._session_counter = 0
        self._accepted = 0
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind((host, port))
        self._sock.listen(LISTEN_BACKLOG)
        self._sock.setblocking(False)
        self._selector = selectors.DefaultSelector()
        self._sessions: set[_Session] = set()
        # stop() writes a byte here; the loop ends once it can be read.
        self._wake_r, self._wake_w = socket.socketpair()

    @property
    def address(self) -> tuple[str, int]:
        return self._sock.getsockname()[:2]

    # -- lifecycle ----------------------------------------------------------

    def serve_forever(self) -> None:
        """Serve until stopped (or until max_sessions connections have ended)."""
        sel = self._selector
        sel.register(self._wake_r, selectors.EVENT_READ)
        listening = self.max_sessions is None or self.max_sessions > 0
        if listening:
            sel.register(self._sock, selectors.EVENT_READ)
        resume_at = None  # when a listener paused by a failed accept() is watched again
        try:
            while listening or self._sessions:
                dues = [s.deadline for s in self._sessions]
                if resume_at is not None:
                    dues.append(resume_at)
                timeout = max(0.0, min(dues) - time.monotonic()) if dues else None
                events = sel.select(timeout)
                # A session past its deadline gets the one read this select
                # reports, even if other sessions' steps ran past it meanwhile.
                now = time.monotonic()
                if any(key.fileobj is self._wake_r for key, _ in events):
                    break
                for key, _ in events:
                    if key.data is not None:
                        self._serve(key.data)
                if any(key.fileobj is self._sock for key, _ in events):
                    try:
                        listening = self._accept()
                    except OSError as exc:
                        self._log(f"accept failed: {exc}; listener paused for {ACCEPT_PAUSE_S} s")
                        resume_at = time.monotonic() + ACCEPT_PAUSE_S
                    if not listening or resume_at is not None:
                        sel.unregister(self._sock)
                if resume_at is not None and resume_at <= now:
                    sel.register(self._sock, selectors.EVENT_READ)
                    resume_at = None
                for sess in [s for s in self._sessions if s.deadline <= now]:
                    self._end(sess, TimeoutError(
                        f"frame not complete by its deadline ({len(sess.buf)} bytes read,"
                        f" {len(sess.out)} unsent)"
                    ))
        finally:
            for sess in list(self._sessions):
                self._end(sess)
            sel.close()
            for sock in (self._sock, self._wake_r, self._wake_w):
                sock.close()

    def start(self) -> threading.Thread:
        """Run serve_forever on a daemon thread; returns the thread."""
        t = threading.Thread(target=self.serve_forever, daemon=True)
        t.start()
        return t

    def stop(self) -> None:
        """Make serve_forever return, at once if it has not started yet; it
        closes the listener and every open connection on its way out."""
        try:
            self._wake_w.send(b"\0")
        except OSError:
            pass

    # -- the loop -----------------------------------------------------------

    def _accept(self) -> bool:
        """Accept the pending connections, at most one backlog of them; False
        once max_sessions connections have been accepted. Any failure of
        accept() but an aborted connection raises OSError."""
        for _ in range(LISTEN_BACKLOG):
            if self._accepted == self.max_sessions:
                break
            try:
                conn, _ = self._sock.accept()
            except (BlockingIOError, ConnectionAbortedError):
                break
            self._accepted += 1
            try:
                conn.setblocking(False)
                # A write the socket sends in pieces (a frame over one
                # segment, or a tail flushed after the send buffer filled)
                # ends in a short segment; with Nagle on, it would wait for
                # the prover's delayed ACK of the segments before it.
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                if len(self._sessions) >= MAX_OPEN_SESSIONS:
                    self._log(f"refusing connection: {MAX_OPEN_SESSIONS} sessions already open")
                    conn.send(wire.pack_frame(wire.MSG_ERROR, bytes([wire.ERR_BUSY])))
                    conn.close()
                    continue
            except OSError:
                conn.close()
                continue
            sess = _Session(conn)
            sess.steps = self._run_session(sess)
            next(sess.steps)
            self._sessions.add(sess)
            self._selector.register(conn, selectors.EVENT_READ, sess)
        return self._accepted != self.max_sessions

    def _serve(self, sess: _Session) -> None:
        """Flush the session's unsent bytes, or read its next frame and run
        the step that frame starts. A session with unsent bytes reads nothing,
        so a peer that stops reading holds at most one step's frames."""
        flushing = bool(sess.out)
        try:
            if flushing:
                sess.out = sess.out[sess.conn.send(sess.out) :]
            elif (frame := wire.recv_frame(sess.conn, sess.buf)) is None:
                sess.steps = None
            else:
                sess.steps.send(frame)
        except BlockingIOError:
            return
        except StopIteration:
            sess.steps = None
        except FrameError as exc:
            self._log(f"refusing connection: {exc}")
            sess.steps = None
            try:
                self._send(sess, wire.pack_frame(wire.MSG_ERROR, bytes([exc.code])))
            except OSError:
                pass
        except (OSError, BraidAuthError) as exc:
            self._end(sess, exc)
            return
        except Exception as exc:  # a fault in one session must not stop the loop
            traceback.print_exc()
            self._end(sess, exc)
            return
        if not flushing:
            # A whole frame was read and its step has run: the next is due
            # READ_TIMEOUT_S from now, with whatever this step wrote sent.
            sess.deadline = time.monotonic() + READ_TIMEOUT_S
        if not sess.out and sess.steps is None:
            self._end(sess)
        elif bool(sess.out) != flushing:
            events = selectors.EVENT_WRITE if sess.out else selectors.EVENT_READ
            self._selector.modify(sess.conn, events, sess)

    def _end(self, sess: _Session, exc: BaseException | None = None) -> None:
        if exc is not None:
            self._log(f"session ended: {type(exc).__name__}: {exc}")
        self._sessions.discard(sess)
        self._selector.unregister(sess.conn)
        sess.conn.close()

    # -- per-connection protocol --------------------------------------------

    def _next_session_rng(self) -> DeterministicRng:
        self._session_counter += 1
        return self._rng.spawn(f"session-{self._session_counter}")

    def _send(self, sess: _Session, data: bytes) -> None:
        """Send ``data`` at once in one non-blocking write, or queue it behind
        the bytes still unsent; what the socket does not take waits in
        ``sess.out`` for ``_serve`` to flush."""
        if not sess.out:
            try:
                data = data[sess.conn.send(data) :]
            except BlockingIOError:
                pass
        sess.out += data

    def _admit_hello(self, scheme, n: int, exponents, factor_counts) -> None:
        """Refuse a HELLO over a limit, from its head and braid headers."""
        key_factors = max(factor_counts)
        if self.expect_scheme not in (None, scheme.number):
            why = f"scheme {scheme.number} offered, {self.expect_scheme} required"
        elif max(exponents) > MAX_EXPONENT:
            why = f"exponents {exponents} exceed {MAX_EXPONENT}"
        elif n > MAX_SERVED_STRANDS:
            why = f"strand count {n} exceeds {MAX_SERVED_STRANDS}"
        elif key_factors > MAX_KEY_FACTORS:
            why = f"key has {key_factors} factors, over {MAX_KEY_FACTORS}"
        else:
            return
        raise FrameError(wire.ERR_PROTOCOL, why)

    def _run_session(self, sess: _Session):
        """The session as a generator: each ``yield`` waits for the peer's
        next frame, which the loop sends in once it is whole. A protocol
        violation raises :class:`FrameError`, which ``_serve`` refuses."""
        msg_type, payload = yield
        if msg_type != wire.MSG_HELLO:
            raise FrameError(wire.ERR_PROTOCOL, f"expected HELLO, got type {msg_type}")
        pub = wire.unpack_hello(payload, self._admit_hello)
        sampler = SamplerConfig(pub.n, self.word_length)
        rng = self._next_session_rng()
        # The digest a round accepts depends only on the public key and the
        # verifier's ephemerals, so each round computes it, and draws the next
        # round's challenge, while the prover computes its response. Challenges
        # are drawn in round order, so a seed gives the same ones whenever they
        # are drawn. The next round's c, d (or b) live across the wait for the response;
        # power's cache also holds them and their powers until 256 newer
        # (braid, exponent) pairs push them out. A peer that reads a challenge
        # and never answers costs one digest and at most one more challenge.
        # Each step writes once, before its digest work: CHALLENGE 1 after
        # HELLO, then VERDICT k with CHALLENGE k+1, then the last VERDICT.
        challenge = pub.scheme.challenge(pub, sampler, rng)
        verdict = b""
        for round_index in range(self.rounds):
            self._send(sess, verdict + wire.pack_frame(wire.MSG_CHALLENGE, serialize(challenge.Y)))
            expected = pub.scheme.expected_digest(pub, challenge)
            if round_index + 1 < self.rounds:
                challenge = pub.scheme.challenge(pub, sampler, rng)
            msg_type, payload = yield
            if msg_type != wire.MSG_RESPONSE:
                raise FrameError(wire.ERR_PROTOCOL, f"expected RESPONSE, got type {msg_type}")
            if len(payload) != DIGEST_SIZE:
                raise FrameError(wire.ERR_BAD_LENGTH, f"response payload is {len(payload)} bytes")
            accepted = hmac.compare_digest(expected, payload)
            self._log(f"round {round_index + 1}/{self.rounds}: verdict={int(accepted)}")
            verdict = wire.pack_frame(wire.MSG_VERDICT, wire.pack_verdict(accepted, round_index))
        self._send(sess, verdict)


class ProverError(BraidAuthError):
    """The exchange failed for transport or protocol reasons (not a rejection)."""


def run_prover(
    host: str,
    port: int,
    keys: "SchemeIKeyPair | SchemeIIKeyPair",
    *,
    timeout: float = 30.0,
    log=None,
) -> list[RoundVerdict]:
    """Dial a verifier, answer every challenge, and return the verdicts.

    Raises :class:`ProverError` on network failures, ERROR frames, and
    protocol violations; a rejection is reported in the verdict list, not as
    an exception.
    """
    check_int("port", port, 0, 65535)
    log = log or (lambda msg: None)
    verdicts: list[RoundVerdict] = []
    try:
        with socket.create_connection((host, port), timeout=timeout) as conn:
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            wire.send_frame(conn, wire.MSG_HELLO, wire.pack_hello(keys.public))
            while (frame := wire.recv_frame(conn)) is not None:
                msg_type, payload = frame
                if msg_type == wire.MSG_CHALLENGE:
                    response = keys.scheme.respond(keys, wire.unpack_challenge(payload))
                    wire.send_frame(conn, wire.MSG_RESPONSE, response.digest)
                elif msg_type == wire.MSG_VERDICT:
                    accepted, round_index = wire.unpack_verdict(payload)
                    log(f"round {round_index + 1}: verdict={int(accepted)}")
                    verdicts.append(RoundVerdict(round_index, accepted))
                elif msg_type == wire.MSG_ERROR:
                    code = payload[0] if payload else 0
                    raise ProverError(f"verifier sent error code 0x{code:02x}")
                else:
                    raise ProverError(f"unexpected frame type {msg_type}")
    except OSError as exc:
        raise ProverError(f"network failure: {exc}") from exc
    except ProverError:
        raise
    except BraidAuthError as exc:  # a frame, braid or strand count the key cannot take
        raise ProverError(f"bad frame from verifier: {exc}") from exc
    if not verdicts:
        raise ProverError("connection closed before any verdict")
    return verdicts
