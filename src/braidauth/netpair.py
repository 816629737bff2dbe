"""A verifier that listens on TCP and a prover that dials it.

One session per connection: the client opens with HELLO carrying its public
key (the server trusts it for the session; binding keys to identities is out
of scope), the server answers with a fixed number of CHALLENGE/RESPONSE
rounds, sending a VERDICT after each. The connection closes after the final
verdict. Malformed input is answered with an ERROR frame and a close; the
server never lets a bad peer take it down.

Connections are handled on their own threads and share nothing but the
listening socket and the seed counter, so concurrent sessions stay
independent.
"""

from __future__ import annotations

import dataclasses
import socket
import threading

from . import wire
from .errors import BraidAuthError, FrameError, InvalidParameterError
from .hashing import serialize
from .protocol import (
    Response,
    SchemeIKeyPair,
    SchemeIIKeyPair,
    SchemeIPublic,
    challenge1,
    challenge2,
    respond1,
    respond2,
    verify1,
    verify2,
)
from .rng import DeterministicRng
from .sampling import SamplerConfig

# The verifier's cost per round grows with the strand count, the exponents and
# the size of the key the client's HELLO names, so a HELLO over any of these
# limits is refused before any sampling or braid arithmetic runs. Each limit
# sits well above what the tests, demos, CLI and benchmark send over TCP
# (n <= 16, small exponents, keys of at most a few hundred factors):
# - power loops once per unit of exponent, and its cost grows about
#   quadratically with it;
# - 64 strands is the widest the pair memo holds at its full pair count;
# - 1024 factors bounds the size of X and of scheme 2's base, which every
#   round multiplies in.
MAX_EXPONENT = 64
MAX_SERVED_STRANDS = 64
MAX_KEY_FACTORS = 1024


@dataclasses.dataclass(frozen=True)
class RoundVerdict:
    round_index: int
    accepted: bool


class VerifierServer:
    """Threaded TCP verifier.

    ``word_length``/``min_canonical_length`` parameterize challenge sampling;
    the strand count always comes from the client's HELLO. When
    ``expect_scheme`` is set, a HELLO for the other scheme is refused. With
    ``max_sessions`` set, the listener stops after that many connections.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        rounds: int = 1,
        word_length: int = 32,
        min_canonical_length: int = 3,
        seed: int = 0,
        expect_scheme: int | None = None,
        max_sessions: int | None = None,
        log=None,
    ):
        if rounds < 1:
            raise InvalidParameterError(f"rounds must be >= 1, got {rounds}")
        self.rounds = rounds
        self.word_length = word_length
        self.min_canonical_length = min_canonical_length
        self.expect_scheme = expect_scheme
        self.max_sessions = max_sessions
        self._log = log or (lambda msg: None)
        self._rng = DeterministicRng(seed, "verifier-server")
        self._session_counter = 0
        self._lock = threading.Lock()
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind((host, port))
        self._sock.listen(128)
        self._stopped = threading.Event()
        self._threads: list[threading.Thread] = []

    @property
    def address(self) -> tuple[str, int]:
        return self._sock.getsockname()[:2]

    # -- lifecycle ----------------------------------------------------------

    def serve_forever(self) -> None:
        """Accept until stopped (or until max_sessions connections)."""
        served = 0
        while not self._stopped.is_set():
            if self.max_sessions is not None and served >= self.max_sessions:
                break
            try:
                conn, peer = self._sock.accept()
            except OSError:
                break
            served += 1
            t = threading.Thread(target=self._serve_connection, args=(conn, peer), daemon=True)
            t.start()
            # Keep only live threads so a long run does not grow the list.
            self._threads = [x for x in self._threads if x.is_alive()] + [t]
        for t in self._threads:
            t.join(timeout=10.0)

    def start(self) -> threading.Thread:
        """Run serve_forever on a daemon thread; returns the thread."""
        t = threading.Thread(target=self.serve_forever, daemon=True)
        t.start()
        return t

    def stop(self) -> None:
        self._stopped.set()
        try:
            self._sock.close()
        except OSError:
            pass

    # -- per-connection protocol --------------------------------------------

    def _next_session_rng(self) -> DeterministicRng:
        with self._lock:
            self._session_counter += 1
            return self._rng.spawn(f"session-{self._session_counter}")

    def _serve_connection(self, conn: socket.socket, peer) -> None:
        try:
            conn.settimeout(30.0)
            # Each round writes VERDICT then the next CHALLENGE with no read in
            # between; with Nagle on, the second frame would wait for the
            # prover's delayed ACK. send_frame writes a frame in one call.
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._run_session(conn)
        except (OSError, BraidAuthError):
            pass
        finally:
            try:
                conn.close()
            except OSError:
                pass

    def _refuse(self, conn: socket.socket, code: int, why: str) -> None:
        self._log(f"refusing connection: {why}")
        try:
            wire.send_frame(conn, wire.MSG_ERROR, bytes([code]))
        except OSError:
            pass

    def _run_session(self, conn: socket.socket) -> None:
        try:
            first = wire.recv_frame(conn)
        except FrameError as exc:
            self._refuse(conn, exc.code, str(exc))
            return
        if first is None:
            return
        msg_type, payload = first
        if msg_type != wire.MSG_HELLO:
            self._refuse(conn, wire.ERR_PROTOCOL, f"expected HELLO, got type {msg_type}")
            return
        try:
            pub = wire.unpack_hello(payload)
        except FrameError as exc:
            self._refuse(conn, exc.code, str(exc))
            return
        scheme = 1 if isinstance(pub, SchemeIPublic) else 2
        if self.expect_scheme is not None and scheme != self.expect_scheme:
            self._refuse(
                conn, wire.ERR_PROTOCOL, f"scheme {scheme} offered, {self.expect_scheme} required"
            )
            return
        exponents = (pub.r, pub.s_exp) if scheme == 1 else (pub.e, pub.f)
        if max(exponents) > MAX_EXPONENT:
            self._refuse(
                conn, wire.ERR_PROTOCOL, f"exponents {exponents} exceed {MAX_EXPONENT}"
            )
            return
        if pub.n > MAX_SERVED_STRANDS:
            self._refuse(
                conn, wire.ERR_PROTOCOL, f"strand count {pub.n} exceeds {MAX_SERVED_STRANDS}"
            )
            return
        key_braids = (pub.X,) if scheme == 1 else (pub.X, pub.base)
        key_factors = max(len(k.factors) for k in key_braids)
        if key_factors > MAX_KEY_FACTORS:
            self._refuse(
                conn, wire.ERR_PROTOCOL, f"key has {key_factors} factors, over {MAX_KEY_FACTORS}"
            )
            return

        sampler = SamplerConfig(
            n=pub.n,
            word_length=self.word_length,
            min_canonical_length=min(self.min_canonical_length, max(self.word_length, 1)),
            seed=0,
        )
        rng = self._next_session_rng()
        for round_index in range(self.rounds):
            # The challenge secrets are not kept past the round here, but
            # power's cache holds them and their powers until 256 newer
            # (braid, exponent) pairs push them out.
            if scheme == 1:
                ch1 = challenge1(pub, sampler, rng)
                challenge_braid = ch1.Y
            else:
                ch2 = challenge2(pub, sampler, rng)
                challenge_braid = ch2.Y
            wire.send_frame(conn, wire.MSG_CHALLENGE, serialize(challenge_braid))
            try:
                frame = wire.recv_frame(conn)
            except FrameError as exc:
                self._refuse(conn, exc.code, str(exc))
                return
            if frame is None:
                return
            msg_type, payload = frame
            if msg_type != wire.MSG_RESPONSE:
                self._refuse(conn, wire.ERR_PROTOCOL, f"expected RESPONSE, got type {msg_type}")
                return
            if len(payload) != 32:
                self._refuse(conn, wire.ERR_BAD_LENGTH, f"response payload is {len(payload)} bytes")
                return
            response = Response(payload)
            if scheme == 1:
                accepted = verify1(pub, ch1.c, ch1.d, response)
            else:
                accepted = verify2(pub, ch2.b, response)
            self._log(f"round {round_index + 1}/{self.rounds}: verdict={int(accepted)}")
            wire.send_frame(conn, wire.MSG_VERDICT, wire.pack_verdict(accepted, round_index))


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
    log = log or (lambda msg: None)
    scheme1 = isinstance(keys, SchemeIKeyPair)
    verdicts: list[RoundVerdict] = []
    try:
        with socket.create_connection((host, port), timeout=timeout) as conn:
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            wire.send_frame(conn, wire.MSG_HELLO, wire.pack_hello(keys.public))
            while True:
                try:
                    frame = wire.recv_frame(conn)
                except FrameError as exc:
                    raise ProverError(f"bad frame from verifier: {exc}") from exc
                if frame is None:
                    break
                msg_type, payload = frame
                if msg_type == wire.MSG_CHALLENGE:
                    challenge_braid = wire.unpack_challenge(payload)
                    if scheme1:
                        response = respond1(keys, challenge_braid)
                    else:
                        response = respond2(keys, challenge_braid)
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
    if not verdicts:
        raise ProverError("connection closed before any verdict")
    return verdicts
