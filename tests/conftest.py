import random
import socket
import threading

import pytest

from braidauth.braid import BraidWord, GeneratorLetter, normalize
from braidauth.hashing import serialize
from braidauth.wire import MSG_CHALLENGE, MSG_VERDICT, recv_frame, send_frame

# filled by test_acceptance.py; replayed after the run so the one-line-per-
# criterion report shows even without -s
ACCEPTANCE_LINES: "list[str]" = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def random_braid_word(rng: random.Random, n: int, length: int) -> BraidWord:
    """Uniform letters, no free-reduction guarantee; test-local randomness so
    the suite does not depend on the package's own sampler."""
    letters = tuple(
        GeneratorLetter(rng.randrange(1, n), rng.choice((1, -1))) for _ in range(length)
    )
    return BraidWord(n, letters)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xBA1D)


def one_frame_verifier(msg_type: int, payload: bytes) -> "tuple[str, int]":
    """A stand-in verifier for one connection: it reads the HELLO, answers
    with one frame and closes. Returns its address."""
    listener = socket.create_server(("127.0.0.1", 0))

    def serve():
        with listener, listener.accept()[0] as conn:
            recv_frame(conn)
            send_frame(conn, msg_type, payload)

    threading.Thread(target=serve, daemon=True).start()
    return listener.getsockname()[:2]


def faulty_verifier_frames() -> "list[tuple[int, bytes]]":
    """Frames an 8-strand prover cannot take: a CHALLENGE that is no braid, a
    6-strand CHALLENGE, and a VERDICT one byte long."""
    six_strands = normalize(BraidWord(6, (GeneratorLetter(1, 1),)))
    return [(MSG_CHALLENGE, b"junk"), (MSG_CHALLENGE, serialize(six_strands)),
            (MSG_VERDICT, b"\x01")]
