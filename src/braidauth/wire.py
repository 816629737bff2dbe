"""Length-prefixed binary framing and payload codecs for the TCP pair.

Frame layout: 4-byte big-endian length (payload length + 1 for the type
byte), then the type byte, then the payload. Types::

    0x01 HELLO      scheme:1 | n:2 | exp1:4 | exp2:4 | X | [base, scheme 2]
    0x02 CHALLENGE  serialized challenge braid
    0x03 RESPONSE   32-byte digest
    0x04 VERDICT    accept:1 | round:2
    0x05 ERROR      code:1

Braids travel in the canonical encoding of :mod:`braidauth.hashing`, which is
self-delimiting. All integers are big endian.
"""

from __future__ import annotations

import socket
import struct

from .errors import EncodingError, FrameError, InvalidParameterError
from .hashing import deserialize, serialize, split_encoding
from .protocol import SCHEMES, SchemeIPublic, SchemeIIPublic, check_exponent

MSG_HELLO = 0x01
MSG_CHALLENGE = 0x02
MSG_RESPONSE = 0x03
MSG_VERDICT = 0x04
MSG_ERROR = 0x05

KNOWN_TYPES = (MSG_HELLO, MSG_CHALLENGE, MSG_RESPONSE, MSG_VERDICT, MSG_ERROR)

ERR_UNKNOWN_TYPE = 0x01
ERR_BAD_LENGTH = 0x02
ERR_MALFORMED = 0x03
ERR_PROTOCOL = 0x04
ERR_BUSY = 0x05

MAX_FRAME = 1 << 20

_LEN = struct.Struct(">I")
_HELLO_HEAD = struct.Struct(">BHII")
_VERDICT = struct.Struct(">BH")
# The largest value VERDICT's 2-byte round field holds, and the most rounds a
# session may have.
MAX_ROUNDS = 0xFFFF


def pack_frame(msg_type: int, payload: bytes = b"") -> bytes:
    return _LEN.pack(len(payload) + 1) + bytes([msg_type]) + payload


def send_frame(sock: socket.socket, msg_type: int, payload: bytes = b"") -> None:
    """Write one whole frame to a blocking socket."""
    sock.sendall(pack_frame(msg_type, payload))


def recv_frame(sock: socket.socket, buf: bytearray | None = None) -> tuple[int, bytes] | None:
    """Read one frame. None on clean EOF before a frame's length is in.

    Raises :class:`FrameError` for zero or oversized lengths (as soon as the
    length is in), bodies cut short by EOF, and unknown message types. No byte
    past the frame is read. The bytes read so far are kept in ``buf``, so on a
    non-blocking socket a :class:`BlockingIOError` leaves a partial frame there
    for the next call; ``buf`` is empty again once a frame is returned.
    """
    if buf is None:
        buf = bytearray()
    while True:
        end = _LEN.size
        if len(buf) >= _LEN.size:
            (length,) = _LEN.unpack_from(buf)
            if length < 1 or length > MAX_FRAME:
                raise FrameError(ERR_BAD_LENGTH, f"frame length {length} outside [1, {MAX_FRAME}]")
            end += length
            if len(buf) == end:
                break
        chunk = sock.recv(end - len(buf))
        if not chunk:
            if len(buf) < _LEN.size:
                return None
            raise FrameError(ERR_BAD_LENGTH, "connection closed mid-frame")
        buf += chunk
    msg_type = buf[_LEN.size]
    payload = bytes(buf[_LEN.size + 1 :])
    buf.clear()
    if msg_type not in KNOWN_TYPES:
        raise FrameError(ERR_UNKNOWN_TYPE, f"unknown message type 0x{msg_type:02x}")
    return msg_type, payload


def pack_hello(pub: "SchemeIPublic | SchemeIIPublic") -> bytes:
    scheme = pub.scheme
    head = _HELLO_HEAD.pack(scheme.number, pub.n, *scheme.exponents(pub))
    return head + b"".join(serialize(x) for x in scheme.key_braids(pub))


def unpack_hello(payload: bytes, admit=None) -> "SchemeIPublic | SchemeIIPublic":
    """Decode a HELLO into the public key it carries.

    ``admit(scheme, n, exponents, factor_counts)``, when given, runs once the
    head and each braid's header are read and before any table is decoded;
    a :class:`FrameError` it raises refuses the HELLO at that point.
    """
    if len(payload) < _HELLO_HEAD.size:
        raise FrameError(ERR_BAD_LENGTH, "hello payload too short")
    number, n, *values = _HELLO_HEAD.unpack_from(payload)
    scheme = SCHEMES.get(number)
    if scheme is None:
        raise FrameError(ERR_MALFORMED, f"unknown scheme byte {number}")
    rest = payload[_HELLO_HEAD.size :]
    blobs, counts = [], []
    try:
        exponents = tuple(map(check_exponent, scheme.exponent_names, values))
        for _ in scheme.hello_braids:
            strands, count, blob, rest = split_encoding(rest)
            if strands != n:
                raise FrameError(ERR_MALFORMED, "strand count mismatch inside hello")
            blobs.append(blob)
            counts.append(count)
        if rest:
            raise FrameError(ERR_MALFORMED, "trailing bytes after hello")
        if admit is not None:
            admit(scheme, n, exponents, tuple(counts))
        braids = [deserialize(blob) for blob in blobs]
    except (EncodingError, InvalidParameterError) as exc:
        raise FrameError(ERR_MALFORMED, f"bad hello: {exc}") from exc
    return scheme.public_of(n, exponents, braids)


def pack_verdict(accept: bool, round_index: int) -> bytes:
    return _VERDICT.pack(int(accept), round_index)


def unpack_verdict(payload: bytes) -> tuple[bool, int]:
    if len(payload) != _VERDICT.size:
        raise FrameError(ERR_BAD_LENGTH, f"verdict payload must be {_VERDICT.size} bytes")
    accept, round_index = _VERDICT.unpack(payload)
    return bool(accept), round_index


def unpack_challenge(payload: bytes):
    try:
        return deserialize(payload)
    except EncodingError as exc:
        raise FrameError(ERR_MALFORMED, f"bad challenge braid: {exc}") from exc
