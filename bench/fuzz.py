"""Seeded malformed frames for the hostile TCP workload.

Frames follow the wire layout (4-byte big-endian length counting the type
byte, then the type byte, then the payload) closely enough to reach the
server's frame checks, and break it in one of four ways. The kinds rotate so
every run sends all four in equal shares; the bytes come from
``random.Random(seed)``, so a seed replays the same stream.

Every kind is one the verifier must refuse once the sender has closed: a
header that is short of a full frame is refused as "closed mid-frame", and
one that is whole but wrong is refused at once.
"""

from __future__ import annotations

import random
import struct

KNOWN_TYPES = range(0x01, 0x06)  # HELLO .. ERROR
MAX_FRAME = 1 << 20
KINDS = ("random-bytes", "bad-type", "absurd-length", "truncated-body")


def malformed_frames(seed: int):
    """Yield ``(kind, frame_bytes)`` forever."""
    rnd = random.Random(f"malformed-frames:{seed}")
    k = 0
    while True:
        kind = KINDS[k % len(KINDS)]
        k += 1
        if kind == "random-bytes":
            # At least a header and one byte: shorter input ends at a frame
            # boundary, which the server treats as a clean close.
            frame = rnd.randbytes(rnd.randint(5, 64))
        elif kind == "bad-type":
            payload = rnd.randbytes(rnd.randint(0, 32))
            msg_type = rnd.choice([t for t in range(256) if t not in KNOWN_TYPES])
            frame = struct.pack(">IB", len(payload) + 1, msg_type) + payload
        elif kind == "absurd-length":
            # The header alone: the server refuses before reading any body.
            frame = struct.pack(">I", rnd.randint(MAX_FRAME + 1, 2**32 - 1))
        else:
            length = rnd.randint(16, 256)
            body = rnd.randbytes(rnd.randint(0, length - 1))
            frame = struct.pack(">I", length) + body
        yield kind, frame
