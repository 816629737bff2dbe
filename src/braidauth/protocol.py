"""Challenge-response identification on braids, both schemes.

Scheme 1: the prover holds commuting secrets, one per strand block, and
publishes X = a^r * b^s. A challenge is Y = c^r * d^s with the verifier's own
block elements crossed over (c upper, d lower); the response digest of
a^r * Y * b^s matches the verifier's digest of c^r * X * d^s precisely because
the blocks commute.

Scheme 2: the prover publishes a base braid and X = a^e * base * a^f with a
single lower-block secret; challenges sandwich the base with an upper-block
element the same way.

Verification functions take only public values and the verifier's own
ephemeral secrets; prover secrets never cross that boundary. The transcript
simulator draws verifier randomness through the identical code path, so under
a shared coin stream simulated and real transcripts agree byte for byte.
"""

from __future__ import annotations

import dataclasses
import hmac
from typing import Callable

from .braid import CanonicalForm, identity, multiply, power
from .errors import InvalidParameterError, SamplingFailure, check_int
from .hashing import DIGEST_SIZE, deserialize, hash_braid, serialize
from .rng import DeterministicRng
from .sampling import (
    SamplerConfig,
    SubgroupSide,
    generator_indices,
    is_hard_instance,
    sample_subgroup_word,
    sample_word,
)
from . import braid as braid_ops

MAX_SAMPLING_REJECTS = 100


# ---------------------------------------------------------------------------
# Key and message types
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class SchemeIPublic:
    n: int
    r: int
    s_exp: int
    X: CanonicalForm


@dataclasses.dataclass(frozen=True)
class SchemeIKeyPair:
    public: SchemeIPublic
    a: CanonicalForm
    b: CanonicalForm


@dataclasses.dataclass(frozen=True)
class SchemeIIPublic:
    n: int
    e: int
    f: int
    base: CanonicalForm
    X: CanonicalForm


@dataclasses.dataclass(frozen=True)
class SchemeIIKeyPair:
    public: SchemeIIPublic
    a: CanonicalForm


@dataclasses.dataclass(frozen=True)
class ChallengeI:
    """Challenge braid plus the verifier's retained ephemerals (kept in memory
    only, never persisted)."""

    Y: CanonicalForm
    c: CanonicalForm
    d: CanonicalForm


@dataclasses.dataclass(frozen=True)
class ChallengeII:
    Y: CanonicalForm
    b: CanonicalForm


@dataclasses.dataclass(frozen=True)
class Response:
    digest: bytes

    def __post_init__(self):
        if len(self.digest) != DIGEST_SIZE:
            raise InvalidParameterError(
                f"response digest must be {DIGEST_SIZE} bytes, got {len(self.digest)}"
            )


@dataclasses.dataclass(frozen=True)
class SessionConfig:
    """A session's settings; the scheme is the key's own."""

    rounds: int
    sampler: SamplerConfig

    def __post_init__(self):
        check_int("rounds", self.rounds, 1)


@dataclasses.dataclass(frozen=True)
class RoundRecord:
    challenge: CanonicalForm
    digest: bytes
    accepted: bool


@dataclasses.dataclass(frozen=True)
class Transcript:
    rounds: tuple[RoundRecord, ...]
    accepted: bool


def transcript_text(t: Transcript) -> str:
    """One line per round: ``Y=<hex> Z=<hex> verdict=<0|1>``."""
    return "\n".join(
        f"Y={serialize(r.challenge).hex()} Z={r.digest.hex()} verdict={int(r.accepted)}"
        for r in t.rounds
    )


# ---------------------------------------------------------------------------
# Key generation
# ---------------------------------------------------------------------------

def _sample_key_braid(
    cfg: SamplerConfig,
    rng: DeterministicRng,
    side: SubgroupSide | None,
) -> CanonicalForm:
    """Sample from one block (or all of the group when side is None) until the
    hardness floor passes. An empty block admits only the identity, which is
    returned as is; that only happens at the degenerate toy sizes."""
    if side is not None and not generator_indices(side, cfg.n):
        return identity(cfg.n)
    for _ in range(MAX_SAMPLING_REJECTS):
        if side is None:
            w = sample_word(cfg, rng)
        else:
            w = sample_subgroup_word(side, cfg, rng)
        x = braid_ops.normalize(w)
        if is_hard_instance(x, cfg):
            return x
    raise SamplingFailure(
        MAX_SAMPLING_REJECTS,
        f"no hard instance after {MAX_SAMPLING_REJECTS} samples ({cfg.echo()})",
    )


def check_exponent(name: str, value) -> int:
    """A key exponent: at least 2, and under 2^32 to fit HELLO's 4-byte
    field. The floor is checked alone so that its refusal reads ">= 2"."""
    check_int(name, value, 2)
    return check_int(name, value, 2, 2**32 - 1)


def keygen1(
    cfg: SamplerConfig, r: int, s_exp: int, rng: DeterministicRng
) -> SchemeIKeyPair:
    """Scheme 1 keys: secrets a (lower block) and b (upper block), public
    X = a^r * b^s."""
    check_exponent("r", r)
    check_exponent("s", s_exp)
    a = _sample_key_braid(cfg, rng, SubgroupSide.LOWER)
    b = _sample_key_braid(cfg, rng, SubgroupSide.UPPER)
    X = multiply(power(a, r), power(b, s_exp))
    return SchemeIKeyPair(SchemeIPublic(cfg.n, r, s_exp, X), a, b)


def keygen2(cfg: SamplerConfig, e: int, f: int, rng: DeterministicRng) -> SchemeIIKeyPair:
    """Scheme 2 keys: public base braid sampled from the whole group, secret a
    in the lower block, public X = a^e * base * a^f."""
    check_exponent("e", e)
    check_exponent("f", f)
    base = _sample_key_braid(cfg, rng, None)
    a = _sample_key_braid(cfg, rng, SubgroupSide.LOWER)
    X = multiply(multiply(power(a, e), base), power(a, f))
    return SchemeIIKeyPair(SchemeIIPublic(cfg.n, e, f, base, X), a)


# ---------------------------------------------------------------------------
# Rounds
# ---------------------------------------------------------------------------

def challenge1(pub: SchemeIPublic, cfg: SamplerConfig, rng: DeterministicRng) -> ChallengeI:
    """Fresh verifier challenge: c from the upper block, d from the lower,
    Y = c^r * d^s."""
    c = braid_ops.normalize(sample_subgroup_word(SubgroupSide.UPPER, cfg, rng))
    d = braid_ops.normalize(sample_subgroup_word(SubgroupSide.LOWER, cfg, rng))
    Y = multiply(power(c, pub.r), power(d, pub.s_exp))
    return ChallengeI(Y, c, d)


def respond1(keys: SchemeIKeyPair, Y: CanonicalForm) -> Response:
    """Prover response: digest of a^r * Y * b^s."""
    pub = keys.public
    if Y.n != pub.n:
        raise InvalidParameterError(f"challenge has {Y.n} strands, key has {pub.n}")
    inner = multiply(multiply(power(keys.a, pub.r), Y), power(keys.b, pub.s_exp))
    return Response(hash_braid(inner))


def _expected_digest1(pub: SchemeIPublic, c: CanonicalForm, d: CanonicalForm) -> bytes:
    return hash_braid(multiply(multiply(power(c, pub.r), pub.X), power(d, pub.s_exp)))


def verify1(pub: SchemeIPublic, c: CanonicalForm, d: CanonicalForm, response: Response) -> bool:
    """Accept iff the response digest equals the digest of c^r * X * d^s."""
    return hmac.compare_digest(_expected_digest1(pub, c, d), response.digest)


def challenge2(pub: SchemeIIPublic, cfg: SamplerConfig, rng: DeterministicRng) -> ChallengeII:
    """Fresh verifier challenge: b from the upper block, Y = b^e * base * b^f."""
    b = braid_ops.normalize(sample_subgroup_word(SubgroupSide.UPPER, cfg, rng))
    Y = multiply(multiply(power(b, pub.e), pub.base), power(b, pub.f))
    return ChallengeII(Y, b)


def respond2(keys: SchemeIIKeyPair, Y: CanonicalForm) -> Response:
    """Prover response: digest of a^e * Y * a^f."""
    pub = keys.public
    if Y.n != pub.n:
        raise InvalidParameterError(f"challenge has {Y.n} strands, key has {pub.n}")
    inner = multiply(multiply(power(keys.a, pub.e), Y), power(keys.a, pub.f))
    return Response(hash_braid(inner))


def _expected_digest2(pub: SchemeIIPublic, b: CanonicalForm) -> bytes:
    return hash_braid(multiply(multiply(power(b, pub.e), pub.X), power(b, pub.f)))


def verify2(pub: SchemeIIPublic, b: CanonicalForm, response: Response) -> bool:
    """Accept iff the response digest equals the digest of b^e * X * b^f."""
    return hmac.compare_digest(_expected_digest2(pub, b), response.digest)


# ---------------------------------------------------------------------------
# The scheme as a value
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True, eq=False)
class Scheme:
    """What one scheme does its own way, so that every caller runs one path for
    both; a key finds it in its ``scheme`` class attribute. The calls name
    ``keygen1`` and the rest as module globals, so they see a rebinding (a
    tracer's, say)."""

    number: int  # HELLO's scheme byte and the key files' "scheme ="
    public_fields: tuple[str, ...]  # key-file names after n: two exponents, then braids
    hello_braids: tuple[str, ...]  # the public braids in HELLO order
    secret_fields: tuple[str, ...]  # key-file names after n of the secrets
    public_type: type
    keypair_type: type
    keygen: Callable  # (cfg, exponent, exponent, rng) -> key pair
    challenge: Callable  # (public, cfg, rng) -> Y and the verifier's ephemerals
    respond: Callable  # (key pair, Y) -> Response
    verify: Callable  # (public, challenge, Response) -> bool
    expected_digest: Callable  # (public, challenge) -> the digest verify accepts

    @property
    def exponent_names(self) -> tuple[str, ...]:
        return self.public_fields[:2]

    def exponents(self, pub) -> tuple[int, int]:
        return _values(pub)[1:3]

    def key_braids(self, pub) -> tuple[CanonicalForm, ...]:
        return tuple(getattr(pub, name) for name in self.hello_braids)

    def public_of(self, n: int, exponents, key_braids):
        """The public key from HELLO's parts: exponents, braids in HELLO order."""
        return self.public_type(n, *exponents, **dict(zip(self.hello_braids, key_braids)))


def _values(obj) -> tuple:
    """Field values in declaration order, without astuple's deep copy."""
    return tuple(getattr(obj, f.name) for f in dataclasses.fields(obj))


SCHEME_I = Scheme(
    1, ("r", "s", "X"), ("X",), ("a", "b"), SchemeIPublic, SchemeIKeyPair,
    keygen=lambda cfg, e1, e2, rng: keygen1(cfg, e1, e2, rng),
    challenge=lambda pub, cfg, rng: challenge1(pub, cfg, rng),
    respond=lambda keys, Y: respond1(keys, Y),
    verify=lambda pub, ch, resp: verify1(pub, ch.c, ch.d, resp),
    expected_digest=lambda pub, ch: _expected_digest1(pub, ch.c, ch.d),
)
SCHEME_II = Scheme(
    2, ("e", "f", "base", "X"), ("X", "base"), ("a",), SchemeIIPublic, SchemeIIKeyPair,
    keygen=lambda cfg, e1, e2, rng: keygen2(cfg, e1, e2, rng),
    challenge=lambda pub, cfg, rng: challenge2(pub, cfg, rng),
    respond=lambda keys, Y: respond2(keys, Y),
    verify=lambda pub, ch, resp: verify2(pub, ch.b, resp),
    expected_digest=lambda pub, ch: _expected_digest2(pub, ch.b),
)
SCHEMES = {scheme.number: scheme for scheme in (SCHEME_I, SCHEME_II)}
SchemeIPublic.scheme = SchemeIKeyPair.scheme = SCHEME_I
SchemeIIPublic.scheme = SchemeIIKeyPair.scheme = SCHEME_II


# ---------------------------------------------------------------------------
# Sessions and the transcript simulator
# ---------------------------------------------------------------------------

def run_session(
    keys: "SchemeIKeyPair | SchemeIIKeyPair",
    cfg: SessionConfig,
    verifier_rng: DeterministicRng,
) -> Transcript:
    """Run the configured number of rounds between an honest prover and an
    honest verifier; accepted iff every round verifies.

    Verifier randomness comes only from ``verifier_rng`` and only through the
    challenge samplers, which is what makes the simulator comparison exact.
    """
    scheme = keys.scheme
    rounds = []
    for _ in range(cfg.rounds):
        ch = scheme.challenge(keys.public, cfg.sampler, verifier_rng)
        resp = scheme.respond(keys, ch.Y)
        rounds.append(RoundRecord(ch.Y, resp.digest, scheme.verify(keys.public, ch, resp)))
    return Transcript(tuple(rounds), all(r.accepted for r in rounds))


def simulate_transcript(
    pub: "SchemeIPublic | SchemeIIPublic",
    cfg: SessionConfig,
    rng: DeterministicRng,
) -> Transcript:
    """Produce an accepting transcript from public data alone.

    Draws the verifier ephemerals with the same sampler calls as a live
    session, then emits the digest the verifier would accept. No secret key
    is a parameter, so none can be consulted.
    """
    scheme = pub.scheme
    rounds = []
    for _ in range(cfg.rounds):
        ch = scheme.challenge(pub, cfg.sampler, rng)
        rounds.append(RoundRecord(ch.Y, scheme.expected_digest(pub, ch), True))
    return Transcript(tuple(rounds), True)


# ---------------------------------------------------------------------------
# Key files: line-based "field = value" text, braids as lowercase hex
# ---------------------------------------------------------------------------

def _key_text(number: int, fields) -> str:
    lines = [f"scheme = {number}"]
    for name, value in fields:
        text = serialize(value).hex() if isinstance(value, CanonicalForm) else value
        lines.append(f"{name} = {text}")
    return "\n".join(lines) + "\n"


def format_public_key(pub: "SchemeIPublic | SchemeIIPublic") -> str:
    return _key_text(pub.scheme.number, zip(("n",) + pub.scheme.public_fields, _values(pub)))


def format_secret_key(keys: "SchemeIKeyPair | SchemeIIKeyPair") -> str:
    fields = zip(("n",) + keys.scheme.secret_fields, (keys.public.n,) + _values(keys)[1:])
    return _key_text(keys.scheme.number, fields)


def _parse_fields(text: str) -> dict[str, str]:
    fields = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise InvalidParameterError(f"bad key-file line {raw!r}")
        key, _, value = line.partition("=")
        fields[key.strip()] = value.strip()
    return fields


def _field(fields: dict[str, str], name: str) -> str:
    if name not in fields:
        raise InvalidParameterError(f"key file is missing field {name!r}")
    return fields[name]


def _int_field(fields: dict[str, str], name: str) -> int:
    text = _field(fields, name)
    try:
        return int(text)
    except ValueError:
        raise InvalidParameterError(f"key file field {name} is not an integer: {text!r}") from None


def _braid_field(fields: dict[str, str], name: str, n: int) -> CanonicalForm:
    try:
        data = bytes.fromhex(_field(fields, name))
    except ValueError:
        raise InvalidParameterError(f"key file field {name} is not hex braid text") from None
    x = deserialize(data)
    if x.n != n:
        raise InvalidParameterError(f"{name} has {x.n} strands, file says {n}")
    return x


def parse_public_key(text: str) -> "SchemeIPublic | SchemeIIPublic":
    fields = _parse_fields(text)
    number = _int_field(fields, "scheme")
    if number not in SCHEMES:
        raise InvalidParameterError(f"unknown scheme {number}")
    scheme = SCHEMES[number]
    n = _int_field(fields, "n")
    braids = [_braid_field(fields, name, n) for name in scheme.hello_braids]
    exponents = [check_exponent(name, _int_field(fields, name)) for name in scheme.exponent_names]
    return scheme.public_of(n, exponents, braids)


def parse_keypair(public_text: str, secret_text: str) -> "SchemeIKeyPair | SchemeIIKeyPair":
    """Combine a public and a secret key file. Scheme and strand count must
    agree; whether the secret actually matches the public key is decided by
    the protocol itself, not at parse time."""
    pub = parse_public_key(public_text)
    scheme = pub.scheme
    fields = _parse_fields(secret_text)
    number = _int_field(fields, "scheme")
    n = _int_field(fields, "n")
    if number != scheme.number or n != pub.n:
        raise InvalidParameterError(
            f"secret file (scheme {number}, n {n}) does not match public file "
            f"(scheme {scheme.number}, n {pub.n})"
        )
    secrets = [_braid_field(fields, name, n) for name in scheme.secret_fields]
    return scheme.keypair_type(pub, *secrets)
