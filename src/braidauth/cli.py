"""Command-line front end: braidauth <keygen|prove|verify-serve|run-local|attack|selftest>.

Exit codes: 0 accept/success, 1 reject or failed selftest, 2 usage error,
3 file I/O error, 4 network or protocol error. Every out-of-range setting
exits 2 with one message form, "<name> must be an int >= <lo>" (or "in
[<lo>, <hi>]"), from the library's own check. The environment variable
BRAIDAUTH_SEED is read once and overrides --seed everywhere. verify-serve
given neither passes no seed, and ``VerifierServer`` draws its own from OS
entropy, so challenges do not repeat across restarts.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import oracle
from . import protocol as P
from .braid import MAX_STRANDS
from .errors import BraidAuthError, InvalidParameterError, check_int
from .netpair import ProverError, VerifierServer, run_prover
from .rng import DeterministicRng
from .sampling import SamplerConfig
from .selftest import DEFAULT_SIZES, run_selftest

EXIT_OK = 0
EXIT_REJECT = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_NET = 4

DEFAULT_DEMO_LENGTH = 128
DEFAULT_MIN_CANONICAL = 8


def _fail(message: str, code: int) -> int:
    print(f"braidauth: {message}", file=sys.stderr)
    return code


def _sampler_of(args) -> SamplerConfig:
    return SamplerConfig(
        n=args.n,
        word_length=args.len,
        min_canonical_length=min(DEFAULT_MIN_CANONICAL, max(args.len, 1)),
        seed=args.seed,
    )


def _key_sampler_of(args) -> SamplerConfig:
    """keygen's and run-local's sampler: below 4 strands a strand block has no
    generator, and every key braid would be the identity."""
    if args.n < 4 or args.n % 2 != 0:
        raise InvalidParameterError(f"n must be an even int >= 4, got {args.n}")
    return _sampler_of(args)


def _keygen(args, sampler: SamplerConfig):
    rng = DeterministicRng(args.seed, "keygen")
    return P.SCHEMES[args.scheme].keygen(sampler, args.exp1, args.exp2, rng)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_keygen(args) -> int:
    sampler = _key_sampler_of(args)
    print(sampler.echo())
    keys = _keygen(args, sampler)
    pub_path = args.out + ".pub"
    sec_path = args.out + ".sec"
    try:
        with open(pub_path, "w") as fh:
            fh.write(P.format_public_key(keys.public))
        with open(sec_path, "w") as fh:
            fh.write(P.format_secret_key(keys))
    except OSError as exc:
        return _fail(f"cannot write key files: {exc}", EXIT_IO)
    print(f"wrote {pub_path} and {sec_path}")
    return EXIT_OK


def _load_keypair(pub_path: str, sec_path: str):
    with open(pub_path) as fh:
        pub_text = fh.read()
    with open(sec_path) as fh:
        sec_text = fh.read()
    return P.parse_keypair(pub_text, sec_text)


def cmd_prove(args) -> int:
    try:
        keys = _load_keypair(args.pub, args.sec)
    except OSError as exc:
        return _fail(f"cannot read key files: {exc}", EXIT_IO)
    try:
        verdicts = run_prover(args.host, args.port, keys, log=lambda m: print(m))
    except ProverError as exc:
        return _fail(str(exc), EXIT_NET)
    if all(v.accepted for v in verdicts):
        print("ACCEPTED")
        return EXIT_OK
    print("REJECTED")
    return EXIT_REJECT


def _verifier_of(args) -> VerifierServer:
    return VerifierServer(
        host=args.host,
        port=args.port,
        rounds=args.rounds,
        word_length=args.len,
        seed=args.seed,
        expect_scheme=args.scheme,
        max_sessions=args.max_sessions,
        log=lambda m: print(m),
    )


def cmd_verify_serve(args) -> int:
    try:
        server = _verifier_of(args)
    except OSError as exc:
        return _fail(str(exc), EXIT_NET)
    host, port = server.address
    print(f"verifier listening on {host}:{port} (rounds={args.rounds})")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
    return EXIT_OK


def cmd_run_local(args) -> int:
    sampler = _key_sampler_of(args)
    session = P.SessionConfig(args.rounds, sampler)
    keys = _keygen(args, sampler)
    transcript = P.run_session(keys, session, DeterministicRng(args.seed, "verifier"))
    print(P.transcript_text(transcript))
    print("ACCEPTED" if transcript.accepted else "REJECTED")
    return EXIT_OK if transcript.accepted else EXIT_REJECT


def cmd_attack(args) -> int:
    sampler = _sampler_of(args)
    report = oracle.impersonation_experiment(
        _keygen(args, sampler),
        args.strategy,
        args.trials,
        DeterministicRng(args.seed, "attack"),
        rounds=args.rounds,
        sampler=sampler,
        root_bound=args.bound,
    )
    print(sampler.echo())
    print(oracle.report_table([report]))
    if report.note:
        print(f"note: {report.note}")
    if args.report_out:
        try:
            with open(args.report_out, "w") as fh:
                fh.write(oracle.report_text(report))
        except OSError as exc:
            return _fail(f"cannot write report: {exc}", EXIT_IO)
    return EXIT_OK


def cmd_selftest(args) -> int:
    failed = None
    for name, ok, detail in run_selftest(args.n, args.seed):
        print(f"{'ok  ' if ok else 'FAIL'} {name}" + (f": {detail}" if detail else ""))
        if not ok and failed is None:
            failed = name
    if failed is not None:
        print(f"selftest failed: {failed}", file=sys.stderr)
        return EXIT_REJECT
    print("selftest passed")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _strand_counts(text: str) -> tuple[int, ...]:
    """selftest's --n: comma-separated strand counts, each at least 3; at 2 no
    key braid passes the hardness floor, so key generation cannot succeed."""
    try:
        return tuple(check_int("n", int(part), 3, MAX_STRANDS) for part in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _add_scheme_flags(sub) -> None:
    sub.add_argument("--scheme", type=int, choices=sorted(P.SCHEMES), default=1)
    sub.add_argument("--n", type=int, default=16, help="strand count (even)")
    sub.add_argument("--r", "--e", dest="exp1", type=int, default=2, help="first exponent")
    sub.add_argument("--s", "--f", dest="exp2", type=int, default=2, help="second exponent")
    sub.add_argument("--len", type=int, default=DEFAULT_DEMO_LENGTH, help="sampled word length")
    sub.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="braidauth",
        description="Braid-group identification schemes: keys, sessions, attacks, selftest.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    kg = subs.add_parser("keygen", help="write public and secret key files")
    _add_scheme_flags(kg)
    kg.add_argument("--out", required=True, help="path prefix for <out>.pub and <out>.sec")
    kg.set_defaults(func=cmd_keygen)

    pv = subs.add_parser("prove", help="authenticate against a verifier server")
    pv.add_argument("--pub", required=True)
    pv.add_argument("--sec", required=True)
    pv.add_argument("--host", default="127.0.0.1")
    pv.add_argument("--port", type=int, required=True)
    pv.set_defaults(func=cmd_prove)

    vs = subs.add_parser("verify-serve", help="run the verifier as a TCP listener")
    vs.add_argument("--host", default="127.0.0.1")
    vs.add_argument("--port", type=int, default=0)
    vs.add_argument("--rounds", type=int, default=1)
    vs.add_argument("--len", type=int, default=32, help="challenge word length")
    vs.add_argument("--scheme", type=int, choices=sorted(P.SCHEMES), default=None,
                    help="refuse clients offering the other scheme")
    vs.add_argument("--max-sessions", type=int, default=None)
    vs.add_argument("--seed", type=int, default=None,
                    help="replay a fixed challenge stream (default: OS entropy)")
    vs.set_defaults(func=cmd_verify_serve)

    rl = subs.add_parser("run-local", help="run an honest in-process session")
    _add_scheme_flags(rl)
    rl.add_argument("--rounds", type=int, default=1)
    rl.set_defaults(func=cmd_run_local)

    at = subs.add_parser("attack", help="run an impersonation experiment")
    _add_scheme_flags(at)
    at.add_argument("--strategy", choices=oracle.STRATEGIES, required=True)
    at.add_argument("--trials", type=int, default=100)
    at.add_argument("--rounds", type=int, default=1)
    at.add_argument("--bound", type=int, default=None, help="root-search word length bound")
    at.add_argument("--report-out", default=None, help="also write the key=value report here")
    at.set_defaults(func=cmd_attack)

    st = subs.add_parser("selftest", help="run the invariant battery")
    st.add_argument("--n", type=_strand_counts, default=DEFAULT_SIZES,
                    help="comma-separated strand counts")
    st.add_argument("--seed", type=int, default=0)
    st.set_defaults(func=cmd_selftest)

    return parser


def main(argv: "list[str] | None" = None) -> int:
    args = build_parser().parse_args(argv)
    env = os.environ.get("BRAIDAUTH_SEED")
    if env is not None and hasattr(args, "seed"):
        try:
            args.seed = int(env)
        except ValueError:
            return _fail(f"BRAIDAUTH_SEED must be an integer, got {env!r}", EXIT_USAGE)
    try:
        return args.func(args)
    except BraidAuthError as exc:
        return _fail(str(exc), EXIT_USAGE)


if __name__ == "__main__":
    sys.exit(main())
