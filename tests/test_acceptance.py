"""Acceptance criteria, one test per criterion, at their stated scales.

Each test prints one PASS line when its criterion holds; a failed assertion
is the FAIL line. Criteria 1-4 feed every canonical form they materialize
into a shared registry that criterion 5 re-validates wholesale. Run with
``pytest tests/test_acceptance.py -v -s``; the whole module is sized for a
laptop-scale run.
"""

import itertools
import random
import time

import pytest

import braidauth.braid as B
import braidauth.oracle as O
import braidauth.protocol as P
from braidauth.hashing import deserialize, hash_braid, serialize
from braidauth.netpair import VerifierServer, run_prover
from braidauth.rewriting import RewritingClosure
from braidauth.rng import DeterministicRng
from braidauth.sampling import SamplerConfig
import conftest
from conftest import random_braid_word
from test_hashing import GOLDEN_DIGESTS, golden_inputs
from test_wire_net import send_fuzz_frame

SESSION_LENGTHS = {4: 8, 8: 16, 16: 24}
EXPONENT_PAIRS = [(2, 2), (2, 3), (3, 2), (3, 3)]

# every canonical form materialized by criteria 1-4, re-validated by criterion 5
FORM_REGISTRY: "list[B.CanonicalForm]" = []


def note_forms(*forms: B.CanonicalForm) -> None:
    FORM_REGISTRY.extend(forms)


def passed(number: int, name: str, detail: str) -> None:
    line = f"ACCEPTANCE {number} PASS {name}: {detail}"
    print("\n" + line)
    conftest.ACCEPTANCE_LINES.append(line)


# ---------------------------------------------------------------------------
# 1. Completeness
# ---------------------------------------------------------------------------

def test_criterion_01_completeness():
    sessions_per_combo = 250  # x4 exponent pairs = 1000 sessions per (scheme, n)
    totals = {}
    for scheme in (1, 2):
        for n, length in SESSION_LENGTHS.items():
            cfg = SamplerConfig(n=n, word_length=length, min_canonical_length=3, seed=n)
            accepted = 0
            run = 0
            for exp_index, (exp1, exp2) in enumerate(EXPONENT_PAIRS):
                kg_rng = DeterministicRng(1000 + n + exp_index, f"kg{scheme}")
                if scheme == 1:
                    keys = P.keygen1(cfg, exp1, exp2, kg_rng)
                else:
                    keys = P.keygen2(cfg, exp1, exp2, kg_rng)
                note_forms(keys.public.X)
                session = P.SessionConfig(1, cfg)
                for k in range(sessions_per_combo):
                    coins = DeterministicRng(k, f"s{scheme}-{n}-{exp_index}")
                    transcript = P.run_session(keys, session, coins)
                    run += 1
                    accepted += transcript.accepted
                    note_forms(*(r.challenge for r in transcript.rounds))
            totals[(scheme, n)] = (accepted, run)
            assert accepted == run == 1000, (
                f"scheme {scheme} n={n}: {accepted}/{run} accepted"
            )
    detail = "; ".join(
        f"scheme {s} n={n}: {a}/{r}" for (s, n), (a, r) in sorted(totals.items())
    )
    passed(1, "completeness", detail)


# ---------------------------------------------------------------------------
# 2. Braid-level verification identity
# ---------------------------------------------------------------------------

def test_criterion_02_braid_level_identity():
    instances_per_scheme = 500
    sizes = itertools.cycle(SESSION_LENGTHS.items())
    failures = 0
    for scheme in (1, 2):
        rng = DeterministicRng(2, f"crit2-{scheme}")
        for k in range(instances_per_scheme):
            n, length = next(sizes)
            cfg = SamplerConfig(n=n, word_length=length, min_canonical_length=2, seed=0)
            if scheme == 1:
                keys = P.keygen1(cfg, 2, 3, rng.spawn(f"kg{k}"))
                pub = keys.public
                ch = P.challenge1(pub, cfg, rng.spawn(f"ch{k}"))
                lhs = B.multiply(
                    B.multiply(B.power(keys.a, pub.r), ch.Y), B.power(keys.b, pub.s_exp)
                )
                rhs = B.multiply(
                    B.multiply(B.power(ch.c, pub.r), pub.X), B.power(ch.d, pub.s_exp)
                )
            else:
                keys2 = P.keygen2(cfg, 2, 3, rng.spawn(f"kg{k}"))
                pub2 = keys2.public
                ch2 = P.challenge2(pub2, cfg, rng.spawn(f"ch{k}"))
                lhs = B.multiply(
                    B.multiply(B.power(keys2.a, pub2.e), ch2.Y), B.power(keys2.a, pub2.f)
                )
                rhs = B.multiply(
                    B.multiply(B.power(ch2.b, pub2.e), pub2.X), B.power(ch2.b, pub2.f)
                )
            note_forms(lhs, rhs)
            failures += not B.equals(lhs, rhs)
    assert failures == 0
    passed(2, "braid-level identity", f"2x{instances_per_scheme} instances, {failures} failures")


# ---------------------------------------------------------------------------
# 3. Normal-form correctness against the rewriting closure
# ---------------------------------------------------------------------------

def test_criterion_03_rewriting_closure_agreement():
    start = time.monotonic()
    closure = RewritingClosure(3, 8)
    alphabet = [B.GeneratorLetter(i, s) for i in (1, 2) for s in (1, -1)]
    words = [
        B.BraidWord(3, letters)
        for length in range(5)
        for letters in itertools.product(alphabet, repeat=length)
    ]
    forms = [B.normalize(w) for w in words]
    disagreements = 0
    pairs = 0
    for i in range(len(words)):
        fi = forms[i]
        for j in range(i + 1, len(words)):
            pairs += 1
            if (fi == forms[j]) != closure.equal(words[i], words[j]):
                disagreements += 1
    elapsed = time.monotonic() - start
    assert disagreements == 0
    assert elapsed <= 60.0, f"criterion 3 took {elapsed:.1f}s"
    passed(3, "normal-form correctness",
           f"{len(words)} words, {pairs} pairs, 0 disagreements, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 4. Garside identities
# ---------------------------------------------------------------------------

def test_criterion_04_garside_identities():
    rng = random.Random(4)
    checked = 0
    for n in range(3, 9):
        d = B.delta(n)
        d2 = B.power(d, 2)
        for _ in range(200):
            x = B.normalize(random_braid_word(rng, n, rng.randrange(0, 14)))
            note_forms(x)
            assert B.multiply(d, x) == B.multiply(B.tau(x), d)
            assert B.tau(B.tau(x)) == x
            assert B.multiply(d2, x) == B.multiply(x, d2)
            checked += 1
    passed(4, "Garside identities", f"{checked} braids across n=3..8, 0 failures")


# ---------------------------------------------------------------------------
# 5. Left-weightedness validator pass
# ---------------------------------------------------------------------------

def test_criterion_05_left_weightedness_validator():
    assert len(FORM_REGISTRY) > 5000, "criteria 1-4 must run first in this module"
    violations = 0
    for x in FORM_REGISTRY:
        try:
            B.validate_canonical_form(x.n, x.inf, x.factors)
        except Exception:
            violations += 1
    assert violations == 0
    passed(5, "left-weightedness", f"{len(FORM_REGISTRY)} forms validated, 0 violations")


# ---------------------------------------------------------------------------
# 6. Root oracle
# ---------------------------------------------------------------------------

def test_criterion_06_root_oracle():
    rng = random.Random(6)
    recovered = 0
    planted = 0
    while planted < 50:
        length = rng.randrange(1, 3)
        x = B.normalize(random_braid_word(rng, 3, length))
        e = rng.choice((2, 3))
        planted += 1
        y = B.power(x, e)
        root = O.brute_force_root(O.RootQuery(y, e, 2))
        assert root is not None, f"planted root of length {length} not found"
        assert B.equals(B.power(root, e), y)
        recovered += 1

    # filter soundness: filtered and unfiltered searches agree everywhere
    checked = 0
    for letters in O.iter_reduced_words(3, 3):
        y = B.normalize(B.BraidWord(3, letters))
        for e in (2, 3):
            q = O.RootQuery(y, e, 3)
            assert O.brute_force_root(q, use_filter=True) == O.brute_force_root(
                q, use_filter=False
            )
            checked += 1
    passed(6, "root oracle", f"{recovered}/50 planted roots, filter agreed on {checked} instances")


# ---------------------------------------------------------------------------
# 7. Soundness experiments
# ---------------------------------------------------------------------------

def test_criterion_07_soundness_experiments():
    cfg8 = SamplerConfig(n=8, word_length=32, min_canonical_length=3, seed=7)
    keys8 = P.keygen1(cfg8, 2, 2, DeterministicRng(7, "kg"))

    rand_report = O.impersonation_experiment(
        keys8, O.STRATEGY_RANDOM, 10_000, DeterministicRng(71), sampler=cfg8
    )
    assert rand_report.successes == 0

    replay_report = O.impersonation_experiment(
        keys8, O.STRATEGY_REPLAY, 10_000, DeterministicRng(72), sampler=cfg8
    )
    assert replay_report.successes == 0

    cfg3 = SamplerConfig(n=3, word_length=2, min_canonical_length=2, seed=73)
    keys3 = P.keygen1(cfg3, 2, 2, DeterministicRng(73, "kg"))
    toy_report = O.impersonation_experiment(
        keys3, O.STRATEGY_ROOT, 20, DeterministicRng(74), sampler=cfg3, root_bound=2
    )
    assert toy_report.successes == 20

    hard_report = O.impersonation_experiment(
        keys8,
        O.STRATEGY_ROOT,
        100,
        DeterministicRng(75),
        sampler=cfg8,
        root_bound=8,
        search_budget=100_000,
    )
    assert hard_report.successes == 0

    passed(
        7,
        "soundness experiments",
        f"random {rand_report.successes}/10000, replay {replay_report.successes}/10000, "
        f"toy root {toy_report.successes}/20, hard root {hard_report.successes}/100",
    )


# ---------------------------------------------------------------------------
# 8. HVZK simulator
# ---------------------------------------------------------------------------

def test_criterion_08_hvzk_simulator():
    mismatches = 0
    sessions = 0
    for scheme in (1, 2):
        cfg = SamplerConfig(n=8, word_length=16, min_canonical_length=2, seed=8)
        if scheme == 1:
            keys = P.keygen1(cfg, 2, 3, DeterministicRng(81, "kg"))
        else:
            keys = P.keygen2(cfg, 3, 2, DeterministicRng(82, "kg"))
        session = P.SessionConfig(2, cfg)
        for k in range(100):
            shared = f"coins-{scheme}-{k}"
            real = P.run_session(keys, session, DeterministicRng(800 + k, shared))
            sim = P.simulate_transcript(keys.public, session, DeterministicRng(800 + k, shared))
            sessions += 1
            if real != sim or P.transcript_text(real) != P.transcript_text(sim):
                mismatches += 1
    assert mismatches == 0
    passed(8, "HVZK simulator", f"{sessions} shared-coin sessions, byte-identical, 0 mismatches")


# ---------------------------------------------------------------------------
# 9. Serialization and wire robustness
# ---------------------------------------------------------------------------

def test_criterion_09_serialization_and_wire():
    rng = random.Random(9)
    for k in range(100_000):
        n = rng.choice((3, 4, 5, 6))
        x = B.normalize(random_braid_word(rng, n, rng.randrange(0, 7)))
        if deserialize(serialize(x)) != x:
            pytest.fail(f"round trip changed {x}")

    for name, x in golden_inputs().items():
        assert hash_braid(x).hex() == GOLDEN_DIGESTS[name], f"golden digest {name} drifted"

    srv = VerifierServer(rounds=1, word_length=8, seed=90)
    srv.start()
    host, port = srv.address
    fuzz_rng = random.Random(90)
    try:
        for k in range(10_000):
            send_fuzz_frame(host, port, fuzz_rng)
        cfg = SamplerConfig(n=8, word_length=16, min_canonical_length=2, seed=91)
        keys = P.keygen1(cfg, 2, 2, DeterministicRng(91, "kg"))
        verdicts = run_prover(host, port, keys)
        assert all(v.accepted for v in verdicts), "server unhealthy after fuzzing"
    finally:
        srv.stop()
    passed(9, "serialization and wire",
           "100000 round trips bit-exact, 5 golden digests stable, 10000 fuzz frames, 0 crashes")


# ---------------------------------------------------------------------------
# 10. Torsion-freeness
# ---------------------------------------------------------------------------

def test_criterion_10_torsion_freeness():
    rng = random.Random(10)
    checked = 0
    while checked < 100:
        n = rng.choice((3, 4, 5, 6, 8))
        x = B.normalize(random_braid_word(rng, n, rng.randrange(1, 11)))
        if x == B.identity(n):
            continue
        checked += 1
        for e in (2, 3):
            assert B.power(x, e) != B.identity(n), f"{x}^{e} collapsed to identity"
    passed(10, "torsion-freeness", f"{checked} nontrivial braids, e in {{2,3}}, 0 failures")
