"""Named invariant checks runnable from the command line.

Each check raises AssertionError on violation; the runner turns that into a
(name, ok, detail) row. Parameters are test scale so the whole battery runs
in seconds; the pytest suite runs the same properties at their full sizes.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterable

from . import braid as B
from . import oracle
from . import protocol as P
from .hashing import deserialize, hash_braid, serialize
from .rewriting import RewritingClosure, insertion_neighbors, rewrite_neighbors
from .rng import DeterministicRng
from .sampling import (
    SamplerConfig,
    SubgroupSide,
    sample_subgroup_word,
    sample_word,
    upper_generator_indices,
)

DEFAULT_SIZES = (4, 8)


def _random_word(n: int, length: int, rng: DeterministicRng) -> B.BraidWord:
    cfg = SamplerConfig(n=n, word_length=length, min_canonical_length=1, seed=0)
    return sample_word(cfg, rng)


def _random_form(n: int, length: int, rng: DeterministicRng) -> B.CanonicalForm:
    return B.normalize(_random_word(n, length, rng))


def _random_rewrite(w: B.BraidWord, rng: DeterministicRng) -> B.BraidWord:
    """Take six random steps in the rewriting closure's graph: each step picks
    the word's relation rewrites (far commutations and braid relations, any
    signs) or its canceling-pair insertions, then one move among them. Every
    move is a group identity, so the word's value never changes."""
    letters = w.letters
    for _ in range(6):
        if rng.randbelow(2):
            moves = rewrite_neighbors(letters)
        else:
            moves = insertion_neighbors(letters, w.n, len(letters) + 2)
        if moves:
            letters = rng.choice(moves)
    return B.BraidWord(w.n, letters)


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

def check_relation_invariance(sizes: Iterable[int], rng: DeterministicRng) -> None:
    for n in sizes:
        for k in range(30):
            w = _random_word(n, 10, rng)
            w2 = _random_rewrite(w, rng)
            assert B.equals(B.normalize(w), B.normalize(w2)), (
                f"rewritten word changed value at n={n}: {w.to_text()} vs {w2.to_text()}"
            )


def check_left_weightedness(sizes: Iterable[int], rng: DeterministicRng) -> None:
    # The engine does not validate its own outputs; this check referees them.
    for n in sizes:
        for k in range(30):
            x, y = _random_form(n, 12, rng), _random_form(n, 12, rng)
            for z in (x, B.multiply(x, y), B.inverse(x), B.power(x, 3), B.tau(x)):
                B.validate_canonical_form(z.n, z.inf, z.factors)


def check_idempotence(sizes: Iterable[int], rng: DeterministicRng) -> None:
    for n in sizes:
        for k in range(30):
            x = _random_form(n, 12, rng)
            assert B.normalize(B.to_braidword(x)) == x, f"re-normalization changed {x}"


def check_delta_commutation(sizes: Iterable[int], rng: DeterministicRng) -> None:
    for n in sizes:
        d = B.delta(n)
        d2 = B.power(d, 2)
        for k in range(25):
            x = _random_form(n, 10, rng)
            assert B.multiply(d, x) == B.multiply(B.tau(x), d), "half twist commutation failed"
            assert B.multiply(d2, x) == B.multiply(x, d2), "squared half twist is not central"


def check_tau_involution(sizes: Iterable[int], rng: DeterministicRng) -> None:
    for n in sizes:
        for k in range(25):
            x = _random_form(n, 10, rng)
            assert B.tau(B.tau(x)) == x, "index flip applied twice is not the identity"


def check_group_laws(sizes: Iterable[int], rng: DeterministicRng) -> None:
    for n in sizes:
        for k in range(15):
            x, y, z = (_random_form(n, 8, rng) for _ in range(3))
            assert B.multiply(B.multiply(x, y), z) == B.multiply(x, B.multiply(y, z))
            assert B.multiply(x, B.inverse(x)) == B.identity(n)
            assert B.power(x, 3) == B.multiply(x, B.multiply(x, x))


def check_torsion_freeness(sizes: Iterable[int], rng: DeterministicRng) -> None:
    for n in sizes:
        count = 0
        while count < 20:
            x = _random_form(n, 8, rng)
            if x == B.identity(n):
                continue
            count += 1
            for e in (2, 3):
                assert B.power(x, e) != B.identity(n), f"torsion found: {x}^{e} trivial"


def check_permutation_bijection(sizes: Iterable[int], rng: DeterministicRng) -> None:
    for p in itertools.permutations(range(4)):
        w = B.permutation_to_braidword(p)
        assert B.braidword_to_permutation(w) == p
    for n in sizes:
        for k in range(20):
            x = _random_form(n, 8, rng)
            for f in x.factors:
                assert B.braidword_to_permutation(B.permutation_to_braidword(f)) == f


def check_brute_force_equivalence(sizes: Iterable[int], rng: DeterministicRng) -> None:
    closure = RewritingClosure(3, 7)
    alphabet = [B.GeneratorLetter(i, s) for i in (1, 2) for s in (1, -1)]
    words = [
        B.BraidWord(3, p)
        for length in range(4)
        for p in itertools.product(alphabet, repeat=length)
    ]
    forms = [B.normalize(w) for w in words]
    for i, j in itertools.combinations(range(len(words)), 2):
        garside = forms[i] == forms[j]
        oracle_eq = closure.equal(words[i], words[j])
        assert garside == oracle_eq, (
            f"equals disagrees with rewriting closure on "
            f"{words[i].to_text()!r} vs {words[j].to_text()!r}"
        )


def lower_block_positive_part(x: B.CanonicalForm) -> B.CanonicalForm:
    """Clear a negative half-twist power off a lower-block braid by central
    lower-block twists, exposing a positive representative whose factors must
    stay inside the block."""
    while x.inf < 0:
        lower_twist = B.normalize(B.BraidWord(x.n, B.delta_word(x.n // 2).letters))
        x = B.multiply(B.power(lower_twist, 2), x)
    return x


def check_subgroup_closure(sizes: Iterable[int], rng: DeterministicRng) -> None:
    for n in sizes:
        cfg = SamplerConfig(n=n, word_length=16, min_canonical_length=1, seed=0)
        upper_points = range(n // 2, n)
        for k in range(20):
            a = B.normalize(sample_subgroup_word(SubgroupSide.LOWER, cfg, rng))
            b = B.normalize(sample_subgroup_word(SubgroupSide.LOWER, cfg, rng))
            cleared = lower_block_positive_part(B.multiply(a, b))
            assert cleared.inf >= 0
            for f in cleared.factors:
                assert all(f[j] == j for j in upper_points), (
                    f"lower-block product moved an upper strand: {f}"
                )
                word_indices = {letter.index for letter in B.permutation_to_braidword(f).letters}
                assert all(i < n // 2 for i in word_indices), (
                    f"factor re-expansion used an out-of-block generator: {sorted(word_indices)}"
                )


def check_commutation(sizes: Iterable[int], rng: DeterministicRng) -> None:
    for n in sizes:
        cfg = SamplerConfig(n=n, word_length=12, min_canonical_length=1, seed=0)
        for k in range(40):
            a = B.normalize(sample_subgroup_word(SubgroupSide.LOWER, cfg, rng))
            b = B.normalize(sample_subgroup_word(SubgroupSide.UPPER, cfg, rng))
            assert B.multiply(a, b) == B.multiply(b, a), "blocks failed to commute"


def check_sampler_determinism(sizes: Iterable[int], rng: DeterministicRng) -> None:
    for n in sizes:
        cfg = SamplerConfig(n=n, word_length=24, min_canonical_length=1, seed=99)
        w1 = sample_word(cfg, DeterministicRng(99, "det"))
        w2 = sample_word(cfg, DeterministicRng(99, "det"))
        assert w1 == w2, "identical seeds produced different samples"


def check_serialization_roundtrip(sizes: Iterable[int], rng: DeterministicRng) -> None:
    for n in sizes:
        for k in range(40):
            x = _random_form(n, 10, rng)
            assert deserialize(serialize(x)) == x, f"round trip changed {x}"


def check_hash_well_definedness(sizes: Iterable[int], rng: DeterministicRng) -> None:
    for n in sizes:
        for k in range(20):
            w = _random_word(n, 10, rng)
            w2 = _random_rewrite(w, rng)
            assert hash_braid(B.normalize(w)) == hash_braid(B.normalize(w2))


def check_completeness(sizes: Iterable[int], rng: DeterministicRng) -> None:
    for n in sizes:
        cfg = SamplerConfig(n=n, word_length=12, min_canonical_length=2, seed=0)
        for scheme, exponents in ((P.SCHEME_I, (2, 3)), (P.SCHEME_II, (3, 2))):
            keys = scheme.keygen(cfg, *exponents, rng.spawn(f"kg{scheme.number}-{n}"))
            session = P.SessionConfig(2, cfg)
            for k in range(25):
                t = P.run_session(keys, session, rng.spawn(f"v{scheme.number}-{n}-{k}"))
                assert t.accepted, "honest session rejected"


def check_simulator_exactness(sizes: Iterable[int], rng: DeterministicRng) -> None:
    for n in sizes:
        cfg = SamplerConfig(n=n, word_length=12, min_canonical_length=2, seed=0)
        for scheme, exponents in ((P.SCHEME_I, (2, 2)), (P.SCHEME_II, (2, 3))):
            keys = scheme.keygen(cfg, *exponents, rng.spawn(f"skg{scheme.number}-{n}"))
            session = P.SessionConfig(2, cfg)
            for k in range(10):
                real = P.run_session(keys, session, DeterministicRng(1000 + k, f"coins-{n}"))
                sim = P.simulate_transcript(
                    keys.public, session, DeterministicRng(1000 + k, f"coins-{n}")
                )
                assert real == sim, "simulated transcript differs from the real one"
                assert P.transcript_text(real) == P.transcript_text(sim)


def check_root_oracle(sizes: Iterable[int], rng: DeterministicRng) -> None:
    for k in range(10):
        w = _random_word(3, 2, rng)
        x = B.normalize(w)
        for e in (2, 3):
            y = B.power(x, e)
            root = oracle.brute_force_root(oracle.RootQuery(y, e, 2))
            assert root is not None, f"no root found for planted {w.to_text()}^{e}"
            assert B.equals(B.power(root, e), y)


def check_challenge_freshness(sizes: Iterable[int], rng: DeterministicRng) -> None:
    n = max(sizes)
    if len(upper_generator_indices(n)) < 2:
        n = 8
    cfg = SamplerConfig(n=n, word_length=32, min_canonical_length=2, seed=0)
    keys = P.keygen1(cfg, 2, 2, rng.spawn("fresh-kg"))
    seen = set()
    for k in range(100):
        ch = P.challenge1(keys.public, cfg, rng)
        blob = serialize(ch.Y)
        assert blob not in seen, "challenge repeated"
        seen.add(blob)


ALL_CHECKS: "list[tuple[str, Callable[[Iterable[int], DeterministicRng], None]]]" = [
    ("relation-invariance", check_relation_invariance),
    ("left-weightedness", check_left_weightedness),
    ("idempotence", check_idempotence),
    ("delta-commutation", check_delta_commutation),
    ("tau-involution", check_tau_involution),
    ("group-laws", check_group_laws),
    ("torsion-freeness", check_torsion_freeness),
    ("permutation-bijection", check_permutation_bijection),
    ("brute-force-equivalence", check_brute_force_equivalence),
    ("subgroup-closure", check_subgroup_closure),
    ("commutation", check_commutation),
    ("sampler-determinism", check_sampler_determinism),
    ("serialization-roundtrip", check_serialization_roundtrip),
    ("hash-well-definedness", check_hash_well_definedness),
    ("completeness", check_completeness),
    ("simulator-exactness", check_simulator_exactness),
    ("root-oracle", check_root_oracle),
    ("challenge-freshness", check_challenge_freshness),
]


def run_selftest(sizes: Iterable[int] = DEFAULT_SIZES, seed: int = 0):
    """Run every check; yields (name, ok, detail) in order."""
    sizes = tuple(sizes)
    for name, check in ALL_CHECKS:
        rng = DeterministicRng(seed, f"selftest-{name}")
        try:
            check(sizes, rng)
        except AssertionError as exc:
            yield name, False, str(exc)
        except Exception as exc:  # a crash is a failure with the error attached
            yield name, False, f"{type(exc).__name__}: {exc}"
        else:
            yield name, True, ""
