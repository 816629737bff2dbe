"""Brute-force root solving at toy scale, and impersonation experiments.

The root search enumerates freely reduced words in a fixed order (shorter
first, then lexicographic with the positive letter before the negative at the
same index) and returns the first braid whose e-th power matches the target.
It is an oracle for desk-scale parameters, not an algorithm for real ones:
the candidate count grows as (2(n-1))^L, so every search carries an explicit
candidate budget and fails loudly when it runs out.

The impersonation experiments run full verifier sessions against a responder
that holds no secret key: a uniform-digest guesser, a replayer of an
eavesdropped session, a root-recovery attacker that searches the strand
blocks for the secrets behind the public key and, when it finds them, plays
the protocol honestly, and a strand splitter. The root attacker wins exactly
when the root search is feasible. The splitter needs no root: scheme 1's
X = a^r * b^s keeps its blocks apart, so its lower strands alone are a^r and
its upper strands b^s, and it wins scheme 1 at every size. It fails against
scheme 2, yet nothing makes scheme 2's base cross the blocks: on a weak key,
where forget(X, lower) * forget(X, upper) = X, the honest answer
a^e * Y * a^f is forget(X, lower) * forget(Y, upper).
"""

from __future__ import annotations

import dataclasses
from typing import Callable

from . import braid as braid_ops
from . import permutations as perms
from .braid import BraidWord, CanonicalForm, GeneratorLetter, equals, inverse, multiply, power
from .errors import InvalidParameterError, SearchExhausted, check_int
from .hashing import hash_braid
from .protocol import (
    SCHEME_I,
    SCHEME_II,
    Response,
    SchemeIKeyPair,
    SchemeIIKeyPair,
    SessionConfig,
    run_session,
)
from .rng import DeterministicRng
from .sampling import (
    SamplerConfig,
    iter_reduced_words,
    lower_generator_indices,
    upper_generator_indices,
)

DEFAULT_SEARCH_BUDGET = 200_000


@dataclasses.dataclass(frozen=True)
class RootQuery:
    """Find x with x^e = y, searching words up to ``max_word_length`` letters."""

    y: CanonicalForm
    e: int
    max_word_length: int

    def __post_init__(self):
        check_int("root degree", self.e, 2)
        check_int("max_word_length", self.max_word_length, 0)


def exponent_sum(w: BraidWord) -> int:
    """Sum of letter signs; invariant under the braid relations and free
    cancellation, so a homomorphism to the integers."""
    return sum(sign for _, sign in w.letters)


def canonical_exponent_sum(x: CanonicalForm) -> int:
    """The same homomorphism evaluated on a canonical form: the half twist
    contributes n(n-1)/2, each factor its inversion count."""
    n = x.n
    return x.inf * (n * (n - 1) // 2) + sum(perms.inversion_count(f) for f in x.factors)


class _Countdown:
    """Shared candidate budget across nested searches."""

    def __init__(self, budget: int):
        self.budget = budget
        self.tested = 0

    def tick(self) -> None:
        self.tested += 1
        if self.tested > self.budget:
            raise SearchExhausted(self.tested - 1, self.budget)


def _root_search(
    y: CanonicalForm,
    e: int,
    max_word_length: int,
    indices: "range | list[int] | None",
    countdown: _Countdown,
    use_filter: bool,
) -> CanonicalForm | None:
    n = y.n
    if use_filter and canonical_exponent_sum(y) % e != 0:
        return None
    target_sum = canonical_exponent_sum(y)
    for letters in iter_reduced_words(n, max_word_length, indices):
        countdown.tick()
        if use_filter and sum(s for _, s in letters) * e != target_sum:
            continue
        x = braid_ops.normalize(BraidWord(n, letters))
        if equals(power(x, e), y):
            return x
    return None


def brute_force_root(
    q: RootQuery,
    *,
    use_filter: bool = True,
    max_candidates: int = DEFAULT_SEARCH_BUDGET,
) -> CanonicalForm | None:
    """Bounded exhaustive root extraction.

    Returns the first root in enumeration order, or None when no root exists
    within the length bound (which proves nothing about larger words). Raises
    :class:`SearchExhausted` when the candidate budget runs out first. Any
    returned value is re-verified against the query before it is returned.
    """
    countdown = _Countdown(max_candidates)
    x = _root_search(q.y, q.e, q.max_word_length, None, countdown, use_filter)
    if x is not None:
        assert equals(power(x, q.e), q.y)
    return x


# ---------------------------------------------------------------------------
# Impersonation experiments
# ---------------------------------------------------------------------------

STRATEGY_RANDOM = "random"
STRATEGY_REPLAY = "replay"
STRATEGY_ROOT = "root"
STRATEGY_SPLIT = "split"

STRATEGIES = (STRATEGY_RANDOM, STRATEGY_REPLAY, STRATEGY_ROOT, STRATEGY_SPLIT)


@dataclasses.dataclass(frozen=True)
class AttackReport:
    strategy: str
    trials: int
    successes: int
    parameters: SamplerConfig
    note: str = ""

    def __post_init__(self):
        if self.successes > self.trials:
            raise InvalidParameterError("successes cannot exceed trials")

    @property
    def rate(self) -> float:
        return self.successes / self.trials if self.trials else 0.0


def report_table(reports: "list[AttackReport]") -> str:
    """Fixed-column rendering of attack outcomes."""
    header = f"{'strategy':<14} {'trials':>8} {'successes':>10} {'rate':>8}"
    rows = [header, "-" * len(header)]
    for rep in reports:
        rows.append(
            f"{rep.strategy:<14} {rep.trials:>8} {rep.successes:>10} {rep.rate:>8.4f}"
        )
    return "\n".join(rows)


def report_text(rep: AttackReport) -> str:
    """The key=value text form of a report."""
    lines = [
        f"strategy = {rep.strategy}",
        f"trials = {rep.trials}",
        f"successes = {rep.successes}",
        f"rate = {rep.rate:.6f}",
        f"parameters = {rep.parameters.echo()}",
    ]
    if rep.note:
        lines.append(f"note = {rep.note}")
    return "\n".join(lines) + "\n"


def recover_scheme1_secrets(
    pub, bound: int, *, max_candidates: int = DEFAULT_SEARCH_BUDGET
) -> "tuple[CanonicalForm, CanonicalForm] | None":
    """Search the two strand blocks for (a', b') with a'^r * b'^s = X.

    Enumerates lower-block candidates; for each, peels its power off X and
    root-searches the residual over the upper block. Scheme 1 does not need
    this search to fall: :func:`forget_strands` reads a^r and b^s off X
    directly, and those powers are all a prover uses.
    """
    lower = lower_generator_indices(pub.n)
    upper = upper_generator_indices(pub.n)
    countdown = _Countdown(max_candidates)
    for letters in iter_reduced_words(pub.n, bound, lower):
        countdown.tick()
        a = braid_ops.normalize(BraidWord(pub.n, letters))
        residual = multiply(inverse(power(a, pub.r)), pub.X)
        b = _root_search(residual, pub.s_exp, bound, upper, countdown, True)
        if b is not None:
            return a, b
    return None


def recover_scheme2_secrets(
    pub, bound: int, *, max_candidates: int = DEFAULT_SEARCH_BUDGET
) -> "tuple[CanonicalForm] | None":
    """Search the lower block for a' with a'^e * base * a'^f = X."""
    lower = lower_generator_indices(pub.n)
    countdown = _Countdown(max_candidates)
    for letters in iter_reduced_words(pub.n, bound, lower):
        countdown.tick()
        a = braid_ops.normalize(BraidWord(pub.n, letters))
        candidate = multiply(multiply(power(a, pub.e), pub.base), power(a, pub.f))
        if equals(candidate, pub.X):
            return (a,)
    return None


# The root search of each scheme, giving the secrets in key-pair order.
_ROOT_SEARCHES = {SCHEME_I: recover_scheme1_secrets, SCHEME_II: recover_scheme2_secrets}


def forget_strands(x: CanonicalForm, keep: range) -> CanonicalForm:
    """The braid of the strands in ``keep`` alone: walk a word of x, keep a
    crossing when both its strands are kept, and re-index it by their rank
    among the kept strands. On braids that map ``keep`` onto itself, such as
    scheme 1's block products a * b, this is a homomorphism."""
    at = list(range(x.n))  # the strand at each position
    below = [sum(s in keep for s in range(p)) for p in range(x.n)]  # kept strands left of p
    letters = []
    for i, sign in braid_ops.to_braidword(x).letters:
        left, right = at[i - 1], at[i]
        if left in keep and right in keep:
            letters.append(GeneratorLetter(keep.start + below[i - 1] + 1, sign))
        at[i - 1], at[i] = right, left
        below[i] = below[i - 1] + (right in keep)
    return braid_ops.normalize(BraidWord(x.n, tuple(letters)))


def _make_responder(
    keys: "SchemeIKeyPair | SchemeIIKeyPair",
    strategy: str,
    rng: DeterministicRng,
    cfg: SessionConfig,
    root_bound: int,
    search_budget: int,
) -> "tuple[Callable[[CanonicalForm, int], bytes], str]":
    """Build the secret-less responder for a strategy.

    Returns (respond(Y, round_index) -> digest, note). Only public data, the
    experiment rng, and an eavesdropped transcript ever reach the responder.
    """
    pub = keys.public

    if strategy == STRATEGY_RANDOM:
        return (lambda Y, k: rng.randbytes(32)), "uniform 32-byte guesses"

    if strategy == STRATEGY_REPLAY:
        eavesdropped = run_session(keys, cfg, rng.spawn("eavesdrop"))
        digests = [r.digest for r in eavesdropped.rounds]
        note = "replaying digests from one eavesdropped honest session"
        return (lambda Y, k: digests[k % len(digests)]), note

    if strategy == STRATEGY_ROOT:
        recovered: "SchemeIKeyPair | SchemeIIKeyPair | None" = None
        try:
            found = _ROOT_SEARCHES[pub.scheme](pub, root_bound, max_candidates=search_budget)
            if found is not None:
                recovered = pub.scheme.keypair_type(pub, *found)
        except SearchExhausted as exc:
            note = f"root search exhausted ({exc.candidates_tested} candidates)"
        else:
            note = (
                f"recovered secrets within word length {root_bound}"
                if recovered is not None
                else f"no root within word length {root_bound}"
            )

        if recovered is None:
            # Nothing recovered: answer with the digest of the bare challenge.
            return (lambda Y, k: hash_braid(Y)), note
        return (lambda Y, k: pub.scheme.respond(recovered, Y).digest), note

    if strategy == STRATEGY_SPLIT:
        # X's lower strands as the left factor, its upper strands as the right.
        m = pub.n // 2
        left = forget_strands(pub.X, range(m))
        right = forget_strands(pub.X, range(m, pub.n))
        note = "answering with X's lower- and upper-strand braids around Y"
        return (lambda Y, k: hash_braid(multiply(multiply(left, Y), right))), note

    raise InvalidParameterError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")


def impersonation_experiment(
    keys: "SchemeIKeyPair | SchemeIIKeyPair",
    strategy: str,
    trials: int,
    rng: DeterministicRng,
    *,
    sampler: SamplerConfig,
    rounds: int = 1,
    root_bound: int | None = None,
    search_budget: int = DEFAULT_SEARCH_BUDGET,
) -> AttackReport:
    """Count how often a secret-less responder gets an honest verifier to
    accept, over full sessions with fresh challenges.

    The keypair parameterizes the experiment (the verifier needs the public
    key, the replay strategy needs one eavesdroppable honest session); the
    responder itself never receives the secrets.
    """
    check_int("trials", trials, 1)
    pub = keys.public
    scheme = keys.scheme
    cfg = SessionConfig(rounds, sampler)
    bound = sampler.word_length if root_bound is None else check_int("root_bound", root_bound, 0)
    respond, note = _make_responder(keys, strategy, rng.spawn("responder"), cfg, bound, search_budget)

    verifier_rng = rng.spawn("verifier")
    successes = 0
    for _ in range(trials):
        ok = True
        for k in range(rounds):
            ch = scheme.challenge(pub, sampler, verifier_rng)
            ok = scheme.verify(pub, ch, Response(respond(ch.Y, k))) and ok
        successes += int(ok)
    return AttackReport(strategy, trials, successes, sampler, note)
