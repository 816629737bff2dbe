import pytest

import braidauth.braid as B
import braidauth.oracle as O
import braidauth.protocol as P
from braidauth.errors import InvalidParameterError, SearchExhausted
from braidauth.hashing import hash_braid
from braidauth.rng import DeterministicRng
from braidauth.sampling import SamplerConfig
from conftest import random_braid_word


def cf(n, text):
    return B.normalize(B.word(n, text))


# ---------------------------------------------------------------------------
# Exponent sum
# ---------------------------------------------------------------------------

def test_exponent_sum_examples():
    assert O.exponent_sum(B.word(3, "s1 s2 s1")) == 3
    assert O.exponent_sum(B.word(3, "s1 S1")) == 0
    assert O.exponent_sum(B.word(3, "")) == 0


def test_exponent_sum_is_a_homomorphism(rng):
    for _ in range(50):
        n = rng.choice((3, 4, 6))
        u = random_braid_word(rng, n, rng.randrange(0, 8))
        v = random_braid_word(rng, n, rng.randrange(0, 8))
        uv = B.BraidWord(n, u.letters + v.letters)
        assert O.exponent_sum(uv) == O.exponent_sum(u) + O.exponent_sum(v)


def test_canonical_exponent_sum_matches_word_sum(rng):
    for _ in range(100):
        n = rng.choice((3, 4, 6, 8))
        w = random_braid_word(rng, n, rng.randrange(0, 12))
        assert O.canonical_exponent_sum(B.normalize(w)) == O.exponent_sum(w)


def test_exponent_sum_of_power(rng):
    for e in (2, 3, 5):
        w = random_braid_word(rng, 4, 6)
        x = B.normalize(w)
        assert O.canonical_exponent_sum(B.power(x, e)) == e * O.exponent_sum(w)


# ---------------------------------------------------------------------------
# Enumeration order
# ---------------------------------------------------------------------------

def test_iter_reduced_words_order_and_reduction():
    words = list(O.iter_reduced_words(3, 2))
    assert words[0] == ()
    # length 1 block, positive sign before negative at equal index
    assert words[1:5] == [
        (B.GeneratorLetter(1, 1),),
        (B.GeneratorLetter(1, -1),),
        (B.GeneratorLetter(2, 1),),
        (B.GeneratorLetter(2, -1),),
    ]
    lengths = [len(w) for w in words]
    assert lengths == sorted(lengths)
    for w in words:
        for x, y in zip(w, w[1:]):
            assert not (x.index == y.index and x.sign == -y.sign)
    # count: 1 + 4 + 4*3
    assert len(words) == 17


def test_iter_reduced_words_restricted_alphabet():
    words = list(O.iter_reduced_words(8, 2, indices=[5, 7]))
    used = {letter.index for w in words for letter in w}
    assert used == {5, 7}


# ---------------------------------------------------------------------------
# Root search
# ---------------------------------------------------------------------------

def test_root_query_validation():
    y = cf(3, "s1 s1")
    with pytest.raises(InvalidParameterError):
        O.RootQuery(y, 1, 4)
    with pytest.raises(InvalidParameterError):
        O.RootQuery(y, 2, -1)


def test_brute_force_root_examples():
    root = O.brute_force_root(O.RootQuery(cf(3, "s1 s1"), 2, 1))
    assert root == cf(3, "s1")

    delta_sq = B.power(cf(3, "s1 s2"), 3)
    assert delta_sq == B.CanonicalForm(3, 2, ())
    root = O.brute_force_root(O.RootQuery(delta_sq, 3, 2))
    assert root == cf(3, "s1 s2")

    # exponent-sum early-out: 2 does not divide 1
    assert O.brute_force_root(O.RootQuery(cf(3, "s1"), 2, 3)) is None


def test_root_soundness_on_planted_instances(rng):
    for _ in range(30):
        length = rng.randrange(1, 3)
        w = random_braid_word(rng, 3, length)
        x = B.normalize(w)
        for e in (2, 3):
            y = B.power(x, e)
            root = O.brute_force_root(O.RootQuery(y, e, 2))
            assert root is not None
            assert B.equals(B.power(root, e), y)


def test_monotonicity_in_word_length_bound():
    y = B.power(cf(3, "s1 s2"), 2)
    found = {}
    for bound in (0, 1, 2, 3, 4):
        found[bound] = O.brute_force_root(O.RootQuery(y, 2, bound))
    assert found[0] is None and found[1] is None
    assert found[2] is not None
    # once found, larger bounds return the same first-in-order root
    assert found[2] == found[3] == found[4]


def test_filter_never_prunes_a_solvable_instance():
    # exhaustive cross-check of filtered vs unfiltered search
    targets = [B.BraidWord(3, w) for w in O.iter_reduced_words(3, 3)]
    for wt in targets:
        y = B.normalize(wt)
        for e in (2, 3):
            q = O.RootQuery(y, e, 3)
            with_filter = O.brute_force_root(q, use_filter=True)
            without_filter = O.brute_force_root(q, use_filter=False)
            assert with_filter == without_filter


def test_search_budget_exhaustion():
    y = cf(4, "s1 s2 s3 s1 s2 s1")
    with pytest.raises(SearchExhausted) as exc:
        O.brute_force_root(O.RootQuery(y, 2, 8), max_candidates=50, use_filter=False)
    assert exc.value.candidates_tested == 50
    assert exc.value.budget == 50


# ---------------------------------------------------------------------------
# Impersonation experiments
# ---------------------------------------------------------------------------

def toy_keys():
    cfg = SamplerConfig(n=3, word_length=2, min_canonical_length=2, seed=5)
    return P.keygen1(cfg, 2, 2, DeterministicRng(5, "kg")), cfg


def test_root_attack_breaks_toy_parameters():
    keys, cfg = toy_keys()
    report = O.impersonation_experiment(
        keys, O.STRATEGY_ROOT, 20, DeterministicRng(6), sampler=cfg, root_bound=2
    )
    assert report.successes == report.trials == 20
    assert report.rate == 1.0


def test_root_attack_fails_at_real_parameters():
    cfg = SamplerConfig(n=8, word_length=32, min_canonical_length=3, seed=7)
    keys = P.keygen1(cfg, 2, 2, DeterministicRng(7, "kg"))
    report = O.impersonation_experiment(
        keys,
        O.STRATEGY_ROOT,
        5,
        DeterministicRng(8),
        sampler=cfg,
        root_bound=8,
        search_budget=2000,
    )
    assert report.successes == 0
    assert "exhausted" in report.note


def test_random_digest_attack_fails():
    cfg = SamplerConfig(n=8, word_length=32, min_canonical_length=3, seed=9)
    keys = P.keygen1(cfg, 2, 2, DeterministicRng(9, "kg"))
    report = O.impersonation_experiment(
        keys, O.STRATEGY_RANDOM, 200, DeterministicRng(10), sampler=cfg
    )
    assert report.trials == 200
    assert report.successes == 0


def test_replay_attack_fails_against_fresh_challenges():
    cfg = SamplerConfig(n=8, word_length=32, min_canonical_length=3, seed=11)
    keys = P.keygen2(cfg, 2, 2, DeterministicRng(11, "kg"))
    report = O.impersonation_experiment(
        keys, O.STRATEGY_REPLAY, 200, DeterministicRng(12), sampler=cfg
    )
    assert report.successes == 0


def test_scheme2_root_attack_toy():
    cfg = SamplerConfig(n=4, word_length=2, min_canonical_length=1, seed=13)
    keys = P.keygen2(cfg, 2, 2, DeterministicRng(13, "kg"))
    report = O.impersonation_experiment(
        keys, O.STRATEGY_ROOT, 10, DeterministicRng(14), sampler=cfg, root_bound=2
    )
    assert report.successes == 10


def test_forget_strands_splits_scheme1_keys_into_their_powers():
    cfg = SamplerConfig(n=8, word_length=16, min_canonical_length=3, seed=7)
    keys = P.keygen1(cfg, 2, 3, DeterministicRng(7, "kg"))
    X = keys.public.X
    assert B.equals(O.forget_strands(X, range(4)), B.power(keys.a, 2))
    assert B.equals(O.forget_strands(X, range(4, 8)), B.power(keys.b, 3))
    assert O.forget_strands(cf(4, "s1 s1 S3"), range(2)) == cf(4, "s1 s1")
    assert O.forget_strands(cf(4, "s1 s1 S3"), range(2, 4)) == cf(4, "S3")
    # strand 2 circles strand 0 and comes back: without it, nothing is left
    assert O.forget_strands(cf(3, "s2 s1 s1 S2"), range(2)) == B.identity(3)
    assert O.forget_strands(cf(3, "s2 s1 s1 S2"), range(1, 3)) == B.identity(3)


@pytest.mark.parametrize("n,length,trials", [(8, 16, 20), (64, 64, 3)])
def test_split_attack_wins_every_scheme1_session(n, length, trials):
    cfg = SamplerConfig(n=n, word_length=length, min_canonical_length=3, seed=7)
    keys = P.keygen1(cfg, 2, 3, DeterministicRng(7, "kg"))
    report = O.impersonation_experiment(
        keys, O.STRATEGY_SPLIT, trials, DeterministicRng(70), rounds=2, sampler=cfg
    )
    assert report.successes == report.trials == trials


def test_split_attack_fails_against_scheme2():
    cfg = SamplerConfig(n=8, word_length=16, min_canonical_length=3, seed=7)
    for k in range(3):
        keys = P.keygen2(cfg, 2, 3, DeterministicRng(k, "kg"))
        report = O.impersonation_experiment(
            keys, O.STRATEGY_SPLIT, 10, DeterministicRng(71 + k), sampler=cfg
        )
        assert report.successes == 0


def test_weak_scheme2_keys_fall_to_the_split():
    # A scheme 2 key is weak when no crossing of its base survives between the
    # blocks: forget(X, lower) * forget(X, upper) = X. Then the honest answer
    # a^e * Y * a^f is forget(X, lower) * forget(Y, upper), with no secret.
    cfg = SamplerConfig(8, 16, 3, 3)
    lower, upper = range(4), range(4, 8)
    rng = DeterministicRng(3, "weak")
    for _ in range(200):
        pub = P.keygen2(cfg, 2, 2, rng).public
        if B.equals(B.multiply(O.forget_strands(pub.X, lower),
                               O.forget_strands(pub.X, upper)), pub.X):
            break
    else:
        pytest.fail("no weak key among 200")
    left = O.forget_strands(pub.X, lower)
    verifier = DeterministicRng(4, "verifier")
    for _ in range(5):
        ch = P.challenge2(pub, cfg, verifier)
        answer = hash_braid(B.multiply(left, O.forget_strands(ch.Y, upper)))
        assert P.verify2(pub, ch.b, P.Response(answer))


def test_attack_report_validation_and_rendering():
    cfg = SamplerConfig(n=4, word_length=8, min_canonical_length=3, seed=0)
    with pytest.raises(InvalidParameterError):
        O.AttackReport("x", 5, 6, cfg)
    rep = O.AttackReport(O.STRATEGY_RANDOM, 100, 0, cfg, note="demo")
    table = O.report_table([rep])
    assert "random" in table and "100" in table and "0.0000" in table
    text = O.report_text(rep)
    assert "strategy = random" in text
    assert "parameters = n=4 L=8 minlen=3 seed=0" in text
    assert "note = demo" in text


def test_unknown_strategy_rejected():
    keys, cfg = toy_keys()
    with pytest.raises(InvalidParameterError):
        O.impersonation_experiment(keys, "voodoo", 5, DeterministicRng(1), sampler=cfg)


def test_bad_trials_and_root_bound_rejected():
    keys, cfg = toy_keys()
    with pytest.raises(InvalidParameterError, match="trials must be an int >= 1"):
        O.impersonation_experiment(keys, O.STRATEGY_RANDOM, 2.5, DeterministicRng(1), sampler=cfg)
    with pytest.raises(InvalidParameterError, match="root_bound must be an int >= 0"):
        O.impersonation_experiment(
            keys, O.STRATEGY_ROOT, 5, DeterministicRng(1), sampler=cfg, root_bound=-1
        )
