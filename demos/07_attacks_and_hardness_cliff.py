"""Impersonation experiments: what an attacker without the secret can do.

Four strategies play the prover role against an honest verifier:

- random guesses 32 bytes a round,
- replay answers fresh challenges with digests from an eavesdropped session,
- root searches the strand blocks for secrets matching the public key
  and, if it finds them, simply plays honestly,
- split forgets strands of the public key: the lower strands of scheme 1's
  X = a^r * b^s are a^r and the upper ones b^s, since neither block crosses
  the other, and a^r * Y * b^s is the honest answer.

At deliberately broken toy sizes the root search succeeds every time, at
moderate sizes the same code drowns. That cliff is not what scheme 1's
security rests on: the split needs no root at all and wins scheme 1 at the
working size too. The split below gets nowhere against the scheme 2 key,
whose base crosses the blocks, but nothing makes a base cross: on a weak
key, where forget(X, lower) * forget(X, upper) = X, the answer
forget(X, lower) * forget(Y, upper) is the honest one. No proof says that
scheme 2's other keys resist every attack.
"""

import braidauth as ba
from braidauth import DeterministicRng, SamplerConfig
import braidauth.oracle as O
import braidauth.protocol as P

TRIALS = 300  # the acceptance suite runs 10_000; this is the quick tour

# -- guessing and replaying at working sizes --------------------------------

cfg = SamplerConfig(n=8, word_length=32, min_canonical_length=3, seed=41)
keys = P.keygen1(cfg, 2, 2, DeterministicRng(cfg.seed, "kg"))

reports = []
for strategy in (O.STRATEGY_RANDOM, O.STRATEGY_REPLAY):
    reports.append(
        O.impersonation_experiment(
            keys, strategy, TRIALS, DeterministicRng(42), sampler=cfg
        )
    )

# -- the root attack on both sides of the cliff -----------------------------

toy_cfg = SamplerConfig(n=3, word_length=2, min_canonical_length=2, seed=43)
toy_keys = P.keygen1(toy_cfg, 2, 2, DeterministicRng(toy_cfg.seed, "kg"))
reports.append(
    O.impersonation_experiment(
        toy_keys, O.STRATEGY_ROOT, 20, DeterministicRng(44), sampler=toy_cfg, root_bound=2
    )
)

reports.append(
    O.impersonation_experiment(
        keys, O.STRATEGY_ROOT, 20, DeterministicRng(45),
        sampler=cfg, root_bound=8, search_budget=50_000,
    )
)

# -- the strand split: no root needed for scheme 1 ---------------------------

keys2 = P.keygen2(cfg, 2, 2, DeterministicRng(cfg.seed, "kg"))
for target in (keys, keys2):
    reports.append(
        O.impersonation_experiment(target, O.STRATEGY_SPLIT, 20, DeterministicRng(46), sampler=cfg)
    )

print("toy parameters:", toy_cfg.echo())
print("working parameters:", cfg.echo())
print()
print(O.report_table(reports))
print("(split rows: the scheme 1 key above, a scheme 2 key of the same size below)")
print()
for rep in reports:
    if rep.note:
        print(f"{rep.strategy:<14} {rep.note}")

# -- the root problem itself, at desk scale ----------------------------------

print("\nthe underlying search: find x with x^e = y")
x = ba.normalize(ba.word(3, "s1 s2"))
y = ba.power(x, 3)
root = O.brute_force_root(O.RootQuery(y, 3, 2))
print("cube root of delta^2 on 3 strands:", root, "verified:",
      ba.equals(ba.power(root, 3), y))

pruned = O.brute_force_root(O.RootQuery(ba.normalize(ba.word(3, "s1")), 2, 4))
print("square root of s1: pruned by the exponent-sum filter ->", pruned)
