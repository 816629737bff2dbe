"""Scheme 1, step by step: two commuting secrets in crossed-over blocks.

The prover holds a (lower block) and b (upper block) and publishes
X = a^r * b^s. The verifier challenges with Y = c^r * d^s built from its own
c (upper) and d (lower). Both sides can then compute the same braid:

    a^r * Y * b^s  =  a^r c^r d^s b^s  =  c^r (a^r b^s) d^s  =  c^r * X * d^s

because a,d live below the middle strand and b,c above it. The response is
the digest of that braid; anyone without (a, b) faces the root problem.
"""

import braidauth as ba
from braidauth import DeterministicRng, SamplerConfig
import braidauth.protocol as P

cfg = SamplerConfig(n=16, word_length=48, min_canonical_length=6, seed=11)
r, s_exp = 2, 3

print("key generation:", cfg.echo(), f"r={r} s={s_exp}")
keys = P.keygen1(cfg, r, s_exp, DeterministicRng(cfg.seed, "prover"))
pub = keys.public
print("  secret a: canonical length", ba.canonical_length(keys.a))
print("  secret b: canonical length", ba.canonical_length(keys.b))
print("  public X: canonical length", ba.canonical_length(pub.X))

verifier_rng = DeterministicRng(cfg.seed, "verifier")
print("\nthree authentication rounds:")
for round_index in range(3):
    challenge = P.challenge1(pub, cfg, verifier_rng)
    response = P.respond1(keys, challenge.Y)
    accepted = P.verify1(pub, challenge.c, challenge.d, response)
    print(f"  round {round_index + 1}: |Y| = {ba.canonical_length(challenge.Y):3d}  "
          f"Z = {response.digest.hex()[:16]}...  verdict = {int(accepted)}")

# The identity the verdict rests on, checked at the braid level (stronger
# than comparing digests).
challenge = P.challenge1(pub, cfg, verifier_rng)
prover_side = ba.multiply(ba.multiply(ba.power(keys.a, r), challenge.Y),
                          ba.power(keys.b, s_exp))
verifier_side = ba.multiply(ba.multiply(ba.power(challenge.c, r), pub.X),
                            ba.power(challenge.d, s_exp))
print("\npre-hash braids agree:", ba.equals(prover_side, verifier_side))

# The whole exchange through the session runner, as a transcript.
session = P.SessionConfig(rounds=3, sampler=cfg)
transcript = P.run_session(keys, session, DeterministicRng(99, "fresh-verifier"))
print("\ntranscript:")
for line in P.transcript_text(transcript).splitlines():
    print("  " + line[:60] + "...")
print("session accepted:", transcript.accepted)
