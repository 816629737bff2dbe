"""Scheme 2: one secret sandwiching a public base braid, k rounds.

The prover picks a complicated public base braid, a single lower-block
secret a, and publishes X = a^e * base * a^f. Challenges sandwich the same
base with an upper-block b; the response digests a^e * Y * a^f, which equals
b^e * X * b^f because a and b commute. The protocol runs as a k-round
challenge-response session with fresh verifier randomness per round.
"""

import braidauth as ba
from braidauth import DeterministicRng, SamplerConfig
import braidauth.protocol as P

cfg = SamplerConfig(n=16, word_length=48, min_canonical_length=6, seed=21)
e, f = 2, 2

keys = P.keygen2(cfg, e, f, DeterministicRng(cfg.seed, "prover"))
pub = keys.public
print("public key: n =", pub.n, " e =", pub.e, " f =", pub.f)
print("  base: canonical length", ba.canonical_length(pub.base))
print("  X:    canonical length", ba.canonical_length(pub.X))
print("secret a: canonical length", ba.canonical_length(keys.a))

# k rounds through the session machinery.
k = 5
session = P.SessionConfig(rounds=k, sampler=cfg)
transcript = P.run_session(keys, session, DeterministicRng(7, "verifier"))
print(f"\n{k}-round session, fresh challenge each round:")
for idx, rec in enumerate(transcript.rounds):
    print(f"  round {idx + 1}: |Y| = {ba.canonical_length(rec.challenge):3d}  "
          f"Z = {rec.digest.hex()[:16]}...  verdict = {int(rec.accepted)}")
print("accepted:", transcript.accepted)

# Challenges never repeat across rounds or sessions.
blobs = {ba.serialize(rec.challenge) for rec in transcript.rounds}
print("distinct challenges in the session:", len(blobs), "of", k)

# A degenerate challenge is still answered (the response is then just the
# digest of X).
resp = P.respond2(keys, pub.base)
print("\ndegenerate challenge Y = base gives Z = H(X):",
      resp.digest == ba.hash_braid(pub.X))
