"""Honest-verifier zero knowledge, made concrete.

A transcript shows (challenge, response digest, verdict). The simulator
samples verifier randomness exactly like a live verifier and emits the digest
the verifier would accept, computed from the public key alone; its signature
has no secret-key parameter at all. Under a shared coin stream the simulated
transcript is byte-identical to the real one, so transcripts reveal nothing
an observer could not have produced alone.
"""

import braidauth as ba
from braidauth import DeterministicRng, SamplerConfig
import braidauth.protocol as P

cfg = SamplerConfig(n=16, word_length=32, min_canonical_length=4, seed=33)
session = P.SessionConfig(rounds=3, sampler=cfg)
keys = P.keygen1(cfg, 2, 3, DeterministicRng(cfg.seed, "prover"))

# Same coin stream on both sides of the comparison.
real = P.run_session(keys, session, DeterministicRng(123, "shared-coins"))
simulated = P.simulate_transcript(keys.public, session, DeterministicRng(123, "shared-coins"))

print("real transcript:")
for line in P.transcript_text(real).splitlines():
    print("  " + line[:64] + "...")
print("\nsimulated transcript (no secret key consulted):")
for line in P.transcript_text(simulated).splitlines():
    print("  " + line[:64] + "...")

print("\nfield-for-field equal:", real == simulated)
print("text dumps byte-identical:", P.transcript_text(real) == P.transcript_text(simulated))

# Different coins give a different, but identically-distributed, exchange.
other = P.simulate_transcript(keys.public, session, DeterministicRng(124, "shared-coins"))
print("fresh coins give a fresh transcript:", other != simulated)

# Scheme 2 simulates the same way.
keys2 = P.keygen2(cfg, 2, 2, DeterministicRng(cfg.seed, "prover2"))
session2 = P.SessionConfig(rounds=2, sampler=cfg)
real2 = P.run_session(keys2, session2, DeterministicRng(55, "coins2"))
sim2 = P.simulate_transcript(keys2.public, session2, DeterministicRng(55, "coins2"))
print("scheme 2 simulator exact as well:", real2 == sim2)
