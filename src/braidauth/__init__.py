"""braidauth: exact braid-group arithmetic and root-problem identification.

The package is organized around the unique left canonical form: ``braid``
holds the group arithmetic, ``sampling`` the random words and the commuting
strand-block subgroups, ``hashing`` the canonical serialization and digest,
``protocol`` the two challenge-response schemes with their transcript
simulator, ``oracle`` the toy-scale root solver and impersonation
experiments, and ``wire``/``netpair``/``cli`` the framed TCP pair and the
command line around it.
"""

from .braid import (
    BraidWord,
    CanonicalForm,
    GeneratorLetter,
    braidword_to_permutation,
    canonical_length,
    delta,
    delta_word,
    equals,
    generator,
    identity,
    inverse,
    multiply,
    normalize,
    permutation_to_braidword,
    power,
    tau,
    to_braidword,
    validate_canonical_form,
    word,
)
from .errors import (
    BraidAuthError,
    EncodingError,
    FrameError,
    InvalidParameterError,
    SamplingFailure,
    SearchExhausted,
)
from .hashing import deserialize, hash_braid, serialize
from .oracle import (
    AttackReport,
    RootQuery,
    brute_force_root,
    exponent_sum,
    impersonation_experiment,
)
from .protocol import (
    ChallengeI,
    ChallengeII,
    Response,
    SchemeIKeyPair,
    SchemeIIKeyPair,
    SchemeIIPublic,
    SchemeIPublic,
    SessionConfig,
    Transcript,
    challenge1,
    challenge2,
    keygen1,
    keygen2,
    respond1,
    respond2,
    run_session,
    simulate_transcript,
    verify1,
    verify2,
)
from .rewriting import RewritingClosure
from .rng import DeterministicRng
from .sampling import (
    SamplerConfig,
    SubgroupSide,
    is_hard_instance,
    sample_subgroup_word,
    sample_word,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
