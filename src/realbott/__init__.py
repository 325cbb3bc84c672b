"""Exact mod-2 cohomology and diffeomorphism classification for
projectivized sums of real line bundles over real projective space."""

from .arithmetic import (
    ClassificationVerdict,
    OracleDisagreement,
    classify,
    classify_row,
    cohomology_criterion,
    counterexample_pair,
    diffeo_criterion,
    h_of,
    homotopy_criterion,
    k_of,
    binomial_rows_match,
    rigidity_holds,
)
from .cohomology import (
    RingElement,
    RingPresentation,
    betti,
    nonvanishing_check,
    normal_form,
    relation_polys,
    total_sw_class,
)
from .gf2poly import (
    COMPLEMENT_SUBSTITUTION,
    IDENTITY_SUBSTITUTION,
    SWAP_SUBSTITUTION,
    LinearSubstitution,
    PolyGF2,
    binom_mod2,
    substitute_linear,
)
from .oracle import (
    IsoVerdict,
    enumerate_substitutions,
    induces_homomorphism,
    is_graded_isomorphism,
    rings_isomorphic_bruteforce,
)

__version__ = "0.1.0"

__all__ = [
    "PolyGF2",
    "binom_mod2",
    "substitute_linear",
    "LinearSubstitution",
    "IDENTITY_SUBSTITUTION",
    "SWAP_SUBSTITUTION",
    "COMPLEMENT_SUBSTITUTION",
    "RingPresentation",
    "RingElement",
    "relation_polys",
    "normal_form",
    "nonvanishing_check",
    "betti",
    "total_sw_class",
    "IsoVerdict",
    "enumerate_substitutions",
    "induces_homomorphism",
    "is_graded_isomorphism",
    "rings_isomorphic_bruteforce",
    "h_of",
    "k_of",
    "cohomology_criterion",
    "diffeo_criterion",
    "homotopy_criterion",
    "rigidity_holds",
    "counterexample_pair",
    "binomial_rows_match",
    "ClassificationVerdict",
    "OracleDisagreement",
    "classify",
    "classify_row",
]
