"""Exact mod-2 cohomology and diffeomorphism classification for
projectivized sums of real line bundles over real projective space."""

from .arithmetic import (
    ClassificationVerdict,
    classify,
    cohomology_criterion,
    counterexample_pair,
    diffeo_criterion,
    h_of,
    k_of,
    rigidity_holds,
)
from .cohomology import (
    RingElement,
    RingPresentation,
    betti,
    nonvanishing_check,
    normal_form,
    total_sw_class,
)
from .gf2poly import (
    COMPLEMENT_SUBSTITUTION,
    IDENTITY_SUBSTITUTION,
    LinearSubstitution,
    PolyGF2,
    substitute_linear,
)
from .oracle import (
    cell_classes,
    induces_homomorphism,
    is_graded_isomorphism,
    rings_isomorphic_bruteforce,
)

__version__ = "0.1.0"

__all__ = [
    "PolyGF2",
    "substitute_linear",
    "LinearSubstitution",
    "IDENTITY_SUBSTITUTION",
    "COMPLEMENT_SUBSTITUTION",
    "RingPresentation",
    "RingElement",
    "normal_form",
    "nonvanishing_check",
    "betti",
    "total_sw_class",
    "cell_classes",
    "induces_homomorphism",
    "is_graded_isomorphism",
    "rings_isomorphic_bruteforce",
    "h_of",
    "k_of",
    "cohomology_criterion",
    "diffeo_criterion",
    "rigidity_holds",
    "counterexample_pair",
    "ClassificationVerdict",
    "classify",
]
