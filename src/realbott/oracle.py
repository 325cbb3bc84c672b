"""Brute-force decision of graded-ring isomorphism, with witnesses.

Both rings are generated in degree 1, so any graded unital isomorphism is
determined by a linear map on the span of {x, y}.  There are only 16
candidate substitutions; each is checked semantically: does it carry the
source relations into the target ideal, and is the induced map bijective
in every degree?  Non-invertible matrices are not excluded up front: for
degenerate presentations (a = 1 or b = 1) the generators are dependent in
the quotient, and a singular substitution can still induce an isomorphism.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .cohomology import RingPresentation, betti
from .gf2poly import LinearSubstitution, clmul, linear_power

__all__ = [
    "IsoVerdict",
    "enumerate_substitutions",
    "induces_homomorphism",
    "is_graded_isomorphism",
    "rings_isomorphic_bruteforce",
]


@dataclass(frozen=True)
class IsoVerdict:
    """Result of an isomorphism search; witness present iff isomorphic."""

    isomorphic: bool
    witness: Optional[LinearSubstitution] = None

    def __post_init__(self):
        if self.isomorphic != (self.witness is not None):
            raise ValueError("witness must be present exactly when isomorphic")


_FORMS = ((0, 0), (0, 1), (1, 0), (1, 1))
_SUBSTITUTIONS = tuple(LinearSubstitution(fx, fy) for fx in _FORMS for fy in _FORMS)


def enumerate_substitutions() -> list[LinearSubstitution]:
    """All 16 maps sending x, y to linear forms in {0, x, y, x+y}."""
    return list(_SUBSTITUTIONS)


def _check_same_shape(src: RingPresentation, dst: RingPresentation) -> None:
    if (src.a, src.b) != (dst.a, dst.b):
        raise ValueError(
            f"comparison requires equal (a, b): got ({src.a}, {src.b}) "
            f"vs ({dst.a}, {dst.b})"
        )


def induces_homomorphism(
    subst: LinearSubstitution, src: RingPresentation, dst: RingPresentation
) -> bool:
    """True iff both source relations land in the target ideal.

    With x -> L1 and y -> L2 the relations x^a and (x+y)^q y^(b-q) map to
    L1^a and (L1+L2)^q L2^(b-q), homogeneous of degrees a and b.
    """
    _check_same_shape(src, dst)
    fx, fy = subst.forms
    if dst.reduce(linear_power(fx, src.a), src.a):
        return False
    image = clmul(linear_power(fx ^ fy, src.q), linear_power(fy, src.b - src.q))
    return not dst.reduce(image, src.b)


def _rank_bits(rows: list[int]) -> int:
    """Rank over GF(2) of rows given as bitmasks (xor elimination)."""
    pivots: dict[int, int] = {}
    rank = 0
    for row in rows:
        while row:
            lead = row.bit_length() - 1
            if lead in pivots:
                row ^= pivots[lead]
            else:
                pivots[lead] = row
                rank += 1
                break
    return rank


def is_graded_isomorphism(
    subst: LinearSubstitution, src: RingPresentation, dst: RingPresentation
) -> bool:
    """True iff the substitution induces a bijective graded ring map.

    Checks the homomorphism condition first, then, degree by degree, that
    the images of the source basis monomials span the full target graded
    piece.  Equal Hilbert functions make full rank in every degree
    equivalent to bijectivity, but the rank is still computed rather than
    assumed.
    """
    _check_same_shape(src, dst)
    if not induces_homomorphism(subst, src, dst):
        return False
    fx, fy = subst.forms
    xpows = [linear_power(fx, i) for i in range(src.a)]
    ypows = [linear_power(fy, j) for j in range(src.b)]
    for d in range(src.top_degree + 1):
        rows = [dst.reduce(clmul(xpows[i], ypows[j]), d) for i, j in src.basis(d)]
        if _rank_bits(rows) != betti(dst, d):
            return False
    return True


def rings_isomorphic_bruteforce(
    src: RingPresentation, dst: RingPresentation
) -> IsoVerdict:
    """Try all 16 substitutions; return the first working witness, if any."""
    _check_same_shape(src, dst)
    for subst in enumerate_substitutions():
        if is_graded_isomorphism(subst, src, dst):
            return IsoVerdict(True, subst)
    return IsoVerdict(False)
