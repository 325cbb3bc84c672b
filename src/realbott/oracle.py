"""Brute-force decision of graded-ring isomorphism, with witnesses.

Both rings are generated in degree 1, so any graded unital isomorphism is
determined by a linear map on the span of {x, y}.  There are only 16
candidate substitutions; each is checked semantically: does it carry the
source relations into the target ideal, and is the induced map bijective
in every degree?  Non-invertible matrices are not excluded up front: for
degenerate presentations (a = 1 or b = 1) the generators are dependent in
the quotient, and a singular substitution can still induce an isomorphism.

Two of the three checks never read the source's q: x^a maps to L^a for L
the image of x, and the span check maps the basis monomials x^i y^j
(i < a, j < b), which depend on (a, b) alone.  Their verdicts are kept on
the target ring, so a sweep over many sources with one target makes each
of them once per substitution; only the second relation is tested for
every pair.
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


def _target_checks(dst: RingPresentation) -> dict:
    """The substitutions that carry x^a into dst's ideal, in search order,
    each mapped to its span verdict (None until the span check has run).

    Made on first use and kept on dst; never empty once made, since 0^a
    and x^a vanish in every ring.
    """
    checks = dst._target_checks
    if not checks:
        for subst in _SUBSTITUTIONS:
            if not dst.reduce(linear_power(subst.forms[0], dst.a), dst.a):
                checks[subst] = None
    return checks


def induces_homomorphism(
    subst: LinearSubstitution, src: RingPresentation, dst: RingPresentation
) -> bool:
    """True iff both source relations land in the target ideal.

    With x -> L1 and y -> L2 the relations x^a and (x+y)^q y^(b-q) map to
    L1^a and (L1+L2)^q L2^(b-q), homogeneous of degrees a and b.  The
    verdict on L1^a is read from the target's memo.
    """
    _check_same_shape(src, dst)
    if subst not in _target_checks(dst):
        return False
    fx, fy = subst.forms
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


def _spans_every_degree(subst: LinearSubstitution, dst: RingPresentation) -> bool:
    """Whether the images of the basis monomials span every graded piece of dst."""
    fx, fy = subst.forms
    xpows = [linear_power(fx, i) for i in range(dst.a)]
    ypows = [linear_power(fy, j) for j in range(dst.b)]
    for d in range(dst.top_degree + 1):
        rows = [dst.reduce(clmul(xpows[i], ypows[j]), d) for i, j in dst.basis(d)]
        if _rank_bits(rows) != betti(dst, d):
            return False
    return True


def is_graded_isomorphism(
    subst: LinearSubstitution, src: RingPresentation, dst: RingPresentation
) -> bool:
    """True iff the substitution induces a bijective graded ring map.

    Checks the homomorphism condition first, then, degree by degree, that
    the images of the source basis monomials span the full target graded
    piece.  Equal Hilbert functions make full rank in every degree
    equivalent to bijectivity, but the rank is still computed rather than
    assumed.  The source basis depends on (a, b) alone, so the span
    verdict is computed once per target and substitution and then reused.
    """
    _check_same_shape(src, dst)
    if not induces_homomorphism(subst, src, dst):
        return False
    checks = _target_checks(dst)
    if checks[subst] is None:
        checks[subst] = _spans_every_degree(subst, dst)
    return checks[subst]


def rings_isomorphic_bruteforce(
    src: RingPresentation, dst: RingPresentation
) -> IsoVerdict:
    """Search the 16 substitutions in enumerate_substitutions() order and
    return the first working witness, if any.

    A substitution whose image of x^a misses the target ideal is rejected
    by the target's memo; every other one gets the full homomorphism test
    and, if that passes, the span check (memoized on the target).
    """
    _check_same_shape(src, dst)
    for subst in _target_checks(dst):
        if is_graded_isomorphism(subst, src, dst):
            return IsoVerdict(True, subst)
    return IsoVerdict(False)
