"""Brute-force decision of graded-ring isomorphism, with witnesses.

Both rings are generated in degree 1, so a graded unital isomorphism is
determined by a substitution x -> L1, y -> L2 with L1, L2 linear forms,
each a degree-1 form mask: 16 candidates, each checked semantically.  Does
it carry the source relations into the target ideal, and is the induced map
bijective?  rings_isomorphic_bruteforce returns the first substitution that
passes, its witness, or None.

Lemma (degree 1).  The image of a ring map is a subalgebra and the target
is generated in degree 1, so the map is onto, hence bijective (both rings
have dimension a*b), iff L1 and L2 span the target's degree-1 piece: a
homomorphism is an isomorphism iff their reduced images have rank
betti(dst, 1).  Over GF(2) the rank of two masks is the number of distinct
nonzero ones (_rank).  The tests check this against an all-degree rank
test.  When a, b >= 2 that rank is 2, so only the six substitutions in
GL2(F2) can pass, and only they are searched.  On the rows a = 1 and b = 1 a
singular substitution can be an isomorphism, and all 16 are searched.

Lemma (ideals).  RingPresentation._rel2, the identity's relation_image, is
(x+y)^q y^(b-q) cut to the x-exponents below a, which differs from it by
a multiple of x^a.  So rings of one (a, b) cell with equal _rel2 have the
same ideal, and the identity is an isomorphism between them.

Lemma (images).  Let I_q = (x^a, r_q), r_q = (x+y)^q y^(b-q).  An
invertible substitution s induces an isomorphism M(q) -> M(q') iff
s(I_q) = I_q': it carries I_q into I_q', and both quotients have
dimension a*b.  Then s(r_q) is a nonzero element of I_q' in degree b, so
its cut below x^a is _rel2 of q', except when a = b, q is 0 or b and
s(r_q) = x^a: that cut is 0, and s(I_q) is I_0 or I_b, which the identity
and the complement reach.  Invertible substitutions join every class of a
cell: for a, b >= 2 by the degree-1 lemma; the row a = 1 has one ideal; on
the row b = 1 the complement carries I_0 to I_1.

Classes.  By the ideals lemma a ring's class depends only on its ideal, so
cell_classes lands the images s(r_q) once per ideal, from its first ring,
and names the class by the least q of the ideals that the cuts name and
that pass is_graded_isomorphism.  Only the identity check, from each ring
to the first ring of its ideal, is per ring; it is the identity's landing,
and its failing is a fault.
"""

from __future__ import annotations

from typing import Optional

from .cohomology import RingPresentation, betti
from .gf2poly import IDENTITY_SUBSTITUTION, LinearSubstitution, linear_power

__all__ = [
    "cell_classes",
    "induces_homomorphism",
    "is_graded_isomorphism",
    "rings_isomorphic_bruteforce",
]


def _rank(u: int, v: int) -> int:
    """The rank of two degree-1 masks over GF(2): the number of distinct nonzero ones."""
    return len({u, v} - {0})


# form masks 0, y, x, x+y: the search order
_SUBSTITUTIONS = tuple(LinearSubstitution(fx, fy) for fx in range(4) for fy in range(4))
# the six in GL2(F2), in search order: the only candidates when a, b >= 2
_INVERTIBLE = tuple(subst for subst in _SUBSTITUTIONS if _rank(subst.fx, subst.fy) == 2)
_NONIDENTITY = tuple(subst for subst in _INVERTIBLE if subst != IDENTITY_SUBSTITUTION)


def induces_homomorphism(
    subst: LinearSubstitution, src: RingPresentation, dst: RingPresentation
) -> bool:
    """True iff both source relations land in the target ideal.

    With x -> L1 and y -> L2 the relations x^a and (x+y)^q y^(b-q) map to
    L1^a and (L1+L2)^q L2^(b-q), homogeneous of degrees a and b.
    """
    if (src.a, src.b) != (dst.a, dst.b):
        raise ValueError(f"comparison requires equal (a, b): got ({src.a}, {src.b}) "
                         f"vs ({dst.a}, {dst.b})")
    if dst.reduce(linear_power(subst.fx, src.a), src.a):
        return False
    return not dst.reduce(src.relation_image(subst), src.b)


def is_graded_isomorphism(
    subst: LinearSubstitution, src: RingPresentation, dst: RingPresentation
) -> bool:
    """True iff the substitution induces a bijective graded ring map.

    Checks the homomorphism condition, then that L1 and L2 span the
    target's degree-1 piece; by the lemma in the module docstring that
    is bijectivity.  The rank is computed rather than assumed.  The shapes
    are checked by induces_homomorphism.
    """
    if not induces_homomorphism(subst, src, dst):
        return False
    # each form mask is its degree-1 piece
    return _rank(dst.reduce(subst.fx, 1), dst.reduce(subst.fy, 1)) == betti(dst, 1)


def rings_isomorphic_bruteforce(
    src: RingPresentation, dst: RingPresentation
) -> Optional[LinearSubstitution]:
    """Search the substitutions x -> L1, y -> L2, L1 the outer loop and each
    form in the order 0, y, x, x+y, and return the first witness of an
    isomorphism, or None if there is none.  When betti(dst, 1) == 2 only
    the six invertible ones are tried: by the degree-1 lemma the other ten
    fail the rank check, so the first witness is that of all 16."""
    for subst in _SUBSTITUTIONS if betti(dst, 1) < 2 else _INVERTIBLE:
        if is_graded_isomorphism(subst, src, dst):
            return subst
    return None


def cell_classes(a: int, b: int) -> list[int]:
    """Entry q is the least q' with M(q') isomorphic to M(q) (see the module
    docstring), so entries q and q' are equal exactly when M(q) and M(q')
    are isomorphic.  The class depends only on the ideal, so the landings
    of the five other invertible substitutions are computed and checked
    once per distinct _rel2.  The identity lands on the ideal itself; it is
    checked from every ring to the first ring of its ideal, and
    RuntimeError is raised if that check fails."""
    rings = [RingPresentation(a, b, q) for q in range(b + 1)]
    ideals: dict[int, RingPresentation] = {}  # the first ring of each ideal, by _rel2
    for ring in rings:
        first = ideals.setdefault(ring._rel2, ring)
        if not is_graded_isomorphism(IDENTITY_SUBSTITUTION, ring, first):
            raise RuntimeError(f"the identity is not an isomorphism from M(q={ring.q}) "
                               f"within one ideal at a={a}, b={b}")
    least: dict[int, int] = {}  # the class of each ideal, by _rel2
    for key, ring in ideals.items():
        landings = [ring.q]  # the identity's, checked above
        for subst in _NONIDENTITY:
            target = ideals.get(ring.relation_image(subst))
            if target is not None and is_graded_isomorphism(subst, ring, target):
                landings.append(target.q)
        least[key] = min(landings)
    return [least[ring._rel2] for ring in rings]
