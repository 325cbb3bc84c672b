"""Brute-force decision of graded-ring isomorphism, with witnesses.

Both rings are generated in degree 1, so any graded unital isomorphism is
determined by a linear map on the span of {x, y}.  There are only 16
candidate substitutions x -> L1, y -> L2; each is checked semantically:
does it carry the source relations into the target ideal, and is the
induced map bijective?  Non-invertible matrices are not excluded up front:
for degenerate presentations (a = 1 or b = 1) the generators are dependent
in the quotient, and a singular substitution can still induce an
isomorphism.

Lemma (bijectivity is decided in degree 1).  The image of a ring
homomorphism is a subalgebra; the target is generated by its degree-1
piece, so the image is the whole target exactly when L1 and L2 span that
piece.  Both rings have dimension a*b, so onto means bijective.  Hence
a substitution is a graded isomorphism iff it induces a homomorphism and
the reduced degree-1 images of L1 and L2 have rank betti(dst, 1).  This
holds for every (a, b), the degenerate rows included; the test suite
checks it against an independent all-degree rank test.

Classes (one (a, b) cell from few searches).  Graded isomorphism is an
equivalence relation, so cell_isomorphisms walks q = 0..b and searches
ring q only against the class representatives found so far: on the first
witness rep -> q it joins that class, and if every representative gives
an exhaustive "no" it becomes a representative itself.  Every pair's
verdict then follows, one row q at a time (so a sweep holds the b + 1
rings and one row, not the (b + 1)^2 verdicts), and stays proven:
  - same class: with witnesses w, w' from the representative to q and q',
    the map w' after w^-1 is an isomorphism q -> q'; it is composed and
    checked with is_graded_isomorphism, and a failed check is an internal
    fault (RuntimeError), never a verdict;
  - different classes: an isomorphism q -> q' composed with the checked
    witnesses would be one between the two representatives, which the
    later of them was exhaustively searched against and had none.
Inverting a witness needs it invertible.  For a, b >= 2 the degree-1 piece
has dimension 2, so by the lemma every witness is in GL2(F2).  On the rows
a = 1 and b = 1 a singular substitution can be an isomorphism, and there
every pair is searched.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from .cohomology import RingPresentation, betti
from .gf2poly import IDENTITY_SUBSTITUTION, LinearSubstitution, clmul, linear_power

__all__ = [
    "IsoVerdict",
    "cell_isomorphisms",
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
_BY_FORMS = {subst.forms: subst for subst in _SUBSTITUTIONS}
# A fixed table: each substitution's adjugate matrix, which over GF(2) is the
# inverse of each of the six in GL2(F2).  A singular witness on a, b >= 2 can
# only come from a faulty is_graded_isomorphism; its adjugate lets the sweep
# go on, so that the fault shows as verdicts the criterion contradicts, and
# every composed map is still checked.
_ADJUGATE = {
    subst: LinearSubstitution((subst.y_image[1], subst.x_image[1]),
                              (subst.y_image[0], subst.x_image[0]))
    for subst in _SUBSTITUTIONS
}
_NOT_ISOMORPHIC = IsoVerdict(False)


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

    Checks the homomorphism condition, then that L1 and L2 span the
    target's degree-1 piece; by the lemma in the module docstring that
    is bijectivity.  The rank is computed rather than assumed.  The shapes
    are checked by induces_homomorphism.
    """
    if not induces_homomorphism(subst, src, dst):
        return False
    fx, fy = subst.forms  # each form mask is its degree-1 piece
    return _rank_bits([dst.reduce(fx, 1), dst.reduce(fy, 1)]) == betti(dst, 1)


def rings_isomorphic_bruteforce(
    src: RingPresentation, dst: RingPresentation
) -> IsoVerdict:
    """Search the 16 substitutions x -> L1, y -> L2, L1 the outer loop and
    each form in the order 0, y, x, x+y, and return the first working
    witness, if any."""
    _check_same_shape(src, dst)
    for subst in _SUBSTITUTIONS:
        if is_graded_isomorphism(subst, src, dst):
            return IsoVerdict(True, subst)
    return IsoVerdict(False)


def _compose(outer: LinearSubstitution, inner: LinearSubstitution) -> LinearSubstitution:
    """The substitution of outer after inner: x -> outer(inner(x)), likewise y."""
    fx, fy = outer.forms
    return _BY_FORMS[tuple(
        (fx if form & 0b10 else 0) ^ (fy if form & 0b01 else 0) for form in inner.forms
    )]


def cell_isomorphisms(a: int, b: int) -> Iterator[list[IsoVerdict]]:
    """The verdict for every pair of the cell, one row at a time: row q holds
    entry [q'] for M(q), M(q'), so only the rings and one row are held.

    Searches each ring only against the class representatives found so far
    and infers the other pairs (the argument is in the module docstring);
    every inferred isomorphism carries a composed witness that
    is_graded_isomorphism has accepted, and RuntimeError is raised, before
    its row is yielded, if one fails.  On the rows a = 1 and b = 1 every pair is searched.
    """
    rings = [RingPresentation(a, b, q) for q in range(b + 1)]
    if a == 1 or b == 1:
        yield from ([rings_isomorphic_bruteforce(src, dst) for dst in rings] for src in rings)
        return
    representatives: list[RingPresentation] = []
    classes: list[int] = []  # the class of each q, by representative index
    witnesses: list[LinearSubstitution] = []  # representative -> q
    for ring in rings:
        for index, rep in enumerate(representatives):
            verdict = rings_isomorphic_bruteforce(rep, ring)
            if verdict.isomorphic:
                classes.append(index)
                witnesses.append(verdict.witness)
                break
        else:
            classes.append(len(representatives))
            representatives.append(ring)
            witnesses.append(IDENTITY_SUBSTITUTION)
    for src, src_class, src_witness in zip(rings, classes, witnesses):
        inverse = _ADJUGATE[src_witness]
        row = []
        for dst, dst_class, dst_witness in zip(rings, classes, witnesses):
            if dst_class != src_class:
                row.append(_NOT_ISOMORPHIC)
                continue
            composed = _compose(dst_witness, inverse)
            if not is_graded_isomorphism(composed, src, dst):
                raise RuntimeError(
                    f"composed witness {composed} is not an isomorphism "
                    f"M(q={src.q}) -> M(q={dst.q}) at a={a}, b={b}"
                )
            row.append(IsoVerdict(True, composed))
        yield row
