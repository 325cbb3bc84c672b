"""The mod-2 cohomology ring of P(q*gamma + (b-q)*1) over RP^(a-1).

The ring is Z/2[x,y] / (x^a, (x+y)^q y^(b-q)), where x is the pullback of
the first Stiefel-Whitney class of the tautological bundle gamma on the
base and y is the first Stiefel-Whitney class of the tautological bundle
of the projectivization.  The monomials x^i y^j with 0 <= i < a and
0 <= j < b form an additive basis, and every element is handled in that
normal form.  Reduction works degree by degree on homogeneous bitmasks
(bit i of a degree-d mask is the coefficient of x^i y^(d-i)).

Reduction uses two rewriting rules:

  R1: x^i y^j -> 0 whenever i >= a;
  R2: y^b -> sum over 1 <= t <= q of C(q, t) x^t y^(b-t)  (mod 2),

R2 being the second relation solved for its y^b term (whose coefficient
C(q, 0) = 1 is a unit).  Each R2 step strictly lowers the y-exponent and
R1 caps the x-exponent, so reduction terminates; agreement with a
linear-algebra reduction of the ideal is verified in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .gf2poly import (
    COMPLEMENT_SUBSTITUTION,
    PolyGF2,
    clmul,
    linear_power,
    sierpinski_row,
    substitute_linear,
)

__all__ = [
    "RingPresentation",
    "RingElement",
    "normal_form",
    "nonvanishing_check",
    "betti",
    "total_sw_class",
]


@dataclass(frozen=True)
class RingPresentation:
    """The triple (a, b, q) naming Z/2[x,y]/(x^a, (x+y)^q y^(b-q)).

    a, b >= 1 and 0 <= q <= b; q is kept exactly as given (no automatic
    replacement by b - q, the classifier wants the raw value).
    """

    a: int
    b: int
    q: int
    # masks of the x-exponents below a, and of the second relation cut to them
    _below_a: int = field(init=False, repr=False, compare=False)
    _rel2: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.a < 1:
            raise ValueError(f"a must be >= 1, got {self.a}")
        if self.b < 1:
            raise ValueError(f"b must be >= 1, got {self.b}")
        if not 0 <= self.q <= self.b:
            raise ValueError(f"q must satisfy 0 <= q <= b, got q={self.q}, b={self.b}")
        below_a = (1 << self.a) - 1
        object.__setattr__(self, "_below_a", below_a)
        object.__setattr__(self, "_rel2", sierpinski_row(self.q) & below_a)

    @property
    def top_degree(self) -> int:
        """Largest degree with a nonzero graded piece: a + b - 2."""
        return self.a + self.b - 2

    def reduce(self, mask: int, d: int) -> int:
        """Normal form of the degree-d piece mask, as a mask on the basis.

        R2 rewrites bit i <= d - b (y-exponent >= b) by xoring in the second
        relation shifted by i, which sets only higher bits, so one ascending
        pass suffices; bits >= a need no R2, since R1 drops them.
        """
        last = min(d - self.b, self.a - 1)
        mask &= self._below_a
        while mask:
            i = (mask & -mask).bit_length() - 1
            if i > last:
                break
            mask ^= self._rel2 << i
        return mask & self._below_a


@dataclass(frozen=True)
class RingElement:
    """A ring element in normal form: masks[d] is its reduced degree-d piece,
    on the basis bits of pres.reduce, with trailing zero pieces trimmed."""

    pres: RingPresentation
    masks: tuple[int, ...]

    def __post_init__(self):
        if self.masks and not self.masks[-1]:
            raise ValueError(f"untrimmed pieces {self.masks}")
        for d, mask in enumerate(self.masks):
            if mask >> d + 1 or self.pres.reduce(mask, d) != mask:
                raise ValueError(f"degree-{d} piece {mask:#b} not in normal form for {self.pres}")

    @property
    def coeffs(self) -> frozenset[tuple[int, int]]:
        """The basis monomials (i, j) whose coefficient is 1."""
        return self.lift().terms

    def __bool__(self) -> bool:
        return bool(self.masks)

    def lift(self) -> PolyGF2:
        """The basis representative as an honest polynomial."""
        return PolyGF2.from_masks(self.masks)

    def __str__(self) -> str:
        return str(self.lift())


def normal_form(p: PolyGF2, pres: RingPresentation) -> RingElement:
    """Reduce a polynomial to the unique representative on the basis."""
    reduced = PolyGF2.from_masks(pres.reduce(mask, d) for d, mask in enumerate(p.masks))
    return RingElement(pres, reduced.masks)


def nonvanishing_check(pres: RingPresentation) -> tuple[bool, bool]:
    """Whether y^a and (x+y)^a are nonzero in the quotient.

    Both hold whenever 0 < q < b; the degenerate q in {0, b} cases can
    fail, which is what makes x recognizable among degree-1 elements.
    """
    a = pres.a
    return bool(pres.reduce(1, a)), bool(pres.reduce(sierpinski_row(a), a))


def betti(pres: RingPresentation, d: int) -> int:
    """Dimension of the degree-d graded piece; independent of q.

    The number of i with 0 <= i < a and 0 <= d - i < b, in closed form.
    """
    return max(0, min(pres.a - 1, d) - max(0, d - pres.b + 1) + 1)


def total_sw_class(pres: RingPresentation) -> RingElement:
    """Total Stiefel-Whitney class of the manifold, in normal form.

    Computed as (1+x)^a (1+y)^(b-q) (1+x+y)^q: the stable tangent bundle
    splits as Hom(eta, q*gamma + (b-q)*1) plus the pullback of the base
    tangent bundle, giving q line-bundle factors with w1 = x + y, b - q
    with w1 = y, and a base contribution (1+x)^a.  Cross-validated by the
    swap symmetry q <-> b - q in the test suite.
    """
    top = pres.top_degree
    pieces = [1] + [0] * top  # bits >= a and degrees > top vanish in the ring
    # the forms x, y and x+y as masks, each with its exponent
    for form, n in ((0b10, pres.a), (0b01, pres.b - pres.q), (0b11, pres.q)):
        # (1 + L)^n is the product of 1 + L^e over the powers of two e in n
        e = 1
        while e <= min(n, top):
            if n & e:
                power = linear_power(form, e)
                for d in range(top, e - 1, -1):
                    pieces[d] ^= clmul(pieces[d - e], power) & pres._below_a
            e <<= 1
    return normal_form(PolyGF2.from_masks(pieces), pres)


def nonvanishing_failures(a_max: int, b_max: int) -> list[tuple[int, int, int]]:
    """The (a, b, q) with a <= a_max, b <= b_max and 0 < q < b at which
    nonvanishing_check fails; empty when y^a and (x+y)^a are nonzero."""
    return [
        (a, b, q)
        for a in range(1, a_max + 1)
        for b in range(1, b_max + 1)
        for q in range(1, b)
        if nonvanishing_check(RingPresentation(a, b, q)) != (True, True)
    ]


def sw_swap_failures(a_max: int, b_max: int) -> list[tuple[int, int, int]]:
    """The (a, b, q) with a <= a_max, b <= b_max and 0 <= q <= b at which the
    complement substitution y -> x + y does not carry w(M(q)) to w(M(b - q)).

    Each total_sw_class is computed once and compared twice, as source and
    as target.
    """
    bad = []
    for a in range(1, a_max + 1):
        for b in range(1, b_max + 1):
            classes = [total_sw_class(RingPresentation(a, b, q)) for q in range(b + 1)]
            for q, cls in enumerate(classes):
                swapped = classes[b - q]
                carried = substitute_linear(cls.lift(), COMPLEMENT_SUBSTITUTION)
                if normal_form(carried, swapped.pres) != swapped:
                    bad.append((a, b, q))
    return bad
