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

from .gf2poly import (
    IDENTITY_SUBSTITUTION,
    LinearSubstitution,
    PolyGF2,
    _bits,
    _Record,
    _trimmed,
    clmul,
    linear_power,
)

__all__ = [
    "RingPresentation",
    "RingElement",
    "normal_form",
    "nonvanishing_check",
    "betti",
    "total_sw_class",
]


def _cut_power(form: int, n: int, a: int) -> int:
    """linear_power(form, n) on the bits below a, with no n-bit integer built:
    x^n is 0 once n >= a, and by Lucas the bits i < a of (x+y)^n are those
    of (x+y)^(n mod 2^h), 2^h the least power of 2 >= a."""
    if form == 0b11:
        n &= (1 << (a - 1).bit_length()) - 1
    elif form == 0b10 and n >= a:
        return 0
    return linear_power(form, n)


class RingPresentation(_Record):
    """The triple (a, b, q) naming Z/2[x,y]/(x^a, (x+y)^q y^(b-q)).

    a, b >= 1 and 0 <= q <= b; q is kept exactly as given (no automatic
    replacement by b - q, the classifier wants the raw value).
    """

    # (a, b, q), then the masks of the x-exponents below a and of the second relation cut to them
    __slots__ = ("a", "b", "q", "_below_a", "_rel2")
    _fields = ("a", "b", "q")

    def __init__(self, a: int, b: int, q: int):
        if a < 1:
            raise ValueError(f"a must be >= 1, got {a}")
        if b < 1:
            raise ValueError(f"b must be >= 1, got {b}")
        if not 0 <= q <= b:
            raise ValueError(f"q must satisfy 0 <= q <= b, got q={q}, b={b}")
        setter = object.__setattr__
        setter(self, "a", a)
        setter(self, "b", b)
        setter(self, "q", q)
        setter(self, "_below_a", (1 << a) - 1)
        setter(self, "_rel2", self.relation_image(IDENTITY_SUBSTITUTION))

    @property
    def top_degree(self) -> int:
        """Largest degree with a nonzero graded piece: a + b - 2."""
        return self.a + self.b - 2

    def relation_image(self, subst: LinearSubstitution) -> int:
        """The image (L1+L2)^q L2^(b-q) of the second relation under x -> L1,
        y -> L2, cut below x^a; each factor is cut first, by _cut_power."""
        return clmul(_cut_power(subst.fx ^ subst.fy, self.q, self.a),
                     _cut_power(subst.fy, self.b - self.q, self.a)) & self._below_a

    def reduce(self, mask: int, d: int) -> int:
        """Normal form of the degree-d piece mask, as a mask on the basis.

        R2 rewrites bit i <= d - b (y-exponent >= b) by xoring in the second
        relation shifted by i, which sets only higher bits, so one ascending
        pass suffices; bits >= a need no R2, since R1 drops them.
        """
        if d < self.b:
            return mask & self._below_a
        last = min(d - self.b, self.a - 1)
        mask &= self._below_a
        while mask:
            i = (mask & -mask).bit_length() - 1
            if i > last:
                break
            mask ^= self._rel2 << i
        return mask & self._below_a


class RingElement(_Record):
    """A ring element in normal form: masks[d] is its reduced degree-d piece,
    on the basis bits of pres.reduce, with trailing zero pieces trimmed."""

    __slots__ = _fields = ("pres", "masks")

    def __init__(self, pres: RingPresentation, masks: tuple[int, ...]):
        object.__setattr__(self, "pres", pres)
        object.__setattr__(self, "masks", masks)
        if masks and not masks[-1]:
            raise ValueError(f"untrimmed pieces {masks}")
        for d, mask in enumerate(masks):
            if mask >> d + 1 or pres.reduce(mask, d) != mask:
                raise ValueError(f"degree-{d} piece {mask:#b} not in normal form for {pres}")

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
    return RingElement(pres, _trimmed([pres.reduce(mask, d) for d, mask in enumerate(p.masks)]))


def nonvanishing_check(pres: RingPresentation) -> tuple[bool, bool]:
    """Whether y^a and (x+y)^a are nonzero in the quotient.

    Both hold whenever 0 < q < b; the degenerate q in {0, b} cases can
    fail, which is what makes x recognizable among degree-1 elements.
    """
    a = pres.a
    return bool(pres.reduce(1, a)), bool(pres.reduce(linear_power(0b11, a), a))


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
    top, below_a, m = pres.top_degree, pres._below_a, pres.b - pres.q
    # bits >= a and degrees > top vanish.  (1+x)^a (1+y)^m has the degree-d piece
    # sum C(a, i) C(m, d-i) x^i; C(n, j) is bit j of linear_power(0b11, n), which
    # reads the same backwards (C(n, j) = C(n, n-j)), so C(m, d-i) is bit i of row_m << d >> m
    row_a, row_m = linear_power(0b11, pres.a) & below_a, linear_power(0b11, m)
    pieces = [row_a & row_m << d >> m for d in range(top + 1)]
    # (1+x+y)^q is the product of 1 + x^e + y^e over the powers of two e in q
    q, e = pres.q, 1
    while e <= min(q, top):
        if q & e:
            for d in range(top, e - 1, -1):
                pieces[d] ^= pieces[d - e] << e & below_a ^ pieces[d - e]
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

    Each total_sw_class is computed once.  The substitution is its own inverse
    and carries the ideal of M(q) onto that of M(b - q), so q and b - q pass or
    fail together, and only q <= b / 2 is checked, on the pieces.
    """
    bad = []
    for a in range(1, a_max + 1):
        for b in range(1, b_max + 1):
            classes = [total_sw_class(RingPresentation(a, b, q)) for q in range(b + 1)]
            fails = [_complement_image(cls.masks, swapped.pres) != swapped.masks
                     for cls, swapped in zip(classes[:b // 2 + 1], reversed(classes))]
            bad += [(a, b, q) for q in range(b + 1) if fails[min(q, b - q)]]
    return bad


def _complement_image(masks: tuple[int, ...], pres: RingPresentation) -> tuple[int, ...]:
    """The pieces of the image under y -> x + y of the normal-form element with
    these pieces, reduced in pres, untrimmed: x^i y^(d-i) goes to x^i (x+y)^(d-i)."""
    image = []
    for d, mask in enumerate(masks):
        piece = 0
        for i in _bits(mask):
            piece ^= linear_power(0b11, d - i) << i
        image.append(pres.reduce(piece, d))
    return tuple(image)
