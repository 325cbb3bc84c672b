"""Bivariate polynomials over GF(2), one bitmask per homogeneous degree.

Bit i of the degree-d mask is the coefficient of x^i y^(d-i): addition is
xor and the product of two pieces is a carry-less multiply.  All arithmetic
is exact; Python's arbitrary-precision integers cannot overflow.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import zip_longest
from typing import Iterable, Iterator

def binom_mod2(n: int, m: int) -> int:
    """Binomial coefficient C(n, m) mod 2; 0 when m < 0 or m > n.

    Uses the digit-domination criterion: C(n, m) is odd iff every binary
    digit of m is dominated by the corresponding digit of n.  Validated
    against a Pascal-triangle oracle in the test suite.
    """
    if m < 0 or m > n:
        return 0
    return int(m & ~n == 0)


def sierpinski_row(n: int) -> int:
    """(x+y)^n as a degree-n mask, whose bits are the submasks of n (Lucas).

    The product over the bits e of n of (1 + 2^e) sums 2^s over each
    submask s exactly once, so ordinary multiplication never carries.
    """
    row = 1
    while n:
        low = n & -n
        row *= 1 | 1 << low
        n ^= low
    return row


def clmul(u: int, v: int) -> int:
    """Carry-less product of two masks: the product of homogeneous pieces."""
    if u.bit_count() < v.bit_count():
        u, v = v, u
    acc = 0
    while v:
        low = v & -v
        acc ^= u << low.bit_length() - 1
        v ^= low
    return acc


def linear_power(form: int, n: int) -> int:
    """(cx*x + cy*y)^n as a degree-n mask, for the form mask cx << 1 | cy."""
    if form == 0b11:
        return sierpinski_row(n)
    if form == 0b10:
        return 1 << n
    if form == 0b01:
        return 1
    return int(n == 0)


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True, init=False)
class PolyGF2:
    """Polynomial over GF(2) in x, y, built from its (i, j) exponent pairs.

    masks[d] is the degree-d piece; trailing zero pieces are trimmed.
    """

    masks: tuple[int, ...]

    def __init__(self, terms: Iterable[tuple[int, int]] = ()):
        masks: list[int] = []
        for i, j in terms:
            if i < 0 or j < 0:
                raise ValueError(f"negative exponent in term {(i, j)}")
            masks.extend([0] * (i + j + 1 - len(masks)))
            masks[i + j] |= 1 << i
        object.__setattr__(self, "masks", tuple(masks))

    @classmethod
    def from_masks(cls, masks: Iterable[int]) -> "PolyGF2":
        masks = list(masks)
        while masks and not masks[-1]:
            masks.pop()
        poly = cls.__new__(cls)
        object.__setattr__(poly, "masks", tuple(masks))
        return poly

    @classmethod
    def monomial(cls, i: int, j: int) -> "PolyGF2":
        return cls([(i, j)])

    @classmethod
    def one(cls) -> "PolyGF2":
        return cls([(0, 0)])

    @property
    def terms(self) -> frozenset[tuple[int, int]]:
        """The exponent pairs (i, j) whose monomial x^i y^j has coefficient 1."""
        return frozenset(
            (i, d - i) for d, mask in enumerate(self.masks) for i in _bits(mask)
        )

    def __bool__(self) -> bool:
        return bool(self.masks)

    def __add__(self, other: "PolyGF2") -> "PolyGF2":
        return PolyGF2.from_masks(
            u ^ v for u, v in zip_longest(self.masks, other.masks, fillvalue=0)
        )

    __sub__ = __add__

    def __mul__(self, other: "PolyGF2") -> "PolyGF2":
        acc = [0] * (len(self.masks) + len(other.masks) - 1)
        for d1, u in enumerate(self.masks):
            if u:
                for d2, v in enumerate(other.masks):
                    if v:
                        acc[d1 + d2] ^= clmul(u, v)
        return PolyGF2.from_masks(acc)

    def __pow__(self, n: int) -> "PolyGF2":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = PolyGF2.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def degree(self) -> int:
        """Total degree (-1 for the zero polynomial)."""
        return len(self.masks) - 1

    def __str__(self) -> str:
        return format_terms(self.terms)


X = PolyGF2.monomial(1, 0)
Y = PolyGF2.monomial(0, 1)
ONE = PolyGF2.one()
ZERO = PolyGF2()


@dataclass(frozen=True)
class LinearSubstitution:
    """Images of the degree-1 generators as linear forms in x, y.

    x_image = (cx, cy) sends x to cx*x + cy*y, and likewise y_image sends y.
    Coefficients are bits, so there are 16 substitutions in total.
    """

    x_image: tuple[int, int]
    y_image: tuple[int, int]

    def __post_init__(self):
        for c in (*self.x_image, *self.y_image):
            if c not in (0, 1):
                raise ValueError("substitution coefficients must be bits")

    @property
    def forms(self) -> tuple[int, int]:
        """The images of x and y as degree-1 masks."""
        (xx, xy), (yx, yy) = self.x_image, self.y_image
        return xx << 1 | xy, yx << 1 | yy

    def __str__(self) -> str:
        return f"x->{_FORM_NAMES[self.x_image]}, y->{_FORM_NAMES[self.y_image]}"


IDENTITY_SUBSTITUTION = LinearSubstitution((1, 0), (0, 1))
SWAP_SUBSTITUTION = LinearSubstitution((0, 1), (1, 0))
# fixes x, sends y to x + y: realizes the q <-> b - q equivalence
COMPLEMENT_SUBSTITUTION = LinearSubstitution((1, 0), (1, 1))

_FORM_NAMES = {(0, 0): "0", (1, 0): "x", (0, 1): "y", (1, 1): "x+y"}


def substitute_linear(p: PolyGF2, subst: LinearSubstitution) -> PolyGF2:
    """Replace x, y by their linear images and expand.

    This is the GF(2)-algebra endomorphism of the polynomial ring determined
    by the substitution: it commutes with + and *.
    """
    fx, fy = subst.forms
    images = []
    for d, mask in enumerate(p.masks):
        image = 0
        for i in _bits(mask):
            image ^= clmul(linear_power(fx, i), linear_power(fy, d - i))
        images.append(image)
    return PolyGF2.from_masks(images)


def format_terms(terms: Iterable[tuple[int, int]]) -> str:
    """Human-readable sum of monomials, graded order, '0' when empty."""
    parts = []
    for i, j in sorted(terms, key=lambda t: (t[0] + t[1], t[1])):
        factors = []
        if i == 1:
            factors.append("x")
        elif i > 1:
            factors.append(f"x^{i}")
        if j == 1:
            factors.append("y")
        elif j > 1:
            factors.append(f"y^{j}")
        parts.append("*".join(factors) if factors else "1")
    return " + ".join(parts) if parts else "0"
