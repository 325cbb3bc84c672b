"""Bivariate polynomials over GF(2), one bitmask per homogeneous degree.

Bit i of the degree-d mask is the coefficient of x^i y^(d-i): addition is
xor and the product of two pieces is a carry-less multiply.  So a linear
form cx*x + cy*y is the degree-1 mask cx << 1 | cy, and a linear
substitution is the pair of form masks of the images of x and y.  All
arithmetic is exact; Python's arbitrary-precision integers cannot overflow.
"""

from __future__ import annotations

from itertools import zip_longest
from typing import Iterable, Iterator

__all__ = [
    "PolyGF2",
    "substitute_linear",
    "LinearSubstitution",
    "IDENTITY_SUBSTITUTION",
    "COMPLEMENT_SUBSTITUTION",
]


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
    """(cx*x + cy*y)^n as a degree-n mask, for the form mask cx << 1 | cy.

    The bits of (x+y)^n are the submasks of n (Lucas): the product over the
    bits e of n of (1 + 2^e) sums 2^s over each submask s exactly once, so
    ordinary multiplication never carries."""
    if form == 0b11:
        row = 1
        while n:
            low = n & -n
            row *= 1 | 1 << low
            n ^= low
        return row
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


def _trimmed(masks: list[int]) -> tuple[int, ...]:
    """The pieces, trailing zero pieces dropped (from the list too), as a tuple."""
    while masks and not masks[-1]:
        masks.pop()
    return tuple(masks)


class _Record:
    """A frozen record: __init__ sets its slots once, by object.__setattr__;
    its repr shows the slots named in _fields, and == and hash compare them."""

    __slots__ = ()

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._key()))
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name: str, *value):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__


class PolyGF2(_Record):
    """Polynomial over GF(2) in x, y, built from its (i, j) exponent pairs.

    masks[d] is the degree-d piece; trailing zero pieces are trimmed.
    """

    __slots__ = _fields = ("masks",)

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
        poly = cls.__new__(cls)
        object.__setattr__(poly, "masks", _trimmed(list(masks)))
        return poly

    @property
    def terms(self) -> frozenset[tuple[int, int]]:
        """The exponent pairs (i, j) whose monomial x^i y^j has coefficient 1."""
        return frozenset(
            (i, d - i) for d, mask in enumerate(self.masks) for i in _bits(mask)
        )

    def __add__(self, other: "PolyGF2") -> "PolyGF2":
        return PolyGF2.from_masks(
            u ^ v for u, v in zip_longest(self.masks, other.masks, fillvalue=0)
        )

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
        result = PolyGF2.from_masks([1])
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __str__(self) -> str:
        """Human-readable sum of monomials, graded order, '0' when zero."""
        parts = []
        for i, j in sorted(self.terms, key=lambda t: (t[0] + t[1], t[1])):
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


class LinearSubstitution(_Record):
    """Images of the degree-1 generators as form masks cx << 1 | cy.

    fx sends x to cx*x + cy*y, and likewise fy sends y: 0, y, x and x+y are
    0b00, 0b01, 0b10 and 0b11, so there are 16 substitutions in total.
    """

    __slots__ = _fields = ("fx", "fy")

    def __init__(self, fx: int, fy: int):
        if fx not in range(4) or fy not in range(4):
            raise ValueError("substitution images must be form masks in 0..3")
        object.__setattr__(self, "fx", fx)
        object.__setattr__(self, "fy", fy)

    def __str__(self) -> str:
        return f"x->{_FORM_NAMES[self.fx]}, y->{_FORM_NAMES[self.fy]}"


IDENTITY_SUBSTITUTION = LinearSubstitution(0b10, 0b01)
# fixes x, sends y to x + y: realizes the q <-> b - q equivalence
COMPLEMENT_SUBSTITUTION = LinearSubstitution(0b10, 0b11)

_FORM_NAMES = ("0", "y", "x", "x+y")  # indexed by form mask


def substitute_linear(p: PolyGF2, subst: LinearSubstitution) -> PolyGF2:
    """Replace x, y by their linear images and expand.

    This is the GF(2)-algebra endomorphism of the polynomial ring determined
    by the substitution: it commutes with + and *.
    """
    images = []
    for d, mask in enumerate(p.masks):
        image = 0
        for i in _bits(mask):
            image ^= clmul(linear_power(subst.fx, i), linear_power(subst.fy, d - i))
        images.append(image)
    return PolyGF2.from_masks(images)
