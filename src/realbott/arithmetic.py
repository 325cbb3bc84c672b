"""Number-theoretic classification of the bundles P(q*gamma + (b-q)*1).

Two moduli control everything.  2^h(a), with h(a) the smallest n such that
2^n >= a, decides when two members have isomorphic mod-2 cohomology rings;
2^k(a), with k(a) counting 0 < n < a congruent to 0, 1, 2 or 4 mod 8,
is the order of the reduced KO group of RP^(a-1) and decides when they are
diffeomorphic.  Homotopy equivalence coincides with diffeomorphism for
this family.  Residues use Python's arbitrary-precision integers, so no
cap on a is needed and nothing can silently wrap.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # the witness's type only: arithmetic needs no ring code to run
    from .gf2poly import LinearSubstitution

__all__ = [
    "h_of",
    "k_of",
    "cohomology_criterion",
    "diffeo_criterion",
    "rigidity_holds",
    "counterexample_pair",
    "ClassificationVerdict",
    "classify",
]


def _check_a(a: int) -> None:
    if a < 1:
        raise ValueError(f"a must be a positive integer, got {a}")


def h_of(a: int) -> int:
    """Smallest n with 2^n >= a."""
    _check_a(a)
    return (a - 1).bit_length()


def k_of(a: int) -> int:
    """Count of 0 < n < a with n mod 8 in {0, 1, 2, 4}.

    Closed form: each full block of 8 contributes 4; the test suite keeps
    the direct counting loop as an oracle.
    """
    _check_a(a)
    m = a - 1  # count n in [1, m]
    count = m // 8  # residue 0: multiples of 8 up to m
    for r in (1, 2, 4):
        if m >= r:
            count += (m - r) // 8 + 1
    return count


def _check_b(b: int, name: str = "b") -> None:
    if b < 1:
        raise ValueError(f"{name} must be a positive integer, got {b}")


def _check_pair_ranges(a: int, b: int, q: int, q_prime: int) -> None:
    _check_a(a)
    _check_b(b)
    for name, value in (("q", q), ("q_prime", q_prime)):
        if not 0 <= value <= b:
            raise ValueError(f"{name} must satisfy 0 <= {name} <= b={b}, got {value}")


def _criterion_residues(b: int, q: int, modulus: int) -> tuple[int, int]:
    """The residues mod modulus that the criteria's congruence allows q': those of q and b - q."""
    return q % modulus, (b - q) % modulus


def _congruent_to_q_or_complement(b: int, q: int, q_prime: int, modulus: int) -> bool:
    return q_prime % modulus in _criterion_residues(b, q, modulus)


def cohomology_criterion(a: int, b: int, q: int, q_prime: int) -> bool:
    """True iff the two mod-2 cohomology rings are isomorphic as graded rings:
    q' congruent to q or b - q modulo 2^h(a)."""
    _check_pair_ranges(a, b, q, q_prime)
    return _congruent_to_q_or_complement(b, q, q_prime, 2 ** h_of(a))


def criterion_classes(a: int, b: int) -> list[int]:
    """Entry q is the least q' with cohomology_criterion(a, b, q, q').

    Orbit lemma: the criterion holds iff q' mod m is in {q mod m, (b - q)
    mod m}, m = 2^h(a), an orbit of the involution r -> b - r on Z/m; orbits
    partition Z/m, and both residues are at most b.  So the smaller is the
    least q' of the class of q, and entries are equal iff the criterion holds.
    """
    m = 1 << h_of(a)  # checks a
    _check_b(b)
    return [min(_criterion_residues(b, q, m)) for q in range(b + 1)]


def _diffeo_modulus(k: int, b: int) -> int:
    """2^min(k, L), L = b.bit_length(): decides the criteria's congruences mod
    2^k without building 2^k.  Their differences q' - q and q' - (b - q) lie in
    [-b, b] and 2^L > b, so when k >= L both moduli divide exactly 0 there."""
    return 1 << min(k, b.bit_length())


def diffeo_criterion(a: int, b: int, q: int, q_prime: int) -> bool:
    """True iff the two manifolds are diffeomorphic:
    q' congruent to q or b - q modulo 2^k(a)."""
    _check_pair_ranges(a, b, q, q_prime)
    return _congruent_to_q_or_complement(b, q, q_prime, _diffeo_modulus(k_of(a), b))


def _last_rigid_b(a: int, cohomology_modulus: int) -> float:
    """The largest b at which rigidity holds for this a (infinite when every
    b does): rigidity is a <= 9 or b <= 2^h(a)."""
    return math.inf if a <= 9 else cohomology_modulus


def rigidity_holds(a: int, b: int) -> bool:
    """Whether mod-2 cohomology determines these manifolds up to
    diffeomorphism: a <= 9 or b <= 2^h(a)."""
    _check_a(a)
    _check_b(b)
    return b <= _last_rigid_b(a, 2 ** h_of(a))


def _construction(b: int, m: int) -> tuple[int, int]:
    # the counterexample pair at rank b, with m = 2^h(a)
    return (1, m + 1) if b % m == 0 else (0, m)


def _not_a_counterexample(a: int, b: int, pair: tuple[int, int]) -> RuntimeError:
    return RuntimeError(f"constructed pair {pair} is not a counterexample for (a={a}, b={b})")


def counterexample_pair(a: int, b: int) -> Optional[tuple[int, int]]:
    """A pair (q, q') with isomorphic rings but non-diffeomorphic manifolds.

    Returns None when rigidity holds.  Otherwise (1, 2^h(a) + 1) when
    2^h(a) divides b, else (0, 2^h(a)); the construction is checked against
    both defining conditions before being returned, and a pair that fails
    them raises RuntimeError (an explicit check, so it holds under
    `python -O` too).
    """
    if rigidity_holds(a, b):
        return None
    pair = _construction(b, 2 ** h_of(a))
    if not cohomology_criterion(a, b, *pair) or diffeo_criterion(a, b, *pair):
        raise _not_a_counterexample(a, b, pair)
    return pair


class ClassificationVerdict:
    """Everything the theorems say about one pair (q, q') for fixed (a, b)."""

    __slots__ = ("a", "b", "q", "q_prime", "h", "k", "cohomology_isomorphic", "diffeomorphic",
                 "oracle_witness")

    def __init__(self, a: int, b: int, q: int, q_prime: int, h: int, k: int,
                 cohomology_isomorphic: bool, diffeomorphic: bool,
                 oracle_witness: Optional[LinearSubstitution] = None):
        self.a, self.b, self.q, self.q_prime, self.h, self.k = a, b, q, q_prime, h, k
        self.cohomology_isomorphic, self.diffeomorphic = cohomology_isomorphic, diffeomorphic
        self.oracle_witness = oracle_witness
        self.__post_init__()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in self.__slots__)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"ClassificationVerdict({fields})"

    def __post_init__(self):
        # an inconsistent verdict is a fault of the criteria, not bad input
        if self.diffeomorphic and not self.cohomology_isomorphic:
            raise RuntimeError(
                "diffeomorphic pairs always have isomorphic cohomology "
                "(h(a) <= k(a)); refusing an inconsistent verdict"
            )

    @property
    def homotopy_equivalent(self) -> bool:
        """The diffeomorphism verdict: for this family, the two manifolds are
        homotopy equivalent iff they are diffeomorphic."""
        return self.diffeomorphic


def classify(a: int, b: int, q: int, q_prime: int) -> ClassificationVerdict:
    """Apply all three criteria to one pair; each criterion checks the ranges."""
    return ClassificationVerdict(
        a=a,
        b=b,
        q=q,
        q_prime=q_prime,
        h=h_of(a),
        k=k_of(a),
        cohomology_isomorphic=cohomology_criterion(a, b, q, q_prime),
        diffeomorphic=diffeo_criterion(a, b, q, q_prime),
    )


def criteria_runs(a: int, b: int, q: int) -> tuple[int, int, list[tuple]]:
    """h(a), k(a) and, in order, the maximal runs (truth, start, stop) of q' in
    [q, b] over which (cohomology_isomorphic, diffeomorphic) of (q, q') is truth.
    (a, b, q) is checked, and both moduli computed, once for the row; each
    criterion's progressions are found on their own, all else is (False, False)."""
    _check_pair_ranges(a, b, q, q)
    h, k = h_of(a), k_of(a)
    cohomology, diffeo = (  # each criterion's progressions, in O((b - q) / m) steps
        {p for r in _criterion_residues(b, q, m) for p in range(q + (r - q) % m, b + 1, m)}
        for m in (1 << h, _diffeo_modulus(k, b))
    )
    hits, runs = cohomology | diffeo, []
    # the truth can change only at q, at a hit and just past one
    for start in sorted({q, *hits, *(q_prime + 1 for q_prime in hits)} - {b + 1}):
        truth = (start in cohomology, start in diffeo)
        if not runs or runs[-1][0] != truth:
            runs.append((truth, start))
    stops = [start for _, start in runs[1:]] + [b + 1]
    return h, k, [(truth, start, stop) for (truth, start), stop in zip(runs, stops)]


def counterexample_runs(a: int, b_max: int) -> tuple[int, int, list[tuple]]:
    """h(a), k(a) and, in b order, the maximal runs (pair, start, stop) of the
    b <= b_max where rigidity fails (b > 2^h(a)) that share one constructed
    pair counterexample_pair(a, b); none when a <= 9.  a and b_max are
    checked, and both moduli computed, once for the row; every b is checked,
    and a constructed pair that the criteria's congruence does not make a
    counterexample raises RuntimeError, as in counterexample_pair."""
    _check_a(a)
    _check_b(b_max, "b_max")
    h, k = h_of(a), k_of(a)
    cohomology_modulus, diffeo_modulus = 2 ** h, _diffeo_modulus(k, b_max)
    runs = []
    for b in range(min(_last_rigid_b(a, cohomology_modulus), b_max) + 1, b_max + 1):
        q, q_prime = pair = _construction(b, cohomology_modulus)
        cohomology = _congruent_to_q_or_complement(b, q, q_prime, cohomology_modulus)
        if not cohomology or _congruent_to_q_or_complement(b, q, q_prime, diffeo_modulus):
            raise _not_a_counterexample(a, b, pair)
        if runs and runs[-1][0] == pair:
            runs[-1] = (pair, runs[-1][1], b + 1)
        else:
            runs.append((pair, b, b + 1))
    return h, k, runs

