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

from dataclasses import dataclass
from typing import Optional

from .gf2poly import LinearSubstitution

__all__ = [
    "h_of",
    "k_of",
    "cohomology_criterion",
    "diffeo_criterion",
    "homotopy_criterion",
    "rigidity_holds",
    "counterexample_pair",
    "binomial_rows_match",
    "ClassificationVerdict",
    "OracleDisagreement",
    "classify",
    "classify_row",
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


def _check_pair_ranges(a: int, b: int, q: int, q_prime: int) -> None:
    _check_a(a)
    if b < 1:
        raise ValueError(f"b must be a positive integer, got {b}")
    for name, value in (("q", q), ("q_prime", q_prime)):
        if not 0 <= value <= b:
            raise ValueError(f"{name} must satisfy 0 <= {name} <= b={b}, got {value}")


def _congruent_to_q_or_complement(b: int, q: int, q_prime: int, modulus: int) -> bool:
    return (q_prime - q) % modulus == 0 or (q_prime - (b - q)) % modulus == 0


def cohomology_criterion(a: int, b: int, q: int, q_prime: int) -> bool:
    """True iff the two mod-2 cohomology rings are isomorphic as graded rings:
    q' congruent to q or b - q modulo 2^h(a)."""
    _check_pair_ranges(a, b, q, q_prime)
    return _congruent_to_q_or_complement(b, q, q_prime, 2 ** h_of(a))


def diffeo_criterion(a: int, b: int, q: int, q_prime: int) -> bool:
    """True iff the two manifolds are diffeomorphic:
    q' congruent to q or b - q modulo 2^k(a)."""
    _check_pair_ranges(a, b, q, q_prime)
    return _congruent_to_q_or_complement(b, q, q_prime, 2 ** k_of(a))


# Homotopy equivalence holds exactly when diffeomorphism does; alias, not a
# copy, so there is a single source of truth.
homotopy_criterion = diffeo_criterion


def rigidity_holds(a: int, b: int) -> bool:
    """Whether mod-2 cohomology determines these manifolds up to
    diffeomorphism: a <= 9 or b <= 2^h(a)."""
    _check_a(a)
    if b < 1:
        raise ValueError(f"b must be a positive integer, got {b}")
    return a <= 9 or b <= 2 ** h_of(a)


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
    m = 2 ** h_of(a)
    pair = (1, m + 1) if b % m == 0 else (0, m)
    q, q_prime = pair
    if not cohomology_criterion(a, b, q, q_prime) or diffeo_criterion(a, b, q, q_prime):
        raise RuntimeError(f"constructed pair {pair} is not a counterexample for (a={a}, b={b})")
    return pair


def binomial_rows_match(a: int, q: int, q_prime: int) -> bool:
    """Whether C(q', i) and C(q, i) agree mod 2 for every i < a.

    Equivalent to q' congruent to q modulo 2^h(a); the equivalence itself
    is a verified property, this computes the binomial side.
    """
    _check_a(a)
    if q < 0 or q_prime < 0:
        raise ValueError("q and q_prime must be non-negative")
    for i in range(a):
        # C(n, i) mod 2 by digit domination, with C(n, i) = 0 for i > n
        left = i <= q and i & ~q == 0
        right = i <= q_prime and i & ~q_prime == 0
        if left != right:
            return False
    return True


@dataclass
class ClassificationVerdict:
    """Everything the theorems say about one pair (q, q') for fixed (a, b)."""

    a: int
    b: int
    q: int
    q_prime: int
    h: int
    k: int
    cohomology_isomorphic: bool
    diffeomorphic: bool
    homotopy_equivalent: bool
    oracle_witness: Optional[LinearSubstitution] = None

    def __post_init__(self):
        if self.diffeomorphic and not self.cohomology_isomorphic:
            raise ValueError(
                "diffeomorphic pairs always have isomorphic cohomology "
                "(h(a) <= k(a)); refusing an inconsistent verdict"
            )
        if self.homotopy_equivalent != self.diffeomorphic:
            raise ValueError("homotopy equivalence must coincide with diffeomorphism")


class OracleDisagreement(RuntimeError):
    """The ring oracle and the congruence criterion gave different verdicts."""


def classify(
    a: int, b: int, q: int, q_prime: int, with_oracle: bool = False
) -> ClassificationVerdict:
    """Apply all three criteria to one pair; optionally run the ring oracle.

    With with_oracle=True the brute-force isomorphism search is run and its
    witness attached.  A disagreement between the oracle and the congruence
    criterion raises OracleDisagreement, since it would mean the
    implementation is broken.
    """
    _check_pair_ranges(a, b, q, q_prime)
    diffeo = diffeo_criterion(a, b, q, q_prime)
    verdict = ClassificationVerdict(
        a=a,
        b=b,
        q=q,
        q_prime=q_prime,
        h=h_of(a),
        k=k_of(a),
        cohomology_isomorphic=cohomology_criterion(a, b, q, q_prime),
        diffeomorphic=diffeo,
        homotopy_equivalent=diffeo,
    )
    if with_oracle:
        from .cohomology import RingPresentation
        from .oracle import rings_isomorphic_bruteforce

        result = rings_isomorphic_bruteforce(
            RingPresentation(a, b, q), RingPresentation(a, b, q_prime)
        )
        if result.isomorphic != verdict.cohomology_isomorphic:
            raise OracleDisagreement(
                f"ring oracle disagrees with the congruence criterion on "
                f"(a={a}, b={b}, q={q}, q'={q_prime}): oracle says "
                f"{result.isomorphic}, criterion says "
                f"{verdict.cohomology_isomorphic}"
            )
        verdict.oracle_witness = result.witness
    return verdict


def classify_row(a: int, b: int, q: int) -> list[ClassificationVerdict]:
    """classify(a, b, q, q') for every q <= q' <= b, in that order.

    (a, b, q) is checked, and h(a), k(a) and both moduli are computed, once
    for the row; each pair is still decided by the criteria's congruence and
    checked by its own ClassificationVerdict.
    """
    _check_pair_ranges(a, b, q, q)
    h, k = h_of(a), k_of(a)
    cohomology_modulus, diffeo_modulus = 2 ** h, 2 ** k
    row = []
    for q_prime in range(q, b + 1):
        diffeo = _congruent_to_q_or_complement(b, q, q_prime, diffeo_modulus)
        row.append(ClassificationVerdict(
            a=a,
            b=b,
            q=q,
            q_prime=q_prime,
            h=h,
            k=k,
            cohomology_isomorphic=_congruent_to_q_or_complement(b, q, q_prime, cohomology_modulus),
            diffeomorphic=diffeo,
            homotopy_equivalent=diffeo,
        ))
    return row
