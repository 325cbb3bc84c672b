"""Independent reference computations the tests check the library against.

Everything here deliberately avoids the library's own shortcuts: binomial
parity comes from the Pascal recurrence, ranks from a plain dense Gaussian
elimination over 0/1 lists, and the ideal is handled as explicit degree
slices rather than through the rewriting engine.

Some helpers the library does not need live here too, so that the tests
keep them: binom_mod2 and binomial_rows_match (binomial parity by digit
domination), relation_polys and basis (the ideal's generators and the
monomial basis of a presentation), SWAP_SUBSTITUTION and substitutions()
(the oracle's 16 maps, in its search order), substitution and images
(between the library's form masks and (cx, cy) pairs), classify_row and
counterexample_row (the library's criteria_runs and counterexample_runs
expanded into verdicts), and dumps_record (one jsonl record).
radon_hurwitz is the Radon-Hurwitz number, against which k(a) is checked.
rejects_identity_between_rings is a fault, patched into the oracle to show
that cell_classes refuses it.
"""

from __future__ import annotations

import io

from realbott.arithmetic import ClassificationVerdict, counterexample_runs, criteria_runs
from realbott.cli import emit_records
from realbott.gf2poly import IDENTITY_SUBSTITUTION, LinearSubstitution, PolyGF2


def binom_mod2(n: int, m: int) -> int:
    """Binomial coefficient C(n, m) mod 2; 0 when m < 0 or m > n.

    By digit domination: C(n, m) is odd iff every binary digit of m is
    dominated by the corresponding digit of n.
    """
    if m < 0 or m > n:
        return 0
    return int(m & ~n == 0)


def binomial_rows_match(a: int, q: int, q_prime: int) -> bool:
    """Whether C(q', i) and C(q, i) agree mod 2 for every i < a, the binomial
    side of the equivalence with q' congruent to q modulo 2^h(a)."""
    if a < 1:
        raise ValueError(f"a must be a positive integer, got {a}")
    if q < 0 or q_prime < 0:
        raise ValueError("q and q_prime must be non-negative")
    for i in range(a):
        # C(n, i) mod 2 by digit domination, with C(n, i) = 0 for i > n
        left = i <= q and i & ~q == 0
        right = i <= q_prime and i & ~q_prime == 0
        if left != right:
            return False
    return True


def radon_hurwitz(m: int) -> int:
    """rho(m) = 8c + 2^d for m = 2^(4c+d) * odd, 0 <= d < 4: by Adams, the
    number of pointwise independent vector fields on S^(m-1), plus one."""
    c, d = divmod((m & -m).bit_length() - 1, 4)
    return 8 * c + 2 ** d


def pascal_mod2_rows(n_max: int) -> list[list[int]]:
    """Rows 0..n_max of Pascal's triangle mod 2, by the recurrence."""
    rows = [[1]]
    for n in range(1, n_max + 1):
        prev = rows[-1]
        row = [1]
        for m in range(1, n):
            row.append((prev[m - 1] + prev[m]) % 2)
        row.append(1)
        rows.append(row)
    return rows


def dense_rank_gf2(rows: list[list[int]]) -> int:
    """Rank of a 0/1 matrix over GF(2) by forward elimination."""
    matrix = [list(row) for row in rows]
    ncols = len(matrix[0]) if matrix else 0
    rank = 0
    for col in range(ncols):
        pivot = next(
            (r for r in range(rank, len(matrix)) if matrix[r][col]), None
        )
        if pivot is None:
            continue
        matrix[rank], matrix[pivot] = matrix[pivot], matrix[rank]
        for r in range(len(matrix)):
            if r != rank and matrix[r][col]:
                matrix[r] = [(u + v) % 2 for u, v in zip(matrix[r], matrix[rank])]
        rank += 1
    return rank


def in_row_span_gf2(rows: list[list[int]], vector: list[int]) -> bool:
    """Whether vector lies in the GF(2) row span of rows."""
    return dense_rank_gf2(rows + [vector]) == dense_rank_gf2(rows)


def ideal_degree_slice(a: int, b: int, q: int, d: int) -> list[list[int]]:
    """Degree-d slice of the ideal (x^a, (x+y)^q y^(b-q)), as vectors.

    Ambient coordinates index the degree-d monomials x^i y^(d-i) by i.
    The slice is spanned by monomial multiples of the two homogeneous
    generators, expanded with Pascal-recurrence binomials.
    """
    binom = pascal_mod2_rows(max(q, 1))
    rows = []
    for s in range(d - a + 1):  # x^s y^(d-a-s) * x^a
        vec = [0] * (d + 1)
        vec[a + s] = 1
        rows.append(vec)
    for s in range(d - b + 1):  # x^s y^(d-b-s) * sum_i C(q,i) x^i y^(b-i)
        vec = [0] * (d + 1)
        for i in range(q + 1):
            if binom[q][i]:
                vec[s + i] ^= 1
        rows.append(vec)
    return rows


def relation_polys(pres) -> tuple[PolyGF2, PolyGF2]:
    """The two ideal generators of pres: x^a, and (x+y)^q y^(b-q) expanded
    with Pascal-recurrence binomials."""
    binom = pascal_mod2_rows(pres.q)[pres.q]
    rel2 = PolyGF2((i, pres.b - i) for i in range(pres.q + 1) if binom[i])
    return PolyGF2([(pres.a, 0)]), rel2


def basis(pres, d: int) -> list[tuple[int, int]]:
    """Basis monomials x^i y^j (i < a, j < b) of degree d, by increasing i."""
    return [(i, d - i) for i in range(pres.a) if 0 <= d - i < pres.b]


def monomial_vector(i: int, d: int) -> list[int]:
    """The degree-d monomial x^i y^(d-i) in ambient coordinates."""
    vec = [0] * (d + 1)
    vec[i] = 1
    return vec


def product_terms(left, right) -> frozenset:
    """Product of two polynomials given as sets of exponent pairs, term by term."""
    acc: set = set()
    for i1, j1 in left:
        for i2, j2 in right:
            acc ^= {(i1 + i2, j1 + j2)}
    return frozenset(acc)


def substitute_terms(terms, x_image, y_image) -> frozenset:
    """Image of a polynomial under x -> x_image, y -> y_image, each a linear
    form (cx, cy), by expanding every monomial as a product of linear forms."""

    def form(coeffs):
        cx, cy = coeffs
        return frozenset([(1, 0)] * cx + [(0, 1)] * cy)

    acc: set = set()
    for i, j in terms:
        image = frozenset([(0, 0)])
        for factor in [form(x_image)] * i + [form(y_image)] * j:
            image = product_terms(image, factor)
        acc ^= image
    return frozenset(acc)


LINEAR_FORMS = ((0, 0), (0, 1), (1, 0), (1, 1))  # 0, y, x, x+y as (cx, cy)


def substitution(x_image, y_image) -> LinearSubstitution:
    """The library's substitution x -> x_image, y -> y_image, each a linear
    form (cx, cy), whose form mask is cx << 1 | cy."""
    (xx, xy), (yx, yy) = x_image, y_image
    return LinearSubstitution(xx << 1 | xy, yx << 1 | yy)


def images(subst: LinearSubstitution):
    """The images (x_image, y_image) of a library substitution, each a
    linear form (cx, cy)."""
    return tuple((form >> 1, form & 1) for form in (subst.fx, subst.fy))


SWAP_SUBSTITUTION = substitution((0, 1), (1, 0))


def substitutions() -> list[LinearSubstitution]:
    """The 16 maps x -> x_image, y -> y_image, in the order the oracle
    searches them: x_image the outer loop over LINEAR_FORMS."""
    return [substitution(x_image, y_image)
            for x_image in LINEAR_FORMS for y_image in LINEAR_FORMS]


def _degree_vector(terms, d: int) -> list[int]:
    """A homogeneous degree-d polynomial, given as exponent pairs, in
    ambient coordinates (x^i y^(d-i) at index i)."""
    vec = [0] * (d + 1)
    for i, _ in terms:
        vec[i] ^= 1
    return vec


def reference_graded_isomorphism(
    a: int, b: int, q: int, q_prime: int, x_image, y_image
) -> bool:
    """Whether x -> x_image, y -> y_image, each a linear form (cx, cy),
    induces a graded ring isomorphism from Z/2[x,y]/(x^a, (x+y)^q y^(b-q))
    onto the same ring at q_prime.

    The homomorphism condition asks that both relations map into the
    target ideal, tested as membership in its degree slice; bijectivity
    asks, in every degree, that the images of the source basis monomials
    be independent modulo the target ideal and, with it, span the whole
    degree.  Every step is a dense rank over term-by-term expansions.
    """
    binom = pascal_mod2_rows(max(q, 1))[q]
    relations = (
        (a, {(a, 0)}),
        (b, {(i, b - i) for i in range(q + 1) if binom[i]}),
    )
    slices = {
        d: ideal_degree_slice(a, b, q_prime, d) for d in {*range(a + b - 1), a, b}
    }
    if not all(
        in_row_span_gf2(
            slices[d], _degree_vector(substitute_terms(terms, x_image, y_image), d)
        )
        for d, terms in relations
    ):
        return False
    for d in range(a + b - 1):
        images = [
            _degree_vector(substitute_terms({(i, d - i)}, x_image, y_image), d)
            for i in range(a)
            if 0 <= d - i < b
        ]
        ideal_rank = dense_rank_gf2(slices[d])
        full_rank = dense_rank_gf2(slices[d] + images)
        if full_rank != ideal_rank + len(images) or full_rank != d + 1:
            return False
    return True


def reference_isomorphism(a: int, b: int, q: int, q_prime: int):
    """First substitution (x_image, y_image), x_image the outer loop over
    LINEAR_FORMS, for which reference_graded_isomorphism holds; None if
    there is none."""
    for x_image in LINEAR_FORMS:
        for y_image in LINEAR_FORMS:
            if reference_graded_isomorphism(a, b, q, q_prime, x_image, y_image):
                return x_image, y_image
    return None


def rejects_identity_between_rings(check):
    """The check is_graded_isomorphism, made false for the identity between
    distinct rings."""
    return lambda subst, src, dst: (
        not (subst == IDENTITY_SUBSTITUTION and src != dst) and check(subst, src, dst)
    )


RECORD_KEYS = (
    "a", "b", "q", "q_prime", "h", "k",
    "cohomology_isomorphic", "diffeomorphic", "homotopy_equivalent",
)


def record_from_verdict(verdict) -> dict:
    """Flatten a verdict into the fixed output schema (plus witness)."""
    record = {
        "a": verdict.a,
        "b": verdict.b,
        "q": verdict.q,
        "q_prime": verdict.q_prime,
        "h": verdict.h,
        "k": verdict.k,
        "cohomology_isomorphic": verdict.cohomology_isomorphic,
        "diffeomorphic": verdict.diffeomorphic,
        "homotopy_equivalent": verdict.homotopy_equivalent,
    }
    if verdict.oracle_witness is not None:
        record["witness"] = str(verdict.oracle_witness)
    return record


def reference_text(verdicts) -> str:
    """The text table, every column right-aligned to the widest of its
    cells, found by measuring every cell: ints in decimal, booleans as
    true/false, and a witness column, "-" where there is none, only if some
    verdict has a witness.  Columns are separated by two spaces."""

    def cells(verdict) -> list[str]:
        row = [str(getattr(verdict, key)) for key in RECORD_KEYS[:6]]
        row += ["true" if getattr(verdict, key) else "false" for key in RECORD_KEYS[6:]]
        if with_witness:
            witness = verdict.oracle_witness
            row.append("-" if witness is None else str(witness))
        return row

    with_witness = any(v.oracle_witness is not None for v in verdicts)
    names = [*RECORD_KEYS, "witness"] if with_witness else list(RECORD_KEYS)
    rows = [names, *map(cells, verdicts)]
    widths = [max(len(row[i]) for row in rows) for i in range(len(names))]
    return "".join("  ".join(map(str.rjust, row, widths)) + "\n" for row in rows)


def classify_row(a: int, b: int, q: int) -> list:
    """classify(a, b, q, q') for every q <= q' <= b, in that order: the runs of
    criteria_runs expanded, each pair checked by its own ClassificationVerdict."""
    h, k, runs = criteria_runs(a, b, q)
    return [ClassificationVerdict(a, b, q, q_prime, h, k, cohomology, diffeo)
            for (cohomology, diffeo), start, stop in runs for q_prime in range(start, stop)]


def counterexample_row(a: int, b_max: int) -> list:
    """classify(a, b, *counterexample_pair(a, b)) for every b <= b_max where
    rigidity fails, in b order: the runs of counterexample_runs expanded, each
    cell checked by its own ClassificationVerdict."""
    h, k, runs = counterexample_runs(a, b_max)
    return [ClassificationVerdict(a, b, *pair, h, k, True, False)
            for pair, start, stop in runs for b in range(start, stop)]


def dumps_record(verdict) -> str:
    """A verdict's record as emit_records writes it in jsonl, without the newline."""
    out = io.StringIO()
    emit_records([verdict], "jsonl", out)
    return out.getvalue()[:-1]
