import pytest
from hypothesis import given
from hypothesis import strategies as st

from realbott.gf2poly import (
    COMPLEMENT_SUBSTITUTION,
    IDENTITY_SUBSTITUTION,
    LinearSubstitution,
    PolyGF2,
    sierpinski_row,
    substitute_linear,
)

from _oracles import (
    SWAP_SUBSTITUTION,
    binom_mod2,
    pascal_mod2_rows,
    product_terms,
    substitute_terms,
)


def poly(*terms):
    return PolyGF2(terms)


X = poly((1, 0))
Y = poly((0, 1))
ONE = poly((0, 0))
ZERO = poly()


polys = st.builds(
    PolyGF2,
    st.frozensets(
        st.tuples(st.integers(0, 12), st.integers(0, 12)), max_size=10
    ),
)
# exponents past 60 make the degree pieces span several machine words
wide_polys = st.builds(
    PolyGF2,
    st.frozensets(
        st.tuples(st.integers(0, 80), st.integers(0, 80)), max_size=12
    ),
)
substitutions = st.builds(
    LinearSubstitution,
    st.tuples(st.integers(0, 1), st.integers(0, 1)),
    st.tuples(st.integers(0, 1), st.integers(0, 1)),
)


class TestAdd:
    def test_characteristic_two_cancellation(self):
        assert poly((1, 0), (0, 1)) + poly((0, 1)) == X

    def test_zero_is_identity(self):
        p = poly((3, 4), (1, 1))
        assert ZERO + p == p

    def test_symmetric_difference(self):
        assert poly((2, 0), (1, 1)) + poly((1, 1), (0, 2)) == poly((2, 0), (0, 2))

    @given(polys)
    def test_self_inverse(self, p):
        assert p + p == ZERO

    @given(polys, polys, polys)
    def test_associative(self, p, q, r):
        assert (p + q) + r == p + (q + r)

    @given(polys, polys)
    def test_commutative(self, p, q):
        assert p + q == q + p


class TestMul:
    def test_frobenius(self):
        assert (X + Y) * (X + Y) == poly((2, 0), (0, 2))

    def test_annihilator(self):
        assert poly((1, 2), (3, 0)) * ZERO == ZERO

    def test_expansion(self):
        assert (X + Y) * Y == poly((1, 1), (0, 2))

    @given(polys, polys)
    def test_commutative(self, p, q):
        assert p * q == q * p

    @given(polys, polys, polys)
    def test_associative(self, p, q, r):
        assert (p * q) * r == p * (q * r)

    @given(polys, polys, polys)
    def test_distributive(self, p, q, r):
        assert p * (q + r) == p * q + p * r

    @given(wide_polys, wide_polys)
    def test_matches_term_by_term_product(self, p, q):
        assert (p * q).terms == product_terms(p.terms, q.terms)


class TestPow:
    def test_power_zero_is_one(self):
        assert ZERO ** 0 == ONE
        assert (X + Y) ** 0 == ONE

    def test_frobenius_square(self):
        assert (X + Y) ** 2 == poly((2, 0), (0, 2))

    def test_cube(self):
        assert (X + Y) ** 3 == poly((3, 0), (2, 1), (1, 2), (0, 3))

    def test_fourth_power_collapses(self):
        assert (X + Y) ** 4 == poly((4, 0), (0, 4))

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            X ** -1

    @pytest.mark.parametrize("n", range(33))
    def test_binomial_expansion_matches_parity(self, n):
        expansion = (X + Y) ** n
        for i in range(n + 1):
            assert ((i, n - i) in expansion.terms) == bool(binom_mod2(n, i))

    @given(polys, st.integers(0, 6))
    def test_agrees_with_repeated_multiplication(self, p, n):
        expected = ONE
        for _ in range(n):
            expected = expected * p
        assert p ** n == expected


class TestBinomMod2:
    def test_zero_above_diagonal(self):
        assert binom_mod2(3, 5) == 0

    def test_zero_for_negative(self):
        assert binom_mod2(5, -1) == 0

    @pytest.mark.parametrize("n", [0, 1, 7, 64])
    def test_left_edge(self, n):
        assert binom_mod2(n, 0) == 1

    def test_row_four(self):
        assert binom_mod2(4, 2) == 0

    def test_matches_pascal_recurrence(self):
        rows = pascal_mod2_rows(64)
        for n in range(65):
            for m in range(n + 1):
                assert binom_mod2(n, m) == rows[n][m], (n, m)


def test_sierpinski_row_matches_pascal_recurrence():
    rows = pascal_mod2_rows(300)
    for n, row in enumerate(rows):
        assert sierpinski_row(n) == sum(bit << i for i, bit in enumerate(row)), n


class TestSubstitution:
    def test_identity(self):
        p = poly((1, 1))
        assert substitute_linear(p, IDENTITY_SUBSTITUTION) == p

    def test_swap(self):
        assert substitute_linear(X, SWAP_SUBSTITUTION) == Y

    def test_square_of_sum(self):
        assert substitute_linear(poly((0, 2)), COMPLEMENT_SUBSTITUTION) == poly(
            (2, 0), (0, 2)
        )

    def test_sixteen_substitutions_exist(self):
        forms = [(0, 0), (0, 1), (1, 0), (1, 1)]
        built = {LinearSubstitution(fx, fy) for fx in forms for fy in forms}
        assert len(built) == 16

    def test_non_bit_coefficients_rejected(self):
        with pytest.raises(ValueError):
            LinearSubstitution((2, 0), (0, 1))

    @given(polys, polys, substitutions)
    def test_additive(self, p, q, subst):
        assert substitute_linear(p + q, subst) == substitute_linear(
            p, subst
        ) + substitute_linear(q, subst)

    @given(polys, substitutions)
    def test_matches_expansion_into_linear_forms(self, p, subst):
        assert substitute_linear(p, subst).terms == substitute_terms(
            p.terms, subst.x_image, subst.y_image
        )

    @given(polys, polys, substitutions)
    def test_multiplicative(self, p, q, subst):
        assert substitute_linear(p * q, subst) == substitute_linear(
            p, subst
        ) * substitute_linear(q, subst)


def test_negative_exponents_rejected():
    with pytest.raises(ValueError):
        PolyGF2([(-1, 0)])


def test_degree():
    assert ZERO.degree() == -1
    assert ONE.degree() == 0
    assert poly((2, 3), (1, 1)).degree() == 5


def test_str_rendering():
    assert str(ZERO) == "0"
    assert str(ONE) == "1"
    assert str(poly((0, 0), (1, 0), (2, 1))) == "1 + x + x^2*y"
