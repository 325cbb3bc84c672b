from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from realbott import cohomology
from realbott.cohomology import (
    RingElement,
    RingPresentation,
    betti,
    nonvanishing_check,
    nonvanishing_failures,
    normal_form,
    sw_swap_failures,
    total_sw_class,
)
from realbott.gf2poly import COMPLEMENT_SUBSTITUTION, PolyGF2, substitute_linear
from realbott.oracle import rings_isomorphic_bruteforce

from _oracles import (
    basis,
    dense_rank_gf2,
    ideal_degree_slice,
    images,
    in_row_span_gf2,
    monomial_vector,
    relation_polys,
    substitute_terms,
    substitutions,
)


def mono(i, j):
    return PolyGF2([(i, j)])


def plus(u, v):
    return normal_form(u.lift() + v.lift(), u.pres)


def times(u, v):
    return normal_form(u.lift() * v.lift(), u.pres)


def all_presentations(a_max, b_max):
    for a in range(1, a_max + 1):
        for b in range(1, b_max + 1):
            for q in range(b + 1):
                yield RingPresentation(a, b, q)


presentations = st.tuples(
    st.integers(1, 6), st.integers(1, 6), st.integers(0, 6)
).filter(lambda t: t[2] <= t[1]).map(lambda t: RingPresentation(*t))

polys = st.builds(
    PolyGF2,
    st.frozensets(st.tuples(st.integers(0, 10), st.integers(0, 10)), max_size=8),
)


class TestPresentation:
    @pytest.mark.parametrize("a,b,q", [(0, 2, 1), (2, 0, 0), (2, 2, 3), (2, 2, -1)])
    def test_invalid_rejected(self, a, b, q):
        with pytest.raises(ValueError):
            RingPresentation(a, b, q)

    def test_dimension_and_top_degree(self):
        pres = RingPresentation(3, 4, 2)
        assert sum(betti(pres, d) for d in range(pres.top_degree + 1)) == 12
        assert pres.top_degree == 5

    def test_basis_listing(self):
        assert basis(RingPresentation(3, 2, 1), 2) == [(1, 1), (2, 0)]


class TestRelationPolys:
    def test_q_one(self):
        rel1, rel2 = relation_polys(RingPresentation(2, 2, 1))
        assert rel1 == mono(2, 0)
        assert rel2 == PolyGF2([(1, 1), (0, 2)])

    def test_q_zero_collapses(self):
        assert relation_polys(RingPresentation(3, 2, 0))[1] == mono(0, 2)

    def test_q_equals_b(self):
        assert relation_polys(RingPresentation(2, 2, 2))[1] == PolyGF2(
            [(2, 0), (0, 2)]
        )

    @pytest.mark.parametrize("pres", list(all_presentations(6, 6)))
    def test_matches_explicit_expansion(self, pres):
        x_plus_y = PolyGF2([(1, 0), (0, 1)])
        y = mono(0, 1)
        _, rel2 = relation_polys(pres)
        assert rel2 == x_plus_y ** pres.q * y ** (pres.b - pres.q)


class TestRelationImage:
    @pytest.mark.parametrize("a", range(1, 11))
    def test_matches_reference_expansion(self, a):
        # the image of (x+y)^q y^(b-q) under each of the 16 substitutions,
        # expanded monomial by monomial and cut below x^a; b reaches past
        # 2^h(a) for every a, so the Lucas cut of the (x+y) power is exercised
        for b in range(1, 19):
            for q in range(b + 1):
                pres = RingPresentation(a, b, q)
                rel2 = relation_polys(pres)[1].terms
                for subst in substitutions():
                    image = substitute_terms(rel2, *images(subst))
                    cut = sum(1 << i for i, _ in image if i < a)
                    assert pres.relation_image(subst) == cut, (pres, subst)


class TestNormalForm:
    def test_first_relation_dies(self):
        for pres in all_presentations(5, 5):
            assert not normal_form(mono(pres.a, 0), pres)

    def test_both_relations_die(self):
        # mandatory self-test: the defining relations reduce to zero
        for pres in all_presentations(10, 10):
            for rel in relation_polys(pres):
                assert not normal_form(rel, pres), pres

    def test_basis_monomials_fixed(self):
        pres = RingPresentation(4, 3, 2)
        for i in range(4):
            for j in range(3):
                assert normal_form(mono(i, j), pres).coeffs == frozenset([(i, j)])

    # expected values frozen from an independent Groebner reduction (sympy)
    @pytest.mark.parametrize(
        "p,pres,expected",
        [
            (mono(0, 2), RingPresentation(2, 2, 1), {(1, 1)}),
            (mono(0, 4), RingPresentation(2, 3, 2), set()),
            (mono(0, 3), RingPresentation(3, 5, 2), {(0, 3)}),
            (
                PolyGF2([(1, 0), (0, 1)]) ** 3,
                RingPresentation(3, 5, 2),
                {(0, 3), (1, 2), (2, 1)},
            ),
            (
                PolyGF2([(1, 0), (0, 1)]) ** 5 * mono(0, 2),
                RingPresentation(3, 6, 4),
                set(),
            ),
            (mono(0, 6), RingPresentation(3, 6, 4), set()),
        ],
    )
    def test_frozen_examples(self, p, pres, expected):
        assert normal_form(p, pres).coeffs == frozenset(expected)

    @given(polys, presentations)
    def test_idempotent(self, p, pres):
        once = normal_form(p, pres)
        assert normal_form(once.lift(), pres) == once

    @given(polys, polys, presentations)
    def test_linear(self, p, q, pres):
        assert normal_form(p + q, pres) == plus(normal_form(p, pres), normal_form(q, pres))


class TestAgainstLinearAlgebra:
    """The rewriting engine must agree with dense row reduction of the
    ideal's degree slices, exhaustively for a, b <= 6."""

    @pytest.mark.parametrize("pres", list(all_presentations(6, 6)))
    def test_quotient_dimensions_and_membership(self, pres):
        a, b, q = pres.a, pres.b, pres.q
        for d in range(a + b):
            slice_rows = ideal_degree_slice(a, b, q, d)
            rank = dense_rank_gf2(slice_rows) if slice_rows else 0
            assert (d + 1) - rank == betti(pres, d), (pres, d)
            for i in range(d + 1):
                reduced = normal_form(mono(i, d - i), pres)
                vec = monomial_vector(i, d)
                for ri, rj in reduced.coeffs:
                    assert ri + rj == d
                    vec[ri] ^= 1
                # monomial minus its normal form lies in the ideal
                assert in_row_span_gf2(slice_rows, vec), (pres, d, i)


@st.composite
def wide_homogeneous_cases(draw):
    """A presentation with a, b <= 40 and one homogeneous polynomial of a
    degree up to a + b, past the top degree a + b - 2."""
    a = draw(st.integers(1, 40))
    b = draw(st.integers(1, 40))
    q = draw(st.integers(0, b))
    d = draw(st.integers(0, a + b))
    mask = draw(st.integers(0, 2 ** (d + 1) - 1))
    return RingPresentation(a, b, q), d, mask


class TestAgainstLinearAlgebraPastSmallRings:
    """The same dense reference as above on rings up to a, b <= 40, for
    random homogeneous polynomials rather than single monomials."""

    @settings(deadline=None)
    @given(wide_homogeneous_cases())
    def test_difference_lies_in_ideal_and_is_idempotent(self, case):
        pres, d, mask = case
        p = PolyGF2.from_masks([0] * d + [mask])
        reduced = normal_form(p, pres)
        assert normal_form(reduced.lift(), pres) == reduced
        vec = [mask >> i & 1 for i in range(d + 1)]
        for i, j in reduced.coeffs:
            assert i + j == d
            vec[i] ^= 1
        slice_rows = ideal_degree_slice(pres.a, pres.b, pres.q, d)
        assert in_row_span_gf2(slice_rows, vec)
        rank = dense_rank_gf2(slice_rows) if slice_rows else 0
        assert (d + 1) - rank == betti(pres, d)


class TestElementArithmetic:
    def test_self_cancellation(self):
        pres = RingPresentation(3, 3, 1)
        u = normal_form(PolyGF2([(1, 1), (0, 2)]), pres)
        assert not plus(u, u)

    def test_nilpotent_generator(self):
        pres = RingPresentation(4, 2, 1)
        x = normal_form(mono(1, 0), pres)
        x_top = normal_form(mono(3, 0), pres)
        assert not times(x, x_top)

    def test_y_squared_in_twisted_ring(self):
        pres = RingPresentation(2, 2, 1)
        y = normal_form(mono(0, 1), pres)
        assert times(y, y).coeffs == frozenset([(1, 1)])

    def test_out_of_basis_coeffs_rejected(self):
        with pytest.raises(ValueError):
            RingElement(RingPresentation(2, 2, 1), (0, 0, 0b100))

    @given(polys, presentations)
    def test_masks_round_trip(self, p, pres):
        element = normal_form(p, pres)
        assert RingElement(pres, element.masks) == element

    @pytest.mark.parametrize("masks", [
        (1, 0),  # untrimmed
        (0, 0b100),  # x^2 y^-1: a bit above its degree
        (0, 0, 0, 0b1000),  # x^3, with a = 3
        (0, 0, 0, 0b1),  # y^3, with b = 3
    ], ids=["untrimmed", "above-degree", "x-exponent-a", "y-exponent-b"])
    def test_pieces_not_in_normal_form_rejected(self, masks):
        with pytest.raises(ValueError):
            RingElement(RingPresentation(3, 3, 1), masks)

    @pytest.mark.parametrize("a", range(1, 6))
    def test_accepts_exactly_the_pieces_reduce_fixes(self, a):
        # the closed-form basis against reduce: a piece is in normal form iff reduce fixes it
        for b in range(1, 6):
            for q in range(b + 1):
                pres = RingPresentation(a, b, q)
                for d in range(a + b + 1):
                    for mask in range(1, 1 << d + 1):
                        try:
                            RingElement(pres, (0,) * d + (mask,))
                        except ValueError:
                            accepted = False
                        else:
                            accepted = True
                        assert accepted == (pres.reduce(mask, d) == mask), (pres, d, bin(mask))

    @given(presentations, st.data())
    def test_ring_axioms(self, pres, data):
        basis_pairs = st.frozensets(
            st.tuples(st.integers(0, pres.a - 1), st.integers(0, pres.b - 1)),
            max_size=6,
        )
        u, v, w = (
            RingElement(pres, PolyGF2(data.draw(basis_pairs)).masks) for _ in range(3)
        )
        # normal form respects + and *, so the quotient's operations are well defined
        assert plus(plus(u, v), w) == plus(u, plus(v, w))
        assert plus(u, v) == plus(v, u)
        assert times(times(u, v), w) == times(u, times(v, w))
        assert times(u, v) == times(v, u)
        assert times(u, plus(v, w)) == plus(times(u, v), times(u, w))
        one = normal_form(mono(0, 0), pres)
        assert times(u, one) == u


class TestNonvanishing:
    def test_interior_q_small(self):
        assert nonvanishing_check(RingPresentation(2, 2, 1)) == (True, True)

    def test_q_zero_kills_y_power(self):
        nonzero_y, _ = nonvanishing_check(RingPresentation(2, 2, 0))
        assert not nonzero_y

    def test_computed_example(self):
        assert nonvanishing_check(RingPresentation(3, 5, 2)) == (True, True)

    def test_sweep_interior_q(self):
        for a in range(1, 9):
            for b in range(1, 9):
                for q in range(1, b):
                    assert nonvanishing_check(RingPresentation(a, b, q)) == (
                        True,
                        True,
                    ), (a, b, q)

    def test_failures_sweep_is_empty(self):
        assert nonvanishing_failures(8, 8) == []

    def test_failures_sweep_reports_each_failure(self, monkeypatch):
        monkeypatch.setattr(cohomology, "nonvanishing_check", lambda pres: (True, False))
        assert nonvanishing_failures(3, 4) == [
            (a, b, q) for a in range(1, 4) for b in range(1, 5) for q in range(1, b)
        ]


class TestBetti:
    def test_degree_one(self):
        assert betti(RingPresentation(2, 2, 0), 1) == 2

    def test_top_class_is_one_dimensional(self):
        for pres in all_presentations(5, 5):
            assert betti(pres, pres.top_degree) == 1

    def test_example(self):
        assert betti(RingPresentation(3, 2, 0), 2) == 2

    def test_total_is_product(self):
        for pres in all_presentations(6, 6):
            total = sum(betti(pres, d) for d in range(pres.top_degree + 1))
            assert total == pres.a * pres.b

    def test_independent_of_q(self):
        for q in range(5):
            assert betti(RingPresentation(4, 4, q), 3) == betti(
                RingPresentation(4, 4, 0), 3
            )

    def test_closed_form_counts_the_basis(self):
        for a in range(1, 13):
            for b in range(1, 13):
                pres = RingPresentation(a, b, 0)
                for d in range(-2, pres.top_degree + 3):
                    assert betti(pres, d) == len(basis(pres, d)), (a, b, d)


class TestFundamentalClass:
    def test_nonzero_sweep(self):
        for a in range(1, 9):
            for b in range(1, 9):
                for q in range(b + 1):
                    pres = RingPresentation(a, b, q)
                    assert normal_form(mono(a - 1, b - 1), pres), pres


class TestTotalSWClass:
    # expected values frozen from an independent symbolic expansion (sympy)
    @pytest.mark.parametrize(
        "a,b,q,expected",
        [
            (1, 1, 0, {(0, 0)}),
            (1, 1, 1, {(0, 0)}),
            (2, 2, 0, {(0, 0)}),
            (2, 2, 1, {(0, 0), (1, 0)}),
            (2, 2, 2, {(0, 0)}),
            (3, 4, 2, {(0, 0), (1, 0)}),
            (
                4,
                5,
                3,
                {(0, 0), (0, 1), (0, 4), (1, 0), (2, 0), (2, 1), (2, 2), (3, 0)},
            ),
            (
                3,
                3,
                1,
                {(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 1), (2, 2)},
            ),
        ],
    )
    def test_frozen_examples(self, a, b, q, expected):
        assert total_sw_class(RingPresentation(a, b, q)).coeffs == frozenset(
            expected
        )

    def test_point_is_trivial(self):
        # a = b = 1 is a point: only degree 0 survives
        for q in (0, 1):
            assert total_sw_class(RingPresentation(1, 1, q)).coeffs == frozenset(
                [(0, 0)]
            )

    @pytest.mark.parametrize("a", range(1, 11))
    def test_matches_the_product_of_the_bundle_factors(self, a):
        # the reference: (1+x)^a (1+y)^(b-q) (1+x+y)^q multiplied out by
        # PolyGF2's own product and power, then reduced
        one, x, y = mono(0, 0), mono(1, 0), mono(0, 1)
        for b in range(1, 11):
            for q in range(b + 1):
                pres = RingPresentation(a, b, q)
                bundle = (one + x) ** a * (one + y) ** (b - q) * (one + x + y) ** q
                assert total_sw_class(pres) == normal_form(bundle, pres), (a, b, q)

    def test_swap_symmetry_sweep(self):
        # x -> x, y -> x+y carries the class of (a,b,q) to that of (a,b,b-q)
        for a in range(1, 9):
            for b in range(1, 9):
                for q in range(b + 1):
                    swapped = RingPresentation(a, b, b - q)
                    carried = normal_form(
                        substitute_linear(
                            total_sw_class(RingPresentation(a, b, q)).lift(),
                            COMPLEMENT_SUBSTITUTION,
                        ),
                        swapped,
                    )
                    assert carried == total_sw_class(swapped), (a, b, q)

    def test_every_oracle_witness_carries_w_to_w(self):
        # a graded isomorphism commutes with Sq and fixes the top class, so by
        # Wu's formula it carries w(M(q)) to w(M(q')); the bundle formula for w
        # plays no part in that argument
        pairs = 0
        for a in range(1, 11):
            for b in range(1, 18):
                rings = [RingPresentation(a, b, q) for q in range(b + 1)]
                classes = [total_sw_class(ring) for ring in rings]
                for src, dst in product(rings, repeat=2):
                    witness = rings_isomorphic_bruteforce(src, dst)
                    if witness is None:
                        continue
                    pairs += 1
                    carried = normal_form(substitute_linear(classes[src.q].lift(), witness), dst)
                    assert carried == classes[dst.q], (a, b, src.q, dst.q, str(witness))
        assert pairs == 8456

    @pytest.mark.parametrize("a", range(1, 11))
    def test_complement_image_matches_polynomial_route(self, a):
        # the sweep's mask route against lift, substitute_linear and
        # normal_form, from the class, and from the sum of the basis
        # monomials, of each ring of the cell into every ring of the cell; the
        # mask route does not trim, so equal masks also show that no piece
        # of an element in normal form goes to 0
        for b in range(1, 11):
            rings = [RingPresentation(a, b, q) for q in range(b + 1)]
            basis_sum = tuple(sum(1 << i for i, j in basis(rings[0], d)) for d in range(a + b - 1))
            for src, dst in product(rings, repeat=2):
                for element in (total_sw_class(src), RingElement(src, basis_sum)):
                    carried = substitute_linear(element.lift(), COMPLEMENT_SUBSTITUTION)
                    assert cohomology._complement_image(element.masks, dst) == normal_form(
                        carried, dst).masks, (a, b, src.q, dst.q, element)

    def test_swap_failures_sweep_is_empty(self):
        assert sw_swap_failures(8, 8) == []

    def test_swap_failures_sweep_reports_each_failure(self, monkeypatch):
        # adding x to w(M(0)) breaks the symmetry at q = 0 (as source) and
        # at q = b (as target); x vanishes when a = 1
        def broken(pres):
            cls = total_sw_class(pres)
            return cls if pres.q else plus(cls, normal_form(mono(1, 0), pres))

        monkeypatch.setattr(cohomology, "total_sw_class", broken)
        assert sw_swap_failures(3, 4) == [
            (a, b, q) for a in range(2, 4) for b in range(1, 5) for q in (0, b)
        ]

    def test_swap_failures_sweep_computes_each_class_once(self, monkeypatch):
        seen = []

        def counted(pres):
            seen.append((pres.a, pres.b, pres.q))
            return total_sw_class(pres)

        monkeypatch.setattr(cohomology, "total_sw_class", counted)
        assert sw_swap_failures(4, 5) == []
        assert sorted(seen) == [
            (a, b, q) for a in range(1, 5) for b in range(1, 6) for q in range(b + 1)
        ]

    def test_leading_coefficient_is_one(self):
        for pres in all_presentations(6, 6):
            assert (0, 0) in total_sw_class(pres).coeffs


def test_element_str():
    pres = RingPresentation(3, 3, 1)
    assert str(normal_form(PolyGF2([(0, 0), (1, 0), (1, 1)]), pres)) == "1 + x + x*y"
