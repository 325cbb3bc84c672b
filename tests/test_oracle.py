import pytest

from _oracles import (
    SWAP_SUBSTITUTION,
    reference_graded_isomorphism,
    reference_isomorphism,
    substitutions,
)
from realbott.arithmetic import cohomology_criterion, diffeo_criterion
from realbott.cohomology import RingPresentation
from realbott.gf2poly import (
    COMPLEMENT_SUBSTITUTION,
    IDENTITY_SUBSTITUTION,
    LinearSubstitution,
)
from realbott import oracle
from realbott.oracle import (
    IsoVerdict,
    cell_isomorphisms,
    induces_homomorphism,
    is_graded_isomorphism,
    rings_isomorphic_bruteforce,
)


class TestEnumeration:
    def test_sixteen_distinct(self):
        subs = oracle._SUBSTITUTIONS
        assert len(subs) == 16
        assert len(set(subs)) == 16

    def test_contains_identity_and_swap(self):
        subs = oracle._SUBSTITUTIONS
        assert IDENTITY_SUBSTITUTION in subs
        assert SWAP_SUBSTITUTION in subs

    def test_search_order(self):
        assert list(oracle._SUBSTITUTIONS) == substitutions()


class TestInducesHomomorphism:
    def test_identity_on_same_presentation(self):
        pres = RingPresentation(3, 4, 2)
        assert induces_homomorphism(IDENTITY_SUBSTITUTION, pres, pres)

    def test_identity_fails_across_twist(self):
        # y^2 is a relation at q=0 but reduces to xy != 0 at q=1
        src = RingPresentation(2, 2, 0)
        dst = RingPresentation(2, 2, 1)
        assert not induces_homomorphism(IDENTITY_SUBSTITUTION, src, dst)

    def test_complement_substitution_swaps_twists(self):
        for a in range(1, 7):
            for b in range(1, 7):
                for q in range(b + 1):
                    src = RingPresentation(a, b, q)
                    dst = RingPresentation(a, b, b - q)
                    assert induces_homomorphism(
                        COMPLEMENT_SUBSTITUTION, src, dst
                    ), (a, b, q)

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ValueError):
            induces_homomorphism(
                IDENTITY_SUBSTITUTION,
                RingPresentation(2, 3, 1),
                RingPresentation(3, 2, 1),
            )


class TestIsGradedIsomorphism:
    def test_identity_on_identical(self):
        pres = RingPresentation(4, 3, 1)
        assert is_graded_isomorphism(IDENTITY_SUBSTITUTION, pres, pres)

    def test_rank_deficit_detected(self):
        pres = RingPresentation(2, 2, 0)
        collapse_x = LinearSubstitution((0, 0), (0, 1))
        assert not is_graded_isomorphism(collapse_x, pres, pres)

    def test_complement_realizes_self_equivalence(self):
        pres = RingPresentation(2, 2, 1)
        assert is_graded_isomorphism(COMPLEMENT_SUBSTITUTION, pres, pres)

    def test_singular_substitution_works_on_degenerate_ring(self):
        # at a = 1 the class of x is zero, so x may be sent to 0
        pres = RingPresentation(1, 3, 1)
        kill_x = LinearSubstitution((0, 0), (0, 1))
        assert is_graded_isomorphism(kill_x, pres, pres)

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ValueError):
            is_graded_isomorphism(
                IDENTITY_SUBSTITUTION,
                RingPresentation(2, 2, 1),
                RingPresentation(2, 3, 1),
            )


class TestVerdict:
    def test_witness_present_iff_isomorphic(self):
        with pytest.raises(ValueError):
            IsoVerdict(True, None)
        with pytest.raises(ValueError):
            IsoVerdict(False, IDENTITY_SUBSTITUTION)


class TestBruteForce:
    def test_distinguishes_trivial_from_twisted(self):
        verdict = rings_isomorphic_bruteforce(
            RingPresentation(2, 2, 0), RingPresentation(2, 2, 1)
        )
        assert not verdict.isomorphic
        assert verdict.witness is None

    def test_q_and_complement_always_isomorphic(self):
        for a in range(1, 6):
            for b in range(1, 6):
                for q in range(b + 1):
                    verdict = rings_isomorphic_bruteforce(
                        RingPresentation(a, b, q), RingPresentation(a, b, b - q)
                    )
                    assert verdict.isomorphic, (a, b, q)

    def test_headline_pair(self):
        verdict = rings_isomorphic_bruteforce(
            RingPresentation(10, 17, 0), RingPresentation(10, 17, 16)
        )
        assert verdict.isomorphic

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ValueError):
            rings_isomorphic_bruteforce(
                RingPresentation(2, 2, 1), RingPresentation(2, 3, 1)
            )

    def test_symmetry_reflexivity_and_witness_validity(self):
        for a in range(1, 6):
            for b in range(1, 7):
                presentations = [
                    RingPresentation(a, b, q) for q in range(b + 1)
                ]
                for src in presentations:
                    assert rings_isomorphic_bruteforce(src, src).isomorphic
                    for dst in presentations:
                        forward = rings_isomorphic_bruteforce(src, dst)
                        backward = rings_isomorphic_bruteforce(dst, src)
                        assert forward.isomorphic == backward.isomorphic, (src, dst)
                        if forward.witness is not None:
                            assert is_graded_isomorphism(
                                forward.witness, src, dst
                            )


class TestAgainstReferenceSearch:
    @pytest.mark.parametrize("a", range(1, 6))
    @pytest.mark.parametrize("b", range(1, 6))
    def test_same_verdict_and_first_witness(self, a, b):
        # includes the degenerate rows a = 1 and b = 1
        for q in range(b + 1):
            for q_prime in range(b + 1):
                verdict = rings_isomorphic_bruteforce(
                    RingPresentation(a, b, q), RingPresentation(a, b, q_prime)
                )
                witness = verdict.witness and (
                    verdict.witness.x_image, verdict.witness.y_image
                )
                assert witness == reference_isomorphism(a, b, q, q_prime), (q, q_prime)

    @pytest.mark.parametrize("a", range(1, 6))
    @pytest.mark.parametrize("b", range(1, 6))
    def test_degree_one_span_decides_bijectivity(self, a, b):
        # the degree-1 lemma against the all-degree reference, substitution
        # by substitution, the degenerate rows a = 1 and b = 1 included
        for q in range(b + 1):
            src = RingPresentation(a, b, q)
            for q_prime in range(b + 1):
                dst = RingPresentation(a, b, q_prime)
                for subst in substitutions():
                    assert is_graded_isomorphism(subst, src, dst) == (
                        reference_graded_isomorphism(
                            a, b, q, q_prime, subst.x_image, subst.y_image
                        )
                    ), (q, q_prime, subst)

    @pytest.mark.parametrize("a, b", [(1, 6), (6, 1), (4, 7), (10, 17)])
    def test_shared_presentations_match_fresh_ones(self, a, b):
        # the class sweep builds each ring once and reuses it as source and
        # target; its verdicts must match per-pair searches on fresh rings,
        # and its witnesses must hold on fresh rings
        for q, row in enumerate(cell_isomorphisms(a, b)):
            for q_prime, verdict in enumerate(row):
                src, dst = RingPresentation(a, b, q), RingPresentation(a, b, q_prime)
                fresh = rings_isomorphic_bruteforce(src, dst)
                assert verdict.isomorphic == fresh.isomorphic, (q, q_prime)
                if verdict.isomorphic:
                    assert is_graded_isomorphism(verdict.witness, src, dst), (q, q_prime)

    @pytest.mark.parametrize("a", range(1, 6))
    @pytest.mark.parametrize("b", range(1, 6))
    def test_class_sweep_witnesses_pass_the_reference(self, a, b):
        for q, row in enumerate(cell_isomorphisms(a, b)):
            for q_prime, verdict in enumerate(row):
                assert verdict.isomorphic == (
                    reference_isomorphism(a, b, q, q_prime) is not None
                ), (q, q_prime)
                if verdict.isomorphic:
                    assert reference_graded_isomorphism(
                        a, b, q, q_prime, verdict.witness.x_image, verdict.witness.y_image
                    ), (q, q_prime, verdict.witness)


class TestCellIsomorphisms:
    @pytest.mark.parametrize("a", range(1, 9))
    def test_agrees_with_all_pairs_search(self, a):
        # b <= 12, the degenerate rows a = 1 and b = 1 included; every
        # witness, searched or composed, is an isomorphism
        for b in range(1, 13):
            rings = [RingPresentation(a, b, q) for q in range(b + 1)]
            verdicts = list(cell_isomorphisms(a, b))
            assert len(verdicts) == b + 1
            for src, row in zip(rings, verdicts):
                assert len(row) == b + 1
                for dst, verdict in zip(rings, row):
                    searched = rings_isomorphic_bruteforce(src, dst)
                    assert verdict.isomorphic == searched.isomorphic, (b, src.q, dst.q)
                    if verdict.isomorphic:
                        assert is_graded_isomorphism(verdict.witness, src, dst), (
                            b, src.q, dst.q,
                        )

    @pytest.mark.parametrize("a, b", [(16, 33), (32, 64), (33, 65)])
    def test_agrees_with_criterion_deep_in_the_gap(self, a, b):
        # h(a) < k(a) and b > 2^h(a): isomorphic rings of non-diffeomorphic
        # manifolds exist in each of these cells
        mismatches, counterexamples = [], 0
        for q, row in enumerate(cell_isomorphisms(a, b)):
            for q_prime, verdict in enumerate(row):
                if verdict.isomorphic != cohomology_criterion(a, b, q, q_prime):
                    mismatches.append((q, q_prime))
                elif verdict.isomorphic and not diffeo_criterion(a, b, q, q_prime):
                    counterexamples += 1
        assert mismatches == []
        assert counterexamples > 0

    def test_failed_composed_witness_raises(self, monkeypatch):
        # with every inverse replaced by the identity the composed maps are
        # wrong; the check must refuse them rather than report a verdict
        identity = {subst: IDENTITY_SUBSTITUTION for subst in substitutions()}
        monkeypatch.setattr(oracle, "_ADJUGATE", identity)
        with pytest.raises(RuntimeError, match="composed witness"):
            list(cell_isomorphisms(10, 17))

    def test_adjugate_inverts_exactly_the_invertible_substitutions(self):
        invertible = 0
        for subst in substitutions():
            (xx, xy), (yx, yy) = subst.x_image, subst.y_image
            adjugate = oracle._ADJUGATE[subst]
            if xx & yy ^ xy & yx:
                invertible += 1
                assert oracle._compose(subst, adjugate) == IDENTITY_SUBSTITUTION, subst
                assert oracle._compose(adjugate, subst) == IDENTITY_SUBSTITUTION, subst
            else:
                assert oracle._compose(subst, adjugate) != IDENTITY_SUBSTITUTION, subst
        assert invertible == 6

    def test_compose_applies_the_inner_substitution_first(self):
        kill_y = LinearSubstitution((1, 0), (0, 0))
        # x -> x -> x and y -> x + y -> x + 0
        assert oracle._compose(kill_y, COMPLEMENT_SUBSTITUTION) == LinearSubstitution(
            (1, 0), (1, 0)
        )
        # x -> x -> x and y -> 0
        assert oracle._compose(COMPLEMENT_SUBSTITUTION, kill_y) == kill_y


def test_agrees_with_criterion_where_rigidity_fails():
    # 10 <= a <= 12 has h(a) < k(a), and b >= 17 > 2^h(a): the paper's regime
    mismatches, counterexamples = [], 0
    for a in range(10, 13):
        for b in range(17, 25):
            rings = [RingPresentation(a, b, q) for q in range(b + 1)]
            for src in rings:
                for dst in rings:
                    verdict = rings_isomorphic_bruteforce(src, dst)
                    if verdict.isomorphic != cohomology_criterion(a, b, src.q, dst.q):
                        mismatches.append((a, b, src.q, dst.q))
                    elif verdict.isomorphic and not diffeo_criterion(a, b, src.q, dst.q):
                        counterexamples += 1
    assert mismatches == []
    assert counterexamples > 0


def test_agrees_with_criterion_past_the_acceptance_grid():
    # the acceptance grid stops at a <= 6; a >= 10 is where h(a) < k(a)
    cells = [(a, b) for a in range(7, 11) for b in range(1, 13)] + [(10, 17)]
    mismatches = []
    for a, b in cells:
        for q in range(b + 1):
            src = RingPresentation(a, b, q)
            for q_prime in range(b + 1):
                verdict = rings_isomorphic_bruteforce(src, RingPresentation(a, b, q_prime))
                if verdict.isomorphic != cohomology_criterion(a, b, q, q_prime):
                    mismatches.append((a, b, q, q_prime))
    assert mismatches == []
