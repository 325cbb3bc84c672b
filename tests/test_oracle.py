import pytest

from _oracles import (
    LINEAR_FORMS,
    SWAP_SUBSTITUTION,
    dense_rank_gf2,
    ideal_degree_slice,
    images,
    reference_graded_isomorphism,
    reference_isomorphism,
    rejects_identity_between_rings,
    relation_polys,
    substitution,
    substitutions,
)
from realbott.arithmetic import cohomology_criterion, criterion_classes, diffeo_criterion
from realbott.cohomology import RingPresentation
from realbott.gf2poly import (
    COMPLEMENT_SUBSTITUTION,
    IDENTITY_SUBSTITUTION,
    PolyGF2,
    substitute_linear,
)
from realbott import oracle
from realbott.oracle import (
    cell_classes,
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

    def test_every_witness_spelling(self):
        spelled = {(0, 0): "0", (0, 1): "y", (1, 0): "x", (1, 1): "x+y"}
        names = [spelled[form] for form in LINEAR_FORMS]
        assert [str(s) for s in oracle._SUBSTITUTIONS] == [
            f"x->{x}, y->{y}" for x in names for y in names
        ]


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
        collapse_x = substitution((0, 0), (0, 1))
        assert not is_graded_isomorphism(collapse_x, pres, pres)

    def test_complement_realizes_self_equivalence(self):
        pres = RingPresentation(2, 2, 1)
        assert is_graded_isomorphism(COMPLEMENT_SUBSTITUTION, pres, pres)

    def test_singular_substitution_works_on_degenerate_ring(self):
        # at a = 1 the class of x is zero, so x may be sent to 0
        pres = RingPresentation(1, 3, 1)
        kill_x = substitution((0, 0), (0, 1))
        assert is_graded_isomorphism(kill_x, pres, pres)

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ValueError):
            is_graded_isomorphism(
                IDENTITY_SUBSTITUTION,
                RingPresentation(2, 2, 1),
                RingPresentation(2, 3, 1),
            )


class TestBruteForce:
    def test_distinguishes_trivial_from_twisted(self):
        witness = rings_isomorphic_bruteforce(
            RingPresentation(2, 2, 0), RingPresentation(2, 2, 1)
        )
        assert witness is None

    def test_q_and_complement_always_isomorphic(self):
        for a in range(1, 6):
            for b in range(1, 6):
                for q in range(b + 1):
                    witness = rings_isomorphic_bruteforce(
                        RingPresentation(a, b, q), RingPresentation(a, b, b - q)
                    )
                    assert witness is not None, (a, b, q)

    def test_headline_pair(self):
        witness = rings_isomorphic_bruteforce(
            RingPresentation(10, 17, 0), RingPresentation(10, 17, 16)
        )
        assert witness is not None

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
                    assert rings_isomorphic_bruteforce(src, src) is not None
                    for dst in presentations:
                        forward = rings_isomorphic_bruteforce(src, dst)
                        backward = rings_isomorphic_bruteforce(dst, src)
                        assert (forward is None) == (backward is None), (src, dst)
                        if forward is not None:
                            assert is_graded_isomorphism(forward, src, dst)


class TestAgainstReferenceSearch:
    @pytest.mark.parametrize("a", range(1, 6))
    @pytest.mark.parametrize("b", range(1, 6))
    def test_same_verdict_and_first_witness(self, a, b):
        # includes the degenerate rows a = 1 and b = 1
        for q in range(b + 1):
            for q_prime in range(b + 1):
                witness = rings_isomorphic_bruteforce(
                    RingPresentation(a, b, q), RingPresentation(a, b, q_prime)
                )
                witness = witness and images(witness)
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
                        reference_graded_isomorphism(a, b, q, q_prime, *images(subst))
                    ), (q, q_prime, subst)

    @pytest.mark.parametrize("a, b", [(1, 6), (6, 1), (4, 7), (10, 17)])
    def test_shared_presentations_match_fresh_ones(self, a, b):
        # the class sweep builds each ring once and reuses it as source and
        # target; its verdicts must match per-pair searches on fresh rings
        labels = cell_classes(a, b)
        for q in range(b + 1):
            for q_prime in range(b + 1):
                src, dst = RingPresentation(a, b, q), RingPresentation(a, b, q_prime)
                fresh = rings_isomorphic_bruteforce(src, dst)
                assert (labels[q] == labels[q_prime]) == (fresh is not None), (q, q_prime)

    @pytest.mark.parametrize("a", range(1, 6))
    @pytest.mark.parametrize("b", range(1, 6))
    def test_class_sweep_witnesses_pass_the_reference(self, a, b):
        # the class sweep's partition against the all-degree reference; the
        # searches' own witnesses are checked in test_same_verdict_and_first_witness
        labels = cell_classes(a, b)
        for q in range(b + 1):
            for q_prime in range(b + 1):
                assert (labels[q] == labels[q_prime]) == (
                    reference_isomorphism(a, b, q, q_prime) is not None
                ), (q, q_prime)


class TestCellIsomorphisms:
    @pytest.mark.parametrize("a", range(1, 13))
    def test_agrees_with_all_pairs_search(self, a):
        # b <= 12, the degenerate rows a = 1 and b = 1 included; entry q is
        # the least q' that a direct search finds isomorphic to q
        for b in range(1, 13):
            rings = [RingPresentation(a, b, q) for q in range(b + 1)]
            labels = cell_classes(a, b)
            assert len(labels) == b + 1
            for src in rings:
                searched = [rings_isomorphic_bruteforce(src, dst) is not None for dst in rings]
                assert labels[src.q] == searched.index(True), (b, src.q)
                for dst in rings:
                    assert (labels[src.q] == labels[dst.q]) == searched[dst.q], (b, src.q, dst.q)

    @pytest.mark.parametrize("a, b", [(16, 33), (32, 64), (33, 65)])
    def test_agrees_with_criterion_deep_in_the_gap(self, a, b):
        # h(a) < k(a) and b > 2^h(a): isomorphic rings of non-diffeomorphic
        # manifolds exist in each of these cells
        mismatches, counterexamples = [], 0
        labels = cell_classes(a, b)
        for q in range(b + 1):
            for q_prime in range(b + 1):
                isomorphic = labels[q] == labels[q_prime]
                if isomorphic != cohomology_criterion(a, b, q, q_prime):
                    mismatches.append((q, q_prime))
                elif isomorphic and not diffeo_criterion(a, b, q, q_prime):
                    counterexamples += 1
        assert mismatches == []
        assert counterexamples > 0

    def test_agrees_with_criterion_in_the_headline_regime(self):
        # every cell with a <= 16 and b <= 40, the regime where h(a) < k(a):
        # 381,120 pairs, each decided by the oracle's partition and by
        # criterion_classes, whose orbit lemma is checked on the way
        mismatches, pairs = [], 0
        for a in range(1, 17):
            for b in range(1, 41):
                labels, crit = cell_classes(a, b), criterion_classes(a, b)
                for q in range(b + 1):
                    least = None
                    for q_prime in range(b + 1):
                        pairs += 1
                        criterion = cohomology_criterion(a, b, q, q_prime)
                        if least is None and criterion:
                            least = q_prime
                        if ((labels[q] == labels[q_prime]) != criterion
                                or (crit[q] == crit[q_prime]) != criterion):
                            mismatches.append((a, b, q, q_prime))
                    if crit[q] != least:
                        mismatches.append((a, b, q, None))
        assert mismatches == []
        assert pairs == 381_120

    def test_identity_rejected_within_an_ideal_raises(self, monkeypatch):
        # a fault in the identity check between distinct rings of one ideal
        # must stop the sweep, not become a verdict
        monkeypatch.setattr(oracle, "is_graded_isomorphism",
                            rejects_identity_between_rings(is_graded_isomorphism))
        with pytest.raises(RuntimeError, match="within one ideal"):
            cell_classes(10, 17)


class TestLemmas:
    @pytest.mark.parametrize("a", range(1, 9))
    def test_invertible_search_loses_nothing(self, a):
        # the degree-1 lemma: searching only GL2(F2) when betti(dst, 1) == 2
        # gives the verdict and the first witness of a search over all 16
        for b in range(1, 9):
            rings = [RingPresentation(a, b, q) for q in range(b + 1)]
            for src in rings:
                for dst in rings:
                    first = next((subst for subst in substitutions()
                                  if is_graded_isomorphism(subst, src, dst)), None)
                    assert rings_isomorphic_bruteforce(src, dst) == first, (b, src, dst)

    def test_invertible_substitutions_in_search_order(self):
        # the determinant over (cx, cy) pairs, independent of the oracle's rank rule
        invertible = []
        for subst in substitutions():
            (xx, xy), (yx, yy) = images(subst)
            if xx * yy != xy * yx:
                invertible.append(subst)
        assert len(invertible) == 6
        assert list(oracle._INVERTIBLE) == invertible

    @pytest.mark.parametrize("a", range(1, 13))
    def test_isomorphic_rings_are_joined_by_an_image_that_names_the_target(self, a):
        # the images lemma: every pair the search finds isomorphic has an
        # invertible witness s whose s(r_q), expanded by the reference
        # polynomial arithmetic and cut below x^a, is the target's _rel2; a
        # passing witness whose cut misses it has s(r_q) = x^a, and occurs
        # only at a = b with q in {0, b}
        misses = set()
        for b in range(1, 13):
            rings = [RingPresentation(a, b, q) for q in range(b + 1)]
            for src in rings:
                images = {subst: substitute_linear(relation_polys(src)[1], subst)
                          for subst in oracle._INVERTIBLE}
                cuts = {subst: sum(1 << i for i, _ in image.terms if i < a)
                        for subst, image in images.items()}
                for dst in rings:
                    passing = [subst for subst in oracle._INVERTIBLE
                               if is_graded_isomorphism(subst, src, dst)]
                    if rings_isomorphic_bruteforce(src, dst) is not None:
                        assert any(cuts[subst] == dst._rel2 for subst in passing), (b, src, dst)
                    for subst in passing:
                        if cuts[subst] != dst._rel2:
                            assert images[subst] == PolyGF2([(a, 0)]), (b, src, dst, subst)
                            misses.add((b, src.q))
        assert misses == {(a, 0), (a, a)}

    @pytest.mark.parametrize("a", range(1, 11))
    def test_equal_rel2_means_equal_ideal(self, a):
        # rings of one cell with equal _rel2 span the same ideal slice in
        # every degree, by dense rank rather than by reduce
        for b in range(1, 18):
            firsts = {}
            for q in range(b + 1):
                first = firsts.setdefault(RingPresentation(a, b, q)._rel2, q)
                if first == q:
                    continue
                for d in range(a + b):
                    mine = ideal_degree_slice(a, b, q, d)
                    theirs = ideal_degree_slice(a, b, first, d)
                    if mine != theirs:  # equal rows, as below b, span one space
                        rank = dense_rank_gf2(mine)
                        assert rank == dense_rank_gf2(theirs) == dense_rank_gf2(mine + theirs), (
                            b, q, first, d,
                        )


def test_agrees_with_criterion_where_rigidity_fails():
    # 10 <= a <= 12 has h(a) < k(a), and b >= 17 > 2^h(a): the paper's regime
    mismatches, counterexamples = [], 0
    for a in range(10, 13):
        for b in range(17, 25):
            rings = [RingPresentation(a, b, q) for q in range(b + 1)]
            for src in rings:
                for dst in rings:
                    isomorphic = rings_isomorphic_bruteforce(src, dst) is not None
                    if isomorphic != cohomology_criterion(a, b, src.q, dst.q):
                        mismatches.append((a, b, src.q, dst.q))
                    elif isomorphic and not diffeo_criterion(a, b, src.q, dst.q):
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
                witness = rings_isomorphic_bruteforce(src, RingPresentation(a, b, q_prime))
                if (witness is not None) != cohomology_criterion(a, b, q, q_prime):
                    mismatches.append((a, b, q, q_prime))
    assert mismatches == []
