"""Acceptance suite: one test per release criterion, all exact.

Each test prints a single PASS line on success (run with -s to see them);
a failure of any test here means the build does not meet its contract.
"""

import time

from realbott.arithmetic import (
    classify,
    cohomology_criterion,
    counterexample_pair,
    diffeo_criterion,
    h_of,
    k_of,
    rigidity_holds,
)
from realbott.cohomology import (
    RingPresentation,
    betti,
    nonvanishing_failures,
    normal_form,
    sw_swap_failures,
)
from realbott.gf2poly import PolyGF2
from realbott.oracle import is_graded_isomorphism, rings_isomorphic_bruteforce

from _oracles import binomial_rows_match, dense_rank_gf2, ideal_degree_slice, relation_polys

H_GOLDEN = [0, 1, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 4, 4, 4, 4]  # h(1)..h(16)
K_GOLDEN = [0, 1, 2, 2, 3, 3, 3, 3, 4, 5, 6, 6]  # k(1)..k(12)


def test_criterion_1_oracle_matches_congruence_criterion():
    start = time.perf_counter()
    cases = 0
    mismatches = []
    for a in range(1, 7):
        for b in range(1, 8):
            for q in range(b + 1):
                src = RingPresentation(a, b, q)
                for q_prime in range(b + 1):
                    witness = rings_isomorphic_bruteforce(
                        src, RingPresentation(a, b, q_prime)
                    )
                    cases += 1
                    if (witness is not None) != cohomology_criterion(a, b, q, q_prime):
                        mismatches.append((a, b, q, q_prime))
    elapsed = time.perf_counter() - start
    assert mismatches == [], mismatches
    print(
        f"ACCEPTANCE C1 oracle equivalence (a<=6, b<=7, {cases} pairs, "
        f"{elapsed:.1f}s): PASS"
    )


def test_criterion_2_headline_counterexample():
    start = time.perf_counter()
    a, b, q, q_prime = 10, 17, 0, 16
    assert cohomology_criterion(a, b, q, q_prime)
    src = RingPresentation(a, b, q)
    dst = RingPresentation(a, b, q_prime)
    assert sum(betti(src, d) for d in range(src.top_degree + 1)) == 170
    witness = rings_isomorphic_bruteforce(src, dst)
    assert witness is not None
    assert is_graded_isomorphism(witness, src, dst)
    assert not diffeo_criterion(a, b, q, q_prime)
    assert not classify(a, b, q, q_prime).homotopy_equivalent
    elapsed = time.perf_counter() - start
    print(
        f"ACCEPTANCE C2 headline pair a=10 b=17 (q,q')=(0,16) "
        f"({elapsed:.1f}s): PASS"
    )


def test_criterion_3_h_k_golden_tables_and_inequality():
    assert [h_of(a) for a in range(1, 17)] == H_GOLDEN
    assert [k_of(a) for a in range(1, 13)] == K_GOLDEN
    for a in range(1, 10 ** 4 + 1):
        h, k = h_of(a), k_of(a)
        assert h <= k, a
        assert (h == k) == (a <= 9), a
    print("ACCEPTANCE C3 h/k golden tables, h<=k (iff a<=9) up to 10^4: PASS")


def test_criterion_4_binomial_row_equivalence_sweep():
    start = time.perf_counter()
    for a in range(1, 65):
        modulus = 2 ** h_of(a)
        for q in range(257):
            for q_prime in range(257):
                assert binomial_rows_match(a, q, q_prime) == (
                    (q_prime - q) % modulus == 0
                ), (a, q, q_prime)
    elapsed = time.perf_counter() - start
    print(
        f"ACCEPTANCE C4 binomial-row equivalence (a<=64, q,q'<=256, "
        f"{elapsed:.1f}s): PASS"
    )


def test_criterion_5_nonvanishing_sweep():
    assert nonvanishing_failures(8, 8) == []
    print("ACCEPTANCE C5 y^a and (x+y)^a nonzero (a,b<=8, 0<q<b): PASS")


def test_criterion_6_rigidity_dichotomy():
    start = time.perf_counter()
    for a in range(1, 13):
        for b in range(1, 41):
            found = None
            for q in range(b + 1):
                for q_prime in range(b + 1):
                    if cohomology_criterion(a, b, q, q_prime) and not diffeo_criterion(
                        a, b, q, q_prime
                    ):
                        found = (q, q_prime)
                        break
                if found:
                    break
            assert rigidity_holds(a, b) == (found is None), (a, b, found)
            pair = counterexample_pair(a, b)
            assert (pair is not None) == (not rigidity_holds(a, b)), (a, b)
            if pair is not None:
                q, q_prime = pair
                assert cohomology_criterion(a, b, q, q_prime)
                assert not diffeo_criterion(a, b, q, q_prime)
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE C6 rigidity dichotomy (a<=12, b<=40, {elapsed:.1f}s): PASS")


def test_criterion_7_ring_engine_property_suite():
    # normal-form idempotence and vanishing relations, a,b <= 6
    sample_terms = [(0, 0), (1, 0), (0, 1), (2, 3), (5, 2), (1, 7), (4, 4)]
    for a in range(1, 7):
        for b in range(1, 7):
            for q in range(b + 1):
                pres = RingPresentation(a, b, q)
                for rel in relation_polys(pres):
                    assert not normal_form(rel, pres), pres
                p = PolyGF2(sample_terms)
                once = normal_form(p, pres)
                assert normal_form(once.lift(), pres) == once, pres

    # per-degree dimension agrees with dense linear algebra, a,b <= 6
    for a in range(1, 7):
        for b in range(1, 7):
            for q in range(b + 1):
                pres = RingPresentation(a, b, q)
                for d in range(a + b - 1):
                    rows = ideal_degree_slice(a, b, q, d)
                    rank = dense_rank_gf2(rows) if rows else 0
                    assert (d + 1) - rank == betti(pres, d), (pres, d)

    # fundamental monomial nonzero, a,b <= 8
    for a in range(1, 9):
        for b in range(1, 9):
            for q in range(b + 1):
                pres = RingPresentation(a, b, q)
                assert normal_form(PolyGF2([(a - 1, b - 1)]), pres), pres

    # Stiefel-Whitney swap symmetry, a,b <= 8
    assert sw_swap_failures(8, 8) == []
    print("ACCEPTANCE C7 ring-engine property suite: PASS")
