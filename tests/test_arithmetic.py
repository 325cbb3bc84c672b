import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from realbott import RingPresentation, arithmetic, cli, rings_isomorphic_bruteforce
from realbott.arithmetic import (
    ClassificationVerdict,
    classify,
    cohomology_criterion,
    criteria_runs,
    counterexample_pair,
    counterexample_runs,
    diffeo_criterion,
    h_of,
    k_of,
    rigidity_holds,
)

from _oracles import (
    binom_mod2, binomial_rows_match, classify_row, counterexample_row, radon_hurwitz,
)

# golden values: the defining examples of both functions
H_GOLDEN = {1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 6: 3, 7: 3, 8: 3,
            9: 4, 10: 4, 11: 4, 12: 4, 13: 4, 14: 4, 15: 4, 16: 4, 17: 5}
K_GOLDEN = {1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 6: 3, 7: 3, 8: 3,
            9: 4, 10: 5, 11: 6, 12: 6}


class TestHOf:
    @pytest.mark.parametrize("a,expected", sorted(H_GOLDEN.items()))
    def test_golden(self, a, expected):
        assert h_of(a) == expected

    @given(st.integers(1, 10 ** 6))
    def test_defining_property(self, a):
        h = h_of(a)
        assert 2 ** h >= a
        assert h == 0 or 2 ** (h - 1) < a

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            h_of(0)


class TestKOf:
    @pytest.mark.parametrize("a,expected", sorted(K_GOLDEN.items()))
    def test_golden(self, a, expected):
        assert k_of(a) == expected

    def test_matches_direct_count(self):
        for a in range(1, 2049):
            expected = sum(
                1 for n in range(1, a) if n % 8 in (0, 1, 2, 4)
            )
            assert k_of(a) == expected, a

    def test_least_power_of_two_with_enough_vector_fields(self):
        # Adams: 2^k(a), the order of the reduced KO group of RP^(a-1), is the
        # least power of two m with rho(m) >= a; independent of k_of's count
        n = 0
        for a in range(1, 5000):
            while radon_hurwitz(2 ** n) < a:
                n += 1
            assert k_of(a) == n, a

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            k_of(-3)


class TestHVersusK:
    def test_inequality_with_equality_iff_small(self):
        for a in range(1, 10 ** 4 + 1):
            h, k = h_of(a), k_of(a)
            assert h <= k, a
            assert (h == k) == (a <= 9), a


class TestCohomologyCriterion:
    def test_equal_q(self):
        assert cohomology_criterion(5, 9, 4, 4)

    def test_headline_pair(self):
        assert cohomology_criterion(10, 17, 0, 16)

    def test_small_twist_differs(self):
        assert not cohomology_criterion(2, 2, 0, 1)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            cohomology_criterion(2, 2, 0, 3)
        with pytest.raises(ValueError):
            cohomology_criterion(2, 2, -1, 0)


class TestDiffeoCriterion:
    def test_complement_always_diffeomorphic(self):
        for b in range(1, 12):
            for q in range(b + 1):
                assert diffeo_criterion(7, b, q, b - q)

    def test_headline_pair_not_diffeomorphic(self):
        assert not diffeo_criterion(10, 17, 0, 16)

    def test_mod_two_case(self):
        assert diffeo_criterion(2, 5, 1, 3)

    def test_shift_by_period_is_diffeomorphic(self):
        # 2^k(a) * gamma is stably trivial over RP^(a-1); b = 2^k(a) + 1
        # keeps q' = 0 and q' = 2^k(a) off the complement b - q = b
        for a in range(1, 20):
            period = 2 ** k_of(a)
            for q_prime in (0, period):
                assert diffeo_criterion(a, period + 1, 0, q_prime), (a, q_prime)


    @pytest.mark.parametrize("a", [1, 2, 9, 10, 17, 33, 64, 100, 257])
    def test_capped_modulus_matches_the_full_period(self, a):
        # the criterion caps 2^k(a) at 2^L, L = b.bit_length(); compare with
        # the uncapped congruence, over b that reach both sides of the cap
        period = 2 ** k_of(a)
        for b in {*range(1, 40), period - 1, period, period + 1} - {0}:
            for q in {0, 1, b // 3, b - 1, b} - {-1}:
                for q_prime in {0, 1, q, b - q, b // 2, b} - {-1}:
                    expected = (q_prime - q) % period == 0 or (q_prime - b + q) % period == 0
                    assert diffeo_criterion(a, b, q, q_prime) == expected, (b, q, q_prime)


class TestHomotopyCriterion:
    def test_agrees_on_grid(self):
        for a in range(1, 13):
            for b in range(1, 21):
                for q in range(b + 1):
                    for q_prime in range(b + 1):
                        assert classify(
                            a, b, q, q_prime
                        ).homotopy_equivalent == diffeo_criterion(a, b, q, q_prime)


class TestCriterionProperties:
    grid = st.tuples(
        st.integers(1, 16), st.integers(1, 24), st.integers(0, 24), st.integers(0, 24)
    ).filter(lambda t: t[2] <= t[1] and t[3] <= t[1])

    @given(grid)
    def test_symmetric_in_q_qprime(self, t):
        a, b, q, q_prime = t
        assert cohomology_criterion(a, b, q, q_prime) == cohomology_criterion(
            a, b, q_prime, q
        )
        assert diffeo_criterion(a, b, q, q_prime) == diffeo_criterion(
            a, b, q_prime, q
        )

    @given(grid)
    def test_invariant_under_complement(self, t):
        a, b, q, q_prime = t
        assert cohomology_criterion(a, b, q, q_prime) == cohomology_criterion(
            a, b, b - q, b - q_prime
        )
        assert diffeo_criterion(a, b, q, q_prime) == diffeo_criterion(
            a, b, b - q, b - q_prime
        )

    @given(grid)
    def test_diffeo_implies_cohomology(self, t):
        a, b, q, q_prime = t
        if diffeo_criterion(a, b, q, q_prime):
            assert cohomology_criterion(a, b, q, q_prime)


class TestRigidity:
    def test_small_base_always_rigid(self):
        assert rigidity_holds(9, 1000)

    def test_boundary_rank(self):
        assert rigidity_holds(10, 16)

    def test_first_failure(self):
        assert not rigidity_holds(10, 17)

    def test_scan_matches_criteria(self):
        for a in range(1, 11):
            for b in range(1, 25):
                found = any(
                    cohomology_criterion(a, b, q, q_prime)
                    and not diffeo_criterion(a, b, q, q_prime)
                    for q in range(b + 1)
                    for q_prime in range(b + 1)
                )
                assert rigidity_holds(a, b) == (not found), (a, b)


class TestCounterexamplePair:
    def test_non_multiple_branch(self):
        assert counterexample_pair(10, 17) == (0, 16)

    def test_multiple_branch(self):
        assert counterexample_pair(10, 32) == (1, 17)

    def test_rigid_case_returns_none(self):
        assert counterexample_pair(9, 100) is None

    def test_construction_validates(self):
        for a in range(10, 14):
            for b in range(1, 41):
                pair = counterexample_pair(a, b)
                if pair is None:
                    assert rigidity_holds(a, b)
                    continue
                q, q_prime = pair
                assert 0 <= q <= b and 0 <= q_prime <= b
                assert cohomology_criterion(a, b, q, q_prime)
                assert not diffeo_criterion(a, b, q, q_prime)

    @pytest.mark.parametrize("criterion, broken", [
        ("cohomology_criterion", lambda *args: False),
        ("diffeo_criterion", lambda *args: True),
    ])
    def test_broken_criterion_raises(self, monkeypatch, criterion, broken):
        monkeypatch.setattr(arithmetic, criterion, broken)
        with pytest.raises(RuntimeError, match="not a counterexample"):
            counterexample_pair(10, 17)

    def test_guard_survives_stripped_asserts(self):
        # under python -O an assert-only guard would return (0, 16) unchecked
        script = (
            "import sys\n"
            "from realbott import arithmetic\n"
            "assert False, 'asserts must be stripped'\n"
            "arithmetic.cohomology_criterion = lambda *args: False\n"
            "try:\n"
            "    pair = arithmetic.counterexample_pair(10, 17)\n"
            "except RuntimeError:\n"
            "    sys.exit(0)\n"
            "sys.exit(f'returned {pair} unchecked')\n"
        )
        src = str(Path(arithmetic.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        result = subprocess.run([sys.executable, "-O", "-c", script],
                                env=env, capture_output=True, text=True)
        assert result.returncode == 0, result.stderr


class TestCounterexampleRow:
    @pytest.mark.parametrize("a", range(1, 41))
    def test_matches_counterexample_pair_cell_by_cell(self, a):
        m = 2 ** h_of(a)
        for b_max in (1, m, m + 1, 300):
            expected = [
                classify(a, b, *pair)
                for b in range(1, b_max + 1)
                if (pair := counterexample_pair(a, b)) is not None
            ]
            assert counterexample_row(a, b_max) == expected, b_max
            if a <= 9:
                assert expected == []

    @pytest.mark.parametrize("a, b_max", [(0, 20), (10, 0)])
    def test_range_validation(self, a, b_max):
        with pytest.raises(ValueError):
            counterexample_row(a, b_max)

    @pytest.mark.parametrize("name, broken", [
        # the diffeomorphism modulus 2^k(a) shrinks to 2^h(a): the pair is diffeomorphic
        ("k_of", h_of),
        # no congruence holds: the pair is not cohomology-isomorphic
        ("_congruent_to_q_or_complement", lambda *args: False),
    ], ids=["diffeomorphic", "not-cohomology-isomorphic"])
    def test_broken_criterion_raises(self, monkeypatch, name, broken):
        monkeypatch.setattr(arithmetic, name, broken)
        with pytest.raises(RuntimeError, match=r"\(0, 16\) is not a counterexample for \(a=10, b=17\)"):
            counterexample_row(10, 17)

    def test_every_verdict_is_checked(self, monkeypatch):
        checked = []
        original = ClassificationVerdict.__post_init__
        monkeypatch.setattr(ClassificationVerdict, "__post_init__",
                            lambda self: checked.append(self) or original(self))
        row = counterexample_row(10, 40)
        assert len(row) == 24 and checked == row


def cell_maxima(a: int, b_max: int):
    """The largest (a, b, q, q', h, k) over the cells of row a; None if it has none."""
    cells = [(v.a, v.b, v.q, v.q_prime, v.h, v.k) for v in counterexample_row(a, b_max)]
    return tuple(map(max, zip(*cells))) if cells else None


class TestCounterexampleMaxima:
    """counterexamples --format text reads its widths off the last row with
    cells: so rows with cells must be a = 10, 11, ... up to the last, each
    ending at b_max and no narrower than the row before in any column but q,
    whose cells are 0 or 1."""

    @pytest.mark.parametrize("a", [*range(1, 34), 63, 64, 65, 127, 128, 129])
    def test_matches_the_maxima_of_the_cells(self, a):
        # b_max at and around 2^h and 2 * 2^h, where the first cell and the
        # first multiple of 2^h among the cells appear; a <= 9 or b_max <= 2^h
        # is an empty row
        m = 2 ** h_of(a)
        b_maxima = {*range(1, 40), m - 1, m, m + 1, 2 * m - 1, 2 * m, 2 * m + 1, 3 * m, 3 * m + 1}
        for b_max in b_maxima - {0}:
            h, k, runs = counterexample_runs(a, b_max)
            # contiguous, in order, non-empty and maximal
            assert all(start < stop for _, start, stop in runs), runs
            assert all(left[2] == right[1] and left[0] != right[0]
                       for left, right in zip(runs, runs[1:])), runs
            maxima = cell_maxima(a, b_max)
            if maxima:
                assert maxima[1] == b_max and maxima[2] <= 1, (b_max, maxima)
                if a > 10:
                    before = cell_maxima(a - 1, b_max)
                    assert before and all(x <= y for i, (x, y) in enumerate(zip(before, maxima))
                                          if i != 2), (b_max, before, maxima)

    @pytest.mark.parametrize("a, b_max", [(0, 20), (10, 0)])
    def test_range_validation(self, a, b_max):
        with pytest.raises(ValueError):
            counterexample_runs(a, b_max)


class TestBinomialRowsMatch:
    def test_equal_q_trivially_true(self):
        assert binomial_rows_match(12, 7, 7)

    def test_congruent_rows_agree(self):
        assert binomial_rows_match(3, 1, 5)

    def test_incongruent_rows_differ(self):
        assert not binomial_rows_match(3, 1, 3)

    def test_matches_binom_mod2_definition(self):
        for a in (1, 2, 3, 5, 8):
            for q in range(20):
                for q_prime in range(20):
                    expected = all(
                        binom_mod2(q, i) == binom_mod2(q_prime, i)
                        for i in range(a)
                    )
                    assert binomial_rows_match(a, q, q_prime) == expected

    def test_equivalence_with_congruence(self):
        for a in range(1, 33):
            modulus = 2 ** h_of(a)
            for q in range(65):
                for q_prime in range(65):
                    assert binomial_rows_match(a, q, q_prime) == (
                        (q_prime - q) % modulus == 0
                    ), (a, q, q_prime)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            binomial_rows_match(3, -1, 0)


class TestClassify:
    def test_headline_verdict(self):
        v = classify(10, 17, 0, 16)
        assert v.cohomology_isomorphic
        assert not v.diffeomorphic
        assert not v.homotopy_equivalent
        assert (v.h, v.k) == (4, 5)
        assert v.oracle_witness is None

    def test_complement_pair_all_true(self):
        v = classify(2, 2, 0, 2)
        assert v.cohomology_isomorphic and v.diffeomorphic and v.homotopy_equivalent

    def test_oracle_on_non_isomorphic_pair(self):
        # the library route: the criterion's verdict carries no witness, and
        # the search on the two rings finds none
        v = classify(2, 2, 0, 1)
        assert not v.cohomology_isomorphic
        assert v.oracle_witness is None
        assert rings_isomorphic_bruteforce(RingPresentation(2, 2, 0),
                                           RingPresentation(2, 2, 1)) is None

    def test_oracle_disagreement_raises(self, monkeypatch):
        # (0, 2) is isomorphic at (2, 2): a search that finds nothing makes
        # classify --oracle raise SystemExit(1) out of the command itself
        monkeypatch.setattr(cli, "rings_isomorphic_bruteforce", lambda src, dst: None)
        with pytest.raises(SystemExit) as exc:
            cli.main(["classify", "--a", "2", "--b", "2", "--q", "0", "--q-prime", "2", "--oracle"])
        assert exc.value.code == 1

    def test_verdict_consistency_enforced(self):
        # an inconsistent verdict is an internal fault, not an input error
        with pytest.raises(RuntimeError):
            ClassificationVerdict(
                a=2, b=2, q=0, q_prime=1, h=1, k=1,
                cohomology_isomorphic=False,
                diffeomorphic=True,
            )

    def test_range_validation(self):
        with pytest.raises(ValueError):
            classify(0, 2, 0, 1)
        with pytest.raises(ValueError):
            classify(2, 2, 0, 5)


class TestClassifyRow:
    @pytest.mark.parametrize("a", range(1, 21))
    def test_matches_classify_pair_by_pair(self, a):
        for b in range(1, 41):
            for q in range(b + 1):
                expected = [classify(a, b, q, q_prime) for q_prime in range(q, b + 1)]
                assert classify_row(a, b, q) == expected

    @pytest.mark.parametrize("a, b, q, q_prime", [(0, 5, 0, 0), (5, 0, 0, 0), (5, 5, -1, 0), (5, 5, 6, 5)])
    def test_range_validation(self, a, b, q, q_prime):
        with pytest.raises(ValueError):
            classify(a, b, q, q_prime)
        with pytest.raises(ValueError):
            classify_row(a, b, q)

    def test_every_verdict_is_checked(self, monkeypatch):
        checked = []
        original = ClassificationVerdict.__post_init__
        monkeypatch.setattr(ClassificationVerdict, "__post_init__",
                            lambda self: checked.append(self) or original(self))
        row = classify_row(10, 17, 3)
        assert len(row) == 15 and checked == row


class TestCriteriaRuns:
    @pytest.mark.parametrize("a", [1, 2, 3, 10, 17, 33, 64, 65])
    def test_runs_expand_to_the_pairwise_criteria(self, a):
        h = h_of(a)
        capped = 0  # rows whose diffeomorphism modulus is capped below 2^h(a)
        for b in range(1, 71):
            capped += b.bit_length() < h
            for q in range(b + 1):
                row_h, row_k, runs = criteria_runs(a, b, q)
                assert (row_h, row_k) == (h, k_of(a))
                # contiguous, in order, non-empty and maximal
                starts = [start for _, start, _ in runs]
                stops = [stop for _, _, stop in runs]
                assert starts == [q, *stops[:-1]] and stops[-1] == b + 1, (b, q, runs)
                assert all(start < stop for start, stop in zip(starts, stops))
                assert all(left[0] != right[0] for left, right in zip(runs, runs[1:]))
                expanded = [truth for truth, start, stop in runs for _ in range(start, stop)]
                assert expanded == [
                    (cohomology_criterion(a, b, q, q_prime), diffeo_criterion(a, b, q, q_prime))
                    for q_prime in range(q, b + 1)
                ], (b, q)
        # a = 1 has modulus 1; from a = 3 on, the rows b < 2^(h-1) have their
        # diffeomorphism modulus 2^L, L = b.bit_length(), capped below 2^h(a)
        assert capped or a <= 2

    @pytest.mark.parametrize("a, b, q", [(0, 5, 0), (5, 0, 0), (5, 5, -1), (5, 5, 6)])
    def test_range_validation(self, a, b, q):
        with pytest.raises(ValueError):
            criteria_runs(a, b, q)
