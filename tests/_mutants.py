"""Mutation checks: source edits that the Tier-1 suite must notice.

Each entry of MUTANTS is a (file, old, new, why, killer) edit: file is
relative to src/realbott, old occurs exactly once in it (tests/test_mutants.py
checks that, so a refactor must carry the list along), new is the faulty
text put in its place, and killer is the node id of a test that fails
under the edit, with no Hypothesis draw.  tests/test_mutants.py also checks
that the suite still collects every killer, so that renaming or deleting one
fails Tier-1, and that no killer is a Hypothesis test.  Run from the root
of a checkout:

    python tests/_mutants.py [INDEX ...]

For each mutant (all, or those whose indices are given) the runner copies
src/, tests/, perfbench/, pyproject.toml and README.md (whose example
tests/test_readme.py runs) to a temporary directory and applies the edit
there.  It runs the listed killer alone first, and reports
"killed" by it if it fails.  Only if the killer passes does it run the
Tier-1 suite but tests/test_mutants.py with -x, and report "killed" with
the first failing test and the listed killer, or "survived".  It exits 1 if
any mutant survived.  pytest does not collect this file: its name has no
test_ prefix.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "realbott"
COPIED = ("src", "tests", "perfbench")


class Mutant(NamedTuple):
    file: str
    old: str
    new: str
    why: str
    killer: str  # the node id of a deterministic test that fails under the edit


MUTANTS = (
    Mutant("arithmetic.py",
           "return 1 << min(k, b.bit_length())",
           "return 1 << min(k, b.bit_length() - 1)",
           "the diffeomorphism modulus capped one bit too low",
           "tests/test_acceptance.py::test_criterion_2_headline_counterexample"),
    Mutant("arithmetic.py",
           "for r in (1, 2, 4):",
           "for r in (1, 2, 3):",
           "k(a) counts the residues 0, 1, 2, 3 mod 8 instead of 0, 1, 2, 4",
           "tests/test_acceptance.py::test_criterion_3_h_k_golden_tables_and_inequality"),
    Mutant("arithmetic.py",
           "return q % modulus, (b - q) % modulus",
           "return q % modulus, q % modulus",
           "the criteria drop the residue of the complement b - q",
           "tests/test_acceptance.py::test_criterion_1_oracle_matches_congruence_criterion"),
    Mutant("cohomology.py",
           "last = min(d - self.b, self.a - 1)",
           "last = min(d - self.b - 1, self.a - 1)",
           "reduce leaves the last bit with y-exponent >= b unrewritten",
           "tests/test_acceptance.py::test_criterion_1_oracle_matches_congruence_criterion"),
    Mutant("oracle.py",
           "return _rank(dst.reduce(subst.fx, 1), dst.reduce(subst.fy, 1)) == betti(dst, 1)",
           "return _rank(dst.reduce(subst.fx, 1), dst.reduce(subst.fy, 1)) >= 1",
           "a substitution of degree-1 rank 1 passes as an isomorphism",
           "tests/test_acceptance.py::test_criterion_1_oracle_matches_congruence_criterion"),
    Mutant("cohomology.py",
           "top, below_a, m = pres.top_degree, (1 << pres.a) - 1, pres.b - pres.q",
           "top, below_a, m = pres.top_degree, (1 << pres.a) - 1, pres.q",
           "the Stiefel-Whitney factor 1 + y gets the exponent q, not b - q",
           "tests/test_cohomology.py::TestTotalSWClass::test_frozen_examples[4-5-3-expected6]"),
    Mutant("arithmetic.py",
           "return math.inf if a <= 9 else cohomology_modulus",
           "return math.inf if a <= 10 else cohomology_modulus",
           "rigidity claimed at a = 10, where h(10) = 4 < k(10) = 5",
           "tests/test_acceptance.py::test_criterion_6_rigidity_dichotomy"),
    Mutant("cohomology.py",
           "if mask >> min(d + 1, pres.a) or",
           "if mask >> pres.a or",
           "RingElement accepts a bit above its degree, a negative y-exponent",
           "tests/test_cohomology.py::TestElementArithmetic::test_pieces_not_in_normal_form_rejected[above-degree]"),
    Mutant("oracle.py",
           "if betti(dst, 1) < 2 else _INVERTIBLE",
           "if betti(dst, 1) < 1 else _INVERTIBLE",
           "the rows a = 1 and b = 1 search only the invertible substitutions",
           "tests/test_oracle.py::TestAgainstReferenceSearch::test_same_verdict_and_first_witness[1-2]"),
    Mutant("oracle.py",
           "ideals.setdefault(ring._rel2, ring)",
           "ideals.setdefault(ring._rel2 & 0b111, ring)",
           "rings grouped by C(q, t) for t < 3 only, a key coarser than the ideal",
           "tests/test_cli.py::TestVerify::test_search_fault_is_a_mismatch"),
    Mutant("oracle.py",
           "if not is_graded_isomorphism(IDENTITY_SUBSTITUTION, ring, first):",
           "if False:",
           "a failed identity check within an ideal is not a fault",
           "tests/test_cli.py::TestVerify::test_identity_rejected_within_an_ideal_is_internal_error"),
    Mutant("arithmetic.py",
           "return [min(_criterion_residues(b, q, m))",
           "return [max(_criterion_residues(b, q, m))",
           "criterion_classes names a class by its largest residue, not its least q",
           "tests/test_oracle.py::TestCellIsomorphisms::test_agrees_with_criterion_in_the_headline_regime"),
    Mutant("oracle.py",
           "if target is not None and is_graded_isomorphism(subst, ring, target):",
           "if target is not None:",
           "a landing joins the class without a check",
           "tests/test_cli.py::TestVerify::test_search_fault_is_a_mismatch"),
    Mutant("cohomology.py",
           "return image & (1 << self.a) - 1 if image >> self.a else image",
           "return image",
           "the image of the second relation is not cut below x^a",
           "tests/test_cohomology.py::TestRelationImage::test_matches_reference_expansion[2]"),
    Mutant("oracle.py",
           "for subst in _NONIDENTITY:",
           "for subst in ():",
           "only the identity is tried: every ideal becomes its own class",
           "tests/test_cli.py::TestVerify::test_small_grid_passes"),
    Mutant("cli.py",
           "if by_oracle != by_criterion:",
           "if False:",
           "verify never compares the pairs of a cell, even when the two lists differ",
           "tests/test_cli.py::TestVerify::test_search_fault_is_a_mismatch"),
    Mutant("oracle.py",
           "return len({u, v} - {0})",
           "return len({u, v})",
           "the two-row degree-1 rank counts the zero vector",
           "tests/test_acceptance.py::test_criterion_1_oracle_matches_congruence_criterion"),
    Mutant("oracle.py",
           "least[key] = min(landings)",
           "least[key] = max(landings)",
           "an ideal's class is named by its largest landing, not its least",
           "tests/test_oracle.py::TestCellIsomorphisms::test_agrees_with_all_pairs_search[2]"),
    Mutant("oracle.py",
           "is_graded_isomorphism(IDENTITY_SUBSTITUTION, ring, first)",
           "is_graded_isomorphism(IDENTITY_SUBSTITUTION, first, first)",
           "the identity is checked only from the first ring of each ideal",
           "tests/test_cli.py::TestVerify::test_identity_rejected_within_an_ideal_is_internal_error"),
    Mutant("oracle.py",
           "if _rank(subst.fx, subst.fy) == 2)",
           "if _rank(subst.fx, subst.fy) >= 1)",
           "the invertible substitutions admit those of rank 1",
           "tests/test_oracle.py::TestLemmas::test_invertible_substitutions_in_search_order"),
    Mutant("gf2poly.py",
           '_FORM_NAMES = ("0", "y", "x", "x+y")',
           '_FORM_NAMES = ("0", "x", "y", "x+y")',
           "witnesses spell the form masks of x and y swapped",
           "tests/test_cli.py::TestClassify::test_large_a_oracle_has_no_recursion_limit[a700-b10]"),
    Mutant("gf2poly.py",
           "if fx not in range(4) or fy not in range(4):",
           "if fx not in range(0b1000) or fy not in range(0b1000):",
           "LinearSubstitution accepts form masks up to 0b111",
           "tests/test_gf2poly.py::TestSubstitution::test_non_bit_coefficients_rejected"),
    Mutant("oracle.py",
           "            return subst\n    return None",
           "            return IDENTITY_SUBSTITUTION\n    return None",
           "the search returns the identity in place of its witness",
           "tests/test_cli.py::TestClassify::test_large_a_oracle_has_no_recursion_limit[a700-b10]"),
    Mutant("cli.py",
           "if (witness is not None) != verdict.cohomology_isomorphic:",
           "if (witness is None) != verdict.cohomology_isomorphic:",
           "classify --oracle tests a missing witness against the criterion",
           "tests/test_arithmetic.py::TestClassify::test_oracle_disagreement_raises"),
    Mutant("arithmetic.py",
           "if runs and runs[-1][0] == pair:",
           "if False:",
           "counterexample runs never merge: one run per b",
           "tests/test_arithmetic.py::TestCounterexampleMaxima::test_matches_the_maxima_of_the_cells[10]"),
    Mutant("cli.py",
           "if (witness is not None) != verdict.cohomology_isomorphic:",
           "if False:",
           "classify --oracle never compares the search with the criterion",
           "tests/test_arithmetic.py::TestClassify::test_oracle_disagreement_raises"),
    Mutant("cli.py",
           "verdict.oracle_witness = witness",
           "verdict.oracle_witness = None",
           "classify --oracle does not attach the witness it found",
           "tests/test_cli.py::TestClassify::test_oracle_attaches_witness"),
    Mutant("cli.py",
           "for a in reversed(a_range):",
           "for a in a_range:",
           "counterexamples text widths are read off the first row with cells, not the last",
           "tests/test_cli.py::TestCounterexamples::test_matches_per_cell_records[64-130-text]"),
    Mutant("arithmetic.py",
           "return self.diffeomorphic",
           "return self.cohomology_isomorphic",
           "homotopy equivalence is reported as the cohomology verdict",
           "tests/test_acceptance.py::test_criterion_2_headline_counterexample"),
    Mutant("cli.py",
           "            if self.required:\n",
           "            if False:\n",
           "a required option that is not given gets its default, None",
           "tests/test_cli.py::TestSurface::test_replays_recorded_output[classify_--a_1_--b_2_--q_0]"),
    Mutant("cli.py",
           'name, equals, value = arg.partition("=")',
           'name, equals, value = arg.rpartition("=") if arg.count("=") > 1 else arg.partition("=")',
           "--name=VALUE is split at its last =, not its first",
           "tests/test_cli.py::TestVerify::test_only_value_with_equals_signs"),
    Mutant("cli.py",
           "HELP_WIDTH = 78",
           "HELP_WIDTH = 80",
           "help is wrapped at 80 columns, not 78",
           "tests/test_cli.py::TestReferenceDigests::test_stdout_matches_recorded_digest[--help]"),
    Mutant("cli.py",
           "given[option] = value",
           "given.setdefault(option, value)",
           "the first of a repeated option wins, not the last",
           "tests/test_cli.py::TestSurface::test_replays_recorded_output[classify_--a_5_--a_2_--b_2_--q_0_--q-prime_2]"),
    Mutant("cli.py",
           'return self.kind == "int" and self.default is None',
           'return self.kind == "int"',
           "an int option with a default counts as required",
           "tests/test_cli.py::TestSurface::test_replays_recorded_output[verify_--only_a=2]"),
    Mutant("cli.py",
           "return self.kind[0] if isinstance(self.kind, tuple) else self.default",
           "return self.kind[-1] if isinstance(self.kind, tuple) else self.default",
           "a choice that is not given takes its last value, not its first",
           "tests/test_cli.py::TestSurface::test_replays_recorded_output[classify_--a_5_--a_2_--b_2_--q_0_--q-prime_2]"),
    Mutant("cli.py",
           "return raw is not None",
           "return True",
           "a flag that is not given reads True",
           "tests/test_cli.py::TestSurface::test_replays_recorded_output[classify_--a_5_--a_2_--b_2_--q_0_--q-prime_2]"),
    Mutant("cli.py",
           'o.name[2:].replace("-", "_")',
           "o.name[2:]",
           "an option's keyword keeps the - of its name",
           "tests/test_cli.py::TestSurface::test_replays_recorded_output[classify_--a_5_--a_2_--b_2_--q_0_--q-prime_2]"),
    Mutant("gf2poly.py",
           '    "LinearSubstitution",\n    "IDENTITY_SUBSTITUTION",\n',
           '    "LinearSubstitution",\n',
           "the package stops exporting IDENTITY_SUBSTITUTION",
           "tests/test_layers.py::test_package_exports_the_23_names"),
    Mutant("cli.py",
           "_TRUTH[x] if type(x) is bool else x",
           "x",
           "records spell booleans as Python's True/False, not true/false",
           "tests/test_cli.py::TestSurface::test_replays_recorded_output[classify_--a=2_--b=2_--q=0_--q-prime=2_--format=csv]"),
    Mutant("cohomology.py",
           "n &= (1 << (a - 1).bit_length()) - 1",
           "n &= (1 << (a - 1).bit_length() - 1) - 1",
           "the Lucas mask of the (x+y) power is one bit short",
           "tests/test_acceptance.py::test_criterion_1_oracle_matches_congruence_criterion"),
    Mutant("cohomology.py",
           "    elif form == 0b10 and n >= a:\n        return 0\n",
           "",
           "x^n is built in full, not cut to 0 once n >= a",
           "tests/test_cli.py::TestClassify::test_huge_x_power_is_cut_in_bounded_memory"),
    Mutant("cli.py",
           "import os\nimport sys\n",
           "import json\nimport os\nimport sys\n",
           "json is imported at start-up, not where a witness or sw needs it",
           "tests/test_cli.py::test_start_up_does_not_import_click"),
    Mutant("cohomology.py",
           "piece ^= linear_power(0b11, d - i) << i",
           "piece ^= linear_power(0b11, i) << i",
           "the sweep's complement image of x^i y^(d-i) is x^i (x+y)^i, not x^i (x+y)^(d-i)",
           "tests/test_cohomology.py::TestTotalSWClass::test_complement_image_matches_polynomial_route[2]"),
    Mutant("gf2poly.py",
           "    while masks and not masks[-1]:\n        masks.pop()\n",
           "",
           "trailing zero pieces are not trimmed",
           "tests/test_records.py::test_equal_records_are_equal_and_hash_alike[PolyGF2]"),
    Mutant("cohomology.py",
           '_fields = ("a", "b", "q")',
           '_fields = ("a", "b")',
           "RingPresentation's == and hash ignore q",
           "tests/test_records.py::test_equal_records_are_equal_and_hash_alike[RingPresentation]"),
    Mutant("arithmetic.py",
           "        self.__post_init__()\n",
           "",
           "a ClassificationVerdict is not checked on construction",
           "tests/test_arithmetic.py::TestClassify::test_verdict_consistency_enforced"),
    Mutant("gf2poly.py",
           'raise AttributeError(f"cannot assign to field {name!r}")',
           "object.__setattr__(self, name, *value)",
           "a record's fields can be assigned after construction",
           "tests/test_records.py::test_fields_cannot_be_assigned_or_deleted[RingPresentation]"),
    Mutant("cohomology.py",
           "if d >= self.b:",
           "if d > self.b:",
           "reduce leaves degree b unrewritten, where y^b is rewritten first",
           "tests/test_acceptance.py::test_criterion_1_oracle_matches_congruence_criterion"),
    Mutant("cohomology.py",
           "pieces[d] ^= pieces[d - e] << e & below_a ^ pieces[d - e]",
           "pieces[d] ^= pieces[d - e] << e & below_a",
           "the Stiefel-Whitney factors 1 + x^e + y^e lose their y^e",
           "tests/test_cohomology.py::TestTotalSWClass::test_frozen_examples[4-5-3-expected6]"),
    Mutant("cli.py",
           '" ".join(map(str.strip, paragraph.split("\\n")))',
           'paragraph.replace("\\n", " ")',
           "help keeps each docstring line's indentation",
           "tests/test_cli.py::TestReferenceDigests::test_stdout_matches_recorded_digest[--help]"),
    Mutant("cohomology.py",
           "pieces = [row_a & row_m << d >> m for d in range(top + 1)]",
           "pieces = [row_a & row_m >> d for d in range(top + 1)]",
           "the row of (1+y)^(b-q) read forwards: C(m, i + d) where C(m, d - i) belongs",
           "tests/test_cohomology.py::TestTotalSWClass::test_frozen_examples[3-3-1-expected7]"),
    Mutant("cohomology.py",
           "bad += [(a, b, q) for q in range(b + 1) if fails[min(q, b - q)]]",
           "bad += [(a, b, q) for q in range(len(fails)) if fails[q]]",
           "the sweep reports only the q <= b/2 side of a failing pair",
           "tests/test_cohomology.py::TestTotalSWClass::test_swap_failures_sweep_reports_each_failure"),
    Mutant("cohomology.py",
           "mask & (1 << d - pres.b + 1) - 1:",
           "mask & (1 << d - pres.b) - 1:",
           "RingElement accepts bit d - b, the monomial x^(d-b) y^b",
           "tests/test_cohomology.py::TestElementArithmetic::test_pieces_not_in_normal_form_rejected[y-exponent-b]"),
    Mutant("cohomology.py",
           "if mask >> min(d + 1, pres.a) or",
           "if mask >> d + 1 or",
           "RingElement accepts a bit at or above a, an x-exponent that R1 drops",
           "tests/test_cohomology.py::TestElementArithmetic::test_pieces_not_in_normal_form_rejected[x-exponent-a]"),
    Mutant("cohomology.py",
           "return mask & (1 << self.a) - 1 if mask >> self.a else mask",
           "return mask",
           "reduce keeps bits at or above a, which R1 drops",
           "tests/test_cohomology.py::TestNormalForm::test_first_relation_dies"),
)

PYTEST = ("-m", "pytest", "-q", "-x", "-p", "no:cacheprovider")
# tests/test_mutants.py is left out: in the copy it reads the mutated source,
# where old no longer occurs, so it would fail for every mutant.
TIER_1 = (*PYTEST, "--continue-on-collection-errors", "--ignore=tests/test_mutants.py")
FIRST_FAILURE = re.compile(r"^(?:FAILED|ERROR) (\S+)", re.M)
TESTS_FAILED = 1  # pytest's exit code when a collected test failed


def run_mutant(mutant: Mutant) -> str | None:
    """The first test that fails with the mutant applied, the listed killer
    if it does; None if none does."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        for name in COPIED:
            shutil.copytree(ROOT / name, copy / name, ignore=shutil.ignore_patterns("__pycache__"))
        for name in ("pyproject.toml", "README.md"):
            shutil.copy(ROOT / name, copy)
        path = copy / "src" / "realbott" / mutant.file
        source = path.read_text()
        if source.count(mutant.old) != 1:
            raise SystemExit(f"{mutant.file}: the old text must occur once: {mutant.old!r}")
        path.write_text(source.replace(mutant.old, mutant.new))
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")

        def pytest(*args: str) -> subprocess.CompletedProcess:
            return subprocess.run([sys.executable, *args], cwd=copy, env=env,
                                  capture_output=True, text=True)

        if pytest(*PYTEST, mutant.killer).returncode == TESTS_FAILED:
            return mutant.killer
        proc = pytest(*TIER_1)
    if proc.returncode == 0:
        return None
    match = FIRST_FAILURE.search(proc.stdout)
    return match.group(1) if match else f"exit {proc.returncode}"


def main(argv: list[str]) -> int:
    indices = [int(arg) for arg in argv] or range(len(MUTANTS))
    survived = 0
    for index in indices:
        mutant = MUTANTS[index]
        failure = run_mutant(mutant)
        survived += failure is None
        verdict = "survived" if failure is None else f"killed by {failure}"
        if failure not in (None, mutant.killer):
            verdict += f" (listed killer: {mutant.killer})"
        print(f"{index} {mutant.file}: {mutant.why}: {verdict}", flush=True)
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
