"""Mutation checks: source edits that the Tier-1 suite must notice.

Each entry of MUTANTS is a (file, old, new, why) edit: file is relative to
src/realbott, old occurs exactly once in it (tests/test_mutants.py checks
that, so a refactor must carry the list along), and new is the faulty text
put in its place.  Run from the root of a checkout:

    python tests/_mutants.py [INDEX ...]

For each mutant (all, or those whose indices are given) the runner copies
src/, tests/, perfbench/ and pyproject.toml to a temporary directory,
applies the edit there, runs the Tier-1 suite but tests/test_mutants.py
with -x and reports "killed" with the first failing test, or "survived".  It exits 1 if any mutant
survived.  pytest does not collect this file: its name has no test_ prefix.
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


MUTANTS = (
    Mutant("arithmetic.py",
           "return 1 << min(k, b.bit_length())",
           "return 1 << min(k, b.bit_length() - 1)",
           "the diffeomorphism modulus capped one bit too low"),
    Mutant("arithmetic.py",
           "for r in (1, 2, 4):",
           "for r in (1, 2, 3):",
           "k(a) counts the residues 0, 1, 2, 3 mod 8 instead of 0, 1, 2, 4"),
    Mutant("arithmetic.py",
           "return q % modulus, (b - q) % modulus",
           "return q % modulus, q % modulus",
           "the criteria drop the residue of the complement b - q"),
    Mutant("cohomology.py",
           "last = min(d - self.b, self.a - 1)",
           "last = min(d - self.b - 1, self.a - 1)",
           "reduce leaves the last bit with y-exponent >= b unrewritten"),
    Mutant("oracle.py",
           "return _rank(dst.reduce(subst.fx, 1), dst.reduce(subst.fy, 1)) == betti(dst, 1)",
           "return _rank(dst.reduce(subst.fx, 1), dst.reduce(subst.fy, 1)) >= 1",
           "a substitution of degree-1 rank 1 passes as an isomorphism"),
    Mutant("cohomology.py",
           "((0b10, pres.a), (0b01, pres.b - pres.q), (0b11, pres.q))",
           "((0b10, pres.a), (0b01, pres.q), (0b11, pres.b - pres.q))",
           "the Stiefel-Whitney exponents of y and x + y swapped"),
    Mutant("arithmetic.py",
           "return math.inf if a <= 9 else cohomology_modulus",
           "return math.inf if a <= 10 else cohomology_modulus",
           "rigidity claimed at a = 10, where h(10) = 4 < k(10) = 5"),
    Mutant("cohomology.py",
           "if mask >> d + 1 or self.pres.reduce(mask, d) != mask:",
           "if self.pres.reduce(mask, d) != mask:",
           "RingElement accepts a bit above its degree, a negative y-exponent"),
    Mutant("oracle.py",
           "if betti(dst, 1) < 2 else _INVERTIBLE",
           "if betti(dst, 1) < 1 else _INVERTIBLE",
           "the rows a = 1 and b = 1 search only the invertible substitutions"),
    Mutant("oracle.py",
           "ideals.setdefault(ring._rel2, ring)",
           "ideals.setdefault(ring._rel2 & 0b111, ring)",
           "rings grouped by C(q, t) for t < 3 only, a key coarser than the ideal"),
    Mutant("oracle.py",
           "if not is_graded_isomorphism(IDENTITY_SUBSTITUTION, ring, first):",
           "if False:",
           "a failed identity check within an ideal is not a fault"),
    Mutant("arithmetic.py",
           "return [min(_criterion_residues(b, q, m))",
           "return [max(_criterion_residues(b, q, m))",
           "criterion_classes names a class by its largest residue, not its least q"),
    Mutant("oracle.py",
           "if target is not None and is_graded_isomorphism(subst, ring, target):",
           "if target is not None:",
           "a landing joins the class without a check"),
    Mutant("oracle.py",
           "ideals.get(image & ring._below_a)",
           "ideals.get(image)",
           "the image of the second relation is not cut below x^a"),
    Mutant("oracle.py",
           "for subst in _NONIDENTITY:",
           "for subst in ():",
           "only the identity is tried: every ideal becomes its own class"),
    Mutant("cli.py",
           "if by_oracle != by_criterion:",
           "if False:",
           "verify never compares the pairs of a cell, even when the two lists differ"),
    Mutant("oracle.py",
           "return len({u, v} - {0})",
           "return len({u, v})",
           "the two-row degree-1 rank counts the zero vector"),
    Mutant("oracle.py",
           "least[key] = min(landings)",
           "least[key] = max(landings)",
           "an ideal's class is named by its largest landing, not its least"),
    Mutant("oracle.py",
           "is_graded_isomorphism(IDENTITY_SUBSTITUTION, ring, first)",
           "is_graded_isomorphism(IDENTITY_SUBSTITUTION, first, first)",
           "the identity is checked only from the first ring of each ideal"),
    Mutant("oracle.py",
           "if _rank(subst.fx, subst.fy) == 2)",
           "if _rank(subst.fx, subst.fy) >= 1)",
           "the invertible substitutions admit those of rank 1"),
    Mutant("gf2poly.py",
           '_FORM_NAMES = ("0", "y", "x", "x+y")',
           '_FORM_NAMES = ("0", "x", "y", "x+y")',
           "witnesses spell the form masks of x and y swapped"),
    Mutant("gf2poly.py",
           "if self.fx not in range(4) or self.fy not in range(4):",
           "if self.fx not in range(0b1000) or self.fy not in range(0b1000):",
           "LinearSubstitution accepts form masks up to 0b111"),
    Mutant("oracle.py",
           "            return subst\n    return None",
           "            return IDENTITY_SUBSTITUTION\n    return None",
           "the search returns the identity in place of its witness"),
    Mutant("cli.py",
           "if (witness is not None) != verdict.cohomology_isomorphic:",
           "if (witness is None) != verdict.cohomology_isomorphic:",
           "classify --oracle tests a missing witness against the criterion"),
    Mutant("arithmetic.py",
           "if runs and runs[-1][0] == pair:",
           "if False:",
           "counterexample runs never merge: one run per b"),
    Mutant("cli.py",
           "if (witness is not None) != verdict.cohomology_isomorphic:",
           "if False:",
           "classify --oracle never compares the search with the criterion"),
    Mutant("cli.py",
           "verdict.oracle_witness = witness",
           "verdict.oracle_witness = None",
           "classify --oracle does not attach the witness it found"),
    Mutant("cli.py",
           "for a in reversed(a_range):",
           "for a in a_range:",
           "counterexamples text widths are read off the first row with cells, not the last"),
    Mutant("arithmetic.py",
           "return self.diffeomorphic",
           "return self.cohomology_isomorphic",
           "homotopy equivalence is reported as the cohomology verdict"),
)

# tests/test_mutants.py is left out: in the copy it reads the mutated source,
# where old no longer occurs, so it would fail for every mutant.
TIER_1 = ("-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--continue-on-collection-errors",
          "--ignore=tests/test_mutants.py")
FIRST_FAILURE = re.compile(r"^(?:FAILED|ERROR) (\S+)", re.M)


def run_mutant(mutant: Mutant) -> str | None:
    """The first test that fails with the mutant applied; None if none does."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        for name in COPIED:
            shutil.copytree(ROOT / name, copy / name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", copy)
        path = copy / "src" / "realbott" / mutant.file
        source = path.read_text()
        if source.count(mutant.old) != 1:
            raise SystemExit(f"{mutant.file}: the old text must occur once: {mutant.old!r}")
        path.write_text(source.replace(mutant.old, mutant.new))
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
        proc = subprocess.run([sys.executable, *TIER_1], cwd=copy, env=env,
                              capture_output=True, text=True)
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
        print(f"{index} {mutant.file}: {mutant.why}: {verdict}", flush=True)
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
