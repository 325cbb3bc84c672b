import ast
import os
import subprocess
import sys

from _mutants import MUTANTS, ROOT, SRC


def test_each_mutant_edits_text_that_occurs_once():
    for mutant in MUTANTS:
        assert mutant.new != mutant.old, mutant.why
        assert (SRC / mutant.file).read_text().count(mutant.old) == 1, mutant


def test_every_killer_is_collected():
    # a killer that a refactor renamed or deleted would leave its mutant unguarded
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider"],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    collected = set(proc.stdout.splitlines())
    assert sorted({mutant.killer for mutant in MUTANTS} - collected) == []


def test_no_killer_depends_on_a_draw():
    # the runner tries each killer alone first: a Hypothesis test may miss
    # the mutant in that run and catch it in the full suite, or the reverse
    for mutant in MUTANTS:
        path, *names = mutant.killer.split("::")
        node = ast.parse((ROOT / path).read_text())
        for name in [*names[:-1], names[-1].split("[")[0]]:
            node = next(child for child in node.body if getattr(child, "name", None) == name)
        decorators = [getattr(decorator, "func", decorator) for decorator in node.decorator_list]
        assert "given" not in map(ast.unparse, decorators), mutant.killer
