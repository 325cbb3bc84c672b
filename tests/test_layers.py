"""The layering the README states, read from the source with ast: the ring
engine (gf2poly, cohomology, oracle) never imports the number theory
(arithmetic), and arithmetic imports no realbott module at run time."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "realbott"


def imported(module: str, run_time_only: bool) -> set[str]:
    """The realbott modules, by name within the package, that
    src/realbott/<module>.py imports; with run_time_only, leaving out the
    imports under `if TYPE_CHECKING:`."""
    tree = ast.parse((SRC / f"{module}.py").read_text())
    skipped = set()
    if run_time_only:
        for node in ast.walk(tree):
            if isinstance(node, ast.If) and ast.unparse(node.test).endswith("TYPE_CHECKING"):
                skipped |= {id(inner) for statement in node.body for inner in ast.walk(statement)}
    names = set()
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.Import):
            names |= {alias.name.removeprefix("realbott.") for alias in node.names
                      if alias.name.split(".")[0] == "realbott"}
        elif isinstance(node, ast.ImportFrom) and (node.level or node.module.split(".")[0] == "realbott"):
            package = node.module in (None, "realbott")
            names |= ({alias.name for alias in node.names} if package
                      else {node.module.removeprefix("realbott.")})
    return names


@pytest.mark.parametrize("module", ["oracle", "cohomology", "gf2poly"])
def test_ring_engine_does_not_import_arithmetic(module):
    assert "arithmetic" not in imported(module, run_time_only=False)


def test_arithmetic_imports_no_realbott_module_at_run_time():
    assert imported("arithmetic", run_time_only=True) == set()
    # the witness's annotation is its only import, so the check above sees through TYPE_CHECKING
    assert imported("arithmetic", run_time_only=False) == {"gf2poly"}
