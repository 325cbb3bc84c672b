"""The layering the README states, read from the source with ast: the ring
engine (gf2poly, cohomology, oracle) never imports the number theory
(arithmetic), and arithmetic imports no realbott module at run time.  The
image of the second relation is built in cohomology alone: oracle imports
no clmul.  And the package's exports: each public name is stated once, in
the `__all__` of the library module that defines it, and realbott.__all__
is their union."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

import realbott

LIBRARY = ("gf2poly", "cohomology", "oracle", "arithmetic")
# the package's exports, pinned: a name dropped from a module's __all__ fails here
EXPORTS = [
    "PolyGF2", "substitute_linear", "LinearSubstitution", "IDENTITY_SUBSTITUTION",
    "COMPLEMENT_SUBSTITUTION", "RingPresentation", "RingElement", "normal_form",
    "nonvanishing_check", "betti", "total_sw_class", "cell_classes",
    "induces_homomorphism", "is_graded_isomorphism", "rings_isomorphic_bruteforce",
    "h_of", "k_of", "cohomology_criterion", "diffeo_criterion", "rigidity_holds",
    "counterexample_pair", "ClassificationVerdict", "classify",
]

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


def test_oracle_imports_no_clmul():
    # the image of the second relation is built by RingPresentation.relation_image alone
    tree = ast.parse((SRC / "oracle.py").read_text())
    assert "clmul" not in {alias.name for node in ast.walk(tree)
                           if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}


@pytest.mark.parametrize("module", ["oracle", "cohomology", "gf2poly"])
def test_ring_engine_does_not_import_arithmetic(module):
    assert "arithmetic" not in imported(module, run_time_only=False)


def test_arithmetic_imports_no_realbott_module_at_run_time():
    assert imported("arithmetic", run_time_only=True) == set()
    # the witness's annotation is its only import, so the check above sees through TYPE_CHECKING
    assert imported("arithmetic", run_time_only=False) == {"gf2poly"}


def test_package_exports_the_union_of_the_module_lists():
    modules = [importlib.import_module(f"realbott.{name}") for name in LIBRARY]
    assert realbott.__all__ == [name for module in modules for name in module.__all__]
    assert len(set(realbott.__all__)) == len(realbott.__all__)


def test_package_exports_the_23_names():
    assert realbott.__all__ == EXPORTS


@pytest.mark.parametrize("module", LIBRARY)
def test_each_name_is_defined_where_it_is_listed(module):
    library = importlib.import_module(f"realbott.{module}")
    for name in library.__all__:
        value = getattr(library, name)
        assert getattr(realbott, name) is value
        if inspect.isfunction(value) or inspect.isclass(value):
            assert value.__module__ == library.__name__, name


def test_package_init_states_no_name_list():
    # only star imports and the modules themselves; the one string is the version
    tree = ast.parse((SRC / "__init__.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = sorted(alias.name for alias in node.names)
            assert node.level == 1, ast.unparse(node)
            assert names == (["*"] if node.module else sorted(LIBRARY)), ast.unparse(node)
    strings = [node.value for node in ast.walk(tree)
               if isinstance(node, ast.Constant) and isinstance(node.value, str)]
    assert strings == [ast.get_docstring(tree, clean=False), realbott.__version__]
