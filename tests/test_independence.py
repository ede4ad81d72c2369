"""The independence invariant, read off the source with ``ast``.

The closed warped-product formulas are checked against the generic
finite-difference oracle, and the check proves something only while the
two share no code beyond the grid primitives.  So:

* ``geometry`` (the oracle) imports from the package only ``errors`` and
  public names of ``grids``;
* ``warped`` (the closed forms) reaches ``geometry`` only for the pass it
  compares against: ``curvature_bundle``, ``StateTerms`` and
  ``CurvatureBundle``;
* no module imports, or reads off an imported module, a name that
  another module keeps private (a leading underscore).
"""

import ast
from pathlib import Path

import pytest

from warpflow import grids

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "warpflow"
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py"))


def package_imports(module: str) -> list[tuple[str, str]]:
    """(source module, name) of every package import in ``module``:
    ``from .grids import X`` gives ("grids", "X") and
    ``from . import geometry`` gives ("", "geometry")."""
    out = []
    for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text())):
        if not isinstance(node, ast.ImportFrom):
            continue
        source = node.module or ""
        if node.level == 0:
            if source != "warpflow" and not source.startswith("warpflow."):
                continue
            source = source.removeprefix("warpflow").removeprefix(".")
        out.extend((source, alias.name) for alias in node.names)
    return out


def attributes_read(module: str, of: str) -> set[str]:
    """Every attribute read off the name ``of`` in ``module``."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == of}


def test_oracle_imports_only_errors_and_public_grid_names():
    imports = package_imports("geometry")
    assert imports
    for source, name in imports:
        assert source in ("errors", "grids"), (source, name)
        if source == "grids":
            assert name in grids.__all__, name


def test_closed_forms_reach_the_oracle_only_for_its_pass():
    allowed = {"curvature_bundle", "StateTerms", "CurvatureBundle"}
    imports = package_imports("warped")
    assert ("", "geometry") in imports
    assert {name for source, name in imports
            if source == "geometry"} <= allowed
    assert attributes_read("warped", "geometry") <= allowed


@pytest.mark.parametrize("module", MODULES)
def test_no_module_reads_another_modules_private_names(module):
    imports = package_imports(module)
    for source, name in imports:
        assert not name.startswith("_"), (source, name)
    for source, name in imports:
        if source == "" and name in MODULES:       # from . import geometry
            private = {attr for attr in attributes_read(module, name)
                       if attr.startswith("_") and not attr.startswith("__")}
            assert not private, (name, private)
