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
  another module keeps private (a leading underscore);
* the stencil order is a field of ``grids.GridSpec``: no function
  outside ``grids`` takes an ``order`` parameter, so no call can pick an
  order of its own;
* a flow run's filter policy lives in ``flow``: no other module calls
  ``grids.filter_array``, so the projected start and the filtered steps
  are decided in one place;
* nothing is public only because a test imports it: every public
  top-level function and class, and every public method, is read
  somewhere in the package outside its own definition.
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


def test_only_the_flow_filters():
    def called(module: str) -> set[str]:
        tree = ast.parse((PACKAGE / f"{module}.py").read_text())
        return {getattr(node.func, "id", getattr(node.func, "attr", None))
                for node in ast.walk(tree) if isinstance(node, ast.Call)}

    assert [m for m in MODULES if "filter_array" in called(m)] == ["flow"]


@pytest.mark.parametrize("module", [m for m in MODULES if m != "grids"])
def test_no_function_outside_grids_takes_an_order(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            params = {a.arg for a in (*args.posonlyargs, *args.args,
                                      *args.kwonlyargs)}
            assert "order" not in params, (module, node.name)


# name -> why it stays public though nothing in the package reads it
UNREAD_ALLOWED = {
    "SymTensorField.matrix": "bench/tracer.py wraps it by name",
}


def test_every_public_name_is_read_in_the_package():
    # a read is a loaded ast.Name or ast.Attribute of the name outside
    # its own definition; an import or an __all__ string is not one
    trees = [ast.parse((PACKAGE / f"{m}.py").read_text()) for m in MODULES]
    public = []        # (name, node): top-level functions, classes, methods
    for tree in trees:
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    or node.name.startswith("_"):
                continue
            public.append((node.name, node))
            if isinstance(node, ast.ClassDef):
                public.extend((f"{node.name}.{sub.name}", sub)
                              for sub in node.body
                              if isinstance(sub, ast.FunctionDef)
                              and not sub.name.startswith("_"))
    loads = [node for tree in trees for node in ast.walk(tree)
             if isinstance(node, (ast.Name, ast.Attribute))
             and isinstance(node.ctx, ast.Load)]
    unread = []
    for name, definition in public:
        own = {id(node) for node in ast.walk(definition)}
        short = name.rsplit(".", 1)[-1]
        if not any(id(node) not in own
                   and getattr(node, "id", getattr(node, "attr", None)) == short
                   for node in loads):
            unread.append(name)
    assert sorted(unread) == sorted(UNREAD_ALLOWED), unread
