"""The import structure of the package."""

import ast
import pathlib

import leggett_lab

PACKAGE = pathlib.Path(leggett_lab.__file__).parent
MODULES = {path.stem for path in PACKAGE.glob("*.py")}


def _imported_modules(node):
    """The package modules an import statement names."""
    if isinstance(node, ast.ImportFrom):
        if node.level == 0 and not (node.module or "").startswith("leggett_lab"):
            return set()
        if node.module and node.module != "leggett_lab":
            return {node.module.split(".")[-1]}
        return {alias.name for alias in node.names} & MODULES  # from . import svg
    if isinstance(node, ast.Import):
        return {a.name.split(".")[-1] for a in node.names if a.name.startswith("leggett_lab.")}
    return set()


def _function_level_imports():
    """(module, imported package module) of every import inside a function body."""
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(func):
                    found |= {(path.stem, module) for module in _imported_modules(node)}
    return found


def test_only_svg_is_imported_inside_a_function():
    # svg only when --svg draws.  Every other module is imported at the top,
    # so the dependency order of the modules is the order of their imports.
    assert _function_level_imports() == {("cli", "svg")}


def test_no_module_imports_scipy():
    # numpy is the only run-time dependency; scipy is an oracle of the tests
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found |= {(path.stem, name) for name in names if name.split(".")[0] == "scipy"}
    assert found == set()


def test_the_finder_sees_each_form_of_import():
    cases = {
        "def f():\n    from . import svg\n": {"svg"},
        "def f():\n    from .optimize import numeric_fmin\n": {"optimize"},
        "def f():\n    from leggett_lab.util import stable_seed\n": {"util"},
        "def f():\n    import leggett_lab.svg\n": {"svg"},
        "def f():\n    import math\n    from json import dumps\n": set(),
    }
    for source, modules in cases.items():
        func = ast.parse(source).body[0]
        assert set().union(*(_imported_modules(node) for node in ast.walk(func))) == modules
