"""Every name a module of the package imports is used there or exported,
and no module imports another's private name."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "horocvx"


def unused_imports(source: str) -> list[str]:
    """The names that source imports, at any depth, but neither reads nor
    lists in its __all__."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return sorted(set(imported) - used)


def private_imports(source: str) -> list[str]:
    """The leading-underscore names that source imports, at any depth, from
    a module of its own package (a relative import); a dunder such as
    __version__ is public."""
    return sorted(
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.endswith("__")
    )


def test_unused_imports_finds_a_function_level_import():
    source = "import os\ndef f():\n    from math import pi, tau\n    return pi\n"
    assert unused_imports(source) == ["os", "tau"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_imports_no_name_it_does_not_use(path):
    assert unused_imports(path.read_text()) == []


def test_private_imports_finds_a_relative_import_at_any_depth():
    source = (
        "from os import _exit\nfrom . import __version__\n"
        "from .grid import Grid, _cache as cache\n"
        "def f():\n    from ..flow import _evaluate\n    return _evaluate\n"
    )
    assert private_imports(source) == ["_cache", "_evaluate"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_imports_no_private_name_of_another_module(path):
    # A kernel two modules share is public, not imported under an underscore.
    assert private_imports(path.read_text()) == []
