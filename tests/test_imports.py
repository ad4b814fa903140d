"""Every name a module of the package imports is used there or exported,
and no module imports another's private name; p_m(A) of a field and W_k
are computed only through the field's cache."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "horocvx"
MODULES = sorted(PACKAGE.glob("*.py"))


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


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_no_name_it_does_not_use(path):
    assert unused_imports(path.read_text()) == []


def test_private_imports_finds_a_relative_import_at_any_depth():
    source = (
        "from os import _exit\nfrom . import __version__\n"
        "from .grid import Grid, _cache as cache\n"
        "def f():\n    from ..flow import _evaluate\n    return _evaluate\n"
    )
    assert private_imports(source) == ["_cache", "_evaluate"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_no_private_name_of_another_module(path):
    # A kernel two modules share is public, not imported under an underscore.
    assert private_imports(path.read_text()) == []


def p_of_a_calls(source: str) -> list[int]:
    """The lines where source calls p_tensor on an attribute named A."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "p_tensor"
        and node.args
        and isinstance(node.args[0], ast.Attribute)
        and node.args[0].attr == "A"
    )


def uncached_wk_values(source: str) -> list[int]:
    """The lines where source reads the name wk_value other than as the
    first argument of a call to a `memo` method."""
    tree = ast.parse(source)
    cached = {
        id(node.args[0])
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "memo"
        and node.args
    }
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and node.id == "wk_value" and id(node) not in cached
    )


def test_p_of_a_calls_finds_a_call_on_any_attribute_a():
    source = (
        "x = p_tensor(K.A, 2)\ny = hconvex.p_tensor(state.K.A, 1)\n"
        "z = p_tensor(C0, 2) + p_tensor(A, 1)\n"
    )
    assert p_of_a_calls(source) == [1, 2]


def test_uncached_wk_values_allows_only_the_function_a_memo_caches():
    source = (
        "from .quermass import wk_value\ndef wk_value(K, k):\n    return 0.0\n"
        "a = K.memo(wk_value, 1)\nb = wk_value(K, 1)\nc = K.memo(f, wk_value)\n"
    )
    assert uncached_wk_values(source) == [5, 6]


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "hconvex.py"], ids=lambda p: p.name
)
def test_only_hconvex_takes_p_of_a_fields_a(path):
    # p_m(A) of a field is `SupportField.pA`, computed once and cached on
    # the field; `measure_density` is the curvature-measure kernel on it.
    assert p_of_a_calls(path.read_text()) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_w_k_is_only_computed_through_a_fields_memo(path):
    # One cached W_k per field and k: K.memo(wk_value, k).
    assert uncached_wk_values(path.read_text()) == []
