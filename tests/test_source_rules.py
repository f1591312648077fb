"""Rules the library source keeps, checked on its syntax trees."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "llclab"


def _library_nodes():
    files = sorted(SRC.glob("*.py"))
    assert files
    for path in files:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            yield path.name, node


def test_no_assert_statements_in_library():
    # python -O strips assert statements; every check that guards a
    # result must raise explicitly so it survives optimized runs
    found = [f"{name}:{node.lineno}" for name, node in _library_nodes() if isinstance(node, ast.Assert)]
    assert found == []


def _raises_assertion_error(node) -> bool:
    if not isinstance(node, ast.Raise) or node.exc is None:
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_no_assertion_errors_raised_in_library():
    # the command line turns LLCError into a JSON error record and exit
    # code 2; an AssertionError would escape it as a bare traceback
    found = [f"{name}:{node.lineno}" for name, node in _library_nodes() if _raises_assertion_error(node)]
    assert found == []


def _imports(node) -> list[str]:
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.module:
        return [node.module]
    return []


def test_only_the_recogniser_module_imports_cmath():
    # floating point serves one purpose: match_root's guess of a root,
    # which an exact == confirms before anything is returned
    found = sorted({name for name, node in _library_nodes() if "cmath" in _imports(node)})
    assert found == ["cyclotomic.py"]


def test_zeta_decomposes_no_point_per_uniformizer():
    # a point's decomposition does not see the uniformizer: zeta decomposes
    # once per (q, n, depth, shell bound) and solves per pi_unit, so no
    # function that takes a pi_unit may call decompose
    tree = ast.parse((SRC / "zeta.py").read_text())
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.Lambda)):
            continue
        if "pi_unit" not in [a.arg for a in fn.args.args + fn.args.kwonlyargs]:
            continue
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            callee = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if callee == "decompose":
                found.append(f"zeta.py:{node.lineno}")
    assert found == []
