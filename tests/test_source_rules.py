"""Rules the library source keeps, checked on its syntax trees."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "llclab"


def test_no_assert_statements_in_library():
    # python -O strips assert statements; every check that guards a
    # result must raise explicitly so it survives optimized runs
    files = sorted(SRC.glob("*.py"))
    assert files
    found = []
    for path in files:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []
