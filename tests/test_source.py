import ast
from pathlib import Path

import graphspine

PACKAGE = Path(graphspine.__file__).resolve().parent


def test_package_has_no_assert_statement():
    # python -O drops assert statements, so a guard written as one would
    # stop guarding; every check in the package raises explicitly
    sources = sorted(PACKAGE.glob("*.py"))
    assert "flow.py" in {p.name for p in sources}
    found = [f"{p.name}:{node.lineno}" for p in sources
             for node in ast.walk(ast.parse(p.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []
