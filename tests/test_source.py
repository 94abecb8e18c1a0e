"""Rules about the package source itself."""

import ast
from pathlib import Path

import properwalk

PACKAGE = Path(properwalk.__file__).parent


def test_no_assert_statements():
    """Checks that guard emitted results raise explicitly: ``python -O``
    strips assert statements, and these checks must still run under it."""
    found = [f"{path.relative_to(PACKAGE)}:{node.lineno}"
             for path in sorted(PACKAGE.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
