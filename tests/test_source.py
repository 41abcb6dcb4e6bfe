"""
Guards on the package source itself.
"""

import ast
from pathlib import Path

SOURCES = sorted(
    (Path(__file__).resolve().parents[1] / "src" / "lensq").glob("*.py"))


def test_package_has_no_assert_statements():
    # Guarded invariants raise typed errors; an assert vanishes under -O.
    found = [f"{path.name}:{node.lineno}" for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert SOURCES
    assert found == []
