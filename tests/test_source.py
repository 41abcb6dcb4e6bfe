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


def test_only_budget_reads_the_clock():
    # Deadlines are kept in one place: every use of the time module in
    # the package lies inside class Budget.
    outside = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        inside = [range(node.lineno, node.end_lineno + 1)
                  for node in ast.walk(tree)
                  if isinstance(node, ast.ClassDef) and node.name == "Budget"]
        for node in ast.walk(tree):
            from_time = (isinstance(node, ast.ImportFrom)
                         and node.module == "time")
            reads_time = (isinstance(node, ast.Attribute)
                          and isinstance(node.value, ast.Name)
                          and node.value.id == "time")
            if (from_time or reads_time) and not any(
                    node.lineno in lines for lines in inside):
                outside.append(f"{path.name}:{node.lineno}")
    assert outside == []
