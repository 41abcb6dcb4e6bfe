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


def test_one_union_find_and_no_breadth_first_queues():
    # Every gluing goes through triangulation.Potentials or, for the
    # per-disk gluings, triangulation.least_labels: no deque is used,
    # and the only functions named find or union are Potentials methods.
    deques, stray = [], []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        methods = {id(item) for node in ast.walk(tree)
                   if isinstance(node, ast.ClassDef)
                   and node.name == "Potentials" for item in node.body}
        for node in ast.walk(tree):
            if (isinstance(node, ast.ImportFrom) and any(
                    alias.name == "deque" for alias in node.names)) or (
                    isinstance(node, ast.Attribute) and node.attr == "deque"):
                deques.append(f"{path.name}:{node.lineno}")
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and node.name in ("find", "union")
                    and id(node) not in methods):
                stray.append(f"{path.name}:{node.lineno}")
    assert deques == []
    assert stray == []
