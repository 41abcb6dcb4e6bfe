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
    # Every class labelling goes through surface.least_labels and
    # the trigon levels and basis coefficients walk closed-form spanning
    # orders: no deque is used, and no function is named find or union.
    deques, stray = [], []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.ImportFrom) and any(
                    alias.name == "deque" for alias in node.names)) or (
                    isinstance(node, ast.Attribute) and node.attr == "deque"):
                deques.append(f"{path.name}:{node.lineno}")
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and node.name in ("find", "union")):
                stray.append(f"{path.name}:{node.lineno}")
    assert deques == []
    assert stray == []


def test_one_full_coordinate_layout_and_no_corner_slot_twins():
    # The full-coordinate layout is defined once, next to the glued-corner
    # table that reads it (``LensTriangulation.corner_slots``): only
    # triangulation.py assigns SLOTS_PER_TET, and no module derives the
    # corner positions again in a function of its own.
    layouts, twins = [], []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(
                           node, (ast.AnnAssign, ast.AugAssign)) else [])
            if any(isinstance(target, ast.Name)
                   and target.id == "SLOTS_PER_TET" for target in targets):
                layouts.append(path.name)
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and node.name == "_corner_slots"):
                twins.append(f"{path.name}:{node.lineno}")
    assert layouts == ["triangulation.py"]
    assert twins == []


def test_benchmark_imports_resolve():
    # The benchmark's traced replay runs outside this suite; a rename or
    # deletion of a package name it imports, or reads off an imported
    # module (``exact.kernel_basis``, ``lensq.cli.main``), must still
    # fail here.
    import importlib

    def load(name):
        try:
            return importlib.import_module(name)
        except ImportError:
            return None

    bench = Path(__file__).resolve().parents[1] / "perfbench"
    missing, seen = [], 0
    for path in sorted(bench.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bound = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "lensq":
                        module = importlib.import_module(alias.name)
                        if alias.asname:
                            bound[alias.asname] = module
                        else:
                            bound["lensq"] = importlib.import_module("lensq")
            elif (isinstance(node, ast.ImportFrom) and node.module
                  and node.module.split(".")[0] == "lensq"):
                module = importlib.import_module(node.module)
                for alias in node.names:
                    seen += 1
                    value = getattr(module, alias.name, None)
                    if value is None:
                        value = load(f"{node.module}.{alias.name}")
                    if value is None:
                        missing.append(f"{path.name}:{node.lineno} "
                                       f"{node.module}.{alias.name}")
                    else:
                        bound[alias.asname or alias.name] = value

        def resolve(node):
            if isinstance(node, ast.Name):
                return bound.get(node.id)
            if isinstance(node, ast.Attribute):
                base = resolve(node.value)
                return None if base is None else getattr(base, node.attr,
                                                         None)
            return None

        for node in ast.walk(tree):
            if not isinstance(node, ast.Attribute):
                continue
            base = resolve(node.value)
            if base is not None:
                seen += 1
                if not hasattr(base, node.attr):
                    missing.append(f"{path.name}:{node.lineno} "
                                   f"{ast.unparse(node)}")
    assert seen
    assert missing == []


def test_cone_knows_nothing_of_lens_spaces():
    # cone is the generic layer for sparse integer systems: it imports
    # only the exact kit, the rays and the errors, and it reads no lens
    # parameter; the quad block layout lives behind qsystem.QMatrix.
    path = next(path for path in SOURCES if path.name == "cone.py")
    siblings, reads = set(), []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith("lensq")):
            module = (node.module or "").removeprefix("lensq").lstrip(".")
            siblings.update([module] if module
                            else (alias.name for alias in node.names))
        elif isinstance(node, ast.Import):
            siblings.update(alias.name.removeprefix("lensq.")
                            for alias in node.names
                            if alias.name.startswith("lensq."))
        elif (isinstance(node, ast.Attribute)
              and node.attr in ("p", "q", "block_shift")):
            reads.append(f"cone.py:{node.lineno} .{node.attr}")
    assert "exact" in siblings
    assert siblings <= {"exact", "rays", "errors"}
    assert reads == []
