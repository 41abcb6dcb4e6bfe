"""
Guards on the package source itself and on the test settings.
"""

import ast
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "lensq").glob("*.py"))


def assigned_names(node):
    """The plain names an assignment statement binds."""
    targets = (node.targets if isinstance(node, ast.Assign)
               else [node.target] if isinstance(
                   node, (ast.AnnAssign, ast.AugAssign)) else [])
    return [target.id for target in targets if isinstance(target, ast.Name)]


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
            if "SLOTS_PER_TET" in assigned_names(node):
                layouts.append(path.name)
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and node.name == "_corner_slots"):
                twins.append(f"{path.name}:{node.lineno}")
    assert layouts == ["triangulation.py"]
    assert twins == []


def test_one_crossing_table_and_one_haken_criterion():
    # Which disk slots cross which local edges is one table, CROSSES, and
    # the Haken criterion is answered only by SurfaceReport: no module
    # keeps the per-edge inverse (WEIGHT_SLOTS) or a module-level
    # function of the criterion's name.
    assigned, criteria = [], []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            assigned += [(name, path.name) for name in assigned_names(node)
                         if name in ("CROSSES", "WEIGHT_SLOTS")]
        criteria += [f"{path.name}:{node.lineno}" for node in tree.body
                     if isinstance(node, (ast.FunctionDef,
                                          ast.AsyncFunctionDef))
                     and node.name == "haken_fundamental_criterion"]
    assert assigned == [("CROSSES", "surface.py")]
    assert criteria == []


def test_a_failing_property_test_does_not_abort_the_run(tmp_path):
    # Reporting a failed @given test imports third-party modules whose
    # import warnings must not become errors (an INTERNALERROR that ends
    # the run), while a scalar overflow inside the package still fails
    # its test.
    probe = tmp_path / "test_probe.py"
    probe.write_text(textwrap.dedent("""
        import numpy as np
        from hypothesis import given, settings, strategies as st

        from lensq.surface import surface_name


        @settings(database=None)
        @given(st.integers())
        def test_property_fails(n):
            assert n < 5


        def test_passes():
            pass


        def test_overflow_in_package():
            surface_name(np.int64(np.iinfo(np.int64).min), True)
        """))
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(ROOT), "-p", "no:cacheprovider", "-q", "-rf",
         str(probe)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = run.stdout + run.stderr
    assert "INTERNALERROR" not in out
    assert run.returncode == 1
    failed = sorted(line.split("::")[1].split()[0]
                    for line in out.splitlines()
                    if line.startswith("FAILED "))
    assert failed == ["test_overflow_in_package", "test_property_fails"]
    assert "2 failed, 1 passed" in out.splitlines()[-1]


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

    bench = ROOT / "perfbench"
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
