"""
Command-line front end.

Four subcommands cover the library surface: ``matrix`` prints matching
matrices, ``enum`` lists fundamental solutions (optionally the raw
Hilbert basis), ``classify`` reports the topology of one vector, and
``verify`` runs the closed-form and fixture checks.  JSON output is
wrapped in a stable envelope (sorted keys, plain integers) so repeated
runs are byte-identical and diffable.

Exit codes: 0 success, 1 invalid input (usage errors included),
2 verification failure, 3 budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__, catalog
from .cone import Budget, hilbert_basis, is_fundamental
from .errors import BudgetExceeded, DimensionMismatch, LensQError
from .qsystem import decompose, integrality_class, q_matrix
from .surface import classify, haken_matrix, surface_name
from .triangulation import (CORNER_NAMES, SLOTS_PER_TET, LensParams,
                            build_triangulation)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_VERIFY_FAILED = 2
EXIT_BUDGET = 3

# Enumeration is pure Python and holds the interpreter lock, so threads
# cannot speed it up; the flag stays so existing scripts keep running.
THREADS_HELP = "accepted and ignored: enumeration runs in one thread"


def envelope(command: str, p, q, payload) -> str:
    return json.dumps(
        {"command": command, "params": {"p": p, "q": q},
         "payload": payload, "tool_version": __version__},
        sort_keys=True, separators=(",", ":")) + "\n"


def parse_vector(spec: str, p: int, q: int, index: int | None):
    """A vector given inline as comma-separated entries or as
    ``@file`` in the fixture record format, ``index`` picking one of
    the file's records for (p, q)."""
    if not spec.startswith("@"):
        if index is not None:
            raise LensQError("--index needs a vector given as @file")
        try:
            return tuple(map(int, spec.split(",")))
        except ValueError as exc:
            raise LensQError(f"cannot parse vector: {exc}") from exc
    path = spec[1:]
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except UnicodeDecodeError as exc:
        raise LensQError(
            f"{path}: not UTF-8 text ({exc.reason})") from None
    matches = [vector for fp, fq, vector, _ in catalog.read_records(text, path)
               if (fp, fq) == (p, q)]
    if not matches:
        raise LensQError(f"no record for (p,q)=({p},{q}) in {path}")
    if len(matches) > 1 and index is None:
        raise LensQError(
            f"{len(matches)} records for (p,q)=({p},{q}); pass --index")
    index = index or 0
    if not 0 <= index < len(matches):
        raise LensQError(
            f"--index {index} out of range: {path} has {len(matches)} "
            f"record(s) for (p,q)=({p},{q})")
    return matches[index]


def budget_from(args):
    """The command's one Budget, shared by all its searches."""
    return Budget(max_seconds=args.max_seconds,
                  max_frontier=args.max_frontier)


def cmd_matrix(args) -> int:
    tri = build_triangulation(args.p, args.q)
    if args.system == "q":
        matrix = q_matrix(tri)
        rows = matrix.rows
        row_labels = list(matrix.row_labels)
        col_labels = [f"x{i}{j}" for i in tri.tetrahedra for j in (1, 2, 3)]
    else:
        rows = haken_matrix(tri)
        corners = tri.corner_slots[:, 0] % SLOTS_PER_TET
        row_labels = [f"{tri.face_label(row)}.{CORNER_NAMES[corner]}"
                      for row, corner in enumerate(corners.tolist())]
        col_labels = [f"tet{i}.{name}" for i in tri.tetrahedra
                      for name in ("tT", "tB", "tL", "tR", "x1", "x2", "x3")]
    if args.format == "json":
        sys.stdout.write(envelope("matrix", args.p, args.q, {
            "system": args.system,
            "row_labels": row_labels,
            "column_labels": col_labels,
            "rows": [list(r) for r in rows]}))
    elif args.format == "csv":
        sys.stdout.write(",".join([""] + col_labels) + "\n")
        for label, row in zip(row_labels, rows):
            sys.stdout.write(",".join([label] + [str(x) for x in row]) + "\n")
    else:
        width = max(2, *(len(str(x)) for r in rows for x in r))
        sys.stdout.write(f"{args.system} matching matrix for "
                         f"(p,q)=({args.p},{args.q}), "
                         f"{len(rows)}x{len(rows[0])}\n")
        for label, row in zip(row_labels, rows):
            cells = " ".join(f"{x:>{width}}" for x in row)
            sys.stdout.write(f"{label:>8} | {cells}\n")
    return EXIT_OK


def _report_payload(report):
    return {
        "euler": report.euler,
        "orientable": report.orientable,
        "components": [{"euler": e, "orientable": o,
                        "name": surface_name(e, o)}
                       for e, o in report.components],
        "edge_weights": report.edge_weights,
        "meets_cores_once": report.meets_cores_once,
        "has_type23_quad": report.has_type23_quad,
    }


def cmd_enum(args) -> int:
    budget = budget_from(args)
    matrix = q_matrix(build_triangulation(args.p, args.q))
    found = catalog.enumerate_q_fundamental(args.p, args.q, budget, matrix)
    payload = {"fundamental": [
        {"vector": list(v), **_report_payload(report)}
        for v, report in found]}
    if args.raw_hilbert:
        payload["hilbert_basis"] = [list(v)
                                    for v in hilbert_basis(matrix, budget)]
    if args.format == "json":
        sys.stdout.write(envelope("enum", args.p, args.q, payload))
    else:
        sys.stdout.write(f"{len(found)} square-condition fundamental "
                         f"solutions for (p,q)=({args.p},{args.q})\n")
        for v, report in found:
            names = ", ".join(surface_name(e, o)
                              for e, o in report.components)
            sys.stdout.write(f"  {','.join(map(str, v))}  chi={report.euler}"
                             f"  {names}\n")
        if args.raw_hilbert:
            basis = payload["hilbert_basis"]
            sys.stdout.write(f"{len(basis)} raw Hilbert basis elements\n")
            for v in basis:
                sys.stdout.write(f"  {','.join(map(str, v))}\n")
    return EXIT_OK


def cmd_classify(args) -> int:
    budget = budget_from(args)
    # Bad parameters, then a vector of the wrong length, are rejected
    # before anything of size p is built.
    params = LensParams(args.p, args.q)
    vector = parse_vector(args.vector, args.p, args.q, args.index)
    if len(vector) != 3 * args.p:
        raise DimensionMismatch(
            f"quad vector must have length 3p = {3 * args.p}, "
            f"got {len(vector)}")
    tri = build_triangulation(params)
    matrix = q_matrix(tri)
    report = classify(tri, vector, matrix=matrix, budget=budget)
    coeffs = decompose(tri, vector, matrix=matrix)
    payload = {
        "vector": list(vector),
        **_report_payload(report),
        "coefficients": {
            "a": [str(x) for x in coeffs.a],
            "b": [str(x) for x in coeffs.b],
        },
        "integrality": integrality_class(coeffs, tri.p),
        "haken_fundamental_criterion": report.haken_fundamental_criterion,
    }
    if args.fundamental:
        payload["is_fundamental"] = is_fundamental(matrix, vector, budget)
    if args.format == "json":
        sys.stdout.write(envelope("classify", args.p, args.q, payload))
    else:
        names = ", ".join(surface_name(e, o) for e, o in report.components)
        sys.stdout.write(
            f"(p,q)=({args.p},{args.q})  chi={report.euler}  "
            f"orientable={report.orientable}  components={names}\n")
        weights = " ".join(f"{k}={v}" for k, v in
                           sorted(report.edge_weights.items()))
        sys.stdout.write(f"edge weights: {weights}\n")
        for kind in ("a", "b"):
            sys.stdout.write(f"coefficients {kind}: "
                             f"{', '.join(payload['coefficients'][kind])}\n")
        sys.stdout.write(
            f"integrality: {payload['integrality']}  "
            f"criterion={payload['haken_fundamental_criterion']}\n")
        if "is_fundamental" in payload:
            sys.stdout.write(
                f"fundamental: {payload['is_fundamental']}\n")
    return EXIT_OK


def cmd_verify(args) -> int:
    budget = budget_from(args)
    if args.fixtures:
        if args.p is not None or args.q is not None:
            raise LensQError("verify takes --p and --q, or --fixtures")
        checks = [check for fixture in catalog.fixtures()
                  for check in catalog.verify_fixture(fixture, budget)]
    else:
        if args.p is None or args.q is None:
            raise LensQError("verify needs --p and --q, or --fixtures")
        checks = catalog.verify_theorems(args.p, args.q, budget)
    all_ok = all(check.passed for check in checks)
    if args.format == "json":
        payload = {"passed": all_ok, "checks": [
            {"name": c.name, "passed": c.passed, "detail": c.detail}
            for c in checks]}
        sys.stdout.write(envelope("verify", args.p, args.q, payload))
    else:
        for check in checks:
            status = "PASS" if check.passed else "FAIL"
            suffix = f"  ({check.detail})" if check.detail else ""
            sys.stdout.write(f"{status}  {check.name}{suffix}\n")
        sys.stdout.write("verification " +
                         ("passed" if all_ok else "FAILED") + "\n")
    return EXIT_OK if all_ok else EXIT_VERIFY_FAILED


class _Parser(argparse.ArgumentParser):
    """Usage errors are invalid input: one line on stderr, exit 1."""

    def error(self, message):
        sys.stderr.write(f"error: {message}\n")
        sys.exit(EXIT_INVALID)


def _non_negative(convert):
    def parse(text):
        value = convert(text)
        if not value >= 0:
            raise argparse.ArgumentTypeError(
                f"must be non-negative, got {text}")
        return value
    parse.__name__ = convert.__name__
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="lensq",
        description="Exact quad-coordinate normal surface computations "
                    "in triangulated lens spaces.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, budget=False, csv=False, required=True):
        sp.add_argument("--p", type=int, required=required)
        sp.add_argument("--q", type=int, required=required)
        choices = ("table", "json", "csv") if csv else ("table", "json")
        sp.add_argument("--format", choices=choices, default="table")
        if budget:
            sp.add_argument("--max-seconds", type=_non_negative(float),
                            default=Budget.MAX_SECONDS,
                            help="wall-clock cap for the whole command "
                                 "(default 60)")
            sp.add_argument("--max-frontier", type=_non_negative(int),
                            default=Budget.MAX_FRONTIER,
                            help="most states one search may hold at once "
                                 "(default 1e7)")
            sp.add_argument("--threads", type=int, default=1,
                            help=THREADS_HELP)

    sp = sub.add_parser("matrix", help="print a matching matrix")
    common(sp, csv=True)
    sp.add_argument("--system", choices=("q", "haken"), default="q")
    sp.set_defaults(func=cmd_matrix)

    sp = sub.add_parser("enum", help="enumerate fundamental solutions")
    common(sp, budget=True)
    sp.add_argument("--raw-hilbert", action="store_true",
                    help="also emit the full Hilbert basis")
    sp.set_defaults(func=cmd_enum)

    sp = sub.add_parser("classify", help="classify one quad vector")
    common(sp, budget=True)
    sp.add_argument("--vector", required=True,
                    help="comma-separated entries or @file")
    sp.add_argument("--index", type=int, default=None,
                    help="record index when @file matches several")
    sp.add_argument("--fundamental", action="store_true",
                    help="also run the minimality box search")
    sp.set_defaults(func=cmd_classify)

    sp = sub.add_parser("verify", help="run the verification suite")
    common(sp, budget=True, required=False)
    sp.add_argument("--fixtures", action="store_true",
                    help="check the worked-example fixtures instead")
    sp.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (BudgetExceeded, MemoryError) as exc:
        sys.stderr.write(
            f"error: budget exceeded: {str(exc) or 'out of memory'}\n")
        return EXIT_BUDGET
    except LensQError as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return EXIT_INVALID
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
