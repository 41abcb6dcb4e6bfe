"""
The traced pass: each command's work, rebuilt from the public functions
of each ``lensq`` module, with a span around every call into a layer.

The pattern search of ``lensq enum`` is rebuilt from
``exact.kernel_basis``, ``rays.extreme_rays_of_kernel_cone`` (through
``SolutionCone.extreme_rays``) and ``cone.hilbert_basis`` on every
one-type-per-block pattern, so the kernel, ray and completion times of
each pattern are seen apart.  Composite calls such as
``surface.classify`` come with probe calls of their parts on the same
input (see ``tracing``).  Each command returns the summary that
``checks.summarize`` makes of the untraced stdout, so the two passes
are compared field by field.
"""

from __future__ import annotations

import itertools

from lensq import cli, exact
from lensq.catalog import fixtures
from lensq.cone import Budget, SolutionCone, hilbert_basis, is_fundamental
from lensq.qsystem import decompose, integrality_class, is_q_solution, q_matrix
from lensq.surface import (classify, glue_disks, haken_matrix,
                           reconstruct_trigons)
from lensq.triangulation import build_triangulation

import checks
from tracing import COVERS, PROBE


def _system(tr, p, q):
    with tr.span("triangulation.build_triangulation"):
        tri = build_triangulation(p, q)
    with tr.span("qsystem.q_matrix"):
        matrix = q_matrix(tri)
    return tri, matrix


def _surface(tr, tri, matrix, vector):
    """``surface.classify``, then probes of its parts on the same input.
    Classify runs first so that, as in the command, it pays for the
    corner adjacency cached on the triangulation."""
    with tr.span("surface.classify") as classified:
        report = classify(tri, vector, matrix=matrix)
    with tr.span("qsystem.is_q_solution", probe=True):
        is_q_solution(matrix, vector)
    with tr.span("surface.reconstruct_trigons", probe=True) as rebuilt:
        full = reconstruct_trigons(tri, vector, matrix=matrix)
    with tr.span("surface.haken_matrix", probe=True):
        haken_matrix(tri)
    with tr.span("surface.glue_disks", probe=True) as glued:
        graph = glue_disks(tri, full)
    tr.spans[classified][COVERS] += [rebuilt, glued]
    tr.count("surface.disks", len(graph.disks))
    tr.count("surface.arcs", len(graph.arcs))
    return report


def _fundamentals(tr, matrix, budget):
    """Union of the Hilbert bases of the 3^p pattern subcones."""
    p = matrix.p
    found = set()
    for types in itertools.product(range(3), repeat=p):
        columns = [3 * i + t for i, t in enumerate(types)]
        rows = tuple(tuple(row[c] for c in columns) for row in matrix.rows)
        tr.count("cone.patterns")
        tr.count("exact.kernel_calls")
        with tr.span("exact.kernel_basis") as kernel_span:
            kernel = exact.kernel_basis(rows, p)
        if not kernel:
            tr.count("exact.full_rank")
            continue
        # The ray code computes this kernel again.
        tr.spans[kernel_span][PROBE] = True
        cone = SolutionCone(rows, ncols=p)
        with tr.span("rays.extreme_rays_of_kernel_cone",
                     covers=(kernel_span,)):
            tr.count("rays.rays_found", len(cone.extreme_rays))
        with tr.span("cone.hilbert_basis/pattern"):
            basis = hilbert_basis(cone, budget)
        if basis:
            tr.count("cone.nonempty_patterns")
        for small in basis:
            full = [0] * (3 * p)
            for c, value in zip(columns, small):
                full[c] = value
            found.add(tuple(full))
    return sorted(found, key=lambda v: (sum(v), v))


def _enum(tr, args, budget):
    tri, matrix = _system(tr, args.p, args.q)
    with tr.span("cone.square_fundamental"):
        vectors = _fundamentals(tr, matrix, budget)
    tr.count("cone.fundamentals", len(vectors))
    out = {"fundamental": []}
    for v in vectors:
        report = _surface(tr, tri, matrix, v)
        out["fundamental"].append([list(v), report.euler, report.orientable,
                                   len(report.components)])
    if args.raw_hilbert:
        with tr.span("cone.hilbert_basis/raw"):
            basis = hilbert_basis(SolutionCone(matrix), budget)
        tr.count("cone.raw_basis_size", len(basis))
        out["hilbert_basis"] = [list(v) for v in basis]
    return out


def _report(report, coeffs=None):
    return {"euler": report.euler,
            "orientable": report.orientable,
            "components": [[e, o] for e, o in report.components],
            "edge_weights": dict(sorted(report.edge_weights.items())),
            "coefficients": coeffs,
            "criterion": report.meets_cores_once and report.has_type23_quad}


def _classify(tr, args):
    vector = cli.parse_vector(args.vector, args.p, args.q, args.index)
    tri, matrix = _system(tr, args.p, args.q)
    report = _surface(tr, tri, matrix, vector)
    with tr.span("qsystem.decompose"):
        coeffs = decompose(tri, vector, matrix=matrix)
    with tr.span("qsystem.integrality_class"):
        integrality_class(coeffs, tri.p)
    return _report(report, {"a": [str(x) for x in coeffs.a],
                            "b": [str(x) for x in coeffs.b]})


def _verify_fixtures(tr, budget):
    with tr.span("catalog.fixtures"):
        records = fixtures()
    passed = True
    for fixture in records:
        tri, matrix = _system(tr, fixture.params.p, fixture.params.q)
        summary = _report(_surface(tr, tri, matrix, fixture.vector))

        def fundamental():
            with tr.span("cone.is_fundamental"):
                return is_fundamental(SolutionCone(matrix), fixture.vector,
                                      budget)

        for tag in fixture.tags:
            passed &= checks.tag_holds(tag, summary, fundamental) is not False
    return {"passed": passed}


def run_command(tr, argv):
    """Replay one command under spans; returns its summary."""
    with tr.span(f"cli.{argv[0]}"):
        args = cli.build_parser().parse_args(argv)
        budget = Budget(max_seconds=args.max_seconds,
                        max_frontier=args.max_frontier)
        if args.command == "enum":
            return _enum(tr, args, budget)
        if args.command == "classify":
            return _classify(tr, args)
        if args.command == "verify" and args.fixtures:
            return _verify_fixtures(tr, budget)
        raise ValueError(f"no traced form of {argv}")
