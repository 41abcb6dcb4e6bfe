"""
Closed-form expected results, worked-example fixtures, and the
verification suite tying enumeration back to them.

For q = 1 and q = 2 the complete list of square-condition fundamental
solutions is known in closed form: the p edge-sphere vectors plus the
core-avoiding torus, joined for even p by the two alternating
half-sphere-sum vectors.  ``expected_for`` returns those literal lists
with their topological reports, ``enumerate_q_fundamental`` recomputes
the same sets from scratch, and ``verify_theorems`` checks the general
coefficient-bound laws that constrain fundamental solutions for every
coprime (p, q).

The fixture file shipped under ``data/`` carries the worked example
vectors for (8,3), (16,3), (18,7), (30,11) and (418,153), one record
per line in the plain-text format ``p q entries tags``.  Two of the
source displays for (30,11) garble one block (the printed vector fails
the matching equations by a single in-block transposition); the file
stores the corrected vectors, and the loader re-verifies every record
against the matching equations and the square condition before use.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from fractions import Fraction
from importlib import resources

from .cone import Budget, graded_lex_key, is_fundamental, is_vertex
from .errors import (
    InternalInvariantError,
    LensQError,
    NoExpectation,
    NotASolution,
    SquareConditionViolated,
)
from .qsystem import (
    HALF_INTEGERS,
    INTEGERS,
    ZERO,
    BasisCoefficients,
    QMatrix,
    basis_vectors,
    decompose,
    dihedral_images,
    expand,
    integrality_class,
    is_q_solution,
    matrix_for,
    q_matrix,
    square_condition,
    square_fundamental_solutions,
)
from .surface import classify, surface_name
from .triangulation import LensParams, LensTriangulation, build_triangulation

FIXTURE_FILE = "fixtures.txt"
FIXTURE_SHA256 = (
    "651fb3bb083ea446b77f633067ae9604f51472af5233eb17c09e2b2479065eac")


@dataclass(frozen=True)
class ExpectedCatalog:
    """Literal expected Q-fundamental set for parameters with a
    closed-form answer, with (euler, orientable, components) reports."""

    params: LensParams
    vectors: tuple
    reports: dict


def axis_torus_vector(p: int):
    """The quad vector filling every block with one type-1 quad; the
    Heegaard torus around both core circles, and the only normal
    surface disjoint from them."""
    return tuple([1, 0, 0] * p)


def alternating_vector(p: int, start_type: int):
    """Blocks alternate a single type-3 and a single type-2 quad.

    ``start_type`` (2 or 3) fixes which type sits in the first block.
    For even p both versions solve the matching equations; they equal
    half the sum of the odd-index or even-index sphere vectors and
    cross each core circle once."""
    if start_type == 2:
        a, b = [0, 1, 0], [0, 0, 1]
    else:
        a, b = [0, 0, 1], [0, 1, 0]
    out = []
    for i in range(p):
        out.extend(a if i % 2 == 0 else b)
    return tuple(out)


def expected_for(p: int, q: int) -> ExpectedCatalog:
    """The literal expected Q-fundamental sets for q = 1 (any p >= 2)
    and q = 2 (odd p >= 5).  Raises NoExpectation elsewhere."""
    params = LensParams(p, q)
    tri = build_triangulation(params)
    sphere = (2, True, 1)
    torus = (0, True, 1)
    reports = {}
    if q == 1 and p == 2:
        f1 = axis_torus_vector(2)
        f2 = alternating_vector(2, 2)
        f3 = alternating_vector(2, 3)
        reports[f1] = torus
        reports[f2] = (1, False, 1)
        reports[f3] = (1, False, 1)
    elif q == 1:
        _, t_vecs = basis_vectors(tri)
        for t in t_vecs:
            reports[t] = sphere
        reports[axis_torus_vector(p)] = torus
        if p % 2 == 0:
            cross_cap_sum = (2 - p // 2, False, 1)
            reports[alternating_vector(p, 2)] = cross_cap_sum
            reports[alternating_vector(p, 3)] = cross_cap_sum
    elif q == 2 and p % 2 == 1 and p >= 5:
        _, t_vecs = basis_vectors(tri)
        for t in t_vecs:
            reports[t] = sphere
        reports[axis_torus_vector(p)] = torus
    else:
        raise NoExpectation(
            f"no closed-form fundamental list for (p,q)=({p},{q})")
    vectors = tuple(sorted(reports, key=graded_lex_key))
    return ExpectedCatalog(params=params, vectors=vectors, reports=reports)


def enumerate_q_fundamental(p: int, q: int,
                            budget: Budget | None = None,
                            matrix: QMatrix | None = None):
    """All square-condition fundamental solutions with their surface
    reports, in graded lexicographic order.

    The solutions come in orbits of the block rotations and the block
    reflection, automorphisms of the triangulation that keep quad
    types, so only the least vector of each orbit is classified.  Every
    other vector of the orbit takes that report with its edge weights
    renamed by ``qsystem.dihedral_images``: under rotation k the image's
    weight on e_r is the representative's weight on e_(r+k), under the
    reflection e_r takes the weight of e_(1-q-r) (from 0, mod p), and
    Eh, Ev keep theirs.  The Euler characteristic, orientability,
    components and the two criterion parts are the representative's.
    The budget is read once per image.  A fundamental surface is
    connected, since a disconnected solution is the sum of its
    components; a representative with more than one component raises
    InternalInvariantError.
    ``matrix``, the (p,q) quad matching matrix, is built when not given;
    a matrix of another (p,q) raises InvalidParams
    (``qsystem.matrix_for``).
    """
    budget = budget or Budget()
    tri = build_triangulation(p, q)
    matrix = matrix_for(tri, matrix)
    vectors = square_fundamental_solutions(matrix, budget)
    labels = matrix.row_labels
    reports = {}
    for v in vectors:
        if v in reports:
            continue
        report = classify(tri, v, matrix=matrix, budget=budget)
        if report.component_count() != 1:
            raise InternalInvariantError(
                f"fundamental {v} of (p,q)=({p},{q}) has "
                f"{report.component_count()} components")
        weights = [report.edge_weights[label] for label in labels]
        for image, rows in dihedral_images(matrix, v):
            budget.check()
            if image not in reports:
                reports[image] = replace(report, edge_weights=dict(
                    zip(labels, [weights[r] for r in rows])))
    return tuple((v, reports[v]) for v in vectors)


def _bounds_for(cls_label):
    if cls_label == HALF_INTEGERS:
        return {Fraction(-1, 2), Fraction(0), Fraction(1, 2)}
    if cls_label == INTEGERS:
        return {Fraction(-1), Fraction(0), Fraction(1)}
    return {Fraction(0)}


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def verify_theorems(p: int, q: int, budget: Budget | None = None):
    """Run every verifiable law for one parameter pair.

    Checks: (a) exact set equality with the closed-form list where one
    exists, including the stated surface reports; (b) for every
    enumerated fundamental solution with all a_i = 0, the coefficient
    sets classify into Z or Z+1/2 with entries bounded by 1 or 1/2
    respectively, and for even p one parity class vanishes; (c) for odd
    p no such solution has half-integer coefficients; (d) for q = 1 and
    even p, the two alternating vectors are fundamental but not vertex
    solutions, doubling into sums of sphere vectors.

    Returns a list of CheckResult; overall success is their
    conjunction.
    """
    tri = build_triangulation(p, q)
    matrix = q_matrix(tri)
    results = []
    enumerated = enumerate_q_fundamental(p, q, budget, matrix)
    vectors = tuple(v for v, _ in enumerated)

    try:
        expected = expected_for(p, q)
    except NoExpectation:
        expected = None
    if expected is not None:
        same = vectors == expected.vectors
        detail = f"{len(vectors)} enumerated vs {len(expected.vectors)} expected"
        if same:
            for v, report in enumerated:
                want = expected.reports[v]
                got = (report.euler, report.orientable,
                       report.component_count())
                if want != got:
                    same = False
                    detail = f"report mismatch for {v}: {got} != {want}"
                    break
        results.append(CheckResult("expected-set", same, detail))

    bad_bounds = []
    bad_half = []
    for v in vectors:
        coeffs = decompose(tri, v, matrix=matrix)
        if not coeffs.a_all_zero():
            continue
        classes = integrality_class(coeffs, p)
        if p % 2 == 0:
            labels = (classes["B0"], classes["B1"])
            if ZERO not in labels:
                bad_bounds.append((v, classes))
                continue
            other = labels[0] if labels[1] == ZERO else labels[1]
            allowed = _bounds_for(other)
        else:
            allowed = _bounds_for(classes["B"])
            if classes["B"] == HALF_INTEGERS:
                bad_half.append(v)
        if not set(coeffs.b) <= allowed:
            bad_bounds.append((v, classes))
    results.append(CheckResult(
        "coefficient-bounds", not bad_bounds,
        f"{len(bad_bounds)} violations" if bad_bounds else
        "all quad-only fundamentals within 1/2- or 1-bounds"))
    if p % 2 == 1:
        results.append(CheckResult(
            "no-half-integer-odd-p", not bad_half,
            f"{len(bad_half)} half-integer fundamentals" if bad_half else
            "no quad-only fundamental with half-integer coefficients"))

    if q == 1 and p % 2 == 0 and p >= 4:
        ok = True
        detail = "alternating vectors fundamental, non-vertex, doubling " \
                 "into sphere sums"
        for start, parity in ((2, 1), (3, 0)):
            v = alternating_vector(p, start)
            double = tuple(2 * x for x in v)
            claimed = expand(tri, BasisCoefficients(
                a=(0,) * p, b=tuple(int(k % 2 == parity) for k in range(p))))
            if double != claimed:
                ok, detail = False, f"doubling identity failed for {v}"
                break
            if v not in vectors:
                ok, detail = False, f"{v} missing from fundamentals"
                break
            if is_vertex(matrix, v):
                ok, detail = False, f"{v} unexpectedly a vertex solution"
                break
        results.append(CheckResult("non-vertex-alternating", ok, detail))

    return results


@dataclass(frozen=True)
class Fixture:
    """One worked-example record: parameters, quad vector, and the
    property tags asserted for it, with the triangulation and quad
    matrix it was checked against on load, which ``verify_fixture``
    reads instead of building them again."""

    params: LensParams
    vector: tuple
    tags: tuple
    tri: LensTriangulation = field(compare=False, repr=False)
    matrix: QMatrix = field(compare=False, repr=False)

    def has(self, tag: str) -> bool:
        return tag in self.tags


def fixture_text() -> str:
    return (resources.files("lensq") / "data" / FIXTURE_FILE).read_text()


def read_records(text: str, source: str):
    """The records of ``text`` in the fixture format ``p q entries
    tags``, one per line, as (p, q, vector, tags) with comma-separated
    entries and tags; blank lines, ``#`` comments and a missing tags
    field are allowed.  A malformed record raises LensQError naming
    ``source`` and its line.
    """
    for lineno, line in enumerate(text.splitlines(), 1):
        fields = line.split()
        if not fields or fields[0].startswith("#"):
            continue
        try:
            p_str, q_str, entries, *tags = fields
            p, q = int(p_str), int(q_str)
            vector = tuple(map(int, entries.split(",")))
        except ValueError:
            raise LensQError(
                f"{source}:{lineno}: malformed record, expected "
                f"'p q entries tags' with integer entries") from None
        yield p, q, vector, tuple(t for word in tags for t in word.split(","))


def fixtures():
    """Load the worked-example fixtures.

    The file checksum is enforced, and every record is checked against
    the matching equations and the square condition before being
    returned, guarding against transcription damage.
    """
    text = fixture_text()
    digest = hashlib.sha256(text.encode()).hexdigest()
    if digest != FIXTURE_SHA256:
        raise NotASolution(f"fixture file checksum mismatch: {digest}")
    out = []
    for p, q, vector, tags in read_records(text, FIXTURE_FILE):
        tri = build_triangulation(p, q)
        matrix = q_matrix(tri)
        if not is_q_solution(matrix, vector):
            raise NotASolution(
                f"fixture ({p},{q}) fails the matching equations")
        if not square_condition(vector):
            raise SquareConditionViolated(
                f"fixture ({p},{q}) violates the square condition")
        out.append(Fixture(params=LensParams(p, q), vector=vector,
                           tags=tags, tri=tri, matrix=matrix))
    return tuple(out)


def verify_fixture(fixture: Fixture, budget: Budget | None = None):
    """Check every property tag of one fixture against its surface
    report and, for the minimality tags, the box search of
    ``is_fundamental``.  Returns a list of CheckResult, one per tag it
    knows; ``solution`` and ``square`` were already checked on load.  A
    tag after the record's name that no check knows gives a failed
    CheckResult, so a misspelled tag cannot pass unchecked."""
    p, q = fixture.params.p, fixture.params.q
    tri = fixture.tri
    matrix = matrix_for(tri, fixture.matrix)
    name = fixture.tags[0]
    checks = []
    # Unbudgeted: the (418,153) fixture's 1,086 disks would trip a
    # frontier cap below that count, such as ``--max-frontier 100``,
    # which is meant for the minimality searches below.
    report = classify(tri, fixture.vector, matrix=matrix)
    criterion = report.haken_fundamental_criterion
    for position, tag in enumerate(fixture.tags):
        label = f"({p},{q}) {name}: {tag}"
        if tag in ("solution", "square"):
            checks.append(CheckResult(label, True, "validated on load"))
        elif tag == "haken-criterion":
            checks.append(CheckResult(label, criterion,
                                      f"criterion={criterion}"))
        elif tag in ("q-fundamental", "not-q-fundamental"):
            fundamental = is_fundamental(matrix, fixture.vector, budget)
            checks.append(CheckResult(
                label, fundamental == (tag == "q-fundamental"),
                f"is_fundamental={fundamental}"))
        elif tag.startswith("euler="):
            want = int(tag.split("=")[1])
            checks.append(CheckResult(label, report.euler == want,
                                      f"chi={report.euler}"))
        elif tag == "orientable":
            checks.append(CheckResult(label, report.orientable, ""))
        elif tag == "non-orientable":
            checks.append(CheckResult(label, not report.orientable, ""))
        elif tag in ("klein-bottle", "torus"):
            want = tag.replace("-", " ").replace("klein", "Klein")
            got = [surface_name(e, o) for e, o in report.components]
            checks.append(CheckResult(label, got == [want], f"got {got}"))
        elif position:
            checks.append(CheckResult(label, False, "unknown tag"))
    return checks
