"""
Tests for the expected-result catalog, the worked-example fixtures, and
the theorem verification suite.
"""

import dataclasses
import hashlib
import math

import pytest

from lensq import catalog as catalog_module
from lensq.catalog import (
    FIXTURE_SHA256,
    alternating_vector,
    enumerate_q_fundamental,
    expected_for,
    fixture_text,
    fixtures,
    read_records,
    verify_fixture,
    verify_theorems,
)
from lensq.cone import graded_lex_key
from lensq.errors import (
    InternalInvariantError,
    InvalidParams,
    LensQError,
    NoExpectation,
    NotASolution,
    SquareConditionViolated,
)
from lensq.qsystem import (
    basis_vectors,
    is_q_solution,
    q_matrix,
    square_condition,
    square_fundamental_solutions,
)
from lensq.surface import classify, surface_name
from lensq.triangulation import build_triangulation


# ------------------------------------------------------------ expected_for

def test_expected_counts():
    assert len(expected_for(2, 1).vectors) == 3
    assert len(expected_for(3, 1).vectors) == 4
    assert len(expected_for(4, 1).vectors) == 7
    assert len(expected_for(6, 1).vectors) == 9
    assert len(expected_for(5, 2).vectors) == 6
    assert len(expected_for(7, 2).vectors) == 8


@pytest.mark.parametrize("p,q", [(7, 3), (4, 3), (5, 4), (8, 3), (4, 2)])
def test_no_expectation_outside_the_known_lists(p, q):
    from lensq.errors import InvalidParams
    with pytest.raises((NoExpectation, InvalidParams)):
        expected_for(p, q)


def test_two_one_expected_vectors():
    cat = expected_for(2, 1)
    assert set(cat.vectors) == {
        (1, 0, 0, 1, 0, 0), (0, 1, 0, 0, 0, 1), (0, 0, 1, 0, 1, 0)}
    assert cat.reports[(1, 0, 0, 1, 0, 0)] == (0, True, 1)
    assert cat.reports[(0, 1, 0, 0, 0, 1)] == (1, False, 1)


@pytest.mark.parametrize("p,q", [(2, 1), (3, 1), (4, 1), (5, 1), (5, 2)])
def test_expected_vectors_are_square_solutions(p, q):
    matrix = q_matrix(build_triangulation(p, q))
    for v in expected_for(p, q).vectors:
        assert is_q_solution(matrix, v)
        assert square_condition(v)


# ----------------------------------------------------------- enumeration

@pytest.mark.parametrize("p,q", [(2, 1), (3, 1), (4, 1), (5, 1), (5, 2)])
def test_enumeration_matches_expected(p, q):
    found = enumerate_q_fundamental(p, q)
    cat = expected_for(p, q)
    assert tuple(v for v, _ in found) == cat.vectors
    for v, report in found:
        assert cat.reports[v] == (report.euler, report.orientable,
                                  report.component_count())


def test_enumeration_reports_for_two_one():
    found = dict(enumerate_q_fundamental(2, 1))
    torus = found[(1, 0, 0, 1, 0, 0)]
    assert torus.euler == 0 and torus.orientable
    plane = found[(0, 1, 0, 0, 0, 1)]
    assert plane.euler == 1 and not plane.orientable


@pytest.mark.parametrize("p", [4, 5, 6, 7])
def test_mirror_parameter_fundamental_counts(p):
    qs = [q for q in range(1, p) if math.gcd(p, q) == 1]
    counts = {q: len(enumerate_q_fundamental(p, q)) for q in qs}
    for q in qs:
        assert counts[q] == counts[p - q]


COPRIME_UP_TO_12 = [(p, q) for p in range(2, 13) for q in range(1, p)
                    if math.gcd(p, q) == 1]


@pytest.mark.parametrize("p,q", COPRIME_UP_TO_12)
def test_orbit_reports_equal_classifying_every_vector(p, q):
    # Each image takes its orbit representative's report with the edge
    # weights renamed; classifying every vector on its own must agree,
    # down to the order of the edge weights.
    tri = build_triangulation(p, q)
    matrix = q_matrix(tri)
    want = [(v, classify(tri, v, matrix=matrix))
            for v in square_fundamental_solutions(matrix)]
    got = enumerate_q_fundamental(p, q)
    assert list(got) == want
    for (_, ours), (_, theirs) in zip(got, want):
        assert list(ours.edge_weights) == list(theirs.edge_weights)


def counted_classify(monkeypatch, components=None):
    """Count the calls of ``catalog.classify``; with ``components`` its
    reports claim those components instead."""
    calls = []

    def spy(*args, **kwargs):
        calls.append(args[1])
        report = classify(*args, **kwargs)
        if components is not None:
            report = dataclasses.replace(report, components=components)
        return report

    monkeypatch.setattr(catalog_module, "classify", spy)
    return calls


@pytest.mark.parametrize("p,q,orbits,vectors",
                         [(7, 2, 2, 8), (8, 3, 3, 17)])
def test_enumeration_classifies_one_vector_per_orbit(
        monkeypatch, p, q, orbits, vectors):
    calls = counted_classify(monkeypatch)
    found = enumerate_q_fundamental(p, q)
    assert len(found) == vectors
    assert len(calls) == orbits
    # The classified vectors are the least vectors of their orbits under
    # the block rotations and the block reflection i -> -i.

    def orbit(v):
        blocks = [v[3 * i:3 * i + 3] for i in range(p)]
        mirrored = [blocks[-i % p] for i in range(p)]
        return {sum(w[k:] + w[:k], ()) for w in (blocks, mirrored)
                for k in range(p)}

    least = {min(orbit(v), key=graded_lex_key) for v, _ in found}
    assert calls == sorted(least, key=graded_lex_key)


def test_enumeration_rejects_a_disconnected_fundamental(monkeypatch):
    counted_classify(monkeypatch, components=((2, True), (2, True)))
    with pytest.raises(InternalInvariantError, match="2 components"):
        enumerate_q_fundamental(5, 2)


def test_enumeration_takes_a_built_matrix_of_its_pair():
    matrix = q_matrix(build_triangulation(7, 2))
    assert enumerate_q_fundamental(7, 2, matrix=matrix) == (
        enumerate_q_fundamental(7, 2))
    with pytest.raises(InvalidParams, match=r"^matrix of \(p,q\)=\(7,2\) "
                       r"given for \(7,3\)$"):
        enumerate_q_fundamental(7, 3, matrix=matrix)


# ------------------------------------------------------------- verification

@pytest.mark.parametrize("p,q", [(3, 1), (4, 1), (5, 2), (6, 1)])
def test_verify_theorems_passes_on_covered_cases(p, q):
    results = verify_theorems(p, q)
    assert any(r.name == "expected-set" for r in results)
    for r in results:
        assert r.passed, (r.name, r.detail)


def test_verify_theorems_runs_pure_properties_elsewhere():
    results = verify_theorems(7, 3)
    names = [r.name for r in results]
    assert "expected-set" not in names
    assert "coefficient-bounds" in names
    assert "no-half-integer-odd-p" in names
    for r in results:
        assert r.passed, (r.name, r.detail)


def test_verify_theorems_includes_vertex_check_for_even_q1():
    results = verify_theorems(4, 1)
    assert any(r.name == "non-vertex-alternating" and r.passed
               for r in results)


# ---------------------------------------------------------------- fixtures

def test_fixture_file_checksum_is_pinned():
    assert hashlib.sha256(
        fixture_text().encode()).hexdigest() == FIXTURE_SHA256


def test_fixtures_load_and_verify():
    records = fixtures()
    assert len(records) == 9
    pairs = {(f.params.p, f.params.q) for f in records}
    assert pairs == {(8, 3), (16, 3), (18, 7), (30, 11), (418, 153)}


def load_damaged(monkeypatch, text, digest=None):
    """``fixtures()`` read from ``text`` in place of the shipped file,
    with the pinned checksum set to ``digest``, by default the text's."""
    monkeypatch.setattr(catalog_module, "fixture_text", lambda: text)
    monkeypatch.setattr(catalog_module, "FIXTURE_SHA256", digest or (
        hashlib.sha256(text.encode()).hexdigest()))
    return fixtures()


def test_fixtures_refuse_a_file_that_fails_its_checksum(monkeypatch):
    text = fixture_text().replace("euler=-2", "euler=-4", 1)
    digest = hashlib.sha256(text.encode()).hexdigest()
    with pytest.raises(NotASolution,
                       match=f"^fixture file checksum mismatch: {digest}$"):
        load_damaged(monkeypatch, text, FIXTURE_SHA256)


def test_fixtures_refuse_a_record_off_the_matching_equations(monkeypatch):
    text = fixture_text() + "5 2 1,0,0,0,0,0,0,0,0,0,0,0,0,0,0 bad\n"
    with pytest.raises(NotASolution, match=(
            r"^fixture \(5,2\) fails the matching equations$")):
        load_damaged(monkeypatch, text)


def test_fixtures_refuse_a_record_without_the_square_condition(monkeypatch):
    # The first basis vector of (7,2) solves the matching equations with
    # three quad types in its first tetrahedron.
    s_vecs, _ = basis_vectors(build_triangulation(7, 2))
    text = fixture_text() + f"7 2 {','.join(map(str, s_vecs[0]))} s1\n"
    with pytest.raises(SquareConditionViolated, match=(
            r"^fixture \(7,2\) violates the square condition$")):
        load_damaged(monkeypatch, text)


def test_misspelled_fixture_tags_fail_instead_of_passing_unchecked():
    record = next(f for f in fixtures() if f.tags[0] == "h-t1")
    known = verify_fixture(record)
    assert [check.passed for check in known] == [True] * 4
    checks = verify_fixture(dataclasses.replace(
        record, tags=record.tags + ("eulr=5", "q-fundamentl")))
    assert checks[:4] == known
    assert [(check.name, check.passed, check.detail)
            for check in checks[4:]] == [
        ("(8,3) h-t1: eulr=5", False, "unknown tag"),
        ("(8,3) h-t1: q-fundamentl", False, "unknown tag")]


def test_records_parse_and_name_the_malformed_line():
    text = ("# comment\n\n2 1 1,0,0,1,0,0 torus,square\n"
            "3 1 1,0,0,1,0,0,1,0,0\n")
    assert list(read_records(text, "inline")) == [
        (2, 1, (1, 0, 0, 1, 0, 0), ("torus", "square")),
        (3, 1, (1, 0, 0, 1, 0, 0, 1, 0, 0), ()),
    ]
    with pytest.raises(LensQError, match="^inline:2: malformed record"):
        list(read_records("2 1 1,0,0,1,0,0 a\n2 x 1,0,0 b\n", "inline"))


def test_fixture_h_is_the_alternating_vector():
    records = fixtures()
    h = next(f for f in records if f.params.p == 8 and f.has("h"))
    assert h.vector == alternating_vector(8, 3)
    # Half the sum of the odd-index (1-based) sphere basis vectors.
    _, t_vecs = basis_vectors(build_triangulation(8, 3))
    summed = [sum(column) for column in zip(*t_vecs[::2])]
    assert h.vector == tuple(x // 2 for x in summed)
    assert not any(x % 2 for x in summed)
    assert h.vector == (0, 0, 1, 0, 1, 0, 0, 0, 1, 0, 1, 0,
                        0, 0, 1, 0, 1, 0, 0, 0, 1, 0, 1, 0)


def test_fixture_difference_identity():
    records = fixtures()
    tri = build_triangulation(8, 3)
    _, t_vecs = basis_vectors(tri)
    h = next(f for f in records if f.params.p == 8 and f.has("h"))
    hm = next(f for f in records if f.params.p == 8 and f.has("h-t1"))
    assert hm.vector == tuple(a - b for a, b in zip(h.vector, t_vecs[0]))


def test_eighteen_seven_fixture_block_structure():
    record = next(f for f in fixtures() if f.params.p == 18)
    v = record.vector
    assert v[3 * 8] == 1 and v[3 * 9] == 1  # blocks 9 and 10 lead with 1
    assert sum(1 for i in range(18) if v[3 * i]) == 2


def test_thirty_eleven_compressions_have_four_leading_entries():
    comps = [f for f in fixtures()
             if f.params.p == 30 and (f.has("compression-a")
                                      or f.has("compression-b"))]
    assert len(comps) == 2
    for f in comps:
        assert sum(1 for i in range(30) if f.vector[3 * i]) == 4


def test_giant_fixture_shape():
    giant = next(f for f in fixtures() if f.params.p == 418)
    assert len(giant.vector) == 3 * 418
    assert max(giant.vector) == 3
    # three parallel type-1 sheets in exactly four tetrahedra
    assert sum(1 for i in range(418) if giant.vector[3 * i] == 3) == 4


def test_giant_fixture_classifies_like_the_text_says():
    giant = next(f for f in fixtures() if f.params.p == 418)
    tri = build_triangulation(418, 153)
    report = classify(tri, giant.vector)
    assert report.euler == -3
    assert not report.orientable
    assert len(report.components) == 1
    assert surface_name(*report.components[0]) == \
        "non-orientable genus-5 surface"
    assert report.meets_cores_once and report.has_type23_quad
