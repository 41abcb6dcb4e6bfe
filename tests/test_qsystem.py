"""
Tests for the quad matching system: matrix assembly against the known
tables, rank and kernel structure, basis decomposition, the square
condition, and coefficient integrality classes.
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from lensq import qsystem as qsystem_module
from lensq.catalog import alternating_vector
from lensq.cone import SolutionCone
from lensq.errors import (
    DimensionMismatch,
    IntegralityViolated,
    InvalidParams,
    NegativeEntry,
    NotASolution,
)
from lensq.qsystem import (
    BasisCoefficients,
    QMatrix,
    basis_vectors,
    decompose,
    dihedral_images,
    expand,
    integrality_class,
    is_q_solution,
    q_matrix,
    square_condition,
    square_fundamental_solutions,
)
from lensq.surface import classify
from lensq.triangulation import build_triangulation
from test_exact import rank


def coprime_pairs(max_p):
    return [(p, q) for p in range(2, max_p + 1) for q in range(1, p)
            if math.gcd(p, q) == 1]


TWO_ONE_MATRIX = (
    (-2, 2, 0, 2, 0, -2),
    (2, 0, -2, -2, 2, 0),
    (0, -1, 1, 0, -1, 1),
    (0, -1, 1, 0, -1, 1),
)


def test_two_one_matrix_literal():
    assert q_matrix(build_triangulation(2, 1)).rows == TWO_ONE_MATRIX


def test_block_structure_without_collisions():
    # For q >= 2 and p large enough, row i touches exactly four blocks:
    # (-1,1,0) on blocks i and q+i-1, (1,0,-1) on blocks i-1 and i+q.
    tri = build_triangulation(7, 3)
    matrix = q_matrix(tri)
    for i in tri.tetrahedra:
        row = matrix.rows[i - 1]
        blocks = {}
        for b in range(7):
            chunk = row[3 * b: 3 * b + 3]
            if any(chunk):
                blocks[b + 1] = chunk
        assert blocks == {
            i: (-1, 1, 0),
            (i + tri.q - 2) % 7 + 1: (-1, 1, 0),
            (i - 2) % 7 + 1: (1, 0, -1),
            (i + tri.q - 1) % 7 + 1: (1, 0, -1),
        }


@pytest.mark.parametrize("p,q", coprime_pairs(8))
def test_row_redundancies(p, q):
    matrix = q_matrix(build_triangulation(p, q))
    rows = matrix.rows
    assert rows[p] == rows[p + 1]  # Eh row equals Ev row
    # Half the slanted-row sum cancels the core row exactly.
    for col in range(3 * p):
        total = sum(rows[i][col] for i in range(p))
        assert total % 2 == 0
        assert total // 2 + rows[p][col] == 0


@pytest.mark.parametrize("p,q", coprime_pairs(39))
def test_core_rows_are_minus_half_the_slanted_sum(p, q):
    # Rows Eh and Ev are both -1/2 (e_1 + ... + e_p), so they never add
    # to the rank.
    *slanted, eh, ev = q_matrix(build_triangulation(p, q)).rows
    half_sum = [Fraction(-sum(col), 2) for col in zip(*slanted)]
    assert list(eh) == list(ev) == half_sum


@pytest.mark.parametrize("p,q", coprime_pairs(8))
def test_rank_is_p(p, q):
    matrix = q_matrix(build_triangulation(p, q))
    assert rank(matrix.rows) == p


@pytest.mark.parametrize("p,q", coprime_pairs(12))
def test_multiply_matches_dense_rows(p, q):
    matrix = q_matrix(build_triangulation(p, q))
    rng = random.Random(1000 * p + q)
    for _ in range(5):
        v = [rng.randint(-5, 5) for _ in range(3 * p)]
        assert matrix.residual(v) == tuple(
            sum(c * x for c, x in zip(row, v)) for row in matrix.rows)
    # The rows and the sparse columns are one system, and a restriction
    # is the dense cut of the rows.
    dense = SolutionCone(matrix.rows)
    assert ([set(dense.column(j)) for j in range(3 * p)]
            == [set(matrix.column(j)) for j in range(3 * p)])
    cols = rng.sample(range(3 * p), rng.randint(1, 3 * p))
    assert matrix.restrict(cols).rows == tuple(
        tuple(row[c] for c in cols) for row in matrix.rows)


@pytest.mark.parametrize("p,q", coprime_pairs(9))
def test_dihedral_images_rename_the_matching_rows(p, q):
    # On any integer vector, row r of an image's residual is row rows[r]
    # of the vector's; the 2p images are the rotations of the vector
    # and of its block reflection, in that order.
    matrix = q_matrix(build_triangulation(p, q))
    rng = random.Random(1000 * p + q)
    v = tuple(rng.randint(-5, 5) for _ in range(3 * p))
    before = matrix.residual(v)
    mirrored = [v[3 * (-i % p) + t] for i in range(p) for t in range(3)]
    images = list(dihedral_images(matrix, v))
    assert [w for w, _ in images] == [
        tuple(w[3 * k:] + w[:3 * k]) for w in (list(v), mirrored)
        for k in range(p)]
    for k, (w, rows) in enumerate(images):
        assert matrix.residual(w) == tuple(before[r] for r in rows)
        e = (k + np.arange(p)) % p
        if k >= p:
            e = (1 - q - e) % p
        assert rows == (*e.tolist(), p, p + 1)


def test_large_p_checks_never_build_the_dense_rows(monkeypatch):
    def refuse(self):
        raise AssertionError("the dense quad rows were built")

    monkeypatch.setattr(QMatrix, "rows", property(refuse))
    p = 4000
    tri = build_triangulation(p, 3)
    v = alternating_vector(p, 3)
    matrix = q_matrix(tri)
    assert is_q_solution(matrix, v)
    report = classify(tri, v)
    assert report.meets_cores_once and report.has_type23_quad
    coeffs = decompose(tri, v, matrix=matrix)
    assert expand(tri, coeffs) == v


def test_is_q_solution_examples():
    tri = build_triangulation(6, 1)
    matrix = q_matrix(tri)
    _, t_vecs = basis_vectors(tri)
    assert is_q_solution(matrix, t_vecs[0])
    assert is_q_solution(matrix, (0,) * 18)
    tri2 = build_triangulation(2, 1)
    assert not is_q_solution(q_matrix(tri2), (1, 0, 0, 0, 0, 0))
    with pytest.raises(DimensionMismatch):
        is_q_solution(matrix, (1, 2, 3))


@pytest.mark.parametrize("p,q", coprime_pairs(12))
def test_basis_vectors_solve_and_span(p, q):
    tri = build_triangulation(p, q)
    matrix = q_matrix(tri)
    s_vecs, t_vecs = basis_vectors(tri)
    assert len(s_vecs) == len(t_vecs) == p
    for v in s_vecs + t_vecs:
        assert is_q_solution(matrix, v)
    # 2p independent solutions of a rank-p system on 3p columns.
    assert rank(list(s_vecs + t_vecs)) == 2 * p


def test_sphere_vector_for_q_one():
    _, t_vecs = basis_vectors(build_triangulation(5, 1))
    assert t_vecs[0] == (0, 0, 2, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0)


def test_sphere_vector_for_larger_q():
    tri = build_triangulation(7, 3)
    _, t_vecs = basis_vectors(tri)
    t1 = t_vecs[0]
    blocks = {b + 1: t1[3 * b: 3 * b + 3] for b in range(7)
              if any(t1[3 * b: 3 * b + 3])}
    assert blocks == {1: (0, 0, 1), 3: (0, 0, 1), 7: (0, 1, 0),
                      4: (0, 1, 0)}


def test_full_block_vector():
    tri = build_triangulation(4, 3)
    s_vecs, _ = basis_vectors(tri)
    assert s_vecs[0] == (1, 1, 1) + (0,) * 9
    assert is_q_solution(q_matrix(tri), s_vecs[0])


# ------------------------------------------------------------ decompose

def test_decompose_axis_torus():
    tri = build_triangulation(5, 1)
    coeffs = decompose(tri, (1, 0, 0) * 5)
    assert coeffs.a == (Fraction(1),) * 5
    assert coeffs.b == (Fraction(-1, 2),) * 5


def test_decompose_basis_vector_is_unit():
    tri = build_triangulation(6, 1)
    _, t_vecs = basis_vectors(tri)
    coeffs = decompose(tri, t_vecs[2])
    assert coeffs.a == (Fraction(0),) * 6
    assert coeffs.b == tuple(Fraction(int(i == 2)) for i in range(6))


def test_decompose_alternating_even_p():
    # Half the sum of the odd-index sphere vectors: b_odd = 1/2,
    # b_even = 0 (1-based indices); the mirror version swaps parities.
    tri = build_triangulation(6, 1)
    coeffs = decompose(tri, (0, 0, 1, 0, 1, 0) * 3)
    assert coeffs.a == (Fraction(0),) * 6
    assert coeffs.b == (Fraction(1, 2), Fraction(0)) * 3
    coeffs = decompose(tri, (0, 1, 0, 0, 0, 1) * 3)
    assert coeffs.b == (Fraction(0), Fraction(1, 2)) * 3


def test_decompose_rejects_non_solution():
    tri = build_triangulation(3, 1)
    with pytest.raises(NotASolution):
        decompose(tri, (1, 0, 0, 0, 0, 0, 0, 0, 0))


def test_decompose_refuses_a_matrix_of_another_pair():
    # The (7,3) matrix passes its own first fundamental, which the
    # (7,2) basis then fails to reproduce (SingularSystem).
    other = q_matrix(build_triangulation(7, 3))
    v = square_fundamental_solutions(other)[0]
    with pytest.raises(InvalidParams, match=r"^matrix of \(p,q\)=\(7,3\) "
                       r"given for \(7,2\)$"):
        decompose(build_triangulation(7, 2), v, matrix=other)


def test_decompose_checks_the_pair_once(monkeypatch):
    # A non-solution takes the residual path, which reads the given
    # matrix without checking its pair a second time.
    calls = []
    guard = qsystem_module.check_same_pair

    def counted(*args):
        calls.append(args)
        guard(*args)

    monkeypatch.setattr(qsystem_module, "check_same_pair", counted)
    tri = build_triangulation(3, 1)
    with pytest.raises(NotASolution):
        decompose(tri, (1, 0, 0, 0, 0, 0, 0, 0, 0), matrix=q_matrix(tri))
    assert len(calls) == 1


@pytest.mark.parametrize("p,q", coprime_pairs(40))
def test_decompose_round_trip(p, q):
    """decompose . expand is the identity.  b all integers or all
    half-integers gives an integral vector, decomposed from int and
    from Fraction entries; arbitrary halves give a Fraction vector.
    The coefficients always come back as Fractions."""
    tri = build_triangulation(p, q)
    matrix = q_matrix(tri)
    rng = random.Random(1000 * p + q)
    for shift in (Fraction(0), Fraction(1, 2), None):
        a = tuple(Fraction(rng.randint(-3, 3)) for _ in range(p))
        if shift is None:
            b = tuple(Fraction(rng.randint(-6, 6), 2) for _ in range(p))
        else:
            b = tuple(rng.randint(-3, 3) + shift for _ in range(p))
        v = expand(tri, BasisCoefficients(a, b))
        inputs = [v]
        if shift is not None:
            assert all(x.denominator == 1 for x in v)
            inputs.append(tuple(int(x) for x in v))
        for given in inputs:
            got = decompose(tri, given, matrix=matrix)
            assert got.a == a and got.b == b
            assert all(type(x) is Fraction for x in got.a + got.b)


@pytest.mark.parametrize("p,q", [(7, 3), (8, 3), (1000, 3)])
def test_decompose_checks_an_int_vector_in_ints(p, q, monkeypatch):
    # The walk and the expand check stay in doubled integers; only the
    # returned coefficients are Fractions.
    tri = build_triangulation(p, q)
    seen = []

    def recording_expand(tri, coeffs):
        seen.extend(coeffs.a + coeffs.b)
        return expand(tri, coeffs)

    monkeypatch.setattr(qsystem_module, "expand", recording_expand)
    v = alternating_vector(p, 3) if p % 2 == 0 else (1, 0, 0) * p
    coeffs = decompose(tri, v)
    assert seen and all(type(x) is int for x in seen)
    assert expand(tri, coeffs) == v


@pytest.mark.parametrize("p,q,bumped", [
    # Even p: the step-two cycles do not close.
    (1000, 3, (5,)),
    (1000, 3, (3,)),
    # Odd p: the one cycle closes, and the expand check fails.
    (999, 5, (4, 5)),
])
def test_decompose_reads_the_residual_only_on_failure(p, q, bumped,
                                                      monkeypatch):
    # The expand check admits a solution, so no residual is read; a
    # vector that fails it is then told apart by one residual.
    tri = build_triangulation(p, q)
    calls = []
    residual = SolutionCone._residual
    monkeypatch.setattr(SolutionCone, "_residual", lambda self, x: (
        calls.append(len(x)), residual(self, x))[1])
    v = list(alternating_vector(p, 3) if p % 2 == 0 else (1, 0, 0) * p)
    decompose(tri, v)
    assert not calls
    for k in bumped:
        v[k] += 1
    with pytest.raises(NotASolution):
        decompose(tri, v)
    assert calls == [3 * p]


def random_solution(tri, rng):
    """A non-negative integral solution: a random non-negative
    combination of the 2p basis vectors."""
    s_vecs, t_vecs = basis_vectors(tri)
    v = [0] * (3 * tri.p)
    for vec in s_vecs + t_vecs:
        c = rng.randint(0, 2)
        for j, x in enumerate(vec):
            v[j] += c * x
    return tuple(v)


@pytest.mark.parametrize("p,q", [(7, 3), (8, 3), (12, 5)])
def test_python_int_and_fraction_vectors_take_the_object_path_exactly(p, q):
    # Past int64 (x 10^30) a vector is admitted and decomposed in
    # Python ints, and as Fractions it is decomposed in Fractions, to
    # the int64 path's answers; admission makes integral Fractions ints.
    tri = build_triangulation(p, q)
    matrix = q_matrix(tri)
    rng = random.Random(31 * p + q)
    scale = 10 ** 30
    for _ in range(5):
        v = random_solution(tri, rng)
        big = tuple(scale * x for x in v)
        fractions = tuple(map(Fraction, v))
        assert matrix.admit(v)[1].dtype == np.int64
        assert matrix.admit(big)[1].dtype == object
        for w, factor in ((big, scale), (fractions, 1)):
            assert matrix.admit(w)[0] == tuple(factor * x for x in v)
            assert square_condition(w) == square_condition(v)
            ints, got = decompose(tri, v), decompose(tri, w)
            assert got.a == tuple(factor * x for x in ints.a)
            assert got.b == tuple(factor * x for x in ints.b)
            assert integrality_class(got, p) == integrality_class(
                BasisCoefficients(*(tuple(factor * x for x in xs)
                                    for xs in (ints.a, ints.b))), p)
        w = [rng.randint(-5, 5) for _ in range(3 * p)]
        assert matrix.residual([scale * x for x in w]) == tuple(
            scale * r for r in matrix.residual(w))
        off = list(big)
        off[rng.randrange(3 * p)] += 1
        with pytest.raises(NotASolution):
            matrix.admit(off)[0]
        with pytest.raises(NotASolution):
            decompose(tri, off)
        off[0] = -scale
        with pytest.raises(NegativeEntry,
                           match=f"^vector has a negative entry: position 0 "
                                 f"is -{scale}$"):
            matrix.admit(off)[0]


def test_expand_matches_literal_combination():
    tri = build_triangulation(7, 3)
    s_vecs, t_vecs = basis_vectors(tri)
    rng = random.Random(7)
    a = tuple(Fraction(rng.randint(-2, 2)) for _ in range(7))
    b = tuple(Fraction(rng.randint(-4, 4), 2) for _ in range(7))
    direct = [Fraction(0)] * 21
    for i in range(7):
        for j in range(21):
            direct[j] += a[i] * s_vecs[i][j] + b[i] * t_vecs[i][j]
    assert expand(tri, BasisCoefficients(a, b)) == tuple(direct)


def test_coefficient_count_must_match_p():
    short = BasisCoefficients(a=(0,) * 4, b=(0,) * 5)
    with pytest.raises(DimensionMismatch,
                       match="^need 5 coefficients of each kind$"):
        expand(build_triangulation(5, 2), short)
    with pytest.raises(DimensionMismatch,
                       match="^expected 5 coefficients of each kind$"):
        integrality_class(short, 5)


# ------------------------------------------------------- square condition

def test_square_condition():
    assert square_condition((1, 0, 0, 1, 0, 0))
    assert square_condition((0,) * 6)
    assert not square_condition((1, 1, 1, 0, 0, 0))
    assert not square_condition((0, 1, 1, 0, 0, 0))
    with pytest.raises(NegativeEntry):
        square_condition((1, -1, 0))


# ------------------------------------------------------ integrality class

def test_integrality_unit_coefficients():
    coeffs = BasisCoefficients(a=(0,) * 5,
                               b=tuple(Fraction(int(i == 3))
                                       for i in range(5)))
    assert integrality_class(coeffs, 5) == {"B": "Z"}


def test_integrality_alternating_even():
    coeffs = BasisCoefficients(
        a=(Fraction(0),) * 6,
        b=(Fraction(1, 2), Fraction(0)) * 3)
    # Odd 1-based indices are half-integers, even ones vanish.
    assert integrality_class(coeffs, 6) == {"B0": "{0}", "B1": "Z+1/2"}


def test_integrality_axis_torus():
    tri = build_triangulation(5, 1)
    coeffs = decompose(tri, (1, 0, 0) * 5)
    assert integrality_class(coeffs, 5) == {"B": "Z+1/2"}
    tri6 = build_triangulation(6, 1)
    coeffs6 = decompose(tri6, (1, 0, 0) * 6)
    assert integrality_class(coeffs6, 6) == {"B0": "Z+1/2", "B1": "Z+1/2"}


def test_integrality_violations_raise():
    bad = BasisCoefficients(a=(Fraction(0),) * 3,
                            b=(Fraction(1, 3), 0, 0))
    with pytest.raises(IntegralityViolated):
        integrality_class(bad, 3)
    bad_a = BasisCoefficients(a=(Fraction(1, 2), 0, 0), b=(0, 0, 0))
    with pytest.raises(IntegralityViolated):
        integrality_class(bad_a, 3)
    mixed = BasisCoefficients(a=(0, 0, 0), b=(Fraction(1, 2), 1, 0))
    with pytest.raises(IntegralityViolated):
        integrality_class(mixed, 3)


@pytest.mark.parametrize("p,q", coprime_pairs(7))
def test_integral_solutions_always_classify(p, q):
    """Random integral solutions never raise IntegralityViolated."""
    tri = build_triangulation(p, q)
    s_vecs, t_vecs = basis_vectors(tri)
    rng = random.Random(97 * p + q)
    for _ in range(10):
        v = [0] * (3 * p)
        for vec in s_vecs + t_vecs:
            c = rng.randint(0, 2)
            for j, x in enumerate(vec):
                v[j] += c * x
        coeffs = decompose(tri, v)
        classes = integrality_class(coeffs, p)
        assert set(classes) == ({"B"} if p % 2 else {"B0", "B1"})
