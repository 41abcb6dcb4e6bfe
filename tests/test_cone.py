"""
Tests for fundamental/vertex solution machinery: the completion
enumerator against the grid oracle, the box-search minimality test, the
support-rank vertex test against bounded search and against the exact
extreme rays, and budget/determinism behaviour.
"""

import math
from fractions import Fraction

import pytest

from lensq.cone import (
    Budget,
    SolutionCone,
    brute_force_minimal_solutions,
    hilbert_basis,
    is_fundamental,
    is_vertex,
    is_vertex_by_search,
    minimal_elements,
    square_fundamental_solutions,
)
from lensq.errors import (
    BudgetExceeded,
    EmptyVector,
    NegativeEntry,
    NotASolution,
)
from lensq.qsystem import basis_vectors, q_matrix, square_condition
from lensq.triangulation import build_triangulation


def coprime_pairs(max_p):
    return [(p, q) for p in range(2, max_p + 1) for q in range(1, p)
            if math.gcd(p, q) == 1]


B_GRID = [Fraction(k, 2) for k in range(-4, 5)]

TWO_ONE_BASIS = (
    (0, 0, 1, 0, 1, 0),
    (0, 1, 0, 0, 0, 1),
    (1, 0, 0, 1, 0, 0),
    (0, 0, 0, 1, 1, 1),
    (1, 1, 1, 0, 0, 0),
)


# -------------------------------------------------------------- enumerator

def test_free_orthant():
    assert hilbert_basis(SolutionCone([], ncols=2)) == ((0, 1), (1, 0))


def test_single_difference_equation():
    assert hilbert_basis(SolutionCone([(1, -1)])) == ((1, 1),)


def test_infeasible_cone_is_empty():
    assert hilbert_basis(SolutionCone([(1, 1)])) == ()


def test_two_one_hilbert_basis_literal():
    cone = SolutionCone(q_matrix(build_triangulation(2, 1)))
    assert hilbert_basis(cone) == TWO_ONE_BASIS


@pytest.mark.parametrize("p,q", coprime_pairs(3))
def test_oracle_equivalence_small(p, q):
    tri = build_triangulation(p, q)
    cone = SolutionCone(q_matrix(tri))
    assert hilbert_basis(cone) == brute_force_minimal_solutions(
        tri, range(0, 5), B_GRID)


def test_oracle_empty_ranges():
    tri = build_triangulation(2, 1)
    assert brute_force_minimal_solutions(tri, [], B_GRID) == ()
    assert brute_force_minimal_solutions(tri, range(3), []) == ()


@pytest.fixture(scope="module")
def raw_five_two():
    cone = SolutionCone(q_matrix(build_triangulation(5, 2)))
    return cone, hilbert_basis(cone, Budget(max_seconds=300))


@pytest.mark.parametrize("p,q", coprime_pairs(4))
def test_hilbert_members_are_solutions_and_incomparable(p, q):
    cone = SolutionCone(q_matrix(build_triangulation(p, q)))
    basis = hilbert_basis(cone, Budget(max_seconds=120))
    for v in basis:
        assert cone.is_solution(v)
        assert all(x >= 0 for x in v) and any(v)
    for v in basis:
        for w in basis:
            if v != w:
                assert not all(x <= y for x, y in zip(v, w))


def test_five_two_members_are_solutions_and_incomparable(raw_five_two):
    cone, basis = raw_five_two
    assert len(basis) == 161
    for v in basis:
        assert cone.is_solution(v)
    for v in basis:
        for w in basis:
            if v != w:
                assert not all(x <= y for x, y in zip(v, w))


def test_enumeration_is_deterministic():
    cone1 = SolutionCone(q_matrix(build_triangulation(4, 1)))
    cone2 = SolutionCone(q_matrix(build_triangulation(4, 1)))
    assert hilbert_basis(cone1) == hilbert_basis(cone2)


def test_budget_exhaustion_raises():
    cone = SolutionCone(q_matrix(build_triangulation(6, 1)))
    with pytest.raises(BudgetExceeded):
        hilbert_basis(cone, Budget(max_seconds=0.001))
    with pytest.raises(BudgetExceeded):
        hilbert_basis(cone, Budget(max_frontier=3))


# ------------------------------------------------- square-pattern shortcut

@pytest.mark.parametrize("p,q", coprime_pairs(4))
def test_pattern_decomposition_matches_filtered_basis(p, q):
    matrix = q_matrix(build_triangulation(p, q))
    full = hilbert_basis(SolutionCone(matrix))
    filtered = tuple(v for v in full if square_condition(v))
    assert square_fundamental_solutions(matrix) == filtered


# ------------------------------------------------------------ fundamental

def test_sphere_vectors_are_fundamental():
    tri = build_triangulation(5, 1)
    cone = SolutionCone(q_matrix(tri))
    _, t_vecs = basis_vectors(tri)
    assert is_fundamental(cone, t_vecs[0])
    doubled = tuple(2 * x for x in t_vecs[0])
    assert not is_fundamental(cone, doubled)


def test_is_fundamental_input_validation():
    cone = SolutionCone(q_matrix(build_triangulation(2, 1)))
    with pytest.raises(NotASolution):
        is_fundamental(cone, (1, 0, 0, 0, 0, 0))
    with pytest.raises(EmptyVector):
        is_fundamental(cone, (0, 0, 0, 0, 0, 0))
    with pytest.raises(NegativeEntry):
        is_fundamental(cone, (-1, 0, 0, -1, 0, 0))


@pytest.mark.parametrize("p,q", coprime_pairs(4))
def test_hilbert_members_pass_the_box_search(p, q):
    cone = SolutionCone(q_matrix(build_triangulation(p, q)))
    for v in hilbert_basis(cone):
        assert is_fundamental(cone, v)


# ----------------------------------------------------------------- vertex

def test_alternating_vectors_are_not_vertices():
    tri = build_triangulation(4, 1)
    cone = SolutionCone(q_matrix(tri))
    assert not is_vertex(cone, (0, 1, 0, 0, 0, 1) * 2)
    assert not is_vertex(cone, (0, 0, 1, 0, 1, 0) * 2)


def test_sphere_and_torus_vectors_are_vertices():
    tri = build_triangulation(5, 1)
    cone = SolutionCone(q_matrix(tri))
    _, t_vecs = basis_vectors(tri)
    for t in t_vecs:
        assert is_vertex(cone, t)
        assert is_vertex_by_search(cone, t, k=3)
    assert is_vertex(cone, (1, 0, 0) * 5)


def test_vertex_search_cross_check():
    tri = build_triangulation(4, 1)
    cone = SolutionCone(q_matrix(tri))
    _, t_vecs = basis_vectors(tri)
    for v in (t_vecs[1], (0, 1, 0, 0, 0, 1) * 2):
        assert is_vertex(cone, v) == is_vertex_by_search(cone, v, k=3)


@pytest.mark.parametrize("p,q", coprime_pairs(4))
def test_vertices_of_hilbert_basis_are_the_extreme_rays(p, q):
    cone = SolutionCone(q_matrix(build_triangulation(p, q)))
    basis = hilbert_basis(cone)
    vertex_members = tuple(v for v in basis if is_vertex(cone, v))
    assert vertex_members == cone.extreme_rays
    for v in vertex_members:
        assert is_fundamental(cone, v)


def test_full_support_vector_is_not_vertex():
    tri = build_triangulation(3, 1)
    cone = SolutionCone(q_matrix(tri))
    s_vecs, t_vecs = basis_vectors(tri)
    v = [0] * 9
    for vec in s_vecs + t_vecs:
        for j, x in enumerate(vec):
            v[j] += x
    assert all(v)
    assert not is_vertex(cone, v)


# ------------------------------------------------------------ extreme rays

def test_extreme_rays_of_simple_cones():
    from lensq.rays import extreme_rays_of_kernel_cone
    assert extreme_rays_of_kernel_cone([(1, 1, -1)], 3) == (
        (0, 1, 1), (1, 0, 1))
    assert extreme_rays_of_kernel_cone([(1, -2, 1)], 3) == (
        (0, 1, 2), (2, 1, 0))
    assert extreme_rays_of_kernel_cone([], 3) == (
        (0, 0, 1), (0, 1, 0), (1, 0, 0))


@pytest.mark.parametrize("p,q", [(5, 2), (6, 1)])
def test_every_extreme_ray_passes_the_rank_test(p, q):
    cone = SolutionCone(q_matrix(build_triangulation(p, q)))
    rays = cone.extreme_rays
    assert len(rays) >= 2 * p + 1
    for r in rays:
        assert is_vertex(cone, r)
    if p % 2 == 0:
        assert (0, 1, 0, 0, 0, 1) * (p // 2) not in rays


# ------------------------------------------------------------------ misc

def test_minimal_elements_filter():
    vectors = [(2, 0), (1, 0), (1, 1), (0, 3), (0, 1), (1, 0)]
    assert minimal_elements(vectors) == ((0, 1), (1, 0))


def test_raw_basis_contains_full_block_vectors(raw_five_two):
    # The (5,2) raw Hilbert basis is a strict superset of the
    # square-condition set; in particular every full-block vector
    # belongs to it.
    cone, basis = raw_five_two
    tri = build_triangulation(5, 2)
    s_vecs, _ = basis_vectors(tri)
    for s in s_vecs:
        assert s in basis
    square = square_fundamental_solutions(q_matrix(tri))
    assert set(square) < set(basis)
