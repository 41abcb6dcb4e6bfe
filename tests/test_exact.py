"""
Cross-checks of the integer exact core: rank, kernel basis and extreme
rays against sympy on small random integer matrices, and the
column-by-column elimination, on its own and along the necklace tree
of the reference search (``necklace_oracle``), against a row-wise
Gauss-Jordan reference on random matrices, on every necklace pattern
with p <= 8 and on the full quad systems with p <= 12; the double
description against the reference's kernel-based one and its square
filter against the unfiltered rays; and the column-Hermite gcd of
maximal minors against the gcd of every minor.
"""

import itertools
import math
from fractions import Fraction
from math import gcd, lcm
from operator import index

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from lensq import exact
from lensq.cone import SolutionCone, hilbert_basis
from lensq.errors import DimensionMismatch
from lensq.qsystem import q_matrix, square_condition
from lensq.rays import extreme_rays
from lensq.triangulation import QUAD_TYPES, build_triangulation
from necklace_oracle import (
    extreme_rays_of_kernel,
    necklace_kernels,
    prenecklaces,
    primitive,
)

PROPERTY_SETTINGS = settings(max_examples=150, deadline=None,
                             derandomize=True, database=None)


@st.composite
def small_matrices(draw):
    """Up to 4 rows and 6 columns, entries in [-3, 3]."""
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, 6))
    row = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
    return [draw(row) for _ in range(m)]


def _primitive_integer(column):
    """A sympy column vector scaled to a primitive integer tuple."""
    denominator = math.lcm(*(int(sympy.Rational(x).q) for x in column))
    ints = [int(x * denominator) for x in column]
    g = math.gcd(*ints)
    return tuple(x // g for x in ints)


def _rays_by_support(rows, ncols):
    """Every column subset whose restricted nullspace is a line spanned
    by a vector positive on the whole subset gives one extreme ray."""
    rays = set()
    for size in range(1, ncols + 1):
        for support in itertools.combinations(range(ncols), size):
            sub = sympy.Matrix([[row[c] for c in support] for row in rows])
            null = sub.nullspace()
            if len(null) != 1:
                continue
            v = _primitive_integer(null[0])
            if all(x < 0 for x in v):
                v = tuple(-x for x in v)
            if all(x > 0 for x in v):
                full = [0] * ncols
                for c, x in zip(support, v):
                    full[c] = x
                rays.add(tuple(full))
    return tuple(sorted(rays, key=lambda v: (sum(v), v)))


@PROPERTY_SETTINGS
@given(small_matrices())
def test_rank_matches_sympy(rows):
    assert rank(rows) == sympy.Matrix(rows).rank()


@PROPERTY_SETTINGS
@given(small_matrices())
def test_kernel_basis_is_a_primitive_integer_basis(rows):
    ncols = len(rows[0])
    basis = exact.kernel_basis(rows, ncols)
    assert len(basis) == ncols - sympy.Matrix(rows).rank()
    _, pivots = sympy.Matrix(rows).rref()
    free = [c for c in range(ncols) if c not in pivots]
    for k, vec in enumerate(basis):
        assert isinstance(vec, tuple)
        assert all(type(x) is int for x in vec)
        assert math.gcd(*vec) == 1
        assert all(sum(a * x for a, x in zip(row, vec)) == 0 for row in rows)
        assert vec[free[k]] > 0
        assert not any(vec[c] for c in free if c != free[k])
    null = sympy.Matrix(rows).nullspace()
    if null:
        ours = sympy.Matrix([list(v) for v in basis])
        both = sympy.Matrix([list(v) for v in basis]
                            + [list(v) for v in null])
        assert ours.rank() == both.rank() == len(null)


@PROPERTY_SETTINGS
@given(small_matrices())
def test_extreme_rays_match_the_support_oracle(rows):
    ncols = len(rows[0])
    assert SolutionCone(rows, ncols).extreme_rays == _rays_by_support(
        rows, ncols)


def test_primitive_keeps_signs_and_zero():
    assert primitive([4, -6, 0]) == (2, -3, 0)
    assert primitive([0, 0]) == (0, 0)
    assert primitive([-1, 1]) == (-1, 1)


# ------------------------------------- row-wise reference elimination

def reference_row_echelon(rows):
    """Reduce a copy of ``rows`` to reduced row echelon form over Z,
    row by row (fraction-free Gauss-Jordan).

    Every pivot is positive and every pivot column is zero outside its
    pivot row; each row is primitive.  Returns (echelon_rows,
    pivot_columns), with the zero rows last.
    """
    m = [list(primitive([index(x) for x in row])) for row in rows]
    if not m:
        return [], []
    pivots = []
    r = 0
    for c in range(len(m[0])):
        pivot_row = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        if m[r][c] < 0:
            m[r] = [-x for x in m[r]]
        piv = m[r][c]
        for i in range(len(m)):
            f = m[i][c]
            if i != r and f:
                m[i] = list(primitive(
                    [piv * a - f * b for a, b in zip(m[i], m[r])]))
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def rank(rows):
    """The rank of the integer matrix ``rows``: the number of pivots
    left after every column is pushed through ``exact.push_column``."""
    pivots = []
    columns = exact.sparse_columns(rows, 0)
    for j in range(len(columns[0]) - 1):
        exact.push_column(pivots, exact.column_pairs(*columns, j))
    return len(pivots)


def reference_rank(rows):
    return len(reference_row_echelon(rows)[1])


def reference_kernel_basis(rows, ncols=None):
    """One primitive kernel vector per free column of the reduced row
    echelon form, positive on it and zero on the other free columns."""
    if not rows:
        return [tuple(int(i == j) for j in range(ncols))
                for i in range(ncols)]
    ncols = len(rows[0])
    echelon, pivots = reference_row_echelon(rows)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        # Row r reads echelon[r][pc] x[pc] + echelon[r][fc] x[fc] = 0.
        scale = lcm(*(echelon[r][pc] for r, pc in enumerate(pivots)
                      if echelon[r][fc]))
        vec = [0] * ncols
        vec[fc] = scale
        for r, pc in enumerate(pivots):
            vec[pc] = -echelon[r][fc] * scale // echelon[r][pc]
        basis.append(primitive(vec))
    return basis


def assert_matches_reference(rows, ncols):
    assert exact.kernel_basis(rows, ncols) == reference_kernel_basis(
        rows, ncols)
    assert rank(rows) == reference_rank(rows)


def coprime_pairs(max_p):
    return [(p, q) for p in range(2, max_p + 1) for q in range(1, p)
            if gcd(p, q) == 1]


@PROPERTY_SETTINGS
@given(small_matrices())
def test_elimination_matches_the_row_reference(rows):
    assert_matches_reference(rows, len(rows[0]))


def test_elimination_matches_the_row_reference_on_edge_cases():
    assert_matches_reference([], 3)
    assert_matches_reference([[0, 0, 0]], 3)
    assert_matches_reference([[2, 4, 6], [1, 2, 3]], 3)
    assert exact.kernel_basis([], 0) == reference_kernel_basis([], 0) == []
    with pytest.raises(TypeError):
        exact.kernel_basis([[1, 0.5]])
    with pytest.raises(ValueError):
        exact.kernel_basis([])


def test_a_non_integer_entry_is_refused_not_truncated():
    # Truncated, 2x - 1.5y = 0 would be solved as 2x - y = 0.
    with pytest.raises(TypeError):
        hilbert_basis(SolutionCone([[2, -1.5]]))


def test_ragged_rows_are_refused_not_cut():
    # Cut to two columns, the kernel would come back as (-2, 1, 0).
    with pytest.raises(DimensionMismatch):
        exact.kernel_basis([[1, 2, 3], [1, 2]])
    with pytest.raises(DimensionMismatch):
        SolutionCone([[1, 2, 3], [1, 2]])


@pytest.mark.parametrize("p,q", coprime_pairs(8))
def test_necklace_tree_matches_the_row_reference(p, q):
    # Every necklace pattern: the elimination on its rows, and the
    # kernel the tree collects along the pattern's path.
    matrix = q_matrix(build_triangulation(p, q))
    kernels = list(necklace_kernels(matrix))
    necklaces = [[3 * i + t for i, t in enumerate(word)]
                 for _, word, necklace in prenecklaces(p, len(QUAD_TYPES))
                 if necklace]
    assert [columns for columns, _ in kernels] == necklaces
    for columns, kernel in kernels:
        rows = [[row[c] for c in columns] for row in matrix.rows]
        assert_matches_reference(rows, p)
        dense = [tuple(v.get(~k, 0) for k in range(p)) for v in kernel]
        assert dense == reference_kernel_basis(rows, p)


@pytest.mark.parametrize("p,q", coprime_pairs(12))
def test_elimination_matches_the_row_reference_on_quad_systems(p, q):
    matrix = q_matrix(build_triangulation(p, q))
    assert_matches_reference(matrix.rows, 3 * p)


def test_value_array_is_int64_exactly_while_the_bound_fits():
    top = exact.INT64_MAX // 12
    assert exact.value_array([top, -1], 12).dtype == np.int64
    for values in ([top + 1, 0], [-(top + 1)]):
        assert exact.value_array(values, 12).dtype == object
        assert exact.value_array(values, 12).tolist() == values
    assert exact.value_array([2 ** 70, 1]).tolist() == [2 ** 70, 1]
    assert exact.value_array([Fraction(1, 2), 1]).dtype == object
    assert exact.value_array((), 5).dtype == np.int64


def test_sparse_columns_hold_each_column_in_row_order():
    rows = [[0, 3, 0], [-1, 0, 0], [2, 5, 0]]
    col_start, col_rows, col_coefs = exact.sparse_columns(rows)
    assert col_start.tolist() == [0, 2, 4, 4]
    assert [exact.column_pairs(col_start, col_rows, col_coefs, j)
            for j in range(3)] == [((1, -1), (2, 2)), ((0, 3), (2, 5)), ()]
    for array in (col_start, col_rows, col_coefs):
        assert not array.flags.writeable
    _, _, big = exact.sparse_columns([[2 ** 70]])
    assert big.dtype == object and big.tolist() == [2 ** 70]


# ------------------------------------------------- double description

@pytest.mark.parametrize("p,q", [(4, 1), (5, 1), (5, 2), (6, 1)])
def test_double_description_matches_the_kernel_reference(p, q):
    matrix = q_matrix(build_triangulation(p, q))
    assert matrix.extreme_rays == extreme_rays_of_kernel(
        exact.column_kernel_basis(matrix.col_start, matrix.col_rows,
                                  matrix.col_coefs))


def ray_key(ray):
    return sorted(ray.items())


@PROPERTY_SETTINGS
@given(small_matrices(), st.data())
def test_filtered_double_description_keeps_the_admissible_rays(rows, data):
    # Admissible: at most one column of each class in the support.
    ncols = len(rows[0])
    classes = data.draw(st.lists(st.integers(0, 2), min_size=ncols,
                                 max_size=ncols))
    system = SolutionCone(rows)
    every = extreme_rays(system)
    admissible = [ray for ray in every
                  if len({classes[j] for j in ray}) == len(ray)]
    assert sorted(map(ray_key, extreme_rays(
        system, classes=classes))) == sorted(map(ray_key, admissible))


@pytest.mark.parametrize("p,q", coprime_pairs(7))
def test_square_filter_keeps_exactly_the_square_rays(p, q):
    matrix = q_matrix(build_triangulation(p, q))
    square = extreme_rays(matrix, classes=[c // 3 for c in range(3 * p)])
    assert sorted(tuple(ray.get(c, 0) for c in range(3 * p))
                  for ray in square) == sorted(
        ray for ray in matrix.extreme_rays if square_condition(ray))


# ------------------------------------------------- gcd of maximal minors

@st.composite
def wide_matrices(draw):
    """k x n with 0 <= k <= n + 1 and n <= 5, entries in [-4, 4]; a
    repeated or scaled row often makes the rank fall below k."""
    n = draw(st.integers(0, 5))
    row = st.lists(st.integers(-4, 4), min_size=n, max_size=n)
    rows = draw(st.lists(row, max_size=n + 1))
    if rows and draw(st.booleans()):
        rows.append([draw(st.integers(-2, 2)) * x for x in rows[0]])
    return n, rows


def reference_maximal_minor_gcd(rows, n):
    """The gcd of every k x k minor, each a sympy determinant."""
    k = len(rows)
    return gcd(*(int(sympy.Matrix([[row[c] for c in chosen]
                                   for row in rows]).det())
                 for chosen in itertools.combinations(range(n), k)))


@PROPERTY_SETTINGS
@given(wide_matrices())
def test_maximal_minor_gcd_matches_every_minor(inputs):
    n, rows = inputs
    got = exact.maximal_minor_gcd(rows)
    assert got == reference_maximal_minor_gcd(rows, n)
    assert (got == 0) == (len(rows) > n or rank(rows) < len(rows))


def test_maximal_minor_gcd_examples():
    assert exact.maximal_minor_gcd([]) == 1
    assert exact.maximal_minor_gcd([(0, 3, -6)]) == 3
    assert exact.maximal_minor_gcd([(2, 0, 1), (0, 2, 1)]) == 2
    assert exact.maximal_minor_gcd([(1, 2), (2, 4)]) == 0
    assert exact.maximal_minor_gcd([(1,), (1,)]) == 0
    assert exact.maximal_minor_gcd([(3, 5), (1, 2)]) == 1
