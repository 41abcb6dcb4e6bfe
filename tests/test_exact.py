"""
Cross-checks of the integer exact core against sympy: rank, kernel
basis and extreme rays on small random integer matrices.
"""

import itertools
import math

import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from lensq import exact
from lensq.rays import extreme_rays_of_kernel_cone

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
    assert exact.rank(rows) == sympy.Matrix(rows).rank()


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
    assert extreme_rays_of_kernel_cone(rows, ncols) == _rays_by_support(
        rows, ncols)


def test_primitive_keeps_signs_and_zero():
    assert exact.primitive([4, -6, 0]) == (2, -3, 0)
    assert exact.primitive([0, 0]) == (0, 0)
    assert exact.primitive([-1, 1]) == (-1, 1)
