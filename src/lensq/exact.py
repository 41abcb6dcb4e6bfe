"""
Small exact linear algebra kit over the integers.

Float arithmetic is banned from the core because half-integer basis
coefficients are routine here and rounding would silently corrupt
integrality classifications.  Matrices are plain sequences of integer
row sequences.  Elimination is fraction-free: a row is cleared by an
integer combination with the pivot row and then divided by the gcd of
its entries, so entries stay small without ever leaving the integers.
"""

from __future__ import annotations

from math import gcd, lcm
from operator import index


def primitive(vec):
    """``vec`` divided by the gcd of its entries, as a tuple of ints.

    Signs are kept; the zero vector is returned unchanged.
    """
    g = gcd(*vec)
    return tuple(x // g for x in vec) if g > 1 else tuple(vec)


def row_echelon(rows):
    """Reduce a copy of ``rows`` to reduced row echelon form over Z.

    Every pivot is positive and every pivot column is zero outside its
    pivot row; each row is primitive.  Entries must be integers; any
    other type raises TypeError.  Returns (echelon_rows, pivot_columns),
    with the zero rows last.
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


def rank(rows) -> int:
    return len(row_echelon(rows)[1])


def kernel_basis(rows, ncols=None):
    """Basis of the rational nullspace {x : rows . x = 0}.

    Returns primitive integer tuples, one per free column; each is
    positive on its own free column and zero on the other free columns.
    ``ncols`` is required when ``rows`` is empty.
    """
    if not rows:
        if ncols is None:
            raise ValueError("ncols required for an empty matrix")
        return [tuple(int(i == j) for j in range(ncols))
                for i in range(ncols)]
    ncols = len(rows[0])
    echelon, pivots = row_echelon(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        # Row r reads echelon[r][pc] x[pc] + echelon[r][fc] x[fc] = 0.
        scale = lcm(*(echelon[r][pc] for r, pc in enumerate(pivots)
                      if echelon[r][fc]))
        vec = [0] * ncols
        vec[fc] = scale
        for r, pc in enumerate(pivots):
            vec[pc] = -echelon[r][fc] * scale // echelon[r][pc]
        basis.append(primitive(vec))
    return basis
