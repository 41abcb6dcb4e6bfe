"""
Small exact linear algebra kit over ``fractions.Fraction``.

Float arithmetic is banned from the core because half-integer basis
coefficients are routine here and rounding would silently corrupt
integrality classifications.  Matrices are plain sequences of row
sequences with int or Fraction entries; sizes stay small (a few hundred
columns at most), so straightforward Gaussian elimination is plenty.
"""

from __future__ import annotations

from fractions import Fraction


def _to_fraction_rows(rows):
    return [[Fraction(x) for x in row] for row in rows]


def row_echelon(rows):
    """Reduce a copy of ``rows`` to row echelon form.

    Returns (echelon_rows, pivot_columns).
    """
    m = _to_fraction_rows(rows)
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def rank(rows) -> int:
    return len(row_echelon(rows)[1])


def kernel_basis(rows, ncols=None):
    """Basis of the rational nullspace {x : rows . x = 0}.

    Returns a list of Fraction tuples, one per free column, in the
    standard eliminate-and-back-substitute form.  ``ncols`` is required
    when ``rows`` is empty.
    """
    if not rows:
        if ncols is None:
            raise ValueError("ncols required for an empty matrix")
        return [tuple(Fraction(int(i == j)) for j in range(ncols))
                for i in range(ncols)]
    ncols = len(rows[0])
    echelon, pivots = row_echelon(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -echelon[r][fc]
        basis.append(tuple(vec))
    return basis


def restrict_columns(rows, columns):
    """The submatrix keeping only the given column indices, in order."""
    return [[row[c] for c in columns] for row in rows]
