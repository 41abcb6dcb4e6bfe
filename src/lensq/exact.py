"""
Small exact linear algebra kit over the integers.

Float arithmetic is banned from the core because half-integer basis
coefficients are routine here and rounding would silently corrupt
integrality classifications.

A sparse integer system is held in one layout, compressed sparse
columns: three read-only arrays, ``col_start`` (ncols + 1 offsets),
``col_rows`` and ``col_coefs``, column j's non-zero entries lying at
``col_start[j]:col_start[j + 1]``.  Dense rows enter through one
converter, ``sparse_columns``, and ``column_pairs`` reads one column
back as (row, coefficient) pairs of Python ints for the pair walkers.
Every integer pass of the package, the Hilbert completion's A^T A
included, sizes its sums by one rule (``value_dtype``, ``value_array``):
int64 when a bound proves that every sum it forms fits, ``object``
(Python ints, Fractions) otherwise, on the same code path.

There is one elimination, and it runs column by column.
``push_column`` adds one sparse column to an elimination state: the
list of the independent columns pushed so far, each kept as a reduced,
fraction-free integer combination of the pushed columns with a pivot
row.  The new column is cleared against every pivot in turn by an
integer combination and divided by the gcd of its entries, so entries
stay small without ever leaving the integers.  What is left is either a
new pivot or, when every row entry has cancelled, the column's
dependency on the earlier independent columns.  That dependency is the
kernel vector of the free column in reduced row echelon form, so
``kernel_basis`` is a loop over this one step on the sparse columns
of its rows, and
``cone.is_vertex`` pushes a support's columns to read the dimension of
its kernel.

Apart from it, ``maximal_minor_gcd`` runs one small column-Hermite
elimination: the lattice index of a few independent vectors, which
lets ``cone.hilbert_basis`` certify a unimodular simplicial cone.
"""

from __future__ import annotations

from math import gcd
from operator import index

import numpy as np

from .errors import DimensionMismatch

# The largest value int64 holds.
INT64_MAX = int(np.iinfo(np.int64).max)


def value_dtype(bound: int):
    """The value dtype of a pass whose every sum is at most ``bound``
    in magnitude: int64 when it fits, ``object`` (Python ints)
    otherwise."""
    return np.int64 if bound <= INT64_MAX else object


def value_array(values, weight: int = 1):
    """``values`` (a sequence or an array) as one numpy array for a
    pass whose sums add at most ``weight`` times the largest magnitude
    among them: int64 when they are integers and that bound fits
    (``value_dtype``), ``object`` otherwise, which keeps Python ints
    and Fractions exact."""
    array = np.asarray(values)
    if array.dtype.kind in "iu" or not array.size:
        largest = (max(int(array.max()), -int(array.min()))
                   if array.size else 0)
        if value_dtype(weight * largest) is np.int64:
            return array.astype(np.int64, copy=False)
    return array.astype(object)


def push_column(pivots, column):
    """Push one column onto the elimination state ``pivots``.

    ``column`` holds the column's non-zero ``(key, coefficient)`` pairs.
    Non-negative keys are rows.  A negative key tags the column: a
    caller that wants dependencies back gives column k the extra pair
    ``(~k, 1)``, and the tags then record which integer combination of
    the pushed columns each state entry is.  ``pivots`` is a list of
    ``(row, entries)`` pairs, each a combination that is zero on the
    pivot rows before it and positive on its own.

    The column is reduced against every pivot in order.  If a row entry
    is left, the reduced column joins ``pivots`` as a new pivot and None
    is returned.  Otherwise the remaining tag entries are returned as a
    dict: the column's dependency on the earlier independent columns,
    primitive and positive on the column's own tag.
    """
    u = dict(column)
    for row, v in pivots:
        f = u.get(row)
        if f:
            a = v[row]
            if a != 1:
                u = {key: a * x for key, x in u.items()}
            for key, y in v.items():
                x = u.get(key, 0) - f * y
                if x:
                    u[key] = x
                else:
                    del u[key]
            g = gcd(*u.values())
            if g > 1:
                u = {key: x // g for key, x in u.items()}
    rows = [key for key in u if key >= 0]
    if not rows:
        # Pivots are positive, so the tag of the new column only ever
        # grows by positive factors, and the last division left the
        # entries coprime.
        return u
    row = min(rows)
    if u[row] < 0:
        u = {key: -x for key, x in u.items()}
    pivots.append((row, u))
    return None


def _bezout(a, b):
    """``(g, x, y)`` with a x + b y = g, g a gcd of a and b (its sign
    may be either)."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        quotient, remainder = divmod(a, b)
        a, b = b, remainder
        x0, x1 = x1, x0 - quotient * x1
        y0, y1 = y1, y0 - quotient * y1
    return a, x0, y0


def maximal_minor_gcd(rows) -> int:
    """The gcd of the k x k minors of the k x n integer matrix ``rows``:
    0 when its rank is below k (or k > n), 1 for no rows.

    A column-Hermite elimination: row i's entries in the columns from i
    on are folded into column i by unimodular 2 x 2 column steps, which
    leave the gcd of the maximal minors unchanged, until the matrix is
    lower triangular with zeros right of column k - 1.  Its only
    non-zero maximal minor is then the product of the diagonal.
    """
    k = len(rows)
    columns = [list(column) for column in zip(*rows)]
    if k > len(columns):
        return 0
    det = 1
    for i in range(k):
        for j in range(i + 1, len(columns)):
            b = columns[j][i]
            if b:
                a = columns[i][i]
                g, x, y = _bezout(a, b)
                a, b = a // g, b // g
                # The step [[x, -b], [y, a]] has determinant a x + b y = 1.
                columns[i], columns[j] = (
                    [x * u + y * v for u, v in zip(columns[i], columns[j])],
                    [a * v - b * u for u, v in zip(columns[i], columns[j])])
        det *= columns[i][i]
        if not det:
            return 0
    return abs(det)


def sparse_columns(rows, ncols=None):
    """The integer matrix ``rows`` as compressed sparse columns: the
    read-only arrays (col_start, col_rows, col_coefs), each column's
    non-zero entries in row order, the coefficients int64 when they fit
    and ``object`` otherwise.  ``ncols`` is required when there are no
    rows (ValueError); ragged rows raise DimensionMismatch and a
    non-integer entry TypeError."""
    if rows:
        ncols = len(rows[0])
    elif ncols is None:
        raise ValueError("ncols required for an empty matrix")
    if any(len(row) != ncols for row in rows):
        raise DimensionMismatch("ragged matrix rows")
    dense = value_array([list(map(index, row)) for row in rows]).reshape(
        len(rows), ncols)
    cols, col_rows = np.nonzero(dense.T)
    col_coefs = dense[col_rows, cols]
    col_start = np.zeros(ncols + 1, dtype=np.int64)
    np.cumsum(np.bincount(cols, minlength=ncols), out=col_start[1:])
    out = col_start, col_rows.astype(np.int64), col_coefs
    for array in out:
        array.flags.writeable = False
    return out


def column_pairs(col_start, col_rows, col_coefs, j):
    """Column j of compressed sparse columns as its non-zero
    ``(row, coefficient)`` pairs of Python ints, in stored order."""
    lo, hi = col_start[j], col_start[j + 1]
    return tuple(zip(col_rows[lo:hi].tolist(), col_coefs[lo:hi].tolist()))


def kernel_basis(rows, ncols=None):
    """Basis of the rational nullspace {x : rows . x = 0}, pushed
    column by column from ``sparse_columns(rows, ncols)``: primitive
    integer tuples, one per free column (a column that depends on the
    columns before it), each positive on its own free column and zero
    on the other free columns.  ``ncols`` is required when ``rows`` is
    empty."""
    col_start, col_rows, col_coefs = sparse_columns(rows, ncols)
    n = len(col_start) - 1
    pivots, basis = [], []
    for k in range(n):
        column = column_pairs(col_start, col_rows, col_coefs, k)
        dependency = push_column(pivots, column + ((~k, 1),))
        if dependency is not None:
            basis.append(tuple(dependency.get(~j, 0) for j in range(n)))
    return basis
