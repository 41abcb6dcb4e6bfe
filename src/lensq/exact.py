"""
Small exact linear algebra kit over the integers.

Float arithmetic is banned from the core because half-integer basis
coefficients are routine here and rounding would silently corrupt
integrality classifications.

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
``column_kernel_basis`` and ``rank`` are loops over this one step, and
a search over column sets that share prefixes, such as the necklace
tree of ``qsystem.square_fundamental_solutions``, extends a prefix's
state by one push and takes it back by truncating the list.  Dense
rows enter through one converter, ``sparse_columns``.
"""

from __future__ import annotations

from math import gcd
from operator import index

from .errors import DimensionMismatch


def primitive(vec):
    """``vec`` divided by the gcd of its entries, as a tuple of ints.

    Signs are kept; the zero vector is returned unchanged.
    """
    g = gcd(*vec)
    return tuple(x // g for x in vec) if g > 1 else tuple(vec)


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


def sparse_columns(rows, ncols=None):
    """The columns of the integer matrix ``rows`` as tuples of their
    non-zero ``(row, entry)`` pairs.  ``ncols`` is required when there
    are no rows (ValueError); ragged rows raise DimensionMismatch and a
    non-integer entry TypeError."""
    if rows:
        ncols = len(rows[0])
    elif ncols is None:
        raise ValueError("ncols required for an empty matrix")
    if any(len(row) != ncols for row in rows):
        raise DimensionMismatch("ragged matrix rows")
    return tuple(tuple((r, x) for r, x in enumerate(map(index, column)) if x)
                 for column in zip(*rows)) or ((),) * ncols


def rank(rows) -> int:
    pivots = []
    for column in sparse_columns(rows, 0):
        push_column(pivots, column)
    return len(pivots)


def kernel_basis(rows, ncols=None):
    """Basis of the rational nullspace {x : rows . x = 0}; ``ncols`` is
    required when ``rows`` is empty.  See ``column_kernel_basis``."""
    return column_kernel_basis(sparse_columns(rows, ncols))


def column_kernel_basis(columns):
    """Basis of the rational nullspace of the system with the given
    sparse columns: primitive integer tuples, one per free column (a
    column that depends on the columns before it), each positive on its
    own free column and zero on the other free columns."""
    n = len(columns)
    pivots, basis = [], []
    for k, column in enumerate(columns):
        dependency = push_column(pivots, column + ((~k, 1),))
        if dependency is not None:
            basis.append(tuple(dependency.get(~j, 0) for j in range(n)))
    return basis
