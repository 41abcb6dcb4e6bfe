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
``kernel_basis`` and ``rank`` are loops over this one step, and a
search over column sets that share prefixes, such as the necklace tree
of ``cone.square_fundamental_solutions``, extends a prefix's state by
one push and takes it back by truncating the list.
"""

from __future__ import annotations

from math import gcd
from operator import index


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


def _columns(rows):
    """The columns of integer ``rows`` as sparse (row, entry) pairs.
    Entries must be integers; any other type raises TypeError."""
    return [[(r, x) for r, x in enumerate(map(index, column)) if x]
            for column in zip(*rows)]


def rank(rows) -> int:
    pivots = []
    for column in _columns(rows):
        push_column(pivots, column)
    return len(pivots)


def kernel_basis(rows, ncols=None):
    """Basis of the rational nullspace {x : rows . x = 0}.

    Returns primitive integer tuples, one per free column (a column
    that depends on the columns before it); each is positive on its
    own free column and zero on the other free columns.  ``ncols`` is
    required when ``rows`` is empty.
    """
    if rows:
        ncols = len(rows[0])
    elif ncols is None:
        raise ValueError("ncols required for an empty matrix")
    columns = _columns(rows) if rows else [[] for _ in range(ncols)]
    pivots, basis = [], []
    for k, column in enumerate(columns):
        dependency = push_column(pivots, column + [(~k, 1)])
        if dependency is not None:
            basis.append(tuple(dependency.get(~j, 0) for j in range(ncols)))
    return basis
