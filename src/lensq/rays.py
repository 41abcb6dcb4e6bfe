"""
Exact extreme-ray enumeration for cones {x >= 0 : A x = 0}.

One double description, over the integers.  It starts from the
non-negative orthant, whose rays are the unit vectors, and imposes the
rows of A one at a time as hyperplanes: a ray on which row r is zero
stays, the others are split into a positive and a negative side, and
every adjacent pair (one from each side) gives the new ray on the
hyperplane, a positive combination of the two.  Rays are sparse, a
dict from the columns of their support to their entries, and
primitive.  A unit ray enters only when the first row that touches its
column is imposed, so a row costs what the rays on its columns cost.
The rows are read off the system's compressed sparse columns by one
stable sort of the entries by row, each row's entries in column order.

Adjacency is tested combinatorially: two rays are adjacent when no
third ray's support lies inside the union of theirs.  The one facet
type is x_j >= 0, so the support of a positive combination is that
union, and adjacency needs the kernel of the imposed rows on the union
to be a plane, so the union is at most two wider than the rows imposed
so far, which discards most pairs before the scan.

``extreme_rays`` can keep only the rays whose supports are admissible:
given a class for each column, at most one column of each class.
Burton's filter ("Optimizing the double description method for normal
surface enumeration", Math. Comp. 2010) applies because admissibility
is closed downward: a pair whose union is not admissible is never
combined, as every ray made from it, now or later, has a support
holding that union, and the adjacency test stays exact, because any
third ray inside an admissible union is admissible and so was kept.
The quad system's square condition is the case of one class per
tetrahedron (``qsystem.square_fundamental_solutions``).

The extreme rays serve the Hilbert-basis completion
(``cone.hilbert_basis``): each primitive ray is a minimal solution and
seeds the minimal set, the rays of a unimodular simplicial cone are its
whole basis, and their entrywise sum bounds every minimal integer
solution (a solution with a generator coefficient at or above one stays
a solution after subtracting that generator), which keeps the
completion inside a finite box.
"""

from __future__ import annotations

from math import gcd

import numpy as np

# Candidate pairs examined between two budget reads.
_CHUNK_PAIRS = 4096


def extreme_rays(system, budget=None, classes=None):
    """The primitive extreme rays of {x >= 0 : A x = 0}, A given by a
    ``cone.SolutionCone`` ``system``, read straight from its compressed
    sparse column arrays.

    With ``classes`` (one hashable label per column) only the rays
    whose support holds at most one column of each class are kept;
    they are exactly the admissible extreme rays of the whole cone.
    Without, each column is a class of its own and every ray is kept.
    ``budget``, when given, is read once per row, with the ray count as
    its frontier size, and once per chunk of candidate pairs.

    Returns the rays as dicts from the columns of their supports to
    their (positive) entries, in no particular order.
    """
    ncols = system.ncols
    if classes is None:
        classes = range(ncols)
    # Row r's (column, coefficient) pairs in column order: the entries
    # sorted stably by row, cut at each row's first entry.
    order = np.argsort(system.col_rows, kind="stable")
    cut = np.searchsorted(system.col_rows[order],
                          np.arange(system.nrows + 1)).tolist()
    pairs = list(zip(system.col_index[order].tolist(),
                     system.col_coefs[order].tolist()))
    rows = [pairs[lo:hi] for lo, hi in zip(cut, cut[1:])]
    # Each ray is (support, support's classes, entries).
    rays = []
    entered = set()
    imposed = 0
    for row in rows:
        if budget is not None:
            budget.check(len(rays), what="double description")
        if not row:
            continue
        for j, _ in row:
            if j not in entered:
                entered.add(j)
                rays.append((frozenset((j,)), frozenset((classes[j],)),
                             {j: 1}))
        pos, neg, kept = [], [], []
        for ray in rays:
            entries = ray[2]
            s = sum(c * entries[j] for j, c in row if j in entries)
            if s > 0:
                pos.append((s, ray))
            elif s < 0:
                neg.append((s, ray))
            else:
                kept.append(ray)
        if pos and neg:
            supports = [ray[0] for ray in rays]
            widest = imposed + 2
            examined = 0
            for sp, (support_p, classes_p, entries_p) in pos:
                for sn, (support_n, classes_n, entries_n) in neg:
                    examined += 1
                    if budget is not None and examined % _CHUNK_PAIRS == 0:
                        budget.check(len(rays) + len(kept),
                                     what="double description")
                    union = support_p | support_n
                    if len(union) > widest:
                        continue
                    union_classes = classes_p | classes_n
                    if len(union_classes) != len(union):
                        continue
                    # Adjacent when only the pair itself lies inside
                    # the union.
                    inside = 0
                    for support in supports:
                        if support <= union:
                            inside += 1
                            if inside > 2:
                                break
                    if inside > 2:
                        continue
                    entries = {j: sp * x for j, x in entries_n.items()}
                    for j, x in entries_p.items():
                        entries[j] = entries.get(j, 0) - sn * x
                    g = gcd(*entries.values())
                    if g > 1:
                        entries = {j: x // g for j, x in entries.items()}
                    kept.append((union, union_classes, entries))
        rays = kept
        imposed += 1
    out = [entries for _, _, entries in rays]
    # A column no row touches is a ray of its own.
    out += [{j: 1} for j in range(ncols) if j not in entered]
    return out
