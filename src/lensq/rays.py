"""
Exact extreme-ray enumeration for cones {x >= 0 : A x = 0}.

Implements the double description method directly in x-coordinates,
over the integers.  The integer kernel basis of A (one vector per free
column, positive there and zero on the other free columns) spans a
simplicial cone: the kernel vectors that are non-negative on the free
columns.  Its rays are the basis vectors, and it is described by every
column on which all of them are non-negative.  Each remaining column
x_j >= 0 is then imposed with the classic ray-splitting step, using the
combinatorial adjacency test (two rays are adjacent when no third ray
is zero on all the imposed columns where both are zero).  Rays are
kept as primitive integer vectors.  ``extreme_rays_of_kernel`` takes
the kernel basis in hand: ``cone.SolutionCone.extreme_rays`` eliminates
its sparse columns for it (``exact.column_kernel_basis``), and the
necklace tree of ``qsystem.square_fundamental_solutions`` collects one
per pattern.

The extreme rays serve the Hilbert-basis completion
(``cone.hilbert_basis``): each primitive ray is a minimal solution and
seeds the minimal set, the rays of a unimodular simplicial cone are its
whole basis, and their entrywise sum bounds every minimal integer
solution (a solution with a generator coefficient at or above one stays
a solution after subtracting that generator), which keeps the
completion inside a finite box.
"""

from __future__ import annotations

from . import exact
from .errors import InternalInvariantError


def extreme_rays_of_kernel(basis):
    """Primitive extreme rays of the non-negative part of the span of
    ``basis``, a kernel basis in the form ``exact.kernel_basis`` gives.

    Returns integer tuples sorted in graded lexicographic order.
    """
    if not basis:
        return ()
    rays, ncols = basis, len(basis[0])
    imposed = [j for j in range(ncols) if all(r[j] >= 0 for r in rays)]
    for j in sorted(set(range(ncols)) - set(imposed)):
        pos = [r for r in rays if r[j] > 0]
        neg = [r for r in rays if r[j] < 0]
        zero = [r for r in rays if r[j] == 0]
        if neg and (pos or zero):
            tight = {r: frozenset(i for i in imposed if r[i] == 0)
                     for r in rays}
            new = []
            for rp in pos:
                for rn in neg:
                    common = tight[rp] & tight[rn]
                    if not any(r is not rp and r is not rn
                               and common <= tight[r] for r in rays):
                        new.append(exact.primitive(
                            [rp[j] * b - rn[j] * a for a, b in zip(rp, rn)]))
            rays = pos + zero + new
        elif neg:
            rays = []
        imposed.append(j)

    for r in rays:
        if any(v < 0 for v in r):
            raise InternalInvariantError(f"ray left the orthant: {r}")
    return tuple(sorted(set(rays), key=lambda v: (sum(v), v)))
