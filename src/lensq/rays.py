"""
Exact extreme-ray enumeration for cones {x >= 0 : A x = 0}.

Implements the double description method in the rational kernel of A.
Phase one eliminates lineality: while some coordinate inequality is
non-zero on the current lineality space, that inequality peels off one
lineality direction, which becomes a ray, and all existing rays are
projected into its hyperplane.  Cones inside the orthant are pointed,
so this phase ends with empty lineality.  Phase two imposes the
remaining inequalities with the classic ray-splitting step, using the
combinatorial adjacency test (two rays are adjacent when no third ray
is tight on all their common tight inequalities).  All arithmetic is
over Fraction; rays are returned as primitive integer vectors.

The extreme rays serve three purposes: they witness vertex solutions,
they cross-check the support-rank vertex test, and their entrywise sum
bounds every minimal integer solution (a solution with a generator
coefficient at or above one stays a solution after subtracting that
generator), which keeps the Hilbert-basis completion inside a finite
box.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from . import exact
from .errors import InternalInvariantError


def _primitive(vec):
    """Scale a rational vector to a primitive integer vector."""
    denom = 1
    for x in vec:
        d = Fraction(x).denominator
        denom = denom * d // gcd(denom, d)
    ints = [int(Fraction(x) * denom) for x in vec]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    if g > 1:
        ints = [x // g for x in ints]
    return tuple(ints)


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def extreme_rays_of_kernel_cone(rows, ncols):
    """Primitive extreme rays of {x in R^ncols : rows.x = 0, x >= 0}.

    Returns integer tuples sorted in graded lexicographic order.
    """
    kernel = exact.kernel_basis(rows, ncols) if rows else [
        tuple(Fraction(int(i == j)) for j in range(ncols))
        for i in range(ncols)]
    d = len(kernel)
    if d == 0:
        return ()
    # Inequality j in kernel coordinates: sum_k y_k kernel[k][j] >= 0.
    ineqs = [tuple(kernel[k][j] for k in range(d)) for j in range(ncols)]

    lineality = [tuple(Fraction(int(i == k)) for k in range(d))
                 for i in range(d)]
    rays: list[tuple] = []
    processed: list[tuple] = []
    remaining = list(ineqs)

    # Phase one: absorb inequalities that still see the lineality space.
    while lineality:
        choice = None
        for bi, b in enumerate(remaining):
            li = next((i for i, l in enumerate(lineality)
                       if _dot(b, l) != 0), None)
            if li is not None:
                choice = (bi, li)
                break
        if choice is None:
            break
        bi, li = choice
        b = remaining.pop(bi)
        pivot = lineality.pop(li)
        if _dot(b, pivot) < 0:
            pivot = tuple(-x for x in pivot)
        pb = _dot(b, pivot)
        lineality = [
            tuple(x - _dot(b, l) / pb * y for x, y in zip(l, pivot))
            for l in lineality]
        rays = [tuple(x - _dot(b, r) / pb * y for x, y in zip(r, pivot))
                for r in rays]
        rays.append(pivot)
        processed.append(b)

    if lineality:
        raise InternalInvariantError(
            "cone inside the orthant must be pointed")

    # Phase two: pointed double description steps.
    for b in remaining:
        values = [(_dot(b, r), r) for r in rays]
        pos = [r for v, r in values if v > 0]
        neg = [r for v, r in values if v < 0]
        zero = [r for v, r in values if v == 0]
        if neg and (pos or zero):
            tight = {id(r): frozenset(
                j for j, bb in enumerate(processed) if _dot(bb, r) == 0)
                for r in rays}
            new = []
            for rp in pos:
                for rn in neg:
                    common = tight[id(rp)] & tight[id(rn)]
                    adjacent = not any(
                        r is not rp and r is not rn
                        and common <= tight[id(r)]
                        for r in rays)
                    if adjacent:
                        vp, vn = _dot(b, rp), _dot(b, rn)
                        new.append(tuple(vp * xn - vn * xp
                                         for xp, xn in zip(rp, rn)))
            rays = pos + zero + new
        elif neg:
            rays = []
        processed.append(b)

    out = set()
    for r in rays:
        x = _primitive(tuple(
            _dot(tuple(kernel[k][j] for k in range(d)), r)
            for j in range(ncols)))
        if any(v < 0 for v in x):
            raise InternalInvariantError(f"ray left the orthant: {x}")
        if any(x):
            out.add(x)
    return tuple(sorted(out, key=lambda v: (sum(v), v)))
