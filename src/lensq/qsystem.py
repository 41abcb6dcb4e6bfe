"""
The quad matching system of a lens-space triangulation.

A surface's quad coordinate is a length-3p vector; entries come in p
blocks of three, block i holding the counts of the three quad types of
tetrahedron i.  Each edge class imposes one balance equation (equal
numbers of climbing and descending quads around the edge), giving a
(p+2) x 3p integer matrix whose rational rank is p.  ``QMatrix`` holds
it as a ``cone.SolutionCone`` of 3p sparse columns, so the cone code
takes it as it is.  The solution space has dimension 2p, and it
carries a standard basis of 2p vectors: one "full block" vector per
tetrahedron and one "edge sphere" vector per slanted edge.  This module
assembles the matrix, produces the basis, decomposes arbitrary
solutions over it exactly (a union-find with potentials on the
b-coefficients, the package's one gluing structure), and classifies
the integrality pattern of the coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cone import SolutionCone
from .errors import (
    DimensionMismatch,
    IntegralityViolated,
    NegativeEntry,
    NotASolution,
    SingularSystem,
)
from .triangulation import QUAD_TYPES, LensTriangulation, Potentials

# Integrality classes reported for sets of basis coefficients.
INTEGERS = "Z"
HALF_INTEGERS = "Z+1/2"
ZERO = "{0}"


def check_qvector(v, p, require_nonneg=False):
    """Validate a quad-coordinate vector and return it as a tuple."""
    vec = tuple(v)
    if len(vec) != 3 * p:
        raise DimensionMismatch(
            f"quad vector must have length 3p = {3 * p}, got {len(vec)}")
    if require_nonneg and any(x < 0 for x in vec):
        raise NegativeEntry(f"quad vector has a negative entry: {vec}")
    return vec


def block(v, i: int):
    """Block i (1-based) of a quad vector: the three counts of tet i."""
    return tuple(v[3 * (i - 1): 3 * i])


class QMatrix(SolutionCone):
    """The (p+2) x 3p quad matching matrix, a SolutionCone held as 3p
    sparse columns.

    Column order is block-major with the three quad types inside each
    block; row order is e_1 .. e_p, Eh, Ev.  ``columns[c]`` lists the
    non-zero ``(row, coefficient)`` pairs of column c, at most four
    since a quad meets four edges.  The dense ``rows``, the extreme
    rays, ``residual`` and ``restrict`` are the SolutionCone's own.
    """

    block_shift = True

    def __init__(self, tri: LensTriangulation):
        self.p = tri.p
        self.q = tri.q
        self.row_labels = tri.edge_classes
        index = {label: r for r, label in enumerate(self.row_labels)}
        self.columns = tuple(
            tuple((index[label], s) for label, s in tri.quad_senses(i, j))
            for i in tri.tetrahedra for j in QUAD_TYPES)
        self.nrows, self.ncols = len(self.row_labels), len(self.columns)

    def multiply(self, v):
        return self.residual(check_qvector(v, self.p))

    def __repr__(self):
        return f"QMatrix(p={self.p}, q={self.q})"


def q_matrix(tri: LensTriangulation) -> QMatrix:
    """Assemble the quad matching matrix of ``tri``."""
    return QMatrix(tri)


def is_q_solution(matrix: QMatrix, v) -> bool:
    """True iff matrix . v = 0 in exact arithmetic."""
    return not any(matrix.multiply(v))


def basis_vectors(tri: LensTriangulation):
    """The 2p solution-space basis vectors (s_1..s_p, t_1..t_p).

    s_i fills block i with (1,1,1); it solves the matching equations of
    any triangulation because the three columns of a block sum to zero.
    t_i is the quad coordinate of the small sphere surrounding the
    slanted edge i: contributions (0,0,1) on blocks i and i+q-1 and
    (0,1,0) on blocks i-1 and i+q, with coincident blocks accumulating
    (for q = 1 this doubles into a (0,0,2) block).
    """
    p = tri.p
    s_list = []
    t_list = []
    for i in tri.tetrahedra:
        s = [0] * (3 * p)
        s[3 * (i - 1): 3 * i] = [1, 1, 1]
        s_list.append(tuple(s))
        t = [0] * (3 * p)
        for blk in (i, i + tri.q - 1):
            t[3 * (tri.norm(blk) - 1) + 2] += 1
        for blk in (i - 1, i + tri.q):
            t[3 * (tri.norm(blk) - 1) + 1] += 1
        t_list.append(tuple(t))
    return tuple(s_list), tuple(t_list)


@dataclass(frozen=True)
class BasisCoefficients:
    """Exact coefficients (a, b) of a solution over the standard basis."""

    a: tuple
    b: tuple

    @property
    def p(self):
        return len(self.a)

    def a_all_zero(self) -> bool:
        return not any(self.a)


def expand(tri: LensTriangulation, coeffs: BasisCoefficients):
    """The vector sum(a_i s_i) + sum(b_i t_i), block by block.

    Block i of the result is
    (a_i, a_i + b_{i+1} + b_{i-q}, a_i + b_i + b_{i-q+1}).
    """
    p, q = tri.p, tri.q
    a, b = coeffs.a, coeffs.b
    if len(a) != p or len(b) != p:
        raise DimensionMismatch(f"need {p} coefficients of each kind")

    def bb(k):
        return b[tri.norm(k) - 1]

    out = []
    for i in tri.tetrahedra:
        ai = a[i - 1]
        out.append(ai)
        out.append(ai + bb(i + 1) + bb(i - q))
        out.append(ai + bb(i) + bb(i - q + 1))
    return tuple(out)


def decompose(tri: LensTriangulation, v, matrix: QMatrix | None = None) -> BasisCoefficients:
    """Write a solution vector over the standard basis, exactly.

    The first entry of each block pins a_i directly.  The remaining
    entries give the cyclic system b_{i+1} + b_{i-q} = c_i,
    b_i + b_{i-q+1} = d_i, which fixes every difference b_k - b_{k+2};
    a union-find with potentials joins these step-two differences into
    one class (p odd) or two (p even), and d_k pins each class, in O(p).
    The potentials stay in the input's own numbers; a and b come back
    as Fractions.  Raises NotASolution when matrix . v != 0 and
    SingularSystem if a class closes inconsistently or cannot be
    pinned, which cannot happen for coprime parameters.
    """
    p, q = tri.p, tri.q
    vec = check_qvector(v, p)
    if matrix is None:
        matrix = q_matrix(tri)
    if any(matrix.multiply(vec)):
        raise NotASolution("vector does not satisfy the matching equations")

    a = tuple(Fraction(vec[3 * i]) for i in range(p))
    c = [vec[3 * i + 1] - vec[3 * i] for i in range(p)]  # b_{i+1} + b_{i-q}
    d = [vec[3 * i + 2] - vec[3 * i] for i in range(p)]  # b_i + b_{i-q+1}

    def idx(k):  # 0-based position of b_k
        return tri.norm(k) - 1

    # b_k - b_{k+2} = c_{k+q} - d_{k+q+1}
    chains = Potentials(p)
    for k in tri.tetrahedra:
        gap = c[idx(k + q)] - d[idx(k + q + 1)]
        if not chains.union(idx(k), idx(k + 2), -gap):
            raise SingularSystem(
                f"chain closure failed for (p,q)=({p},{q}); "
                "basis does not span")

    # d_k = b_k + b_{k-q+1} pins the class of b_k at its least k.
    base = {}
    b = []
    for k in tri.tetrahedra:
        root, pot = chains.find(idx(k))
        if root not in base:
            partner_root, partner_pot = chains.find(idx(k - q + 1))
            if partner_root != root:
                raise SingularSystem(
                    f"chain pinning failed for (p,q)=({p},{q})")
            base[root] = Fraction(d[idx(k)] - pot - partner_pot, 2)
        b.append(base[root] + pot)

    coeffs = BasisCoefficients(a=a, b=tuple(b))
    if expand(tri, coeffs) != vec:
        raise SingularSystem(
            f"decomposition failed to reproduce the vector for "
            f"(p,q)=({p},{q})")
    return coeffs


def square_condition(v) -> bool:
    """True iff every block has at most one non-zero entry.

    Quads of different types inside one tetrahedron intersect, so an
    embedded surface allows only one type per block.
    """
    vec = tuple(v)
    if any(x < 0 for x in vec):
        raise NegativeEntry("square condition is only defined for "
                            "non-negative vectors")
    for i in range(0, len(vec), 3):
        if sum(1 for x in vec[i:i + 3] if x) > 1:
            return False
    return True


def _classify_set(values):
    fracs = [Fraction(x) for x in values]
    if all(x == 0 for x in fracs):
        return ZERO
    if all(x.denominator == 1 for x in fracs):
        return INTEGERS
    if all(x.denominator == 2 for x in fracs):
        return HALF_INTEGERS
    # Mixed integers and half integers do not form a coset of Z.
    raise IntegralityViolated(f"coefficient set fits neither Z nor Z+1/2: "
                              f"{[str(x) for x in fracs]}")


def integrality_class(coeffs: BasisCoefficients, p: int) -> dict:
    """Classify the b-coefficient sets of an integral solution.

    For odd p the whole set B = {b_1..b_p} must lie in Z or in Z + 1/2;
    for even p the same holds separately for the even-index and the
    odd-index halves.  All a_i must be integers.  Returns a mapping like
    {"B": "Z+1/2"} or {"B0": "{0}", "B1": "Z"}; the label "{0}" is
    reported when a set is identically zero.  Raises IntegralityViolated
    when no classification fits, which for exactly decomposed integral
    solutions indicates an upstream bug.
    """
    if len(coeffs.a) != p or len(coeffs.b) != p:
        raise DimensionMismatch(f"expected {p} coefficients of each kind")
    if any(Fraction(x).denominator != 1 for x in coeffs.a):
        raise IntegralityViolated(
            f"a-coefficients of an integral solution must be integers: "
            f"{[str(x) for x in coeffs.a]}")
    if p % 2:
        return {"B": _classify_set(coeffs.b)}
    return {
        "B0": _classify_set(coeffs.b[1::2]),  # b_2, b_4, ...
        "B1": _classify_set(coeffs.b[0::2]),  # b_1, b_3, ...
    }
