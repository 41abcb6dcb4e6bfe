"""
The quad matching system of a lens-space triangulation, and the search
for its square-condition fundamental solutions.

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
solutions over it exactly (a walk along the step-two cycles of the
b-coefficients), and classifies the integrality pattern of the
coefficients.

The triangulation is a cyclic chain, so shifting every block by one
tetrahedron permutes the matching equations, and so does reflecting
the blocks, i -> -i with the quad types kept: ``QMatrix.rotations``
tabulates the p block rotations and ``QMatrix.reflection`` the
reflection, and one guard (``_symmetry_guard``) checks each exactly on
its first read.  The square-condition fundamentals are the union of
the Hilbert bases of the 3^p one-type-per-block pattern subcones, each
a restriction to p columns.  ``square_fundamental_solutions`` solves
one pattern per dihedral orbit (a 3-ary necklace whose reflected orbit
has no smaller necklace) and closes the answers under the dihedral
group once.  The necklaces are walked as the leaves of the prenecklace
tree (Fredricksen-Kessler-Maiorana), depth first and without
recursion, in the spirit of Burton and Ozlen's tree traversal: each
tree node pushes one pattern column onto its parent's column-by-column
exact elimination (``exact.push_column``), so a prefix shared by many
patterns is eliminated once, and the budget is read at every node.  A
full-rank necklace is skipped; the others pass their kernel basis to
the double description and to ``cone.hilbert_basis``, which settles a
unimodular simplicial pattern cone by its rays and completes the rest.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import exact
from .cone import (
    Budget,
    SolutionCone,
    graded_lex_key,
    hilbert_basis,
)
from .errors import (
    DimensionMismatch,
    IntegralityViolated,
    InternalInvariantError,
    NegativeEntry,
    NotASolution,
    SingularSystem,
)
from .rays import extreme_rays_of_kernel
from .triangulation import QUAD_TYPES, LensTriangulation

# Integrality classes reported for sets of basis coefficients.
INTEGERS = "Z"
HALF_INTEGERS = "Z+1/2"
ZERO = "{0}"


class QMatrix(SolutionCone):
    """The (p+2) x 3p quad matching matrix, a SolutionCone held as 3p
    sparse columns.

    Column order is block-major with the three quad types inside each
    block; row order is e_1 .. e_p, Eh, Ev.  ``columns[c]`` lists the
    non-zero ``(row, coefficient)`` pairs of column c, at most four
    since a quad meets four edges.  The dense ``rows``, the extreme
    rays, ``residual`` and ``restrict`` are the SolutionCone's own;
    ``rotations`` and ``reflection``, the block symmetries, are the
    QMatrix's.
    """

    def __init__(self, tri: LensTriangulation):
        self.p = tri.p
        self.q = tri.q
        self.row_labels = tri.edge_classes
        # Column (i, j) reads the rows of quad type j's sense template
        # off row i of the slot edges.
        by_type = []
        for j in QUAD_TYPES:
            template = tri.sense_template(j)
            signs = [s for _, s in template]
            rows = tri.slot_edges[:, [e for e, _ in template]].tolist()
            by_type.append([tuple(zip(row, signs)) for row in rows])
        self.columns = tuple(column for block in zip(*by_type)
                             for column in block)
        self.nrows, self.ncols = len(self.row_labels), len(self.columns)

    @cached_property
    def rotations(self):
        """The p block rotations as a p x 3p column table: rotation k
        reads column (c + 3k) mod 3p at position c.  The table is a
        read-only view of every third window over two copies of
        0..3p-1, O(p) in memory.  The first read checks that the block
        shift c -> c + 3 renames the rows e_r -> e_(r+1)
        (``_symmetry_guard``)."""
        columns = np.arange(self.ncols)
        e = np.arange(self.p)
        _symmetry_guard(self, "block shift", np.roll(columns, -3),
                        (e + 1) % self.p)
        windows = np.lib.stride_tricks.sliding_window_view(
            np.concatenate((columns, columns)), self.ncols)
        return windows[:self.ncols:3]

    @cached_property
    def reflection(self):
        """The block reflection as a 3p column permutation: position
        (i, t) reads column (-i mod p, t); it is its own inverse.  The
        first read checks that it renames the rows e_r -> e_(1-q-r),
        indices from 0 and mod p (``_symmetry_guard``)."""
        blocks = -np.arange(self.p) % self.p
        table = (3 * blocks[:, None] + np.arange(3)).ravel()
        _symmetry_guard(self, "block reflection", table,
                        (1 - self.q - np.arange(self.p)) % self.p)
        table.flags.writeable = False
        return table

    def __repr__(self):
        return f"QMatrix(p={self.p}, q={self.q})"


def _symmetry_guard(matrix, name, image, rename):
    """Check that the column permutation c -> ``image[c]`` permutes the
    matching equations of the QMatrix ``matrix``: column image[c] must
    be column c with each row e_r renamed e_(rename[r]) and rows Eh, Ev
    left alone.  Then the permuted vector of a solution is again a
    solution.  The columns' padded array (``padded_columns``), each
    column sorted by row, is compared at once, O(p).

    Raises InternalInvariantError, naming the symmetry, when it does not
    hold.
    """
    p = matrix.p

    def by_row(table):
        order = np.argsort(table[..., 0], axis=1, kind="stable")
        return np.take_along_axis(table, order[..., None], axis=1)

    # The padding row p + 2 sorts after every real row and is not
    # renamed.
    pairs = by_row(matrix.padded_columns())
    renamed = pairs.copy()
    renamed[..., 0] = np.concatenate((rename, np.arange(p, p + 3)))[
        pairs[..., 0]]
    wrong = np.flatnonzero(
        (by_row(renamed) != pairs[image]).any(axis=(1, 2)))
    if wrong.size:
        c = int(wrong[0])
        raise InternalInvariantError(
            f"quad column {int(image[c])} is not the {name} of column {c} "
            f"for (p,q)=({p},{matrix.q})")


def q_matrix(tri: LensTriangulation) -> QMatrix:
    """Assemble the quad matching matrix of ``tri``."""
    return QMatrix(tri)


def is_q_solution(matrix: QMatrix, v) -> bool:
    """True iff matrix . v = 0 in exact arithmetic."""
    return matrix.is_solution(v)


@dataclass(frozen=True)
class BasisCoefficients:
    """Exact coefficients (a, b) of a solution over the standard basis."""

    a: tuple
    b: tuple

    def a_all_zero(self) -> bool:
        return not any(self.a)


def expand(tri: LensTriangulation, coeffs: BasisCoefficients):
    """The vector sum(a_i s_i) + sum(b_i t_i), in O(p).

    Block i of the result is
    (a_i, a_i + b_{i+1} + b_{i-q}, a_i + b_i + b_{i-q+1}).
    """
    p = tri.p
    a, b = coeffs.a, coeffs.b
    if len(a) != p or len(b) != p:
        raise DimensionMismatch(f"need {p} coefficients of each kind")
    k = np.arange(p)
    after, below, below_after = (((k + shift) % p).tolist()
                                 for shift in (1, -tri.q, 1 - tri.q))
    out = []
    for i, x in enumerate(a):
        out += (x, x + b[after[i]] + b[below[i]],
                x + b[i] + b[below_after[i]])
    return tuple(out)


def basis_vectors(tri: LensTriangulation):
    """The 2p solution-space basis vectors (s_1..s_p, t_1..t_p), each
    the ``expand`` of a unit coefficient.

    s_i fills block i with (1,1,1); it solves the matching equations of
    any triangulation because the three columns of a block sum to zero.
    t_i is the quad coordinate of the small sphere surrounding the
    slanted edge i: type 3 in blocks i and i+q-1, type 2 in blocks i-1
    and i+q, coincident blocks accumulating (for q = 1 this doubles
    into a (0,0,2) block).
    """
    zero = (0,) * tri.p
    units = [zero[:i] + (1,) + zero[i + 1:] for i in range(tri.p)]
    return (tuple(expand(tri, BasisCoefficients(a=u, b=zero)) for u in units),
            tuple(expand(tri, BasisCoefficients(a=zero, b=u)) for u in units))


def decompose(tri: LensTriangulation, v, matrix: QMatrix | None = None) -> BasisCoefficients:
    """Write a solution vector over the standard basis, exactly.

    The first entry of each block pins a_i directly.  The remaining
    entries give the cyclic system b_{i+1} + b_{i-q} = c_i,
    b_i + b_{i-q+1} = d_i, which fixes every difference b_k - b_{k+2}.
    The steps of two form one cycle (p odd) or two (p even), walked
    from b_1 and b_2, and d_k pins each cycle at its first k: b_k and
    its partner b_{k-q+1} lie on the same cycle, since q is odd when p
    is even.  O(p); the walk and the final ``expand`` check run on 2a
    and 2b in the input's own numbers, and only the returned a and b
    are Fractions.  Raises DimensionMismatch for a wrong length,
    NotASolution when matrix . v != 0 and SingularSystem if a cycle
    closes inconsistently, which cannot happen for coprime parameters.
    """
    p, q = tri.p, tri.q
    vec = tuple(v)
    if matrix is None:
        matrix = q_matrix(tri)
    if not matrix.is_solution(vec):
        raise NotASolution("vector does not satisfy the matching equations")

    c = [vec[3 * i + 1] - vec[3 * i] for i in range(p)]  # b_{i+1} + b_{i-q}
    d = [vec[3 * i + 2] - vec[3 * i] for i in range(p)]  # b_i + b_{i-q+1}

    # Indices from 0; each b is walked as its offset from the first b
    # of its cycle, and 2b is kept so the numbers stay the input's own.
    cycles = 2 - p % 2
    offset, twice_b = [0] * p, [None] * p

    def next_offset(k):  # b_{k+2} = b_k - c_{k+q} + d_{k+q+1}
        return offset[k] - c[(k + q) % p] + d[(k + q + 1) % p]

    for first in range(cycles):
        k = first
        for _ in range(p // cycles - 1):
            offset[(k + 2) % p] = next_offset(k)
            k = (k + 2) % p
        if next_offset(k) != 0:
            raise SingularSystem(
                f"chain closure failed for (p,q)=({p},{q}); "
                "basis does not span")
        base = d[first] - offset[(first - q + 1) % p]
        for k in range(first, p, cycles):
            twice_b[k] = base + 2 * offset[k]

    twice = BasisCoefficients(a=tuple(2 * x for x in vec[::3]),
                              b=tuple(twice_b))
    if expand(tri, twice) != tuple(2 * x for x in vec):
        raise SingularSystem(
            f"decomposition failed to reproduce the vector for "
            f"(p,q)=({p},{q})")
    return BasisCoefficients(a=tuple(map(Fraction, vec[::3])),
                             b=tuple(Fraction(x, 2) for x in twice_b))


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


def _prenecklaces(p, k):
    """Every k-ary prenecklace of length p, in lexicographic order (the
    Fredricksen-Kessler-Maiorana algorithm).

    Yields ``(i, word, necklace)``: the word, one list changed in place;
    the first position at which it differs from the word before; and
    whether it is a necklace, the lexicographically least rotation of
    its orbit (its Lyndon prefix length divides p).  The words are the
    leaves of the prenecklace tree in depth-first order, so positions
    i to p - 1 are the tree nodes first visited on the way to a word.
    """
    word = [0] * p
    i, lyndon = 0, 1
    while True:
        yield i, word, p % lyndon == 0
        i = p - 1
        while i >= 0 and word[i] == k - 1:
            i -= 1
        if i < 0:
            return
        word[i] += 1
        for j in range(i + 1, p):
            word[j] = word[j - i - 1]
        lyndon = i + 1


def _least_rotation(word):
    """The lexicographically least rotation of ``word``, as a list, in
    O(len(word)) comparisons: two candidate starts i < j race along the
    doubled word, and on the first mismatch after k equal letters the
    larger candidate moves past those k + 1 starts, none of which can
    begin the least rotation."""
    n = len(word)
    doubled = list(word) * 2
    i, j, k = 0, 1, 0
    while j < n and k < n:
        a, b = doubled[i + k], doubled[j + k]
        if a == b:
            k += 1
            continue
        if a > b:
            i += k + 1
        else:
            j += k + 1
        i, j, k = min(i, j), max(i, j) + (i == j), 0
    return doubled[i:i + n]


def _necklace_kernels(matrix, budget):
    """The kernel basis of every necklace pattern of the QMatrix
    ``matrix``, found along the prenecklace tree.

    Walks the tree depth first, without recursion.  The node at depth
    i pushes pattern column i (quad column 3i + t) onto the elimination
    state of its parent (``exact.push_column``); going back up
    truncates the state.  A column that depends on the ones above it
    contributes its dependency, the kernel basis vector of that free
    column, to every pattern below the node.  Yields ``(columns,
    kernel)`` for each necklace, ``kernel`` being
    ``exact.kernel_basis`` of ``matrix.restrict(columns)`` as the
    ``exact.push_column`` dependency dicts, entry k at key ~k; only the
    caller densifies the ones it reads.  Every node checks the budget.
    """
    p = matrix.p
    pivots = []
    # Per depth on the current path: len(pivots) before the node's
    # push, and the node's dependency or None.
    sizes, vectors = [], []
    for i, word, necklace in _prenecklaces(p, len(QUAD_TYPES)):
        if sizes:
            del pivots[sizes[i]:], sizes[i:], vectors[i:]
        for j in range(i, p):
            budget.check()
            sizes.append(len(pivots))
            vectors.append(exact.push_column(
                pivots, matrix.columns[3 * j + word[j]] + ((~j, 1),)))
        if necklace:
            yield ([3 * j + t for j, t in enumerate(word)],
                   [v for v in vectors if v is not None])


def square_fundamental_solutions(matrix, budget: Budget | None = None):
    """All fundamental solutions of a quad matching system that satisfy
    the square condition, without enumerating the full Hilbert basis.

    The square condition is downward closed: anything below a
    one-type-per-block vector is again one-type-per-block.  A square
    vector is therefore minimal among all solutions exactly when it is
    minimal inside its own pattern subcone (``matrix.restrict`` to one
    chosen quad column per block), and the union of the
    3^p pattern Hilbert bases is precisely the set of square-condition
    fundamental solutions.  Each pattern is a p-variable system, so
    this stays fast long after full enumeration has become infeasible.

    Shifting every block by one tetrahedron maps column c to column
    c + 3 and, as the first read of ``matrix.rotations`` checks exactly
    (InternalInvariantError otherwise), renames the rows e_i -> e_(i+1)
    while fixing Eh and Ev.  Reflecting the blocks, (i, t) -> (-i, t),
    renames them e_r -> e_(1-q-r) (from 0, mod p), as the first read of
    ``matrix.reflection`` checks.  A row permutation keeps every
    solution set, so the image of a pattern's Hilbert basis is the
    Hilbert basis of the image pattern.  Only one pattern per dihedral
    orbit is solved: a necklace is skipped when the least rotation of
    its reversed word, the necklace of its reflected orbit, is smaller,
    since that one came first in the walk.  After the walk the solved
    basis vectors are closed under the group once, with one budget
    read per vector: F R_k = R_(-k) F on the column tables, so the p
    rotations of each vector and of its reflection are its whole orbit.

    The necklaces and their kernel bases come from one walk of the
    prenecklace tree (``_necklace_kernels``), so necklaces that share a
    prefix share its elimination.  A full-rank necklace is skipped
    before its reflection is looked at; every other one densifies its
    kernel basis and hands it straight to the double description and to
    ``hilbert_basis``, which returns the rays of a unimodular
    simplicial cone without a completion.  Returns a tuple in graded
    lexicographic order.
    """
    budget = budget or Budget()
    solved = set()
    for columns, kernel in _necklace_kernels(matrix, budget):
        if not kernel:
            continue  # a full-rank pattern: its only solution is zero
        word = [c % 3 for c in columns]
        if _least_rotation(word[::-1]) < word:
            continue  # its reflected orbit's necklace came first
        pattern = matrix.restrict(columns)
        # The rays come from the kernel in hand, not from the dense rows.
        pattern.extreme_rays = extreme_rays_of_kernel(
            [tuple(v.get(~k, 0) for k in range(matrix.p)) for v in kernel])
        for small in hilbert_basis(pattern, budget):
            entries = dict(zip(columns, small))
            solved.add(tuple(entries.get(c, 0) for c in range(matrix.ncols)))
    # The group is read, and so checked, only here.  An object array
    # keeps the entries plain Python ints.
    rotations, reflection = matrix.rotations, matrix.reflection
    found = set()
    for v in np.array(list(solved), dtype=object).reshape(-1, matrix.ncols):
        budget.check()
        for image in (v, v[reflection]):
            found.update(map(tuple, image[rotations].tolist()))
    return tuple(sorted(found, key=graded_lex_key))
