"""
The quad matching system of a lens-space triangulation, and the search
for its square-condition fundamental solutions.

A surface's quad coordinate is a length-3p vector; entries come in p
blocks of three, block i holding the counts of the three quad types of
tetrahedron i.  Each edge class imposes one balance equation (equal
numbers of climbing and descending quads around the edge), giving a
(p+2) x 3p integer matrix whose rational rank is p.  ``QMatrix`` holds
it as a ``cone.SolutionCone`` of 3p compressed sparse columns, filled
from the triangulation's sense templates and slot edges in a few array
operations, so the cone code takes it as it is.  The solution space has
dimension 2p, and it carries a standard basis of 2p vectors: one "full
block" vector per tetrahedron and one "edge sphere" vector per slanted
edge.  This module assembles the matrix, produces the basis,
decomposes arbitrary solutions over it exactly (running sums along the
step-two cycles of the b-coefficients, checked by ``expand``, whose
reproduction of the vector proves it a solution without a residual),
and classifies the integrality pattern of the coefficients by their
denominators.  The O(p) passes are array passes in the value dtype of
``exact.value_array``: int64 when a bound proves that every sum fits,
Python ints or Fractions otherwise.  A caller's matrix is taken through
``matrix_for``, and one of another (p,q) is refused by the package's
one pair guard, ``triangulation.check_same_pair``.

The triangulation is a cyclic chain, so shifting every block by one
tetrahedron permutes the matching equations, and so does reflecting
the blocks, i -> -i with the quad types kept.  When q^2 = +-1 and
q != +-1 (mod p), the core exchange kappa, block i -> q i with quad
types 2 and 3 swapped when q^2 = -1, permutes them too, up to one sign
on every row (``_core_exchange``; the lens-space symmetry exchanging
the two core circles, Bonahon, Topology 1983).  The group they
generate, dihedral of order 2p or with kappa of order 4p, is held
once: ``QMatrix.symmetries`` lists its column permutations, the 2p
dihedral rows first, and ``QMatrix.edge_renamings`` the renamings of
the rows under those 2p; one guard (``_symmetry_guard``) checks the
generators exactly on the first read.  Every reader of the group reads
these rows and composes nothing itself.

The square-condition fundamentals are the union of the Hilbert bases
of the maximal admissible faces of the solution cone, the faces
spanned by maximal sets of pairwise compatible square extreme rays
(Burton, ALENEX 2014).  ``square_fundamental_solutions`` finds the
square rays by one double description of the whole cone that never
combines a pair whose union breaks the square condition
(``rays.extreme_rays`` with one column class per block), takes the
maximal cliques of the compatibility graph as the faces, solves one
face per orbit of the whole group with ``cone.hilbert_basis``, which
settles a unimodular simplicial face by its rays and completes the
rest on the orbits of the face's stabilizer, and closes the answers
under the group once.  Reports move between surfaces only along the
dihedral rows (``dihedral_images``, which also gives each image's row
renaming).  Every step reads the budget:
the double description at every row and every chunk of pairs, the
clique search at every node.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from operator import itemgetter

import numpy as np

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
from .exact import value_array
from .rays import extreme_rays
from .triangulation import QUAD_TYPES, LensTriangulation, check_same_pair

# Integrality classes reported for sets of basis coefficients.
INTEGERS = "Z"
HALF_INTEGERS = "Z+1/2"
ZERO = "{0}"


class QMatrix(SolutionCone):
    """The (p+2) x 3p quad matching matrix, a SolutionCone held as 3p
    compressed sparse columns.

    Column order is block-major with the three quad types inside each
    block; row order is e_1 .. e_p, Eh, Ev, named by ``row_labels``.
    Column c holds at most four entries, since a quad meets four edges,
    in its quad type's sense-template order.  The dense ``rows``, the
    extreme rays, ``residual`` and ``restrict`` are the SolutionCone's
    own; ``symmetries``, the dihedral group of the blocks with the core
    exchange when there is one, and ``edge_renamings``, the dihedral
    renamings of the rows, are the QMatrix's.
    """

    def __init__(self, tri: LensTriangulation):
        self.p = tri.p
        self.q = tri.q
        self.row_labels = tri.edge_classes
        # Column (i, j) reads the rows of quad type j's sense template
        # off row i of the slot edges, so block i's entries are row i of
        # the slot edges at the three templates' local edges in turn.
        templates = [tri.sense_template(j) for j in QUAD_TYPES]
        local = [e for template in templates for e, _ in template]
        signs = [s for template in templates for _, s in template]
        length = np.tile([len(template) for template in templates], tri.p)
        self.col_start = np.zeros(len(length) + 1, dtype=np.int64)
        np.cumsum(length, out=self.col_start[1:])
        self.col_rows = tri.slot_edges[:, local].ravel()
        self.col_coefs = np.tile(np.array(signs, dtype=np.int64), tri.p)
        for array in (self.col_start, self.col_rows, self.col_coefs):
            array.flags.writeable = False
        self.nrows, self.ncols = len(self.row_labels), len(length)

    @cached_property
    def symmetries(self):
        """The symmetry group of the system as a read-only column table
        of 2p rows, or 4p when q^2 = +-1 and q != +-1 (mod p).  Row
        k < p is rotation k: position c reads column (c + 3k) mod 3p.
        Row p + k is the block reflection after it:
        reflection[(c + 3k) mod 3p], the reflection sending block i to
        block -i mod p with the quad type kept.  These 2p dihedral rows
        rename the rows of the matching equations as
        ``edge_renamings``.  When the core exchange kappa exists
        (``_core_exchange``), row 2p + m is kappa then row m:
        kappa[symmetries[m]], so row 2p is kappa itself.  The first read
        checks the generators, rows 1, p and 2p, against their
        renamings (``_symmetry_guard``); the other rows are their
        products."""
        p, n = self.p, self.ncols
        rotations = (np.arange(n) + 3 * np.arange(p)[:, None]) % n
        reflection = (3 * (-np.arange(p) % p)[:, None]
                      + np.arange(3)).ravel()
        table = np.concatenate((rotations, reflection[rotations]))
        for name, m in (("block shift", 1), ("block reflection", p)):
            _symmetry_guard(self, name, table[m], self.edge_renamings[m])
        exchange = _core_exchange(p, self.q)
        if exchange is not None:
            kappa, rename, sign = exchange
            _symmetry_guard(self, "core exchange", kappa, rename, sign)
            table = np.concatenate((table, kappa[table]))
        table.flags.writeable = False
        return table

    @cached_property
    def edge_renamings(self):
        """The row renamings of the 2p dihedral rows of ``symmetries``
        as a read-only 2p x (p+2) table over the rows e_1 .. e_p, Eh,
        Ev, indices from 0 and mod p: row k maps e_r -> e_(r+k), row
        p + k maps e_r -> e_(1-q-r-k), and Eh, Ev are fixed."""
        p = self.p
        e = (np.arange(p) + np.arange(p)[:, None]) % p
        table = np.hstack((np.concatenate((e, (1 - self.q - e) % p)),
                           np.tile((p, p + 1), (2 * p, 1))))
        table.flags.writeable = False
        return table

    def __repr__(self):
        return f"QMatrix(p={self.p}, q={self.q})"


def _core_exchange(p, q):
    """The core exchange kappa of the (p,q) system, or None unless
    q^2 = +-1 and q != +-1 (mod p), as (columns, rename, sign):
    position (i, t) reads column (q i mod p, tau(t)), and column
    kappa[c] is column c with each row r renamed rename[r] and each
    coefficient times ``sign``, as ``_symmetry_guard`` reads them.
    When q^2 = 1, tau is the identity, e_r is renamed e_(q r + 1 - q)
    and the sign is +1; when q^2 = -1, tau swaps quad types 2 and 3,
    e_r is renamed e_(q r - q) and the sign is -1 (indices from 0, mod
    p).  Eh and Ev, whose rows coincide, stay fixed.  It is the
    lens-space symmetry exchanging the two core circles (Bonahon,
    Topology 1983), read on the triangulation."""
    square = q * q % p
    if q in (1, p - 1) or square not in (1, p - 1):
        return None
    i = np.arange(p)
    if square == 1:
        types, rows, sign = (0, 1, 2), q * i + 1 - q, 1
    else:
        types, rows, sign = (0, 2, 1), q * i - q, -1
    columns = (3 * (q * i % p)[:, None] + np.array(types)).ravel()
    return columns, np.concatenate((rows % p, (p, p + 1))), sign


def _symmetry_guard(matrix, name, image, rename, sign=1):
    """Check that the column permutation c -> ``image[c]`` permutes the
    matching equations of the QMatrix ``matrix`` up to ``sign``: column
    image[c] must be column c with each row r renamed ``rename[r]`` and
    each coefficient times ``sign``, over all p + 2 rows.  Then the
    permuted vector of a solution is again a solution.  Both sides are
    read from the column arrays as (column, row, coefficient) entries,
    column image[c]'s under the name c, and compared after one sort of
    each, O(p log p) in all.

    Raises InternalInvariantError, naming the symmetry and the first
    column c that fails, when it does not hold.
    """
    length, take = matrix.column_entries(image)
    sides = ((matrix.col_index, rename[matrix.col_rows],
              sign * matrix.col_coefs),
             (np.repeat(np.arange(len(image)), length),
              matrix.col_rows[take], matrix.col_coefs[take]))
    # A permutation moves every entry, so both sides hold them all, and
    # the first sorted position where they differ lies in the first
    # failing column (the side that runs on past it names it).
    ours, theirs = (np.stack(side)[:, np.lexsort(side[::-1])]
                    for side in sides)
    differ = np.flatnonzero((ours != theirs).any(axis=0))
    if differ.size:
        c = int(min(ours[0, differ[0]], theirs[0, differ[0]]))
        raise InternalInvariantError(
            f"quad column {int(image[c])} is not the {name} of column {c} "
            f"for (p,q)=({matrix.p},{matrix.q})")


def dihedral_images(matrix, v):
    """The 2p images of the quad vector ``v`` under the block symmetries
    of the QMatrix ``matrix``, each with its row renaming.

    Yields pairs (w, rows) of tuples, one per dihedral row m < 2p of
    ``matrix.symmetries``: w is v[symmetries[m]], and row r of w's
    matching equations is row rows[r] = ``edge_renamings[m, r]`` of
    v's, over all p + 2 rows.  So the surface of w meets edge class r
    as often as the surface of v meets edge class rows[r].  The first p
    images are v's rotations, the last p those of its reflection.
    Images repeat when part of the group fixes v.  The core exchange
    rows are not read.
    """
    renamings = matrix.edge_renamings.tolist()
    for columns, rows in zip(
            matrix.symmetries[:len(renamings)].tolist(), renamings):
        yield itemgetter(*columns)(v), tuple(rows)


def q_matrix(tri: LensTriangulation) -> QMatrix:
    """Assemble the quad matching matrix of ``tri``."""
    return QMatrix(tri)


def matrix_for(tri: LensTriangulation, matrix: QMatrix | None = None):
    """The quad matching matrix of ``tri``: ``matrix`` when given, else
    built.  A matrix of another (p,q) raises InvalidParams naming both
    pairs (``triangulation.check_same_pair``)."""
    if matrix is None:
        return q_matrix(tri)
    check_same_pair(tri, matrix, "matrix")
    return matrix


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
    """The vector sum(a_i s_i) + sum(b_i t_i), in O(p), as a tuple.

    Block i of the result is
    (a_i, a_i + b_{i+1} + b_{i-q}, a_i + b_i + b_{i-q+1}): three
    gathers of b, summed in the value dtype of a and b
    (``exact.value_array``, a sum of three).
    """
    p = tri.p
    if len(coeffs.a) != p or len(coeffs.b) != p:
        raise DimensionMismatch(f"need {p} coefficients of each kind")
    a, b = value_array(coeffs.a, 3), value_array(coeffs.b, 3)
    k = np.arange(p)
    out = np.empty((p, 3), dtype=np.result_type(a, b))
    out[:, 0] = a
    out[:, 1] = a + b[(k + 1) % p] + b[(k - tri.q) % p]
    out[:, 2] = a + b + b[(k + 1 - tri.q) % p]
    return tuple(out.ravel().tolist())


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
    from b_1 and b_2 as running sums of those differences, and d_k pins
    each cycle at its first k: b_k and its partner b_{k-q+1} lie on the
    same cycle, since q is odd when p is even.  O(p) in array passes;
    the walk and the final ``expand`` check run on 2a and 2b in the
    input's own numbers, in the value dtype of the widest sum
    (``exact.value_array``), and only the returned a and b are
    Fractions.

    The check is the admission: a vector that ``expand`` reproduces is
    a combination of solutions, so no residual is computed for it.
    Only when a cycle fails to close or the check fails is the residual
    read, to tell a non-solution (NotASolution) from a basis that does
    not span (SingularSystem, which cannot happen for coprime
    parameters).  A wrong length raises DimensionMismatch.  A
    ``matrix`` of another (p,q) raises InvalidParams up front
    (``triangulation.check_same_pair``); without one, the residual
    reads a matrix built then.
    """
    p, q = tri.p, tri.q
    if matrix is not None:
        check_same_pair(tri, matrix, "matrix")
    vec = tuple(v)
    if len(vec) == 3 * p:
        # A step is at most 4 max|v| and an offset p steps, so 2b, twice
        # an offset plus its cycle's base, is at most 14 p max|v|.
        x = value_array(vec, 14 * p).reshape(p, 3)
        c = x[:, 1] - x[:, 0]  # b_{i+1} + b_{i-q}
        d = x[:, 2] - x[:, 0]  # b_i + b_{i-q+1}
        # Indices from 0.  b_{k+2} = b_k + step[k]; row f of ``cycle``
        # walks k = f, f + 2, ... around its cycle.
        k = np.arange(p)
        step = d[(k + q + 1) % p] - c[(k + q) % p]
        cycles = 2 - p % 2
        cycle = (np.arange(cycles)[:, None]
                 + 2 * np.arange(p // cycles)) % p
        walk = step[cycle]
        closed = not walk.sum(axis=1).any()
        # Each b as its offset from the first b of its cycle.
        offset = np.zeros(p, dtype=x.dtype)
        offset[cycle[:, 1:]] = np.cumsum(walk[:, :-1], axis=1)
        first = np.arange(cycles)
        base = d[first] - offset[(first - q + 1) % p]
        twice_b = offset * 2
        twice_b[cycle] += base[:, None]
        twice = BasisCoefficients(a=tuple((2 * x[:, 0]).tolist()),
                                  b=tuple(twice_b.tolist()))
        if closed and expand(tri, twice) == tuple((2 * x).ravel().tolist()):
            return BasisCoefficients(a=_fractions(x[:, 0], 1),
                                     b=_fractions(twice_b, 2))
    if not (matrix or q_matrix(tri)).is_solution(vec):
        raise NotASolution("vector does not satisfy the matching equations")
    raise SingularSystem(
        f"decomposition failed to reproduce the vector for "
        f"(p,q)=({p},{q}); basis does not span")


def _fractions(values, denominator):
    """The array ``values`` over ``denominator`` as a tuple of
    Fractions, each distinct value made once."""
    values = values.tolist()
    made = {x: Fraction(x, denominator) for x in set(values)}
    return tuple(map(made.__getitem__, values))


def square_condition(v) -> bool:
    """True iff every block has at most one non-zero entry.

    Quads of different types inside one tetrahedron intersect, so an
    embedded surface allows only one type per block.  ``v`` may be any
    sequence or an array; a trailing short block is read as it is.
    """
    x = value_array(v if isinstance(v, np.ndarray) else tuple(v))
    if (x < 0).any():
        raise NegativeEntry("square condition is only defined for "
                            "non-negative vectors")
    nonzero = np.zeros(-(-len(x) // 3) * 3, dtype=bool)
    nonzero[:len(x)] = x != 0
    return bool((nonzero.reshape(-1, 3).sum(axis=1) <= 1).all())


def _classify_set(values):
    """The integrality label of one coefficient set, read from the
    ``denominator`` of each value (an int's is 1)."""
    if not any(values):
        return ZERO
    denominators = {x.denominator for x in values}
    if denominators == {1}:
        return INTEGERS
    if denominators == {2}:
        return HALF_INTEGERS
    # Mixed integers and half integers do not form a coset of Z.
    raise IntegralityViolated(f"coefficient set fits neither Z nor Z+1/2: "
                              f"{[str(x) for x in values]}")


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
    if any(x.denominator != 1 for x in coeffs.a):
        raise IntegralityViolated(
            f"a-coefficients of an integral solution must be integers: "
            f"{[str(x) for x in coeffs.a]}")
    if p % 2:
        return {"B": _classify_set(coeffs.b)}
    return {
        "B0": _classify_set(coeffs.b[1::2]),  # b_2, b_4, ...
        "B1": _classify_set(coeffs.b[0::2]),  # b_1, b_3, ...
    }


def _square_rays(matrix, budget):
    """The square extreme rays of the QMatrix ``matrix``'s solution
    cone, as sparse dicts: one filtered double description with the
    blocks as the column classes (``rays.extreme_rays``)."""
    return extreme_rays(matrix, budget,
                        classes=[c // 3 for c in range(matrix.ncols)])


def _maximal_faces(rays, budget):
    """The maximal admissible faces spanned by the square rays
    ``rays``, each a tuple of indices into ``rays``.

    Two square rays are compatible when the union of their supports is
    square, that is when they agree on every block they share; a set of
    pairwise compatible rays has a square union.  The faces are the
    maximal sets of pairwise compatible rays, the maximal cliques of the
    compatibility graph, found by Bron-Kerbosch with pivoting, without
    recursion and with a budget read at every node.
    """
    blocks = [frozenset(c // 3 for c in ray) for ray in rays]
    compatible = [set() for _ in rays]
    for i, j in combinations(range(len(rays)), 2):
        if len(rays[i].keys() | rays[j].keys()) == len(blocks[i] | blocks[j]):
            compatible[i].add(j)
            compatible[j].add(i)
    faces = []
    # Each node: the clique so far, the rays that may still join it, and
    # those that may not because their cliques were already listed.
    stack = [((), set(range(len(rays))), set())] if rays else []
    while stack:
        budget.check()
        clique, candidates, excluded = stack.pop()
        if not candidates:
            if not excluded:
                faces.append(clique)
            continue
        pivot = max(sorted(candidates | excluded),
                    key=lambda u: len(compatible[u] & candidates))
        for v in sorted(candidates - compatible[pivot]):
            stack.append((clique + (v,), candidates & compatible[v],
                          excluded & compatible[v]))
            candidates.discard(v)
            excluded.add(v)
    return faces


def square_fundamental_solutions(matrix, budget: Budget | None = None):
    """All fundamental solutions of a quad matching system that satisfy
    the square condition, without enumerating the full Hilbert basis.

    The square condition is downward closed: anything below a
    one-type-per-block vector is again one-type-per-block.  A square
    solution x lies in the face of the solution cone cut out by its
    support, whose extreme rays are the cone's extreme rays with
    support inside it: square rays, pairwise compatible.  So x lies in
    a maximal admissible face (``_maximal_faces``), the solutions
    supported on the union of a maximal set of pairwise compatible
    square rays, and those are exactly that set's rays.  A solution
    below x has its support inside x's, so x is minimal among all
    solutions exactly when it is minimal in that face, and the union of
    the faces' Hilbert bases is precisely the set of square-condition
    fundamental solutions (Burton, "Enumerating fundamental normal
    surfaces", ALENEX 2014).  The square rays come from one filtered
    double description of the whole cone (``_square_rays``).

    Shifting every block by one tetrahedron maps column c to column
    c + 3 and renames the rows e_i -> e_(i+1) while fixing Eh and Ev;
    reflecting the blocks, (i, t) -> (-i, t), renames them
    e_r -> e_(1-q-r) (from 0, mod p); the core exchange, when q^2 = +-1
    and q != +-1 (mod p), permutes them up to one sign
    (``_core_exchange``).  The first read of ``matrix.symmetries``, the
    group they generate, checks the generators exactly
    (InternalInvariantError otherwise).  A row permutation up to sign
    keeps the solution cone and the square condition, so it permutes
    the maximal faces, and the image of a face's Hilbert basis is the
    Hilbert basis of the image face.  A face is solved unless its
    support is a row of ``indicator[symmetries]`` for a face already
    solved, so one face per orbit of the group reaches
    ``hilbert_basis``, which returns the rays of a unimodular simplicial
    face without a completion and completes any other face on the
    orbits of its stabilizer, the elements that map the face to
    itself.  The solved basis vectors are then closed under
    the whole group once, with one budget read per vector.  The answer
    is thus a union of orbits, and ``catalog.enumerate_q_fundamental``
    classifies one surface per dihedral orbit and gives every other
    image the same report, its edge weights renamed by
    ``dihedral_images``.  Returns a tuple in graded lexicographic order.
    """
    budget = budget or Budget()
    rays = _square_rays(matrix, budget)
    faces = _maximal_faces(rays, budget)
    # The group is read, and so checked, here.
    symmetries = matrix.symmetries
    images, solved = set(), set()
    for face in faces:
        support = sorted(set().union(*(rays[i].keys() for i in face)))
        indicator = np.zeros(matrix.ncols, dtype=bool)
        indicator[support] = True
        if indicator.tobytes() in images:
            continue  # the image of a face already solved
        moved = indicator[symmetries]
        images.update(map(np.ndarray.tobytes, moved))
        cone = matrix.restrict(support)
        cone.extreme_rays = tuple(sorted(
            (tuple(rays[i].get(c, 0) for c in support) for i in face),
            key=graded_lex_key))
        # The face's stabilizer, the rows that map its support to
        # itself, read on its columns; elements that agree there give
        # one row.
        fixed = np.searchsorted(support, symmetries[
            (moved == indicator).all(axis=1)][:, support])
        cone.symmetries = np.array(list(
            {turn.tobytes(): turn for turn in fixed}.values()))
        for small in hilbert_basis(cone, budget):
            entries = dict(zip(support, small))
            solved.add(tuple(entries.get(c, 0) for c in range(matrix.ncols)))
    found = set()
    turns = symmetries.tolist()
    for v in solved:
        budget.check()
        found.update(itemgetter(*turn)(v) for turn in turns)
    return tuple(sorted(found, key=graded_lex_key))

