"""
Fundamental and vertex solutions of A x = 0 over the non-negative
integers.

The Hilbert basis (the set of minimal non-zero non-negative integer
solutions) is enumerated by the classic completion scheme of Contejean
and Devie: grow candidate vectors breadth first from the unit vectors,
extending x by a unit e_j only when the residual A x moves closer to
zero in the direction of column j (formally <A x, A e_j> < 0), and
discard any candidate that already dominates a known minimal solution
(read from a bitset index over the minimal solutions).  Each level is
extended in chunks with the budget read between them, then deduplicated
into lexicographic order, so the output does not depend on chunk size.

The square-condition fundamentals of a quad system are the union of
the Hilbert bases of its 3^p one-type-per-block pattern subcones.  The
p-tetrahedron lens-space triangulation is a cyclic chain, so shifting
every block by one tetrahedron permutes the matching equations; the
search checks this exactly once, solves one pattern per rotation orbit
(the orbit's lexicographically least rotation, a 3-ary necklace) and
rotates each answer into every block position.

Alongside the enumerator there are direct, definition-level tests:
``is_fundamental`` runs an exhaustive box search below a given solution,
``is_vertex`` checks that the rational kernel restricted to the support
is a single ray, and ``brute_force_minimal_solutions`` re-derives small
Hilbert bases from a coefficient grid over the solution-space basis,
independently of the completion algorithm.
"""

from __future__ import annotations

import time
from fractions import Fraction

import numpy as np

from . import exact
from .errors import (
    BudgetExceeded,
    DimensionMismatch,
    EmptyVector,
    InternalInvariantError,
    NegativeEntry,
    NotASolution,
)
from .qsystem import QMatrix
from .rays import extreme_rays_of_kernel_cone
from .triangulation import QUAD_TYPES

# Magnitude guard for the vectorized integer paths; entries beyond this
# would risk silent int64 overflow in the matrix products.
_SAFE_MAGNITUDE = 2 ** 30

# Frontier rows extended between two budget checks.
_CHUNK_ROWS = 2048


class Budget:
    """Resource limits for the searches of one command.

    ``max_seconds`` caps wall-clock time, counted from the moment the
    Budget is made, so every search handed the same Budget shares one
    deadline.  ``max_frontier`` caps the most states a search holds at
    once: a completion level or its extension set, a coefficient grid
    or candidate set, the solutions a box search has collected, the
    normal disks ``surface.classify`` glues.  Either limit may be None.
    Exhaustion raises BudgetExceeded; partial results are never
    returned.
    """

    def __init__(self, max_seconds: float | None = 60.0,
                 max_frontier: int | None = 10 ** 7):
        self.max_seconds = max_seconds
        self.max_frontier = max_frontier
        self.deadline = (None if max_seconds is None
                         else time.monotonic() + max_seconds)

    def check(self, size=0, what="frontier"):
        """Raise BudgetExceeded if ``size`` states exceed the frontier
        cap or the deadline has passed."""
        if self.max_frontier is not None and size > self.max_frontier:
            raise BudgetExceeded(
                f"{what} grew past {self.max_frontier} states")
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise BudgetExceeded(
                f"search exceeded {self.max_seconds} seconds")


class SolutionCone:
    """An integer matrix A together with its solution cone.

    Wraps either a QMatrix or any explicit integer row list.  The
    primitive extreme rays are computed lazily in exact arithmetic and
    cached.
    """

    def __init__(self, matrix, ncols: int | None = None):
        self._columns = None
        if isinstance(matrix, QMatrix):
            rows = matrix.rows
            ncols = 3 * matrix.p
            self._columns = matrix.columns
        else:
            rows = tuple(tuple(int(x) for x in row) for row in matrix)
            if rows:
                ncols = len(rows[0])
            elif ncols is None:
                raise DimensionMismatch("ncols required for an empty matrix")
        if any(len(r) != ncols for r in rows):
            raise DimensionMismatch("ragged matrix rows")
        self.rows = rows
        self.ncols = ncols
        self._rays = None

    @property
    def extreme_rays(self):
        if self._rays is None:
            self._rays = extreme_rays_of_kernel_cone(self.rows, self.ncols)
        return self._rays

    @property
    def columns(self):
        """Per column, its non-zero (row, coefficient) pairs: the
        QMatrix's own sparse columns, or read off the rows once."""
        if self._columns is None:
            self._columns = tuple(
                tuple((r, row[j]) for r, row in enumerate(self.rows) if row[j])
                for j in range(self.ncols))
        return self._columns

    def residual(self, v):
        if len(v) != self.ncols:
            raise DimensionMismatch(
                f"vector length {len(v)} != {self.ncols} columns")
        out = [0] * len(self.rows)
        for entries, x in zip(self.columns, v):
            if x:
                for r, c in entries:
                    out[r] += c * x
        return tuple(out)

    def is_solution(self, v) -> bool:
        return not any(self.residual(v))

    def check_solution_vector(self, v):
        """Validate a candidate: non-negative, non-zero, integral,
        solves A v = 0.  Returns the tuple form."""
        vec = tuple(int(x) for x in v)
        if any(int(x) != x for x in v):
            raise NotASolution("vector must be integral")
        if len(vec) != self.ncols:
            raise DimensionMismatch(
                f"vector length {len(vec)} != {self.ncols} columns")
        if any(x < 0 for x in vec):
            raise NegativeEntry(f"vector has negative entries: {vec}")
        if not any(vec):
            raise EmptyVector("the zero vector is excluded by definition")
        if not self.is_solution(vec):
            raise NotASolution(f"A . v != 0 for {vec}")
        return vec


def graded_lex_key(v):
    """Sort key: total degree first, then lexicographic."""
    return (sum(v), tuple(v))


class _DominationIndex:
    """Which vectors of a batch dominate (>=) some row of ``minimal``.

    Per column j the values ``minimal[:, j]`` are kept sorted, beside a
    table whose row k is the bitset (uint64 words) of the minimal rows
    holding the k smallest.  x dominates some minimal row iff the AND of
    ``table_j[#{m_j <= x_j}]`` over all j is non-zero: O(n * M / 64) per
    vector instead of O(n * M).
    """

    def __init__(self, minimal: np.ndarray):
        m = minimal.shape[0]
        order = np.argsort(minimal, axis=0, kind="stable").T
        self.values = np.take_along_axis(minimal.T, order, axis=1)
        rows = np.arange(m)
        bits = np.zeros((m, max(1, -(-m // 64))), dtype=np.uint64)
        bits[rows, rows // 64] = np.uint64(1) << (rows % 64).astype(np.uint64)
        self.tables = np.zeros((minimal.shape[1], m + 1, bits.shape[1]),
                               dtype=np.uint64)
        self.tables[:, 1:] = np.bitwise_or.accumulate(bits[order], axis=1)

    def dominates(self, vectors: np.ndarray) -> np.ndarray:
        hit = np.full((vectors.shape[0], self.tables.shape[2]),
                      ~np.uint64(0))
        for values, table, column in zip(self.values, self.tables,
                                         vectors.T):
            hit &= table[np.searchsorted(values, column, side="right")]
        return hit.any(axis=1)


def _unique_rows(rows: np.ndarray) -> np.ndarray:
    """The distinct rows in lexicographic order, exactly as
    ``np.unique(rows, axis=0)`` returns them."""
    rows = rows[np.lexsort(rows.T[::-1])]
    keep = np.ones(rows.shape[0], dtype=bool)
    keep[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    return rows[keep]


def hilbert_basis(cone: SolutionCone, budget: Budget | None = None):
    """All minimal non-zero non-negative integer solutions of A x = 0.

    Completion from the unit vectors: a candidate x grows by e_j only
    when <A x, A e_j> < 0, which preserves reachability of every
    minimal solution.  Two sound prunings keep the frontier finite and
    small: candidates dominating an already-found minimal solution die
    (the primitive extreme rays are themselves minimal and are seeded
    up front), and candidates escaping the entrywise sum of the extreme
    rays die, because every minimal solution is a sub-one combination
    of the rays and therefore lies inside that box.  The budget is
    checked after every chunk of a level, so a level overruns the
    deadline by at most one chunk and its final deduplication.

    Returns a tuple sorted in graded lexicographic order.  Raises
    BudgetExceeded rather than truncating.
    """
    return _hilbert_basis(cone.rows, cone.ncols, cone.extreme_rays,
                          budget or Budget())


def _hilbert_basis(rows, n, rays, budget: Budget):
    """``hilbert_basis`` of the integer rows ``rows`` with ``n`` columns,
    given their primitive extreme rays."""
    if n == 0 or not rays:
        return ()
    A = np.array(rows, dtype=np.int64).reshape(len(rows), n)
    bound = np.array([sum(r[j] for r in rays) for j in range(n)],
                     dtype=np.int64)
    if bound.max(initial=0) > _SAFE_MAGNITUDE:
        raise BudgetExceeded("extreme-ray box exceeds the safe integer "
                             "range")
    minimal = np.array(rays, dtype=np.int64)
    index = _DominationIndex(minimal)
    frontier = np.eye(n, dtype=np.int64)
    frontier = frontier[(frontier <= bound).all(axis=1)]
    frontier = frontier[~index.dominates(frontier)]

    while frontier.shape[0]:
        budget.check(frontier.shape[0])
        residuals = frontier @ A.T
        sol_mask = (residuals == 0).all(axis=1)
        if sol_mask.any():
            # Every frontier row has passed the domination filter against
            # the seeded rays and all solutions of lower degree, and the
            # rows of one level are distinct, so each solution is minimal.
            solutions = frontier[sol_mask]
            if index.dominates(solutions).any():
                raise InternalInvariantError(
                    "a new solution dominates a known minimal solution")
            minimal = np.concatenate([minimal, solutions])
            index = _DominationIndex(minimal)
            frontier, residuals = frontier[~sol_mask], residuals[~sol_mask]
        # Extend x by e_j exactly when <A x, A e_j> < 0, a chunk of rows
        # at a time so that the deadline is read often.  Both filters act
        # row by row, so one deduplication of the survivors gives the
        # same level as deduplicating first.
        survivors = [frontier[:0]]
        extended = 0
        for lo in range(0, frontier.shape[0], _CHUNK_ROWS):
            where = np.argwhere(residuals[lo: lo + _CHUNK_ROWS] @ A < 0)
            extended += where.shape[0]
            budget.check(extended, what="extension set")
            children = frontier[lo + where[:, 0]]
            children[np.arange(children.shape[0]), where[:, 1]] += 1
            children = children[(children <= bound).all(axis=1)]
            survivors.append(children[~index.dominates(children)])
        frontier = _unique_rows(np.concatenate(survivors))

    out = [tuple(int(x) for x in m) for m in minimal]
    out.sort(key=graded_lex_key)
    return tuple(out)


def _box_solutions(cone: SolutionCone, bounds, budget, stop_after=None):
    """All integer solutions x with 0 <= x <= bounds, by an iterative
    depth-first search with interval pruning on every equation.

    ``bounds`` may be zero on most coordinates; only non-zero ones
    branch.  A branch on column j moves only the rows j touches, so
    only those are checked: every other row keeps its residual and its
    reach from the parent node, which passed it.  Returns a list of
    tuples, always including the zero vector; stops early once
    ``stop_after`` solutions are in hand.  Every node checks the
    budget, with the solution list as its size.
    """
    support = [j for j in range(cone.ncols) if bounds[j] > 0]
    # Per support column, (row, coefficient, lo, hi) for each row it
    # touches, [lo, hi] being what the later support columns can still
    # add to that row.
    lo, hi = [0] * len(cone.rows), [0] * len(cone.rows)
    reach = []
    for j in reversed(support):
        reach.append([(r, c, lo[r], hi[r]) for r, c in cone.columns[j]])
        for r, c in cone.columns[j]:
            if c < 0:
                lo[r] += c * bounds[j]
            else:
                hi[r] += c * bounds[j]
    reach.reverse()

    residual = [0] * len(cone.rows)

    def branches(k):
        """The values of column support[k] that keep its rows within
        reach of zero, each yielded with the residual set; the rows are
        put back once the values run out."""
        rows = reach[k]
        base = [residual[r] for r, _, _, _ in rows]
        for val in range(bounds[support[k]] + 1):
            moved = [b + c * val for b, (_, c, _, _) in zip(base, rows)]
            if all(m + l <= 0 <= m + h
                   for m, (_, _, l, h) in zip(moved, rows)):
                for m, (r, _, _, _) in zip(moved, rows):
                    residual[r] = m
                yield val
        for b, (r, _, _, _) in zip(base, rows):
            residual[r] = b

    x = [0] * cone.ncols
    found = []
    # The branch iterators of the open nodes on the current path; the
    # node being visited sits at depth len(path).
    path = []
    while stop_after is None or len(found) < stop_after:
        budget.check(len(found), what="box-search solution list")
        if len(path) == len(support):
            # Each row was last checked with nothing left to add, so the
            # residual is zero.
            found.append(tuple(x))
        else:
            path.append(branches(len(path)))
        # Step to the next node in depth-first order.
        while path:
            val = next(path[-1], None)
            if val is not None:
                x[support[len(path) - 1]] = val
                break
            path.pop()
        else:
            break
    return found


def is_fundamental(cone: SolutionCone, v, budget: Budget | None = None) -> bool:
    """Definition-level minimality test: no solution v' with 0 < v' < v.

    Searches the box below v restricted to the support of v, pruning
    with the linear equations.  Exact but exponential in the support
    size; meant for the small explicit vectors this package handles.
    """
    vec = cone.check_solution_vector(v)
    # The box below v always contains the solutions 0 and v itself; any
    # third one is a witness of non-minimality.
    return len(_box_solutions(cone, vec, budget or Budget(),
                              stop_after=3)) <= 2


def is_vertex(cone: SolutionCone, v) -> bool:
    """True iff v spans an extreme ray of the solution cone.

    Equivalent to the definition "every solution below every multiple
    of v is itself a multiple": the rational kernel of A restricted to
    the support of v must be one-dimensional.
    """
    vec = cone.check_solution_vector(v)
    support = [j for j, x in enumerate(vec) if x]
    sub = exact.restrict_columns(cone.rows, support)
    dim = len(support) - exact.rank(sub)
    if dim < 1:
        # v itself restricts to a kernel vector, so this cannot happen.
        raise NotASolution("support-restricted system lost the solution")
    return dim == 1


def is_vertex_by_search(cone: SolutionCone, v, k: int = 3,
                        budget: Budget | None = None) -> bool:
    """Bounded-search cross-check of ``is_vertex``.

    Enumerates all solutions in [0, k v] and checks each is a multiple
    of v.  Exponential; use only on small vectors.
    """
    vec = cone.check_solution_vector(v)
    bounds = tuple(k * x for x in vec)
    for sol in _box_solutions(cone, bounds, budget or Budget()):
        if not any(sol):
            continue
        # sol must be a rational multiple of vec with matching support.
        ratios = {Fraction(s, w) for s, w in zip(sol, vec) if w}
        if len(ratios) != 1 or any(s for s, w in zip(sol, vec) if not w):
            return False
    return True


def _block_rotation_guard(matrix: QMatrix):
    """Check that shifting every block by one tetrahedron permutes the
    matching equations: column c + 3 must be column c with row e_i
    renamed e_(i+1) (e_p to e_1) and rows Eh, Ev left alone.  O(p).

    Raises InternalInvariantError when it does not hold.
    """
    p = matrix.p
    n = 3 * p
    for c, entries in enumerate(matrix.columns):
        shifted = sorted(((r + 1) % p if r < p else r, s)
                         for r, s in entries)
        if shifted != sorted(matrix.columns[(c + 3) % n]):
            raise InternalInvariantError(
                f"quad column {(c + 3) % n} is not column {c} shifted by "
                f"one block for (p,q)=({p},{matrix.q})")


def _necklaces(p, k):
    """The lexicographically least rotation of every k-ary word of
    length p, in lexicographic order (the Fredricksen-Kessler-Maiorana
    algorithm: walk the prenecklaces in order and keep those whose
    Lyndon prefix length divides p)."""
    word = [0] * p
    yield tuple(word)
    while True:
        i = p - 1
        while i >= 0 and word[i] == k - 1:
            i -= 1
        if i < 0:
            return
        word[i] += 1
        for j in range(i + 1, p):
            word[j] = word[j - i - 1]
        if p % (i + 1) == 0:
            yield tuple(word)


def square_fundamental_solutions(matrix: QMatrix,
                                 budget: Budget | None = None):
    """All fundamental solutions of a quad matching system that satisfy
    the square condition, without enumerating the full Hilbert basis.

    The square condition is downward closed: anything below a
    one-type-per-block vector is again one-type-per-block.  A square
    vector is therefore minimal among all solutions exactly when it is
    minimal inside its own pattern subcone (the cone keeping one chosen
    quad column per block and zeroing the rest), and the union of the
    3^p pattern Hilbert bases is precisely the set of square-condition
    fundamental solutions.  Each pattern is a p-variable system, so
    this stays fast long after full enumeration has become infeasible.

    Shifting every block by one tetrahedron maps column c to column
    c + 3 and, as checked exactly up front (InternalInvariantError
    otherwise), renames the rows e_i -> e_(i+1) while fixing Eh and Ev.
    A row permutation keeps every solution set, so the rotation of a
    pattern's Hilbert basis is the Hilbert basis of the rotated
    pattern.  Only one pattern per rotation orbit is solved, and each
    of its basis elements enters the result with all p rotations.
    Returns a tuple in graded lexicographic order.
    """
    budget = budget or Budget()
    _block_rotation_guard(matrix)
    p = matrix.p
    n = 3 * p
    nrows = len(matrix.row_labels)

    found = set()
    for word in _necklaces(p, len(QUAD_TYPES)):
        columns = [3 * i + t for i, t in enumerate(word)]
        rows = [[0] * p for _ in range(nrows)]
        for i, c in enumerate(columns):
            for r, s in matrix.columns[c]:
                rows[r][i] = s
        rays = extreme_rays_of_kernel_cone(rows, p)
        for small in _hilbert_basis(rows, p, rays, budget):
            full = [0] * n
            for c, value in zip(columns, small):
                full[c] = value
            found.update(tuple(full[3 * k:] + full[:3 * k])
                         for k in range(p))
    return tuple(sorted(found, key=graded_lex_key))


def minimal_elements(vectors):
    """The <=-minimal elements of a set of non-negative vectors."""
    ordered = sorted(set(map(tuple, vectors)), key=graded_lex_key)
    kept = []
    for v in ordered:
        if not any(all(x >= y for x, y in zip(v, m)) for m in kept):
            kept.append(v)
    return tuple(kept)


def brute_force_minimal_solutions(tri, a_values, b_values,
                                  budget: Budget | None = None):
    """Independent oracle for small Hilbert bases.

    Sweeps every combination of integer coefficients ``a_values`` and
    grid coefficients ``b_values`` (typically half-integers) over the
    2p-vector solution basis, keeps the integral non-negative non-zero
    results, and filters them down to the minimal elements.  Purely a
    grid sweep plus a definition-level minimality filter, so it shares
    no code path with the completion enumerator it validates.  Feasible
    for p up to about 4.
    """
    budget = budget or Budget()
    p = tri.p
    a_values = sorted(set(int(a) for a in a_values))
    b_values = sorted(set(Fraction(b) for b in b_values))
    if not a_values or not b_values:
        return ()

    # Work in doubled units so everything stays integral.
    doubled_b = []
    for b in b_values:
        twice = 2 * b
        if twice.denominator != 1:
            raise ValueError(f"b grid must consist of half-integers, got {b}")
        doubled_b.append(int(twice))

    grids_a = np.array(
        np.meshgrid(*([a_values] * p), indexing="ij"),
        dtype=np.int64).reshape(p, -1).T
    grids_b = np.array(
        np.meshgrid(*([doubled_b] * p), indexing="ij"),
        dtype=np.int64).reshape(p, -1).T
    budget.check(grids_a.shape[0] * grids_b.shape[0],
                 what="coefficient grid")

    def col(k):  # 0-based column of b_k in the grid, index mod p
        return (k - 1) % p

    # Doubled block tails: 2*(b_{i+1} + b_{i-q}) and 2*(b_i + b_{i-q+1}).
    beta2 = np.empty((grids_b.shape[0], p), dtype=np.int64)
    beta3 = np.empty((grids_b.shape[0], p), dtype=np.int64)
    for i in range(1, p + 1):
        beta2[:, i - 1] = (grids_b[:, col(i + 1)] + grids_b[:, col(i - tri.q)])
        beta3[:, i - 1] = (grids_b[:, col(i)] + grids_b[:, col(i - tri.q + 1)])
    # Integral vectors need both tails even.
    even = ((beta2 % 2 == 0) & (beta3 % 2 == 0)).all(axis=1)
    beta2 = beta2[even] // 2
    beta3 = beta3[even] // 2

    na, nb = grids_a.shape[0], beta2.shape[0]
    if nb == 0:
        return ()
    vectors = np.empty((na, nb, 3 * p), dtype=np.int64)
    vectors[:, :, 0::3] = grids_a[:, None, :]
    vectors[:, :, 1::3] = grids_a[:, None, :] + beta2[None, :, :]
    vectors[:, :, 2::3] = grids_a[:, None, :] + beta3[None, :, :]
    vectors = vectors.reshape(-1, 3 * p)
    budget.check(vectors.shape[0], what="candidate set")
    vectors = vectors[(vectors >= 0).all(axis=1)]
    vectors = vectors[vectors.any(axis=1)]
    vectors = np.unique(vectors, axis=0)
    return minimal_elements(map(tuple, vectors.tolist()))
