"""
Fundamental and vertex solutions of A x = 0 over the non-negative
integers, for any sparse integer system.

``SolutionCone`` is the package's one integer-system class: it holds A
as compressed sparse columns, three read-only int arrays (``col_start``,
``col_rows``, ``col_coefs``, the layout of ``exact``), builds the dense
rows only when they are read, runs the double description on those
arrays for its extreme rays (``rays.extreme_rays``), and ``restrict``
gathers the subsystem on chosen columns.  ``SolutionCone.admit`` is the
one admission of a caller's vector.  The walkers that take one column
at a time, the box search and ``exact.push_column``, read it through
``SolutionCone.column``.  A system may publish ``symmetries``, a group of
column permutations, each of which only permutes its rows, as a table
of one row per element: the quad system ``qsystem.QMatrix`` does, and
a plain SolutionCone, such as a face subcone, does not.  Nothing here
knows the quad blocks.  Every sum over A, in the admission, the
residual and the completion's dot products, is formed in
``exact.value_dtype`` of a bound on it: int64 when that fits, Python
ints otherwise, on the same code path.

The Hilbert basis (the set of minimal non-zero non-negative integer
solutions) is enumerated by the classic completion scheme of Contejean
and Devie: grow candidate vectors breadth first from the zero vector,
extending x by a unit e_j only when the residual A x moves closer to
zero in the direction of column j (formally <A x, A e_j> < 0), and
discard any candidate that already dominates a known minimal solution
or leaves the box spanned by the extreme rays.  A level is extended as
(parent, column) pairs, in chunks with the budget read between them.
Both discards are decided on the pair: the box test reads one entry,
and a value-indexed bitset table over the minimal solutions gives each
parent the AND of its bitsets over all columns but j, so the verdict on
x + e_j costs one more AND.  Only the surviving children are made, once
each, in the lexicographic order of mixed-radix int64 keys over the
box, so the output does not depend on chunk size.  The completion runs
on ``symmetries`` orbits (the identity alone without them): each level
holds one representative per orbit, the least-key image, and every new
solution enters the minimal set with all its images, so the frontier
cap counts representatives.  A unimodular simplicial cone skips the
completion: a lattice certificate on its extreme rays
(``exact.maximal_minor_gcd``) shows they are the basis.

Alongside the enumerator there are direct, definition-level tests, each
admitting its vector once: ``is_vertex`` checks that the rational kernel
restricted to the support is a single ray, and ``is_fundamental``
settles a vertex by the gcd of its entries and runs an exhaustive box
search below any other solution.
"""

from __future__ import annotations

import time
from functools import cached_property
from math import gcd

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
from .rays import extreme_rays

# The largest extreme-ray box entry the completion takes: each column's
# radix must fit one mixed-radix int64 key word on its own, and the
# domination table holds a row per box value.
_SAFE_MAGNITUDE = 2 ** 30

# Frontier rows extended between two budget checks.
_CHUNK_ROWS = 2048

# Above every mixed-radix key word, which stays below 2^62.
_NO_KEY = np.iinfo(np.int64).max


class Budget:
    """Resource limits for the searches of one command.

    ``max_seconds`` caps wall-clock time, counted from the moment the
    Budget is made, so every search handed the same Budget shares one
    deadline.  ``max_frontier`` caps the most states a search holds at
    once: a completion level, its extension set or the rows of its
    domination index, a coefficient grid or candidate set, the
    solutions a box search has collected, the normal disks
    ``surface.classify`` glues.  Either limit may be None; the
    defaults, which the command line shares, are ``MAX_SECONDS`` and
    ``MAX_FRONTIER``.  Exhaustion raises BudgetExceeded; partial
    results are never returned.
    """

    MAX_SECONDS = 60.0
    MAX_FRONTIER = 10 ** 7

    def __init__(self, max_seconds: float | None = MAX_SECONDS,
                 max_frontier: int | None = MAX_FRONTIER):
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
    """An integer system A x = 0 together with its solution cone.

    The system is held only as compressed sparse columns, the read-only
    int arrays ``col_start`` (ncols + 1 offsets), ``col_rows`` and
    ``col_coefs``: column j's non-zero entries lie at
    ``col_start[j]:col_start[j + 1]``.  ``nrows`` and ``ncols`` give
    the shape.  It is made from explicit integer rows, through
    ``exact.sparse_columns`` (``ncols`` is required when there are
    none), or from another SolutionCone, whose arrays it shares; a
    QMatrix is a SolutionCone filled from its triangulation.  The dense
    ``rows`` and the primitive extreme rays, computed in exact
    arithmetic from the arrays, are built on first read and cached.
    ``column(j)`` reads one column as (row, coefficient) pairs, for the
    walkers that take one column at a time.
    """

    def __init__(self, matrix, ncols: int | None = None):
        if isinstance(matrix, SolutionCone):
            self.col_start, self.col_rows, self.col_coefs = (
                matrix.col_start, matrix.col_rows, matrix.col_coefs)
            self.nrows, self.ncols = matrix.nrows, matrix.ncols
            return
        rows = list(matrix)
        self.col_start, self.col_rows, self.col_coefs = (
            exact.sparse_columns(rows, ncols))
        self.nrows, self.ncols = len(rows), len(self.col_start) - 1

    # A group of column permutations, each of which only permutes the
    # rows of A, when A has one (see qsystem.QMatrix): row k lists the
    # columns that element k reads, position by position.
    symmetries = None

    # Names of the rows in error messages, when A has them (see
    # qsystem.QMatrix); row indices otherwise.
    row_labels = None

    def column(self, j):
        """Column j's non-zero ``(row, coefficient)`` pairs, as Python
        ints in stored order (``exact.column_pairs``)."""
        return exact.column_pairs(self.col_start, self.col_rows,
                                  self.col_coefs, j)

    @property
    def col_index(self):
        """The column of every stored entry, aligned with ``col_rows``
        and ``col_coefs``."""
        return np.repeat(np.arange(self.ncols), np.diff(self.col_start))

    @cached_property
    def rows(self):
        """The dense rows, as plain integer tuples."""
        dense = np.zeros((self.nrows, self.ncols), dtype=self.col_coefs.dtype)
        dense[self.col_rows, self.col_index] = self.col_coefs
        return tuple(map(tuple, dense.tolist()))

    @cached_property
    def extreme_rays(self):
        """The primitive extreme rays of {x >= 0 : A x = 0}, in graded
        lexicographic order (``find_extreme_rays``)."""
        return self.find_extreme_rays()

    def find_extreme_rays(self, budget=None):
        """The double description of the column arrays
        (``rays.extreme_rays``), reading ``budget`` if one is given,
        with the rays made dense and sorted as ``extreme_rays`` holds
        them."""
        rays = extreme_rays(self, budget)
        return tuple(sorted(
            (tuple(ray.get(j, 0) for j in range(self.ncols)) for ray in rays),
            key=graded_lex_key))

    def restrict(self, columns):
        """The system on the given columns only, in the given order,
        with every row kept: the cone of the solutions that vanish off
        those columns.  The arrays are gathered, not shared."""
        length, take = self.column_entries(columns)
        start = np.zeros(len(length) + 1, dtype=np.int64)
        np.cumsum(length, out=start[1:])
        sub = SolutionCone(self)
        sub.col_start, sub.col_rows, sub.col_coefs = (
            start, self.col_rows[take], self.col_coefs[take])
        for array in (sub.col_start, sub.col_rows, sub.col_coefs):
            array.flags.writeable = False
        sub.ncols = len(length)
        return sub

    def column_entries(self, columns):
        """Each given column's entry count, and the positions in
        ``col_rows`` and ``col_coefs`` of their entries, column after
        column in the given order."""
        columns = np.asarray(columns, dtype=np.intp)
        length = np.diff(self.col_start)[columns]
        # Entry k of the c-th given column sits k past that column's
        # start; the c-th run begins at the sum of the lengths before.
        before = np.cumsum(length) - length
        take = (np.repeat(self.col_start[columns] - before, length)
                + np.arange(length.sum()))
        return length, take

    @cached_property
    def _weight(self):
        """The sum of the coefficients' magnitudes: no entry of A x
        exceeds it times the largest magnitude in x, the bound of the
        value dtype rule (``exact.value_array``), by which it is summed
        too, as an int64 sum can wrap."""
        magnitudes = np.abs(self.col_coefs)
        return int(exact.value_array(magnitudes, len(magnitudes)).sum())

    def _residual(self, x):
        """A x as an array, for the value array ``x``
        (``exact.value_array`` with weight ``_weight``)."""
        out = np.zeros(self.nrows, dtype=np.result_type(x, self.col_coefs))
        np.add.at(out, self.col_rows, self.col_coefs * x[self.col_index])
        return out

    def _values(self, v):
        """The vector ``v`` as a value array for ``_residual``; a wrong
        length raises DimensionMismatch."""
        if len(v) != self.ncols:
            raise DimensionMismatch(
                f"vector length {len(v)} != {self.ncols} columns")
        return exact.value_array(v, self._weight)

    def residual(self, v):
        """A v, as a tuple with one entry per row."""
        return tuple(self._residual(self._values(v)).tolist())

    def is_solution(self, v) -> bool:
        return not self._residual(self._values(v)).any()

    def admit(self, v):
        """Validate a candidate: integral (NotASolution), of length
        ``ncols`` (DimensionMismatch), non-negative (NegativeEntry),
        non-zero (EmptyVector) and a solution of A v = 0 (NotASolution).
        The messages name the first negative position or the first row
        left non-zero (its ``row_labels`` entry when A has them), never
        the whole vector.  Returns the tuple form and the value array it
        was checked in (``exact.value_array``).  One Python pass makes
        the entries ints; the sign, zero and residual checks are array
        passes."""
        values = tuple(v)
        vec = tuple(map(int, values))
        if vec != values:
            raise NotASolution("vector must be integral")
        x = self._values(vec)
        negative = np.flatnonzero(x < 0)
        if negative.size:
            i = int(negative[0])
            raise NegativeEntry(
                f"vector has a negative entry: position {i} is {vec[i]}")
        if not x.any():
            raise EmptyVector("the zero vector is excluded by definition")
        residual = self._residual(x)
        wrong = np.flatnonzero(residual)
        if wrong.size:
            r = int(wrong[0])
            name = r if self.row_labels is None else self.row_labels[r]
            raise NotASolution(f"A . v != 0: row {name} is {residual[r]}")
        return vec, x


def graded_lex_key(v):
    """Sort key: total degree first, then lexicographic."""
    return (sum(v), tuple(v))


class _DominationIndex:
    """Which vectors dominate (>=) some row of ``minimal``.

    ``table[j, v]`` is the bitset (uint64 words) of the minimal rows m
    with m_j <= v, for v up to ``cap``, the largest minimal entry; every
    larger value reads ``table[j, cap]``, which holds all the rows.  x
    dominates some minimal row iff the AND of ``table[j, x_j]`` over all
    j is non-zero: n word-ANDs per vector instead of n * M compares.
    The table's n * (cap + 1) rows are charged to the budget.
    """

    def __init__(self, minimal: np.ndarray, budget: Budget):
        m, n = minimal.shape
        self.cap = int(minimal.max(initial=0))
        budget.check(n * (self.cap + 1), what="domination index")
        rows = np.arange(m)
        bits = np.zeros((m, max(1, -(-m // 64))), dtype=np.uint64)
        bits[rows, rows // 64] = np.uint64(1) << (rows % 64).astype(np.uint64)
        table = np.zeros((n, self.cap + 1, bits.shape[1]), dtype=np.uint64)
        np.bitwise_or.at(table, (np.arange(n), minimal), bits[:, None])
        np.bitwise_or.accumulate(table, axis=1, out=table)
        # Flat: the bitset of column j at value v is row j * (cap+1) + v.
        self.table = table.reshape(-1, bits.shape[1])
        self.offsets = np.arange(n) * (self.cap + 1)

    def _bitsets(self, vectors: np.ndarray) -> np.ndarray:
        """``table[j, x_j]`` at [j, row of x], for every row x and
        column j."""
        at = self.offsets[:, None] + np.minimum(vectors.T, self.cap)
        return self.table.take(at, axis=0)

    def dominates(self, vectors: np.ndarray) -> np.ndarray:
        hit = np.bitwise_and.reduce(self._bitsets(vectors), axis=0)
        return hit.any(axis=1)

    def child_dominates(self, parents: np.ndarray, rows: np.ndarray,
                        cols: np.ndarray) -> np.ndarray:
        """Whether the child ``parents[rows[k]] + e_cols[k]`` dominates,
        for each k, without making the children.

        Prefix and suffix ANDs give each parent the AND over all
        columns but j, for every j (2n word-ANDs per parent); a child
        then ANDs in ``table[j, x_j + 1]`` (one per child).
        """
        bitsets = self._bitsets(parents)
        n, count, words = bitsets.shape
        # before[j] is the AND over the columns below j, after[j] over
        # the columns from j on; both are all ones when empty.
        before = np.empty((n + 1, count, words), dtype=np.uint64)
        after = np.empty_like(before)
        before[0] = after[n] = ~np.uint64(0)
        for k in range(n):
            np.bitwise_and(before[k], bitsets[k], out=before[k + 1])
            np.bitwise_and(after[n - k], bitsets[n - 1 - k],
                           out=after[n - 1 - k])
        pair = cols * count + rows
        hit = (before.reshape(-1, words).take(pair, axis=0)
               & after.reshape(-1, words).take(pair + count, axis=0))
        moved = np.minimum(parents[rows, cols] + 1, self.cap)
        hit &= self.table.take(self.offsets[cols] + moved, axis=0)
        return hit.any(axis=1)


def _radix_strides(bound) -> np.ndarray:
    """Weights that pack a row of the box [0, bound] into int64 keys,
    ``keys = x @ strides.T``.  The columns fall into runs whose product
    of (bound_j + 1) stays below 2^62, each run one mixed-radix number
    with its first column most significant, so the keys of two rows
    compare as the rows do lexicographically."""
    strides = []
    weight = 1 << 62
    for j in reversed(range(len(bound))):
        radix = int(bound[j]) + 1
        if weight * radix >= 1 << 62:
            strides.append([0] * len(bound))
            weight = 1
        strides[-1][j] = weight
        weight *= radix
    return np.array(strides[::-1], dtype=np.int64)


def _distinct_sorted(keys: np.ndarray) -> np.ndarray:
    """Indices of one row per distinct row of ``keys``, in lexicographic
    order of the rows."""
    order = np.lexsort(keys.T[::-1])
    keys = keys[order]
    first = np.ones(order.size, dtype=bool)
    first[1:] = (keys[1:] != keys[:-1]).any(axis=1)
    return order[first]


def _dense(cone: SolutionCone, largest: int = 1):
    """A and A^T A, A filled from the column arrays in one scatter, in
    ``exact.value_dtype`` of W^2 ``largest``, W = ``cone._weight``: an
    entry of A^T A is at most W^2, so <A x, A e_j> and the entries of
    A x are at most W^2 max(x) for x in the box [0, ``largest``].

    A^T A is the sum of a a^T over the rows a of A, each term made on
    the row's support alone, O(support^2) per row instead of the O(n^3)
    product.
    """
    n = cone.ncols
    dtype = exact.value_dtype(cone._weight ** 2 * largest)
    A = np.zeros((cone.nrows, n), dtype=dtype)
    A[cone.col_rows, cone.col_index] = cone.col_coefs
    gram = np.zeros((n, n), dtype=dtype)
    for row in A:
        support = np.flatnonzero(row)
        gram[np.ix_(support, support)] += np.outer(row[support],
                                                   row[support])
    return A, gram


class _Orbits:
    """The symmetries the completion applies to its candidates.

    They are the cone's ``symmetries`` R_k, (R_k x)_c = x_(turns[k, c]),
    a group of column permutations; a cone without them has the
    identity, the 1 x n table ``turns``, and takes the same steps, only
    ``least`` and ``rotate`` skip their gathers there.  The extreme-ray
    box ``bound`` is checked to be invariant under every R_k, and every
    product R_k R_t to be a row of ``turns`` (InternalInvariantError
    otherwise).  Each candidate carries its mixed-radix keys over the
    box under every R_k, one run of ``width`` words per k, and
    ``step[j]`` is what the unit e_j adds to them.
    """

    def __init__(self, cone: SolutionCone, bound: np.ndarray):
        n = cone.ncols
        strides = _radix_strides(bound)
        self.width = strides.shape[0]
        self.turns = cone.symmetries
        if self.turns is None:
            self.turns = np.arange(n)[None]
        self.order = len(self.turns)
        if (bound[self.turns] != bound).any():
            raise InternalInvariantError(
                f"the extreme-ray box of {cone!r} is not invariant under "
                f"its symmetries")
        # Under R_k the unit e_j lands on column back[k, j], as R_k's
        # inverse reads it.
        back = np.argsort(self.turns, axis=1)
        self.step = strides.T[back].transpose(1, 0, 2).reshape(n, -1)
        # R_k R_t x reads x at turns[t, turns[k]], the row m of turns
        # that holds it: run k of the keys of R_t x is run m of the keys
        # of x, so runs[t] lists the key columns R_t reads.
        index = {turn.tobytes(): m for m, turn in enumerate(self.turns)}
        try:
            products = [[index[t[k].tobytes()] for k in self.turns]
                        for t in self.turns]
        except KeyError:
            raise InternalInvariantError(
                f"the symmetries of {cone!r} are not closed under "
                f"products") from None
        runs = np.arange(self.order * self.width).reshape(self.order, -1)
        self.runs = runs[products].reshape(self.order, -1)

    def least(self, keys: np.ndarray):
        """Per row of ``keys``, the symmetry with the lexicographically
        least key (the first of them on a tie), and that key."""
        if self.order == 1:
            # The identity: the keys themselves, and a read-only view of
            # zero turns that holds no memory per row.
            return np.broadcast_to(np.intp(0), keys.shape[:1]), keys
        runs = keys.reshape(keys.shape[0], self.order, self.width)
        tied = np.ones(runs.shape[:2], dtype=bool)
        for w in range(self.width):
            word = np.where(tied, runs[:, :, w], _NO_KEY)
            tied &= word == word.min(axis=1, keepdims=True)
        turn = tied.argmax(axis=1)
        return turn, runs[np.arange(turn.size), turn]

    def rotate(self, turn, pick, frontier, dots, keys):
        """Row i of each array moved by R_t, t = turn[pick[i]]: the
        rows and dots read their columns at ``turns[t]`` (A^T A commutes
        with every R_t), and the key runs at ``runs[t]``."""
        if self.order == 1:
            # The identity moves nothing, and the gather would copy the
            # widest level's rows, dots and keys once more.
            return frontier, dots, keys
        turn = turn[pick]
        i = np.arange(turn.size)[:, None]
        at = self.turns[turn]
        return frontier[i, at], dots[i, at], keys[i, self.runs[turn]]

    def all_images(self, rows, keys):
        """Every distinct image of the given rows."""
        pick = _distinct_sorted(keys.reshape(-1, self.width))
        row, turn = np.divmod(pick, self.order)
        return rows[row[:, None], self.turns[turn]]


def hilbert_basis(cone: SolutionCone, budget: Budget | None = None):
    """All minimal non-zero non-negative integer solutions of A x = 0.

    Completion from the zero vector, whose children, the unit vectors,
    are the first level: a candidate x grows by e_j only when
    <A x, A e_j> < 0, which preserves reachability of every minimal
    solution.  Two sound prunings keep the frontier finite and small:
    candidates dominating an already-found minimal solution die
    (the primitive extreme rays are themselves minimal and are seeded
    up front), and candidates escaping the entrywise sum of the extreme
    rays die, because every minimal solution is a sub-one combination
    of the rays and therefore lies inside that box.  Both act on
    (parent, column) pairs, so only surviving children are made (see
    the module docstring).

    The completion runs on the orbits of the cone's ``symmetries``
    (``_Orbits``): the identity, a group of order 1, on a cone without
    them, and the 2p block rotations and reflections on a QMatrix, whose
    first read of them checks that they permute the rows.  The
    extreme-ray box is checked to be invariant under them
    (InternalInvariantError otherwise).  They then keep A^T A, the box
    and the minimal set, so every level is a union of orbits and holds
    one representative of each: its image with the least key.  A
    child's keys under all symmetries are its parent's plus one row of
    the permuted strides, which finds the representative before the
    child is made.  Each new solution enters the minimal set with all
    its distinct images.  The frontier cap counts orbits.

    The budget is read before any set-up, the extreme rays, unless
    already cached, come from a double description that reads it too,
    and A and A^T A are built from the column arrays (``_dense``).  A
    unimodular simplicial cone needs no completion: when the k extreme
    rays are linearly independent and the gcd of their k x k minors is
    1 (``exact.maximal_minor_gcd``), they span every lattice point of
    their span, so they are the Hilbert basis.  A single primitive ray
    is the case k = 1.  A cone with more rays than columns is not
    simplicial and goes straight to the completion.

    Returns a tuple sorted in graded lexicographic order.  Raises
    BudgetExceeded rather than truncating.
    """
    budget = budget or Budget()
    budget.check()
    if "extreme_rays" not in vars(cone):
        # Not cached yet: the double description reads the budget too.
        cone.extreme_rays = cone.find_extreme_rays(budget)
    rays = cone.extreme_rays
    if len(rays) <= cone.ncols and exact.maximal_minor_gcd(rays) == 1:
        # The rays are independent and a basis of the lattice points of
        # their span, so every solution, a non-negative real combination
        # of them, is a non-negative integer one.
        return tuple(rays)
    bound = [sum(column) for column in zip(*rays)]
    if max(bound) > _SAFE_MAGNITUDE:
        raise BudgetExceeded("extreme-ray box exceeds the safe integer "
                             "range")
    bound = np.array(bound, dtype=np.int64)
    orbits = _Orbits(cone, bound)
    A, gram = _dense(cone, int(bound.max()))
    minimal = np.array(rays, dtype=np.int64)
    index = _DominationIndex(minimal, budget)
    # Per frontier row x: its keys under every symmetry, and dots[x, j]
    # = <A x, A e_j>; the child x + e_j adds row j of the permuted
    # strides and of A^T A to them.  The first level's one parent is
    # zero, and its pairs are the (0, j) inside the box that dominate no
    # ray.
    frontier = np.zeros((1, cone.ncols), dtype=np.int64)
    dots = np.zeros((1, cone.ncols), dtype=gram.dtype)
    keys = np.zeros((1, orbits.order * orbits.width), dtype=np.int64)
    columns = np.flatnonzero(bound)
    parents = np.zeros(columns.size, dtype=np.intp)
    alive = ~index.child_dominates(frontier, parents, columns)
    parents, columns = parents[alive], columns[alive]

    while parents.size:
        # Make each distinct child once, in the lexicographic order of
        # its orbit representative.
        keys = keys[parents] + orbits.step[columns]
        turn, least = orbits.least(keys)
        pick = _distinct_sorted(least)
        budget.check(pick.size)  # the next level, before it is made
        parents, columns, keys = parents[pick], columns[pick], keys[pick]
        dots = dots[parents] + gram[columns]
        frontier = frontier[parents]
        frontier[np.arange(pick.size), columns] += 1
        frontier, dots, keys = orbits.rotate(turn, pick, frontier, dots,
                                             keys)
        # A^T A x = 0 exactly when A x = 0, as then |A x|^2 = 0.
        sol_mask = (dots == 0).all(axis=1)
        if sol_mask.any():
            # Every frontier row has passed the domination filter against
            # the seeded rays and all solutions of lower degree, and the
            # rows of one level are distinct, so each solution is
            # minimal; so is each of its images.
            solutions = orbits.all_images(frontier[sol_mask],
                                          keys[sol_mask])
            if (solutions @ A.T).any() or index.dominates(solutions).any():
                raise InternalInvariantError(
                    "a new solution is not a minimal solution of A x = 0")
            minimal = np.concatenate([minimal, solutions])
            index = _DominationIndex(minimal, budget)
        # The pairs (x, j) with <A x, A e_j> < 0 (a solution has none),
        # a chunk of parents at a time so that the deadline is read
        # often.  Only x_j moves, so the box test reads x_j alone; the
        # domination test needs no child either.
        none = np.zeros(0, dtype=np.intp)
        parents, columns = [none], [none]
        extended = 0
        for lo in range(0, frontier.shape[0], _CHUNK_ROWS):
            chunk = frontier[lo: lo + _CHUNK_ROWS]
            i, j = np.nonzero(dots[lo: lo + _CHUNK_ROWS] < 0)
            extended += i.size
            budget.check(extended, what="extension set")
            inside = chunk[i, j] < bound[j]
            i, j = i[inside], j[inside]
            alive = ~index.child_dominates(chunk, i, j)
            parents.append(lo + i[alive])
            columns.append(j[alive])
        parents = np.concatenate(parents)
        columns = np.concatenate(columns)

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
    lo, hi = [0] * cone.nrows, [0] * cone.nrows
    reach = []
    for j in reversed(support):
        column = cone.column(j)
        reach.append([(r, c, lo[r], hi[r]) for r, c in column])
        for r, c in column:
            if c < 0:
                lo[r] += c * bounds[j]
            else:
                hi[r] += c * bounds[j]
    reach.reverse()

    residual = [0] * cone.nrows

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

    ``v`` is admitted once (``SolutionCone.admit``).  A vertex is
    settled by the gcd of its entries.  Otherwise the box below v
    restricted to the support of v is searched, pruning with the linear
    equations: exact but exponential in the support size, meant for the
    small explicit vectors this package handles.
    """
    vec, _ = cone.admit(v)
    if _support_kernel_dimension(cone, vec) == 1:
        # The solutions on the support of a vertex are the multiples of
        # one primitive ray, so v is minimal exactly when it is that ray.
        return gcd(*vec) == 1
    # The box below v always contains the solutions 0 and v itself; any
    # third one is a witness of non-minimality.
    return len(_box_solutions(cone, vec, budget or Budget(),
                              stop_after=3)) <= 2


def is_vertex(cone: SolutionCone, v) -> bool:
    """True iff v spans an extreme ray of the solution cone.

    Equivalent to the definition "every solution below every multiple
    of v is itself a multiple": the rational kernel of A restricted to
    the support of v must be one-dimensional.  ``v`` is admitted by
    ``SolutionCone.admit``.
    """
    return _support_kernel_dimension(cone, cone.admit(v)[0]) == 1


def _support_kernel_dimension(cone: SolutionCone, vec) -> int:
    """The dimension of the rational kernel of A restricted to the
    support of the admitted solution ``vec``, from pushing the
    support's columns (``exact.push_column``)."""
    support = [j for j, x in enumerate(vec) if x]
    pivots = []
    for j in support:
        exact.push_column(pivots, cone.column(j))
    dim = len(support) - len(pivots)
    if dim < 1:
        # vec itself restricts to a kernel vector, so this cannot happen.
        raise InternalInvariantError(
            "support-restricted system lost the solution")
    return dim
