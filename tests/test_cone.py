"""
Tests for fundamental/vertex solution machinery, and the reference
oracles they compare against (``brute_force_minimal_solutions``,
``minimal_elements``, ``is_vertex_by_search``), which the acceptance
suite also imports: the completion enumerator on infeasible and
0-column cones, against the grid oracle and against a box search, its
orbits under the dihedral group and the core exchange, and under each
face's stabilizer, against the unreduced completion, and their symmetry
checks, its domination index, child verdicts, key deduplication and
sparse dense set-up against plain numpy references, its memory peaks
and its independence of the chunk size, the box-search minimality test
and its vertex shortcut, the support-rank vertex test against bounded
search and against the exact extreme rays, the maximal-face search
against the plain 3^p pattern loop and against the necklace walk
(``necklace_oracle``), its square rays, faces, one solve per orbit
and budget reads, the oracle's necklace and bracelet
representatives, the symmetry tables and their guards, the lattice
certificate for unimodular cones against a box search, and
budget/determinism behaviour.
"""

import itertools
import math
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lensq import cli
from lensq import cone as cone_module
from lensq import exact
from lensq import qsystem as qsystem_module
from lensq import rays as rays_module
from lensq.catalog import alternating_vector
from lensq.cone import (
    Budget,
    SolutionCone,
    _box_solutions,
    _dense,
    _distinct_sorted,
    _DominationIndex,
    _radix_strides,
    _support_kernel_dimension,
    graded_lex_key,
    hilbert_basis,
    is_fundamental,
    is_vertex,
)
from lensq.errors import (
    BudgetExceeded,
    EmptyVector,
    InternalInvariantError,
    NegativeEntry,
    NotASolution,
)
from lensq.qsystem import (
    _maximal_faces,
    _square_rays,
    _symmetry_guard,
    basis_vectors,
    q_matrix,
    square_condition,
    square_fundamental_solutions,
)
from lensq.rays import extreme_rays
from lensq.triangulation import QUAD_TYPES, build_triangulation
from necklace_oracle import (
    block_reflection,
    block_rotation,
    core_exchange,
    least_rotation,
    necklace_kernels,
    necklace_square_fundamentals,
    prenecklaces,
)


def coprime_pairs(max_p):
    return [(p, q) for p in range(2, max_p + 1) for q in range(1, p)
            if math.gcd(p, q) == 1]


B_GRID = [Fraction(k, 2) for k in range(-4, 5)]

PROPERTY_SETTINGS = settings(max_examples=150, deadline=None,
                             derandomize=True, database=None)

UNLIMITED = dict(max_seconds=None, max_frontier=None)

TWO_ONE_BASIS = (
    (0, 0, 1, 0, 1, 0),
    (0, 1, 0, 0, 0, 1),
    (1, 0, 0, 1, 0, 0),
    (0, 0, 0, 1, 1, 1),
    (1, 1, 1, 0, 0, 0),
)


# ------------------------------------------------------ reference oracles

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

    s_vecs, t_vecs = np.array(basis_vectors(tri), dtype=np.int64)
    # The doubled b-parts 2 sum(b_k t_k) of integral vectors are even.
    tails = grids_b @ t_vecs
    tails = tails[(tails % 2 == 0).all(axis=1)] // 2
    if not tails.shape[0]:
        return ()
    budget.check(grids_a.shape[0] * tails.shape[0], what="candidate set")
    vectors = ((grids_a @ s_vecs)[:, None] + tails[None]).reshape(-1, 3 * p)
    vectors = vectors[(vectors >= 0).all(axis=1)]
    vectors = vectors[vectors.any(axis=1)]
    vectors = np.unique(vectors, axis=0)
    return minimal_elements(map(tuple, vectors.tolist()))


def is_vertex_by_search(cone: SolutionCone, v, k: int = 3,
                        budget: Budget | None = None) -> bool:
    """Bounded-search cross-check of ``is_vertex``.

    Enumerates all solutions in [0, k v] and checks each is a multiple
    of v.  Exponential; use only on small vectors.
    """
    vec = cone.admit(v)[0]
    bounds = tuple(k * x for x in vec)
    for sol in _box_solutions(cone, bounds, budget or Budget()):
        if not any(sol):
            continue
        # sol must be a rational multiple of vec with matching support.
        ratios = {Fraction(s, w) for s, w in zip(sol, vec) if w}
        if len(ratios) != 1 or any(s for s, w in zip(sol, vec) if not w):
            return False
    return True


# -------------------------------------------------------------- enumerator

def test_free_orthant():
    assert hilbert_basis(SolutionCone([], ncols=2)) == ((0, 1), (1, 0))


def test_single_difference_equation():
    assert hilbert_basis(SolutionCone([(1, -1)])) == ((1, 1),)


def test_infeasible_cone_is_empty():
    assert hilbert_basis(SolutionCone([(1, 1)])) == ()
    # No columns: no rays, and the empty certificate's gcd is 1.
    assert hilbert_basis(SolutionCone([], ncols=0)) == ()
    assert hilbert_basis(SolutionCone([()])) == ()


def test_two_one_hilbert_basis_literal():
    cone = SolutionCone(q_matrix(build_triangulation(2, 1)))
    assert hilbert_basis(cone) == TWO_ONE_BASIS


@pytest.mark.parametrize("p,q", coprime_pairs(3))
def test_oracle_equivalence_small(p, q):
    tri = build_triangulation(p, q)
    cone = SolutionCone(q_matrix(tri))
    assert hilbert_basis(cone) == brute_force_minimal_solutions(
        tri, range(0, 5), B_GRID)


def test_oracle_empty_ranges():
    tri = build_triangulation(2, 1)
    assert brute_force_minimal_solutions(tri, [], B_GRID) == ()
    assert brute_force_minimal_solutions(tri, range(3), []) == ()


@pytest.fixture(scope="module")
def raw_five_two():
    cone = SolutionCone(q_matrix(build_triangulation(5, 2)))
    return cone, hilbert_basis(cone, Budget(max_seconds=300))


@pytest.mark.parametrize("p,q", coprime_pairs(4))
def test_hilbert_members_are_solutions_and_incomparable(p, q):
    cone = SolutionCone(q_matrix(build_triangulation(p, q)))
    basis = hilbert_basis(cone, Budget(max_seconds=120))
    for v in basis:
        assert cone.is_solution(v)
        assert all(x >= 0 for x in v) and any(v)
    for v in basis:
        for w in basis:
            if v != w:
                assert not all(x <= y for x, y in zip(v, w))


def test_five_two_members_are_solutions_and_incomparable(raw_five_two):
    cone, basis = raw_five_two
    assert len(basis) == 161
    for v in basis:
        assert cone.is_solution(v)
    for v in basis:
        for w in basis:
            if v != w:
                assert not all(x <= y for x, y in zip(v, w))


def test_enumeration_is_deterministic():
    cone1 = SolutionCone(q_matrix(build_triangulation(4, 1)))
    cone2 = SolutionCone(q_matrix(build_triangulation(4, 1)))
    assert hilbert_basis(cone1) == hilbert_basis(cone2)


def test_box_past_the_safe_integer_range_raises():
    # The rays (0, 2^31, 1) and (2^31, 0, 1) are not unimodular, so the
    # completion is set up and its box checked.
    with pytest.raises(BudgetExceeded, match="^extreme-ray box exceeds "
                       "the safe integer range$"):
        hilbert_basis(SolutionCone([[1, 1, -2 ** 31]]))


def test_budget_exhaustion_raises():
    cone = SolutionCone(q_matrix(build_triangulation(6, 1)))
    with pytest.raises(BudgetExceeded):
        hilbert_basis(cone, Budget(max_seconds=0.001))
    with pytest.raises(BudgetExceeded):
        hilbert_basis(cone, Budget(max_frontier=3))


def completion_peak(cone):
    """The tracemalloc peak of ``hilbert_basis`` on ``cone``, its
    extreme rays and symmetries read beforehand."""
    cone.extreme_rays
    cone.symmetries
    tracemalloc.start()
    try:
        hilbert_basis(cone, Budget(**UNLIMITED))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_five_two_completion_memory_peak():
    # The widest level sets the peak: its rows, one byte per entry, and
    # its surviving children, each a parent, a column and a key; the
    # dot products and keys of a row are made per chunk.  It stays near
    # 2 MiB (6.2 MiB when a level carried its int64 dots and keys).
    cone = SolutionCone(q_matrix(build_triangulation(5, 2)))
    assert completion_peak(cone) < 4 * 2 ** 20


def test_five_one_raw_completion_memory_peak():
    # The raw (5,1) basis on the dihedral orbits peaks near 1.2 MiB; a
    # level that carried int64 rows, dots and keys under all ten
    # symmetries, and made every child's keys at once, peaked at 9.4 MiB.
    assert completion_peak(q_matrix(build_triangulation(5, 1))) < 5 * 2 ** 20


def test_dense_set_up_holds_two_square_arrays():
    # A^T A, 33.6 MiB at n = 2100, beside the 11.3 MiB of A and one
    # row's term: the Eh and Ev rows meet 2p = 1400 columns, so their
    # a a^T and the block of A^T A it is added to take 2 x 15 MiB.  A
    # second n x n array would pass 105 MiB.
    cone = SolutionCone(q_matrix(build_triangulation(700, 3)))
    tracemalloc.start()
    try:
        _dense(cone)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 90 * 2 ** 20


def test_budget_deadline_is_kept_inside_a_level():
    # The (6,1) raw basis runs far past 2 s, and its late levels extend
    # hundreds of thousands of rows; the clock is read between chunks.
    cone = SolutionCone(q_matrix(build_triangulation(6, 1)))
    start = time.monotonic()
    with pytest.raises(BudgetExceeded):
        hilbert_basis(cone, Budget(max_seconds=2))
    assert time.monotonic() - start < 2 + 1.5


def test_budget_is_read_before_the_set_up():
    cone = q_matrix(build_triangulation(5, 2))
    budget = Budget(max_seconds=0)
    time.sleep(0.01)
    with pytest.raises(BudgetExceeded):
        hilbert_basis(cone, budget)
    assert "extreme_rays" not in vars(cone)


def test_budget_is_read_inside_the_double_description():
    # The raw (11,3) cone's rays take about a minute to enumerate; the
    # double description reads the deadline at every row and every
    # chunk of pairs.
    cone = q_matrix(build_triangulation(11, 3))
    start = time.monotonic()
    with pytest.raises(BudgetExceeded):
        hilbert_basis(cone, Budget(max_seconds=0.5))
    assert time.monotonic() - start < 0.5 + 1
    assert "extreme_rays" not in vars(cone)


def test_single_ray_cone_is_its_primitive_ray():
    cone = SolutionCone([(2, -1, 0), (0, 1, -2)])
    assert cone.extreme_rays == ((1, 2, 1),)
    assert hilbert_basis(cone) == ((1, 2, 1),)


def test_certificate_refuses_a_cone_of_lattice_index_two():
    # The rays (0,2,1) and (2,0,1) are independent, but their 2 x 2
    # minors 4, 2, -2 share the factor 2: (1,1,1) lies between them.
    cone = SolutionCone([[1, 1, -2]])
    assert cone.extreme_rays == ((0, 2, 1), (2, 0, 1))
    assert exact.maximal_minor_gcd(cone.extreme_rays) == 2
    assert hilbert_basis(cone) == ((0, 2, 1), (1, 1, 1), (2, 0, 1))


def test_certificate_settles_a_unimodular_cone_without_completion(
        monkeypatch):
    cone = SolutionCone([[1, 1, -1]])
    assert cone.extreme_rays == ((0, 1, 1), (1, 0, 1))
    monkeypatch.setattr(cone_module, "_dense", None)  # no completion
    assert hilbert_basis(cone) == ((0, 1, 1), (1, 0, 1))


def box_oracle(cone):
    """Definition-level Hilbert basis: the minimal non-zero solutions
    in the box spanned by the extreme rays."""
    box = [sum(ray[j] for ray in cone.extreme_rays)
           for j in range(cone.ncols)]
    return minimal_elements(
        s for s in _box_solutions(cone, box, Budget(**UNLIMITED)) if any(s))


@pytest.mark.parametrize("p,q", coprime_pairs(7))
def test_certified_pattern_bases_match_the_box_search(p, q):
    # Every necklace pattern with a non-zero kernel whose rays pass the
    # certificate: the rays must be the whole box-search basis.
    matrix = q_matrix(build_triangulation(p, q))
    certified = 0
    for columns, kernel in necklace_kernels(matrix):
        pattern = matrix.restrict(columns)
        rays = pattern.extreme_rays
        if (kernel and len(rays) <= p
                and exact.maximal_minor_gcd(rays) == 1):
            certified += 1
            assert hilbert_basis(pattern) == rays == box_oracle(pattern)
    assert certified


# ----------------------------------------------------- orbit completion

@pytest.mark.parametrize("p,q", coprime_pairs(5))
def test_orbit_completion_matches_the_unreduced_completion(p, q):
    # A plain SolutionCone has the identity alone, so it completes every
    # image of every candidate: the oracle for the QMatrix's orbits,
    # which at (5,2) and (5,3) include the core exchange's.
    matrix = q_matrix(build_triangulation(p, q))
    exchange = (p, q) in ((5, 2), (5, 3))
    assert len(matrix.symmetries) == (4 if exchange else 2) * p
    budget = Budget(max_seconds=300)
    assert hilbert_basis(matrix, budget) == hilbert_basis(
        SolutionCone(matrix), budget)


@pytest.mark.parametrize("p,q", [(10, 3), (12, 5)])
def test_face_completion_on_its_stabilizer_is_the_identity_completion(
        monkeypatch, p, q):
    # Each solved face carries its stabilizer; a copy of the face with
    # its rays and no symmetries completes every image of every
    # candidate, the oracle for the face's orbits.
    faces = []
    solve = qsystem_module.hilbert_basis

    def recorded(cone, budget):
        faces.append((cone, solve(cone, budget)))
        return faces[-1][1]

    monkeypatch.setattr(qsystem_module, "hilbert_basis", recorded)
    square_fundamental_solutions(q_matrix(build_triangulation(p, q)))
    assert len(faces) == 3
    orders = []
    for face, basis in faces:
        plain = SolutionCone(face)
        assert plain.symmetries is None
        plain.extreme_rays = face.extreme_rays
        assert hilbert_basis(plain) == basis
        orders.append(len(face.symmetries))
        # The stabilizer fixes the face's rays as a set.
        rays = set(face.extreme_rays)
        assert all({tuple(np.array(r)[turn]) for r in rays} == rays
                   for turn in face.symmetries)
    assert orders == {(10, 3): [40, 8, 20], (12, 5): [48, 16, 24]}[p, q]


def test_orbit_completion_obeys_the_budget():
    matrix = q_matrix(build_triangulation(6, 1))
    start = time.monotonic()
    with pytest.raises(BudgetExceeded):
        hilbert_basis(matrix, Budget(max_seconds=2))
    assert time.monotonic() - start < 3.5
    with pytest.raises(BudgetExceeded):
        hilbert_basis(matrix, Budget(max_frontier=3))


def tamper_first_entry(matrix, c, tamper):
    """Replace the column arrays of ``matrix`` by copies in which
    ``tamper(rows, coefs, entries)`` has changed the first entry of
    column c, whose entries are the slice ``entries`` of both."""
    rows, coefs = matrix.col_rows.copy(), matrix.col_coefs.copy()
    lo, hi = matrix.col_start[c:c + 2].tolist()
    tamper(rows, coefs, slice(lo, hi))
    matrix.col_rows, matrix.col_coefs = rows, coefs


def double_coefficient(rows, coefs, entries):
    coefs[entries.start] *= 2


def test_orbit_completion_checks_the_block_shift():
    matrix = q_matrix(build_triangulation(5, 2))
    tamper_first_entry(matrix, 4, double_coefficient)
    with pytest.raises(InternalInvariantError):
        hilbert_basis(matrix)


def test_orbit_completion_checks_the_box():
    matrix = q_matrix(build_triangulation(5, 2))
    rays = matrix.extreme_rays
    lopsided = next(r for r in rays if r[3:] + r[:3] != r)
    matrix.extreme_rays = tuple(r for r in rays if r != lopsided)
    with pytest.raises(InternalInvariantError):
        hilbert_basis(matrix)


def dihedral_only(matrix):
    """``matrix`` with its group cut to the 2p dihedral rows, a
    subgroup, so that the completion runs on dihedral orbits."""
    matrix.symmetries = matrix.symmetries[:2 * matrix.p]
    return matrix


def test_dihedral_orbits_keep_the_five_two_extension_set_under_8000():
    # On the 2p dihedral images the widest extension set holds 5,908
    # representatives; on the p block rotations alone it held 11,796.
    matrix = dihedral_only(q_matrix(build_triangulation(5, 2)))
    assert len(hilbert_basis(matrix, Budget(max_frontier=8000))) == 161
    with pytest.raises(BudgetExceeded):
        hilbert_basis(matrix, Budget(max_frontier=5907))


def test_whole_group_keeps_the_five_two_extension_set_under_4000():
    # The core exchange doubles the (5,2) group to 20 elements, and the
    # widest extension set falls to 2,954 representatives.
    matrix = q_matrix(build_triangulation(5, 2))
    assert len(matrix.symmetries) == 20
    assert len(hilbert_basis(matrix, Budget(max_frontier=2954))) == 161
    with pytest.raises(BudgetExceeded):
        hilbert_basis(matrix, Budget(max_frontier=2953))


@pytest.mark.parametrize("group,cap", [(20, 2953), (10, 5907), (1, 5907)],
                         ids=["group", "dihedral", "identity"])
def test_chunking_does_not_change_the_completion(monkeypatch, group, cap):
    # Chunks of one row and chunks of a whole level find the same basis,
    # and the frontier cap stops both with the same message, on the
    # (5,2) matrix's orbits under its whole group of 20, under the
    # dihedral group of 10 and under the identity alone.  The widest
    # extension set holds 2,954 pairs on the whole group's orbits, 5,908
    # on the dihedral ones and more on the identity's.
    cone = q_matrix(build_triangulation(5, 2))
    if group == 10:
        dihedral_only(cone)
    elif group == 1:
        cone = SolutionCone(cone)
    seen = []
    for chunk_bytes, least_rows in ((1, 1), (10 ** 12, 10 ** 8)):
        monkeypatch.setattr(cone_module, "_CHUNK_BYTES", chunk_bytes)
        assert cone_module._chunk_rows(15, 3, 20) >= least_rows
        with pytest.raises(BudgetExceeded) as stopped:
            hilbert_basis(cone, Budget(max_seconds=None, max_frontier=cap))
        seen.append((hilbert_basis(cone, Budget(**UNLIMITED)),
                     str(stopped.value)))
    assert seen[0] == seen[1]
    assert len(seen[0][0]) == 161
    assert seen[0][1] == f"extension set grew past {cap} states"


def test_orbit_completion_takes_any_group_of_symmetries():
    # Swapping the first two columns of x + y = 2z is a group of order
    # two; the swap alone is not closed under products.
    cone = SolutionCone([[1, 1, -2]])
    cone.symmetries = np.array([[0, 1, 2], [1, 0, 2]])
    assert hilbert_basis(cone) == ((0, 2, 1), (1, 1, 1), (2, 0, 1))
    cone = SolutionCone([[1, 1, -2]])
    cone.symmetries = np.array([[1, 0, 2]])
    with pytest.raises(InternalInvariantError, match="not closed under"):
        hilbert_basis(cone)


# ------------------------------------------------- completion kernels

@pytest.mark.parametrize("cone", [
    SolutionCone([], ncols=2),
    SolutionCone([(1, -1, 0), (0, 0, 0), (2, 0, -3)]),
    q_matrix(build_triangulation(7, 2)),
    q_matrix(build_triangulation(7, 2)).restrict([0, 4, 8, 9, 13, 17, 18]),
    q_matrix(build_triangulation(100, 3)),  # two batches of gram rows
], ids=["empty", "explicit", "q-7-2", "pattern-7-2", "q-100-3"])
def test_dense_set_up_matches_the_rows(cone):
    A, gram = _dense(cone)
    rows = np.array(cone.rows, dtype=np.int64).reshape(cone.nrows,
                                                        cone.ncols)
    assert A.dtype == gram.dtype == np.int64
    assert (A == rows).all()
    assert (gram == rows.T @ rows).all()


def _int_rows(draw, count, n, high):
    row = st.lists(st.integers(0, high), min_size=n, max_size=n)
    rows = draw(st.lists(row, min_size=count, max_size=count))
    return np.array(rows, dtype=np.int64).reshape(count, n)


@st.composite
def domination_inputs(draw):
    """Up to 150 minimal rows (three uint64 words) and 30 query rows;
    the small entry ranges give many ties and both verdicts, and the
    queries reach past the largest minimal entry."""
    n = draw(st.integers(1, 8))
    minimal = _int_rows(draw, draw(st.integers(0, 150)), n, 4)
    vectors = _int_rows(draw, draw(st.integers(0, 30)), n, 6)
    return minimal, vectors


@PROPERTY_SETTINGS
@given(domination_inputs())
def test_domination_index_matches_the_broadcast(inputs):
    minimal, vectors = inputs
    naive = (vectors[:, None] >= minimal[None]).all(axis=2).any(axis=1)
    got = _DominationIndex(minimal, Budget(**UNLIMITED)).dominates(vectors)
    assert got.dtype == bool and np.array_equal(got, naive)


@PROPERTY_SETTINGS
@given(domination_inputs(), st.data())
def test_child_verdict_matches_the_broadcast(inputs, data):
    minimal, parents = inputs
    n = minimal.shape[1]
    pair = st.tuples(st.integers(0, max(0, parents.shape[0] - 1)),
                     st.integers(0, n - 1))
    pairs = data.draw(st.lists(pair, max_size=60 if parents.size else 0))
    rows, cols = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
    children = parents[rows] + np.eye(n, dtype=np.int64)[cols]
    naive = (children[:, None] >= minimal[None]).all(axis=2).any(axis=1)
    index = _DominationIndex(minimal, Budget(**UNLIMITED))
    got = index.child_dominates(parents, rows, cols)
    assert got.dtype == bool and np.array_equal(got, naive)


def test_domination_index_is_charged_to_the_budget():
    minimal = np.array([[0, 10 ** 6, 0]], dtype=np.int64)
    with pytest.raises(BudgetExceeded, match="domination index"):
        _DominationIndex(minimal, Budget(max_frontier=3 * 10 ** 6))


@st.composite
def boxed_rows(draw):
    """Up to 60 rows inside a box [0, bound] with up to five columns,
    a bound of about 2^30 in some, few distinct entries per column."""
    bound = draw(st.lists(st.sampled_from([0, 1, 2, 2 ** 30 - 1, 2 ** 30]),
                          min_size=1, max_size=5))
    entry = [st.sampled_from(sorted({0, b // 2, b})) for b in bound]
    rows = draw(st.lists(st.tuples(*entry), max_size=60))
    return (np.array(bound, dtype=np.int64),
            np.array(rows, dtype=np.int64).reshape(len(rows), len(bound)))


@PROPERTY_SETTINGS
@given(boxed_rows())
def test_radix_keys_sort_and_deduplicate_like_numpy_unique(inputs):
    bound, rows = inputs
    strides = _radix_strides(bound)
    assert (bound @ strides.T < 2 ** 62).all()
    if (bound >= 2 ** 30 - 1).sum() >= 3:
        assert strides.shape[0] >= 2
    got = rows[_distinct_sorted(rows @ strides.T)]
    want = np.unique(rows, axis=0)
    assert got.shape == want.shape and np.array_equal(got, want)


@st.composite
def small_matrices(draw):
    """Up to 3 rows and 5 columns, entries in [-3, 3]."""
    m = draw(st.integers(1, 3))
    n = draw(st.integers(1, 5))
    row = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
    return [draw(row) for _ in range(m)]


@PROPERTY_SETTINGS
@given(small_matrices())
def test_hilbert_basis_matches_the_box_search(rows):
    cone = SolutionCone(rows)
    box = [sum(r[j] for r in cone.extreme_rays) for j in range(cone.ncols)]
    unlimited = Budget(max_seconds=None, max_frontier=None)
    solutions = [s for s in _box_solutions(cone, box, unlimited) if any(s)]
    assert hilbert_basis(cone) == minimal_elements(solutions)


# Row scales around the int64 edge: from 2^31 + 1 on, A^T A of
# [[s, s, -2s]] (6 s^2 on its diagonal) passes 2^63, and 2^70 is past
# int64 for A itself.
SCALES = (1, 2 ** 31 + 1, 2 ** 32, 2 ** 61 + 1, 2 ** 70)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(small_matrices())
@example([[1, 1, -2]])
def test_scaled_rows_keep_the_hilbert_basis(rows):
    # The cone does not change when its rows are scaled, so neither do
    # its Hilbert basis and the minimality of each element.
    basis = hilbert_basis(SolutionCone(rows))
    for s in SCALES:
        cone = SolutionCone([[s * x for x in row] for row in rows])
        assert hilbert_basis(cone) == basis, s
        assert all(is_fundamental(cone, v) for v in basis), s


# ------------------------------------------------- square-pattern shortcut

@pytest.mark.parametrize("p,q", coprime_pairs(4))
def test_pattern_decomposition_matches_filtered_basis(p, q):
    matrix = q_matrix(build_triangulation(p, q))
    full = hilbert_basis(SolutionCone(matrix))
    filtered = tuple(v for v in full if square_condition(v))
    assert square_fundamental_solutions(matrix) == filtered


def square_fundamentals_of_every_pattern(matrix):
    """Reference for the orbit search: the Hilbert basis of each of the
    3^p one-type-per-block patterns, every one solved from scratch."""
    p = matrix.p
    found = set()
    for pattern in itertools.product(QUAD_TYPES, repeat=p):
        columns = [3 * i + t - 1 for i, t in enumerate(pattern)]
        rows = [[row[c] for c in columns] for row in matrix.rows]
        for small in hilbert_basis(SolutionCone(rows, ncols=p)):
            full = [0] * (3 * p)
            for c, value in zip(columns, small):
                full[c] = value
            found.add(tuple(full))
    return tuple(sorted(found, key=graded_lex_key))


@pytest.mark.parametrize("p,q", coprime_pairs(8) + [(9, 2)])
def test_orbit_search_matches_every_pattern(p, q):
    matrix = q_matrix(build_triangulation(p, q))
    assert (square_fundamental_solutions(matrix)
            == square_fundamentals_of_every_pattern(matrix))


@pytest.mark.parametrize("p,q", coprime_pairs(10) + [(11, 3)])
def test_face_search_matches_the_necklace_oracle(p, q):
    matrix = q_matrix(build_triangulation(p, q))
    assert (square_fundamental_solutions(matrix)
            == necklace_square_fundamentals(matrix))


def face_supports(matrix):
    """The supports of the maximal admissible faces of ``matrix``."""
    rays = _square_rays(matrix, Budget())
    return [frozenset().union(*(rays[i].keys() for i in face))
            for face in _maximal_faces(rays, Budget())]


def group_images(matrix, support):
    """The supports of the images of the face on ``support`` under the
    block rotations, the reflection and the core exchange when there is
    one, from their closed forms: the image v[g][rotation] reads column
    g[rotation[c]] at c, for g the identity, the reflection, the core
    exchange kappa and kappa then the reflection."""
    p, support = matrix.p, set(support)
    turns = [block_rotation(p, k) for k in range(p)]
    firsts = [range(3 * p), block_reflection(p)]
    kappa = core_exchange(p, matrix.q)
    if kappa is not None:
        firsts += [kappa, [kappa[c] for c in block_reflection(p)]]
    return {frozenset(c for c in range(3 * p) if image[turn[c]] in support)
            for image in firsts for turn in turns}


def record_faces(monkeypatch, matrix):
    """The list of the supports the search restricts ``matrix`` to, one
    per solved face, filled as it runs."""
    supports = []
    restrict = matrix.restrict

    def recorded(columns):
        supports.append(list(columns))
        return restrict(columns)

    monkeypatch.setattr(matrix, "restrict", recorded)
    return supports


@pytest.mark.parametrize("p,q,orbits", [(7, 2, 2), (8, 3, 2), (13, 5, 4)])
def test_face_search_solves_one_face_per_orbit(monkeypatch, p, q, orbits):
    # Of the maximal faces (8 at (7,2), 3 at (8,3), 66 at (13,5)) only
    # one per orbit of the whole group reaches hilbert_basis; every
    # other one is an image of a solved face.  At (13,5) the core
    # exchange joins dihedral orbits: 6 faces would be solved without
    # it.
    calls = []
    solve = qsystem_module.hilbert_basis

    def counted(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(qsystem_module, "hilbert_basis", counted)
    matrix = q_matrix(build_triangulation(p, q))
    solved = record_faces(monkeypatch, matrix)
    square_fundamental_solutions(matrix)
    assert len(calls) == len(solved) == orbits
    faces = face_supports(matrix)
    assert len(faces) == {7: 8, 8: 3, 13: 66}[p]
    orbit_of = [group_images(matrix, support) for support in solved]
    for face in faces:
        assert sum(face in orbit for orbit in orbit_of) == 1
    assert all(frozenset(support) in faces for support in solved)


@pytest.mark.parametrize("p,q,rays,faces", [
    (8, 3, 17, 3), (9, 2, 10, 13), (10, 3, 21, 8), (11, 3, 23, 23),
    (12, 5, 25, 6), (13, 2, 14, 40), (14, 3, 43, 38)])
def test_square_rays_and_maximal_faces(p, q, rays, faces):
    # The face counts are before the orbit reduction.
    matrix = q_matrix(build_triangulation(p, q))
    square = _square_rays(matrix, Budget())
    assert len(square) == rays
    vectors = [tuple(ray.get(c, 0) for c in range(3 * p)) for ray in square]
    for v in vectors:
        assert square_condition(v) and is_vertex(matrix, v)
        assert math.gcd(*v) == 1
    found = _maximal_faces(square, Budget())
    assert len(found) == faces == len(set(found))
    for face in found:
        # Square together, and no other ray can join.
        assert square_condition([sum(vectors[i][c] for i in face)
                                 for c in range(3 * p)])
        for j in set(range(rays)) - set(face):
            assert not square_condition([
                sum(vectors[i][c] for i in face + (j,))
                for c in range(3 * p)])


def test_double_description_reads_the_budget_every_row(monkeypatch):
    # One read per row, with the rays in hand as the frontier size, and
    # one per chunk of candidate pairs inside a row.
    matrix = q_matrix(build_triangulation(7, 2))
    budget = Budget()
    reads = []
    monkeypatch.setattr(budget, "check", lambda size=0, what="frontier":
                        reads.append((size, what)))
    monkeypatch.setattr(rays_module, "_CHUNK_PAIRS", 10 ** 9)
    rays = extreme_rays(matrix, budget)
    assert len(reads) == matrix.nrows
    assert reads[0] == (0, "double description")
    # Eh and Ev follow from the e-rows and change nothing.
    assert reads[-2:] == [(len(rays), "double description")] * 2
    reads.clear()
    monkeypatch.setattr(rays_module, "_CHUNK_PAIRS", 1)
    extreme_rays(matrix, budget)
    assert len(reads) > 100 * matrix.nrows
    budget = Budget(max_seconds=0)
    time.sleep(0.01)
    with pytest.raises(BudgetExceeded, match="^search exceeded 0 seconds$"):
        square_fundamental_solutions(matrix, budget)
    with pytest.raises(BudgetExceeded,
                       match="^double description grew past 20 states$"):
        square_fundamental_solutions(matrix, Budget(max_frontier=20))


def refuse_dense_rows(monkeypatch, ncols):
    """Make every system of ``ncols`` columns, a QMatrix or any other
    SolutionCone, refuse to build its dense rows; narrower subsystems
    still build theirs."""
    dense = SolutionCone.rows.func

    def rows(self):
        if self.ncols == ncols:
            raise AssertionError("the dense quad rows were built")
        return dense(self)

    monkeypatch.setattr(SolutionCone, "rows", property(rows))


def test_extreme_rays_never_build_the_dense_rows(monkeypatch):
    from_rows = SolutionCone(q_matrix(build_triangulation(5, 2)).rows)
    refuse_dense_rows(monkeypatch, 15)
    matrix = q_matrix(build_triangulation(5, 2))
    assert matrix.extreme_rays == from_rows.extreme_rays


def test_pattern_search_never_builds_the_dense_rows(monkeypatch):
    refuse_dense_rows(monkeypatch, 24)
    matrix = q_matrix(build_triangulation(8, 3))
    assert len(square_fundamental_solutions(matrix)) == 17


@pytest.mark.parametrize("p", range(1, 11))
def test_necklaces_are_one_per_rotation_orbit(p):
    words = [tuple(word) for _, word, _ in prenecklaces(p, 3)]
    assert words == sorted(set(words))
    reps = [tuple(word) for _, word, necklace in prenecklaces(p, 3)
            if necklace]
    assert reps == sorted(set(reps))
    kept = set(reps)
    for word in itertools.product(range(3), repeat=p):
        rotations = {word[k:] + word[:k] for k in range(p)}
        assert len(rotations & kept) == 1
    totient = [sum(math.gcd(k, d) == 1 for k in range(1, d + 1))
               for d in range(p + 1)]
    assert len(reps) * p == sum(totient[d] * 3 ** (p // d)
                                for d in range(1, p + 1) if p % d == 0)


def test_block_rotation_guard_holds_below_forty():
    for p, q in coprime_pairs(39):
        symmetries = q_matrix(build_triangulation(p, q)).symmetries
        assert symmetries[1].tolist() == block_rotation(p, 1)


def test_block_reflection_guard_holds_below_forty():
    pairs = coprime_pairs(39)
    assert len(pairs) == 473
    for p, q in pairs:
        symmetries = q_matrix(build_triangulation(p, q)).symmetries
        assert symmetries[p].tolist() == block_reflection(p)


def test_symmetry_tables_compose_the_generators_below_forty():
    # Row k applies the block shift k times and row p + k applies it
    # after the block reflection, to the columns and the row renamings
    # alike: T then S reads T[S], in both tables.  Row 2p + m, when the
    # core exchange kappa exists, applies row m after kappa; the row
    # renamings cover the 2p dihedral rows only.
    for p, q in coprime_pairs(39):
        matrix = q_matrix(build_triangulation(p, q))
        fixed = [p, p + 1]
        shift = (block_rotation(p, 1), [(r + 1) % p for r in range(p)]
                 + fixed)
        columns, rows = [], []
        for table in ((list(range(3 * p)), list(range(p + 2))),
                      (block_reflection(p),
                       [(1 - q - r) % p for r in range(p)] + fixed)):
            for _ in range(p):
                columns.append(table[0])
                rows.append(table[1])
                table = tuple([t[s] for s in g] for t, g in zip(table, shift))
        # The core exchange rows follow: kappa, then row m.
        kappa = core_exchange(p, q)
        if kappa is not None:
            columns += [[kappa[c] for c in turn] for turn in columns]
        assert matrix.symmetries.tolist() == columns
        assert matrix.edge_renamings.tolist() == rows
        assert not matrix.symmetries.flags.writeable
        assert not matrix.edge_renamings.flags.writeable
        assert (np.sort(matrix.symmetries, axis=1)
                == np.arange(3 * p)).all()


def test_core_exchange_doubles_the_group_exactly_when_q_squared_is_one():
    # 4p distinct rows exactly when q^2 = +-1 and q != +-1 (mod p), 2p
    # otherwise, and every product of two rows is a row.
    exchanges = 0
    for p, q in coprime_pairs(39):
        symmetries = q_matrix(build_triangulation(p, q)).symmetries
        n = 3 * p
        if q not in (1, p - 1) and q * q % p in (1, p - 1):
            exchanges += 1
            assert len(symmetries) == 4 * p
            assert len(np.unique(symmetries, axis=0)) == 4 * p
            assert symmetries[2 * p].tolist() == core_exchange(p, q)
        else:
            assert len(symmetries) == 2 * p
            assert core_exchange(p, q) is None
        products = symmetries[:, symmetries].reshape(-1, n)
        assert (np.unique(products, axis=0)
                == np.unique(symmetries, axis=0)).all()
    assert exchanges == 50


def swap_first_two_columns(columns, rename, sign):
    columns = columns.copy()
    columns[[0, 1]] = columns[[1, 0]]
    return columns, rename, sign


def flip_the_sign(columns, rename, sign):
    return columns, rename, -sign


@pytest.mark.parametrize("tamper", [swap_first_two_columns, flip_the_sign])
@pytest.mark.parametrize("p,q", [(5, 2), (8, 3)])
def test_broken_core_exchange_raises(monkeypatch, p, q, tamper):
    # (5,2) has q^2 = -1, whose exchange flips the sign of every row;
    # (8,3) has q^2 = 1, whose exchange keeps the signs.  The dihedral
    # generators, checked first, still hold.
    exchange = qsystem_module._core_exchange
    monkeypatch.setattr(qsystem_module, "_core_exchange",
                        lambda p, q: tamper(*exchange(p, q)))
    matrix = q_matrix(build_triangulation(p, q))
    with pytest.raises(InternalInvariantError,
                       match=r"^quad column \d+ is not the core exchange of "
                             rf"column 0 for \(p,q\)=\({p},{q}\)$"):
        matrix.symmetries


def test_block_rotation_guard_runs_once_per_matrix(monkeypatch):
    # The raw completion and the pattern search both read the
    # symmetries, whose first read checks the two generators.
    calls = []
    guard = qsystem_module._symmetry_guard

    def counted(matrix, name, *args):
        calls.append((matrix, name))
        guard(matrix, name, *args)

    monkeypatch.setattr(qsystem_module, "_symmetry_guard", counted)
    matrix = q_matrix(build_triangulation(4, 1))
    hilbert_basis(matrix)
    assert calls == [(matrix, "block shift"), (matrix, "block reflection")]
    square_fundamental_solutions(matrix)
    square_fundamental_solutions(matrix)
    hilbert_basis(matrix)
    assert calls == [(matrix, "block shift"), (matrix, "block reflection")]
    turns = [block_rotation(4, k) for k in range(4)]
    assert matrix.symmetries.tolist() == turns + [
        [block_reflection(4)[c] for c in turn] for turn in turns]
    assert SolutionCone(matrix).symmetries is None


def test_enum_raw_hilbert_builds_one_matrix(monkeypatch, capsys):
    # The enumeration and the raw completion share one QMatrix, so its
    # three generators, (5,2) having the core exchange, are checked
    # once.
    calls = []
    guard = qsystem_module._symmetry_guard

    def counted(matrix, name, *args):
        calls.append((matrix, name))
        guard(matrix, name, *args)

    monkeypatch.setattr(qsystem_module, "_symmetry_guard", counted)
    assert cli.main(["enum", "--p", "5", "--q", "2", "--raw-hilbert",
                     "--format", "json"]) == 0
    capsys.readouterr()
    assert [name for _, name in calls] == ["block shift", "block reflection",
                                           "core exchange"]
    assert calls[0][0] is calls[1][0] is calls[2][0]


def test_enum_at_p_3000_stops_without_reading_the_symmetries(
        monkeypatch, capsys):
    # The 2p x 3p table would take 432 MiB at (3000,7); the budget runs
    # out in the double description, before any reader of the group.
    def refuse(self):
        raise AssertionError("the symmetries were read")

    monkeypatch.setattr(qsystem_module.QMatrix, "symmetries",
                        property(refuse))
    assert cli.main(["enum", "--p", "3000", "--q", "7",
                     "--max-seconds", "1"]) == 3
    assert capsys.readouterr().err == (
        "error: budget exceeded: search exceeded 1.0 seconds\n")


def tampered_on_every_first_column(p, q):
    """The (p,q) QMatrix with the first entry of every type-0 column
    doubled: still invariant under the block shift, as every block is
    changed alike, but that entry's row is not the reflection's image
    of it."""
    matrix = q_matrix(build_triangulation(p, q))
    for c in range(0, matrix.ncols, 3):
        tamper_first_entry(matrix, c, double_coefficient)
    return matrix


def test_broken_block_reflection_raises():
    # The block shift, checked first, still holds.
    matrix = tampered_on_every_first_column(7, 2)
    with pytest.raises(InternalInvariantError, match="block reflection"):
        matrix.symmetries
    with pytest.raises(InternalInvariantError, match="block reflection"):
        square_fundamental_solutions(tampered_on_every_first_column(7, 2))


def test_symmetry_guard_reports_the_first_wrong_column():
    matrix = q_matrix(build_triangulation(5, 2))
    n = matrix.ncols
    identity = np.arange(n)
    _symmetry_guard(matrix, "identity", identity, np.arange(7))
    with pytest.raises(InternalInvariantError,
                       match="quad column 3 is not the swap of column 0"):
        _symmetry_guard(matrix, "swap", np.roll(identity, -3), np.arange(7))


def flip_sign(rows, coefs, entries):
    coefs[entries.start] *= -1


def move_to_another_row(rows, coefs, entries):
    # The least row the column misses, the same coefficient on it.
    column = rows[entries].tolist()
    rows[entries.start] = min(set(range(len(column) + 1)) - set(column))


@pytest.mark.parametrize("tamper", [flip_sign, move_to_another_row])
def test_symmetry_guard_compares_rows_and_signs_exactly(tamper):
    # One entry of column 4 changed: the block shift takes column 1 to
    # column 4, so column 1 is the first whose image is wrong.
    matrix = q_matrix(build_triangulation(7, 2))
    shift = np.array(block_rotation(7, 1))
    _symmetry_guard(matrix, "block shift", shift, matrix.edge_renamings[1])
    tamper_first_entry(matrix, 4, tamper)
    with pytest.raises(InternalInvariantError,
                       match=r"^quad column 4 is not the block shift of "
                             r"column 1 for \(p,q\)=\(7,2\)$"):
        _symmetry_guard(matrix, "block shift", shift,
                        matrix.edge_renamings[1])


def dihedral_least(word):
    """The least word of the orbit of ``word`` under the block rotations
    and the reflection i -> -i."""
    p = len(word)
    mirror = tuple(word[-i % p] for i in range(p))
    return min(w[k:] + w[:k] for w in (word, mirror) for k in range(p))


@pytest.mark.parametrize("p", range(1, 10))
def test_bracelets_are_the_dihedral_orbit_minima(p):
    # The search's rule: a necklace is solved unless the least rotation
    # of its reversed word is smaller.
    kept = [tuple(word) for _, word, necklace in prenecklaces(p, 3)
            if necklace and not least_rotation(word[::-1]) < word]
    assert set(kept) == {dihedral_least(word) for word in
                         itertools.product(range(3), repeat=p)}


def test_least_rotation_is_linear_at_p_800():
    # Every rotation of this word agrees with the least one on a long
    # prefix, so a quadratic search would make about p^2 / 2 compares.
    compares = []

    class Letter(int):
        def __eq__(self, other):
            compares.append(1)
            return int(self) == int(other)

        __hash__ = int.__hash__

    word = [Letter(0)] * 799 + [Letter(1)]
    assert least_rotation(word[1:] + word[:1]) == word
    assert len(compares) < 4 * len(word)
    assert least_rotation([1, 0, 1, 1, 0, 0]) == [0, 0, 1, 0, 1, 1]


@pytest.mark.parametrize("p,q", [(5, 2), (7, 2), (7, 3), (8, 3), (9, 2)])
def test_square_fundamentals_are_invariant_under_reflection(p, q):
    matrix = q_matrix(build_triangulation(p, q))
    found = square_fundamental_solutions(matrix)
    mirror = block_reflection(p)
    mirrored = {tuple(v[c] for c in mirror) for v in found}
    assert mirrored == set(found)
    for v in found:
        assert matrix.is_solution(tuple(v[c] for c in mirror))


def test_search_adds_the_rotations_of_each_basis_and_its_reflection(
        monkeypatch):
    # The real face bases here hold the reflection of each element
    # among its rotations, so only a fake basis with distinct entries
    # (1, ..., k) on a face of k columns shows the reflected images.
    # The search closes its solved vectors under the whole group, so
    # every solved face adds them, a face whose reflected orbit is its
    # own too, and, (8,3) having the core exchange, their images under
    # it.
    p = 8
    matrix = q_matrix(build_triangulation(p, 3))
    solved = record_faces(monkeypatch, matrix)
    expected, symmetric = set(), []

    def fake_basis(face, budget):
        support = solved[-1]
        fake = tuple(range(1, len(support) + 1))
        v = [0] * 3 * p
        for c, x in zip(support, fake):
            v[c] = x
        images = [[tuple(w[c] for c in block_rotation(p, k))
                   for k in range(p)]
                  for w in (v, [v[c] for c in block_reflection(p)])]
        supports = [{frozenset(np.flatnonzero(w)) for w in side}
                    for side in images]
        if supports[0] == supports[1]:
            symmetric.append(support)
            assert set(images[0]) != set(images[1])
        expected.update(*images)
        expected.update(tuple(w[c] for c in core_exchange(p, 3))
                        for side in images for w in side)
        return (fake,)

    monkeypatch.setattr(qsystem_module, "hilbert_basis", fake_basis)
    assert set(square_fundamental_solutions(matrix)) == expected
    assert symmetric


def test_broken_block_rotation_raises():
    matrix = q_matrix(build_triangulation(7, 2))
    tamper_first_entry(matrix, 4, double_coefficient)
    with pytest.raises(InternalInvariantError):
        square_fundamental_solutions(matrix)


# ------------------------------------------------------------ fundamental

def test_sphere_vectors_are_fundamental():
    tri = build_triangulation(5, 1)
    cone = SolutionCone(q_matrix(tri))
    _, t_vecs = basis_vectors(tri)
    assert is_fundamental(cone, t_vecs[0])
    doubled = tuple(2 * x for x in t_vecs[0])
    assert not is_fundamental(cone, doubled)


def test_box_search_is_not_bounded_by_the_recursion_limit():
    # The support has 1000 columns, more than the default recursion
    # limit; the alternating vector is twice a smaller solution.
    cone = SolutionCone(q_matrix(build_triangulation(1000, 3)))
    assert not is_fundamental(cone, alternating_vector(1000, 3))


def test_box_search_never_builds_the_dense_rows(monkeypatch):
    refuse_dense_rows(monkeypatch, 3000)
    cone = SolutionCone(q_matrix(build_triangulation(1000, 3)))
    assert not is_fundamental(cone, alternating_vector(1000, 3))


@pytest.mark.parametrize("p,q", coprime_pairs(6))
def test_vertex_shortcut_matches_the_box_search(p, q):
    # A vertex is settled by its gcd; the box search below it must agree
    # on every square fundamental and on twice each one.
    matrix = q_matrix(build_triangulation(p, q))
    for v in square_fundamental_solutions(matrix):
        for w in (v, tuple(2 * x for x in v)):
            box = _box_solutions(matrix, w, Budget(), stop_after=3)
            assert is_fundamental(matrix, w) == (len(box) <= 2)


def test_is_fundamental_input_validation():
    cone = SolutionCone(q_matrix(build_triangulation(2, 1)))
    with pytest.raises(NotASolution):
        is_fundamental(cone, (1, 0, 0, 0, 0, 0))
    with pytest.raises(EmptyVector):
        is_fundamental(cone, (0, 0, 0, 0, 0, 0))
    with pytest.raises(NegativeEntry):
        is_fundamental(cone, (-1, 0, 0, -1, 0, 0))


def test_admission_past_int64_is_exact():
    # The coefficients' magnitudes sum to 2^63, which an int64 sum wraps
    # to -2^63; that weight sent (4, 0) through an int64 residual, where
    # 2^62 * 4 wraps to 0, and admitted it.
    cone = SolutionCone([[2 ** 62, -2 ** 62]])
    assert cone.residual((4, 0)) == (2 ** 64,)
    with pytest.raises(NotASolution):
        cone.admit((4, 0))


def test_is_fundamental_reads_a_one_shot_vector_once():
    # Read twice, an iterator's integrality test saw nothing and the
    # half-integer vector passed as its truncation (1, 0, 0, 1, 0, 0).
    cone = SolutionCone(q_matrix(build_triangulation(2, 1)))
    half = [Fraction(3, 2), 0, 0, Fraction(3, 2), 0, 0]
    for vector in (half, iter(half)):
        with pytest.raises(NotASolution):
            is_fundamental(cone, vector)
    assert is_fundamental(cone, iter([1, 0, 0, 1, 0, 0]))


def test_is_fundamental_admits_once(monkeypatch):
    # A vertex, twice a vertex, and a non-vertex that goes to the box
    # search.
    calls = []
    admit = SolutionCone.admit

    def counted(self, v):
        calls.append(v)
        return admit(self, v)

    monkeypatch.setattr(SolutionCone, "admit", counted)
    cone = SolutionCone(q_matrix(build_triangulation(4, 1)))
    sphere = (0, 0, 2, 0, 1, 0, 0, 0, 0, 0, 1, 0)
    for v, minimal in ((sphere, True), (tuple(2 * x for x in sphere), False),
                       ((0, 1, 0, 0, 0, 1) * 2, True)):
        calls.clear()
        assert is_fundamental(cone, v) == minimal
        assert calls == [v]


def test_support_without_kernel_is_a_bug_signal():
    # Only an admitted solution reaches the kernel step, so a support
    # whose kernel is empty is a broken invariant, not bad input.
    with pytest.raises(InternalInvariantError,
                       match="lost the solution"):
        _support_kernel_dimension(SolutionCone([[1, 0], [0, 1]]), (1, 1))


@pytest.mark.parametrize("p,q", coprime_pairs(4))
def test_hilbert_members_pass_the_box_search(p, q):
    cone = SolutionCone(q_matrix(build_triangulation(p, q)))
    for v in hilbert_basis(cone):
        assert is_fundamental(cone, v)


# ----------------------------------------------------------------- vertex

def test_alternating_vectors_are_not_vertices():
    tri = build_triangulation(4, 1)
    cone = SolutionCone(q_matrix(tri))
    assert not is_vertex(cone, (0, 1, 0, 0, 0, 1) * 2)
    assert not is_vertex(cone, (0, 0, 1, 0, 1, 0) * 2)


def test_sphere_and_torus_vectors_are_vertices():
    tri = build_triangulation(5, 1)
    cone = SolutionCone(q_matrix(tri))
    _, t_vecs = basis_vectors(tri)
    for t in t_vecs:
        assert is_vertex(cone, t)
        assert is_vertex_by_search(cone, t, k=3)
    assert is_vertex(cone, (1, 0, 0) * 5)


def test_is_vertex_never_builds_the_dense_rows(monkeypatch):
    refuse_dense_rows(monkeypatch, 3000)
    tri = build_triangulation(1000, 3)
    matrix = q_matrix(tri)
    sphere = basis_vectors(tri)[1][0]
    assert is_vertex(SolutionCone(matrix), sphere)
    assert is_vertex(matrix, sphere)


def test_vertex_search_frontier_caps_the_solutions_held():
    # Below 3t lie the four solutions 0, t, 2t and 3t; the box search
    # visits many more nodes than that, and only what it holds counts.
    tri = build_triangulation(5, 1)
    cone = SolutionCone(q_matrix(tri))
    _, t_vecs = basis_vectors(tri)
    with pytest.raises(BudgetExceeded, match="grew past 2 states"):
        is_vertex_by_search(cone, t_vecs[0], k=3,
                            budget=Budget(max_frontier=2))
    assert is_vertex_by_search(cone, t_vecs[0], k=3,
                               budget=Budget(max_frontier=4))


def test_vertex_search_cross_check():
    tri = build_triangulation(4, 1)
    cone = SolutionCone(q_matrix(tri))
    _, t_vecs = basis_vectors(tri)
    for v in (t_vecs[1], (0, 1, 0, 0, 0, 1) * 2):
        assert is_vertex(cone, v) == is_vertex_by_search(cone, v, k=3)


@pytest.mark.parametrize("p,q", coprime_pairs(4))
def test_vertices_of_hilbert_basis_are_the_extreme_rays(p, q):
    cone = SolutionCone(q_matrix(build_triangulation(p, q)))
    basis = hilbert_basis(cone)
    vertex_members = tuple(v for v in basis if is_vertex(cone, v))
    assert vertex_members == cone.extreme_rays
    for v in vertex_members:
        assert is_fundamental(cone, v)


def test_full_support_vector_is_not_vertex():
    tri = build_triangulation(3, 1)
    cone = SolutionCone(q_matrix(tri))
    s_vecs, t_vecs = basis_vectors(tri)
    v = [0] * 9
    for vec in s_vecs + t_vecs:
        for j, x in enumerate(vec):
            v[j] += x
    assert all(v)
    assert not is_vertex(cone, v)


# ------------------------------------------------------------ extreme rays

def test_extreme_rays_of_simple_cones():
    assert SolutionCone([(1, 1, -1)], 3).extreme_rays == (
        (0, 1, 1), (1, 0, 1))
    assert SolutionCone([(1, -2, 1)], 3).extreme_rays == (
        (0, 1, 2), (2, 1, 0))
    assert SolutionCone([], 3).extreme_rays == (
        (0, 0, 1), (0, 1, 0), (1, 0, 0))


@pytest.mark.parametrize("p,q", [(5, 2), (6, 1)])
def test_every_extreme_ray_passes_the_rank_test(p, q):
    cone = SolutionCone(q_matrix(build_triangulation(p, q)))
    rays = cone.extreme_rays
    assert len(rays) >= 2 * p + 1
    for r in rays:
        assert is_vertex(cone, r)
    if p % 2 == 0:
        assert (0, 1, 0, 0, 0, 1) * (p // 2) not in rays


# ------------------------------------------------------------------ misc

def test_minimal_elements_filter():
    vectors = [(2, 0), (1, 0), (1, 1), (0, 3), (0, 1), (1, 0)]
    assert minimal_elements(vectors) == ((0, 1), (1, 0))


def test_raw_basis_contains_full_block_vectors(raw_five_two):
    # The (5,2) raw Hilbert basis is a strict superset of the
    # square-condition set; in particular every full-block vector
    # belongs to it.
    cone, basis = raw_five_two
    tri = build_triangulation(5, 2)
    s_vecs, _ = basis_vectors(tri)
    for s in s_vecs:
        assert s in basis
    square = square_fundamental_solutions(q_matrix(tri))
    assert set(square) < set(basis)
