"""
Tests for surface reconstruction and classification: the full matching
matrix, trigon propagation, edge weights, Euler characteristics,
components, orientability, and the known topological answers.
"""

import math
import random
import tracemalloc
from fractions import Fraction
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lensq import surface
from lensq.catalog import alternating_vector, expected_for, fixtures
from lensq.errors import (
    ArityMismatch,
    BudgetExceeded,
    DimensionMismatch,
    EmptyVector,
    InconsistentWeights,
    InvalidParams,
    NegativeEntry,
    NoExpectation,
    NotASolution,
    SquareConditionViolated,
)
from lensq.qsystem import (
    BasisCoefficients,
    basis_vectors,
    decompose,
    expand,
    is_q_solution,
    q_matrix,
    square_condition,
    square_fundamental_solutions,
)
from lensq.surface import (
    FullCoordinates,
    _component_vertices,
    _index_dtype,
    classify,
    edge_weights,
    euler_characteristic,
    glue_disks,
    haken_matrix,
    haken_residual,
    least_labels,
    reconstruct_trigons,
    surface_name,
)
from lensq.triangulation import (
    INT64_MAX,
    LOCAL_EDGES,
    QUAD_PAIRS,
    QUAD_TYPES,
    build_triangulation,
)
from necklace_oracle import core_exchange
from test_triangulation import (
    bfs_classes,
    reference_corner_gluings,
    reference_edge_of,
    reference_edge_slots,
    vertex_classes,
)


def coprime_pairs(max_p):
    return [(p, q) for p in range(2, max_p + 1) for q in range(1, p)
            if math.gcd(p, q) == 1]


def rotate(v, p, shift):
    """Shift block i to block i+shift, cyclically."""
    blocks = [tuple(v[3 * i: 3 * i + 3]) for i in range(p)]
    return tuple(x for k in range(p)
                 for x in blocks[(k - shift) % p])


# ------------------------------------------------------------ full system

@pytest.mark.parametrize("p,q", coprime_pairs(6))
def test_haken_matrix_shape_and_entries(p, q):
    rows = haken_matrix(build_triangulation(p, q))
    assert len(rows) == 6 * p
    assert all(len(r) == 7 * p for r in rows)
    for row in rows:
        assert all(x in (-1, 0, 1) for x in row)
        assert sum(1 for x in row if x == 1) == 2
        assert sum(1 for x in row if x == -1) == 2


@pytest.mark.parametrize("p,q", coprime_pairs(8))
def test_haken_residual_matches_dense_product(p, q):
    tri = build_triangulation(p, q)
    rows = haken_matrix(tri)
    rng = random.Random(1000 * p + q)
    for _ in range(5):
        full = FullCoordinates(tri, [rng.randrange(4) for _ in range(7 * p)])
        dense = tuple(sum(c * x for c, x in zip(row, full.entries))
                      for row in rows)
        assert any(dense)
        assert haken_residual(tri, full) == dense


def test_classify_writes_nothing_onto_the_triangulation():
    tri = build_triangulation(8, 3)
    before = set(vars(tri))
    classify(tri, (0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0,
                   0, 0, 1, 0, 1, 0, 0, 0, 1, 0, 0, 0))
    assert set(vars(tri)) == before


@pytest.mark.parametrize("p,q", [(2, 1), (5, 2), (7, 3), (8, 3)])
def test_reconstruction_kills_full_matching_system(p, q):
    tri = build_triangulation(p, q)
    _, t_vecs = basis_vectors(tri)
    full = reconstruct_trigons(tri, t_vecs[0])
    assert not any(haken_residual(tri, full))


def test_reconstruction_validation():
    tri = build_triangulation(3, 1)
    with pytest.raises(EmptyVector):
        reconstruct_trigons(tri, (0,) * 9)
    with pytest.raises(NotASolution):
        reconstruct_trigons(tri, (1, 0, 0, 0, 0, 0, 0, 0, 0))
    s_vecs, _ = basis_vectors(tri)
    with pytest.raises(SquareConditionViolated):
        reconstruct_trigons(tri, s_vecs[0])
    tri = build_triangulation(5, 2)
    with pytest.raises(DimensionMismatch,
                       match="^vector length 12 != 15 columns$"):
        reconstruct_trigons(tri, (1, 0, 0) * 4)
    with pytest.raises(DimensionMismatch,
                       match=r"^full coordinates need length 7p = 35, "):
        FullCoordinates(tri, [0] * 34)


def test_half_integer_vector_is_not_a_solution():
    # Half the alternating vector solves the matching equations over Q
    # but is not integral; truncating it would give the empty surface.
    tri = build_triangulation(4, 1)
    half = [Fraction(x, 2) for x in alternating_vector(4, 3)]
    for admit in (reconstruct_trigons, classify):
        with pytest.raises(NotASolution):
            admit(tri, half)


def test_one_shot_half_integer_vector_is_not_a_solution():
    # The admission check reads its vector once, so an iterator is
    # refused like the same list; read twice, the integrality test saw
    # nothing and the vector was truncated to (1, 0, 0, 1, 0, 0).
    tri = build_triangulation(2, 1)
    half = [Fraction(3, 2), 0, 0, Fraction(3, 2), 0, 0]
    for admit in (reconstruct_trigons, classify):
        with pytest.raises(NotASolution):
            admit(tri, half)
        with pytest.raises(NotASolution):
            admit(tri, iter(half))
    assert classify(tri, iter([1, 0, 0, 1, 0, 0])) == classify(
        tri, (1, 0, 0, 1, 0, 0))


def test_full_coordinates_take_only_non_negative_integers():
    tri = build_triangulation(4, 1)
    with pytest.raises(TypeError):
        FullCoordinates(tri, [0.5] * 28)
    entries = list(reconstruct_trigons(tri, alternating_vector(4, 3)).entries)
    entries[0] = -1
    with pytest.raises(NegativeEntry):
        FullCoordinates(tri, entries)


def test_glue_disks_refuses_more_disks_than_int64_can_index():
    tri = build_triangulation(2, 1)
    full = reconstruct_trigons(tri, (10 ** 23, 0, 0) * 2)
    with pytest.raises(BudgetExceeded, match=(
            f"^{2 * 10 ** 23} normal disks cannot be indexed in int64$")):
        glue_disks(tri, full)


def test_index_dtype_is_int32_up_to_its_max():
    # Side nodes come two per disk; 2^30 - 1 disks are the most whose
    # side nodes still fit int32.
    assert _index_dtype(2 * (2 ** 30 - 1)) is np.int32
    assert _index_dtype(2 ** 31 - 1) is np.int32
    assert _index_dtype(2 * 2 ** 30) is np.int64
    assert _index_dtype(2 ** 63 - 1) is np.int64


def test_glue_disks_ids_are_int32_on_fixtures():
    for p, q in [(8, 3), (418, 153)]:
        tri = build_triangulation(p, q)
        h = next(f.vector for f in fixtures()
                 if (f.params.p, f.params.q) == (p, q))
        graph = glue_disks(tri, reconstruct_trigons(tri, h))
        assert graph.disks.dtype == np.int32
        assert graph.arcs.dtype == np.int32


def test_int64_ids_give_the_same_graph_and_report(monkeypatch):
    # Past 2^31 - 1 side nodes the ids are int64; forcing that width on
    # small surfaces must change nothing but the dtype.
    cases = [(f.params.p, f.params.q, f.vector) for f in fixtures()
             if f.params.p <= 30][:6]
    cases.append((8, 3, next(f.vector for f in fixtures()
                             if (f.params.p, f.params.q) == (8, 3))))
    narrow = []
    for p, q, v in cases:
        tri = build_triangulation(p, q)
        narrow.append((glue_disks(tri, reconstruct_trigons(tri, v)),
                       classify(tri, v)))
    monkeypatch.setattr(surface, "_index_dtype", lambda ids: np.int64)
    for (p, q, v), (graph, report) in zip(cases, narrow):
        tri = build_triangulation(p, q)
        wide = glue_disks(tri, reconstruct_trigons(tri, v))
        assert wide.disks.dtype == wide.arcs.dtype == np.int64
        assert np.array_equal(wide.disks, graph.disks)
        assert np.array_equal(wide.arcs, graph.arcs)
        assert classify(tri, v) == report


def test_component_vertex_keys_past_int64_are_refused():
    tri = build_triangulation(8, 3)
    disks = np.array([0], dtype=np.int64)
    with pytest.raises(BudgetExceeded, match="cannot be indexed in int64$"):
        _component_vertices(tri, disks, np.array([2 ** 62]))


def reference_surface_passes(tri, v, perturbed):
    """Trigon levels, edge weights, full residual (of ``perturbed``
    full entries) and the cell Euler count of quad vector ``v``,
    computed one corner gluing and one edge slot at a time in Python
    ints, from the per-slot reference builders."""
    gluings = reference_corner_gluings(tri)
    steps = [(4 * (tet_a - 1) + za, 4 * (tet_b - 1) + zb,
              v[3 * tet_a + qa - 4] - v[3 * tet_b + qb - 4])
             for _, (tet_a, za, qa), (tet_b, zb, qb) in gluings]
    classes, level = bfs_classes(4 * tri.p, steps)
    assert all(level[y] - level[x] == d for x, y, d in steps)
    for corner_class in classes:
        shift = min(level[node] for node in corner_class)
        for node in corner_class:
            level[node] -= shift
    entries = []
    for tet in range(tri.p):
        entries += level[4 * tet: 4 * tet + 4] + list(v[3 * tet: 3 * tet + 3])

    def arcs(values, tet, corner, qtype):
        return values[7 * tet - 7 + corner] + values[7 * tet - 4 + qtype]

    weights = {}
    for label, slots in reference_edge_slots(tri).items():
        found = {sum(entries[7 * tet - 7 + c] for c in edge)
                 + sum(entries[7 * tet - 4 + j] for j in QUAD_TYPES
                       if edge not in QUAD_PAIRS[j])
                 for tet, edge in slots}
        (weights[label],) = found
    residual = tuple(arcs(perturbed, *side_a) - arcs(perturbed, *side_b)
                     for _, side_a, side_b in gluings)
    euler = (sum(weights.values()) + sum(entries)
             - sum(arcs(entries, *side_a) for _, side_a, _ in gluings))
    return tuple(entries), weights, residual, euler


@pytest.mark.parametrize("p,q", [(2, 1), (8, 3)])
def test_table_passes_are_exact_at_huge_scale(p, q):
    # Entries near 10^23 overflow int64, so any int64 on the way to
    # these values would show.
    tri = build_triangulation(p, q)
    if (p, q) == (2, 1):
        v = (0, 1, 0, 0, 0, 1)  # a projective plane
    else:
        v = next(f.vector for f in fixtures()
                 if (f.params.p, f.params.q) == (p, q)
                 and f.has("q-fundamental"))
    scale = 10 ** 23
    v = tuple(scale * x for x in v)
    perturbed = [scale * 7 + 3 * k * k for k in range(7 * p)]
    entries, weights, residual, euler = reference_surface_passes(
        tri, v, perturbed)
    full = reconstruct_trigons(tri, v)
    found = (full.entries, edge_weights(tri, full),
             haken_residual(tri, FullCoordinates(tri, perturbed)),
             euler_characteristic(tri, full))
    assert found == (entries, weights, residual, euler)
    assert any(residual) and max(entries) >= scale
    for value in (*found[0], *found[1].values(), *found[2], found[3]):
        assert type(value) is int


def test_value_dtype_turns_to_python_ints_past_the_int64_bound():
    # A surface's values stay in int64 while 12 p times its largest
    # entry fits; one step of scale past that they are Python ints.
    tri = build_triangulation(8, 3)
    v = next(f.vector for f in fixtures()
             if (f.params.p, f.params.q) == (8, 3) and f.has("q-fundamental"))
    largest = max(reconstruct_trigons(tri, v).entries)
    below = INT64_MAX // (12 * tri.p * largest)
    for scale, dtype in ((below, np.int64), (below + 1, object)):
        w = tuple(scale * x for x in v)
        top = scale * largest
        assert (12 * tri.p * top <= INT64_MAX) == (dtype is np.int64)
        entries = reconstruct_trigons(tri, w).entries
        assert max(entries) == top
        # Step up every other entry below the largest, so the residual
        # is not zero and the largest entry stays.
        perturbed = [x + k % 2 if x < top else x
                     for k, x in enumerate(entries)]
        reference = reference_surface_passes(tri, w, perturbed)
        full = reconstruct_trigons(tri, w)
        off = FullCoordinates(tri, perturbed)
        found = (full.entries, edge_weights(tri, full),
                 haken_residual(tri, off), euler_characteristic(tri, full))
        assert found == reference and any(found[2])
        assert full.array.dtype == off.array.dtype == dtype
        for value in (*found[0], *found[1].values(), *found[2], found[3]):
            assert type(value) is int
        # An int64 array of the same entries takes the same dtype.
        as_array = FullCoordinates(tri, np.array(perturbed, dtype=np.int64))
        assert as_array == off and as_array.array.dtype == dtype


@pytest.mark.parametrize("p,q", [(3, 1), (5, 2), (8, 3)])
def test_reconstruction_has_no_trivial_component(p, q):
    tri = build_triangulation(p, q)
    _, t_vecs = basis_vectors(tri)
    full = reconstruct_trigons(tri, t_vecs[0])
    assert all(x >= 0 for x in full.entries)
    for corner_class in vertex_classes(tri):
        assert min(full.trigons(tet, c) for tet, c in corner_class) == 0


# ------------------------------------------------------------ edge weights

def test_axis_torus_avoids_the_cores():
    tri = build_triangulation(5, 1)
    full = reconstruct_trigons(tri, (1, 0, 0) * 5)
    weights = edge_weights(tri, full)
    assert weights["Ev"] == 0 and weights["Eh"] == 0
    assert all(weights[f"e{i}"] == 1 for i in tri.tetrahedra)


def test_projective_plane_crosses_cores_once():
    tri = build_triangulation(2, 1)
    full = reconstruct_trigons(tri, (0, 1, 0, 0, 0, 1))
    weights = edge_weights(tri, full)
    assert weights["Ev"] % 2 == 1 and weights["Eh"] % 2 == 1


def test_zero_surface_weights_and_graph():
    tri = build_triangulation(3, 1)
    empty = FullCoordinates(tri, (0,) * 21)
    assert all(w == 0 for w in edge_weights(tri, empty).values())
    graph = glue_disks(tri, empty)
    assert len(graph.disks) == 0 and len(graph.arcs) == 0
    assert euler_characteristic(tri, empty) == 0


def test_unmatched_disks_raise_named_guards():
    # One lone trigon is no surface: its arcs find no partner across
    # the glued face and its edge crossings disagree between slots.
    tri = build_triangulation(5, 2)
    lone = FullCoordinates(tri, (1,) + (0,) * 34)
    with pytest.raises(ArityMismatch, match=r"^face V1 corner 0->0: "):
        glue_disks(tri, lone)
    with pytest.raises(InconsistentWeights,
                       match=r"^edge Ev slots disagree: \[0, 1\]$"):
        edge_weights(tri, lone)


def test_crossings_off_the_edge_degree_raise_a_named_guard():
    # Put each disk of a (5,2) sphere in a component of its own: the
    # first disk crosses e1 once, and e1 has four slots.
    tri = build_triangulation(5, 2)
    graph = glue_disks(tri, reconstruct_trigons(
        tri, (0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 1, 0, 1, 0)))
    with pytest.raises(ArityMismatch, match=r"^edge e1 in component 0: "
                       r"1 crossings, edge degree is 4$"):
        _component_vertices(tri, graph.disks, np.arange(len(graph.disks)))
    comp, edge, count = _component_vertices(
        tri, graph.disks, np.zeros(len(graph.disks), dtype=np.int64))
    assert comp.tolist() == [0] * 6 and count.tolist() == [2] * 6
    assert [tri.edge_classes[r] for r in edge] == [
        "e1", "e2", "e4", "e5", "Eh", "Ev"]


@pytest.mark.parametrize("p,q", [(2, 1), (5, 2), (8, 3)])
def test_disk_graph_counts_arcs_and_vertices(p, q):
    tri = build_triangulation(p, q)
    for t in basis_vectors(tri)[1]:
        full = reconstruct_trigons(tri, tuple(2 * x for x in t))
        graph = glue_disks(tri, full)
        assert len(graph.disks) == full.total_disks()
        entries = full.entries
        assert len(graph.arcs) == sum(
            entries[trigon] + entries[quad]
            for trigon, quad, _, _ in tri.corner_slots.tolist())


def test_classify_memory_stays_in_arrays():
    # The first (8,3) fixture times 10^4: 80,000 normal disks and
    # 160,000 arcs.  A tuple or union-find node per disk held over
    # 100 MiB here.
    tri = build_triangulation(8, 3)
    h = next(f.vector for f in fixtures()
             if (f.params.p, f.params.q) == (8, 3))
    tracemalloc.start()
    try:
        report = classify(tri, tuple(10 ** 4 * x for x in h))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.euler == -20000 and len(report.components) == 5000
    assert peak < 12.5 * 2 ** 20


# ------------------------------------------------------------------ euler

@pytest.mark.parametrize("p", [3, 5, 7])
def test_axis_torus_euler(p):
    tri = build_triangulation(p, 1)
    full = reconstruct_trigons(tri, (1, 0, 0) * p)
    assert euler_characteristic(tri, full) == 0


def test_projective_plane_euler():
    tri = build_triangulation(2, 1)
    full = reconstruct_trigons(tri, (0, 1, 0, 0, 0, 1))
    assert euler_characteristic(tri, full) == 1


@pytest.mark.parametrize("p", [4, 6, 8])
def test_alternating_vector_euler(p):
    tri = build_triangulation(p, 1)
    v = (0, 1, 0, 0, 0, 1) * (p // 2)
    full = reconstruct_trigons(tri, v)
    assert euler_characteristic(tri, full) == 2 - p // 2


# ------------------------------------------------------------- components

def test_sphere_vector_is_one_component():
    tri = build_triangulation(4, 1)
    _, t_vecs = basis_vectors(tri)
    report = classify(tri, t_vecs[0])
    assert report.components == ((2, True),)
    assert report.edge_weights["Ev"] % 2 == 0
    assert report.edge_weights["e1"] == 0


def test_axis_torus_is_connected():
    tri = build_triangulation(3, 1)
    report = classify(tri, (1, 0, 0) * 3)
    assert report.components == ((0, True),)


def test_doubled_two_sided_surface_splits():
    tri = build_triangulation(5, 1)
    report = classify(tri, (2, 0, 0) * 5)
    assert report.euler == 0
    assert report.components == ((0, True), (0, True))


def test_doubled_one_sided_surface_is_its_double_cover():
    # Doubling the projective plane in (2,1) yields the sphere around
    # the second slanted edge, still one component.
    tri = build_triangulation(2, 1)
    report = classify(tri, (0, 2, 0, 0, 0, 2))
    assert report.euler == 2
    assert report.components == ((2, True),)
    assert report.orientable


# ----------------------------------------------------------- orientability

def test_two_one_classifications():
    tri = build_triangulation(2, 1)
    torus = classify(tri, (1, 0, 0, 1, 0, 0))
    assert (torus.euler, torus.orientable) == (0, True)
    for v in ((0, 1, 0, 0, 0, 1), (0, 0, 1, 0, 1, 0)):
        report = classify(tri, v)
        assert (report.euler, report.orientable) == (1, False)
        assert surface_name(*report.components[0]) == "projective plane"


@pytest.mark.parametrize("p", [4, 6])
def test_alternating_vectors_classify_as_cross_cap_sums(p):
    tri = build_triangulation(p, 1)
    for v in ((0, 1, 0, 0, 0, 1) * (p // 2), (0, 0, 1, 0, 1, 0) * (p // 2)):
        report = classify(tri, v)
        assert report.euler == 2 - p // 2
        assert not report.orientable
        assert len(report.components) == 1


@pytest.mark.parametrize("p,q", [(2, 1), (3, 1), (4, 1), (5, 2), (8, 3)])
def test_parity_law_for_basis_spheres(p, q):
    tri = build_triangulation(p, q)
    _, t_vecs = basis_vectors(tri)
    for t in t_vecs:
        report = classify(tri, t)
        assert report.orientable
        assert report.edge_weights["Ev"] % 2 == 0
        assert report.edge_weights["Eh"] % 2 == 0


# ------------------------------------------------------ rotation symmetry

@pytest.mark.parametrize("p,q", [(5, 1), (5, 2), (7, 3)])
def test_sphere_vectors_are_rotations_of_each_other(p, q):
    tri = build_triangulation(p, q)
    _, t_vecs = basis_vectors(tri)
    for i in range(p):
        assert rotate(t_vecs[0], p, i) == t_vecs[i]


def test_rotation_preserves_classification():
    tri = build_triangulation(6, 1)
    v = (0, 1, 0, 0, 0, 1) * 3
    base = classify(tri, v)
    rotated = classify(tri, rotate(v, 6, 2))
    assert (base.euler, base.orientable) == (rotated.euler,
                                             rotated.orientable)


PROPERTY_SETTINGS = settings(max_examples=60, deadline=None,
                             derandomize=True, database=None)


def _square_fundamentals():
    """Known square-condition fundamentals by (p,q): the closed-form
    lists with p <= 9 and the fixtures with p <= 30."""
    known = {}
    for p, q in coprime_pairs(9):
        try:
            known[(p, q)] = list(expected_for(p, q).vectors)
        except NoExpectation:
            pass
    for fixture in fixtures():
        if fixture.params.p <= 30:
            key = (fixture.params.p, fixture.params.q)
            known.setdefault(key, []).append(fixture.vector)
    return known


SQUARE_FUNDAMENTALS = _square_fundamentals()


@st.composite
def square_solutions(draw, base=None):
    """A pair (p,q) and a non-zero sum of multiples of its known
    fundamentals that keeps the square condition.  Given ``base`` =
    (p, q, vector), the sum is for that pair and keeps the square
    condition when added to the vector; it may then be zero."""
    if base is None:
        p, q = draw(st.sampled_from(sorted(SQUARE_FUNDAMENTALS)))
        start = (0,) * (3 * p)
    else:
        p, q, start = base
    picks = draw(st.lists(
        st.tuples(st.sampled_from(SQUARE_FUNDAMENTALS[(p, q)]),
                  st.integers(1, 3)), min_size=1, max_size=4))
    total = list(start)
    for v, k in picks:
        candidate = [t + k * x for t, x in zip(total, v)]
        if square_condition(candidate):
            total = candidate
    return p, q, tuple(t - x for t, x in zip(total, start))


@PROPERTY_SETTINGS
@given(square_solutions(), st.data())
def test_array_passes_match_the_reference(case, data):
    p, q, v = case
    tri = build_triangulation(p, q)
    full = reconstruct_trigons(tri, v)
    steps = data.draw(st.lists(st.integers(0, 3), min_size=7 * p,
                               max_size=7 * p))
    perturbed = [x + k for x, k in zip(full.entries, steps)]
    found = (full.entries, edge_weights(tri, full),
             haken_residual(tri, FullCoordinates(tri, perturbed)),
             euler_characteristic(tri, full))
    assert found == reference_surface_passes(tri, v, perturbed)


@PROPERTY_SETTINGS
@given(st.sampled_from(coprime_pairs(12)), st.data())
def test_rotation_by_one_block_keeps_solutions(pair, data):
    tri = build_triangulation(*pair)
    p = tri.p
    coeffs = st.lists(st.integers(-3, 3), min_size=p, max_size=p)
    v = expand(tri, BasisCoefficients(a=tuple(data.draw(coeffs)),
                                      b=tuple(data.draw(coeffs))))
    assert is_q_solution(q_matrix(tri), rotate(v, p, 1))


@PROPERTY_SETTINGS
@given(square_solutions())
def test_classify_is_equivariant_under_block_rotation(case):
    p, q, v = case
    tri = build_triangulation(p, q)
    base = classify(tri, v)
    turned = classify(tri, rotate(v, p, 1))
    assert (turned.euler, turned.orientable) == (base.euler, base.orientable)
    assert sorted(turned.components) == sorted(base.components)
    relabelled = {
        label if label in ("Eh", "Ev") else f"e{int(label[1:]) % p + 1}": w
        for label, w in base.edge_weights.items()}
    assert turned.edge_weights == relabelled


@pytest.mark.parametrize("p,q,count", [
    (5, 2, 6), (8, 3, 17), (10, 3, 21), (12, 5, 25), (13, 5, 53)])
def test_classify_is_invariant_under_the_core_exchange(p, q, count):
    # The search closes its answers under the core exchange kappa, a
    # symmetry of the matching equations; that it is the lens-space
    # symmetry exchanging the two core circles shows in the surfaces:
    # each square fundamental and its kappa image have the same Euler
    # characteristic, orientability and components.
    tri = build_triangulation(p, q)
    matrix = q_matrix(tri)
    kappa = core_exchange(p, q)
    found = square_fundamental_solutions(matrix)
    assert len(found) == count
    for v in found:
        image = tuple(v[c] for c in kappa)
        assert image in found
        base, moved = classify(tri, v), classify(tri, image)
        assert (moved.euler, moved.orientable) == (base.euler,
                                                   base.orientable)
        assert sorted(moved.components) == sorted(base.components)


@PROPERTY_SETTINGS
@given(st.data())
def test_euler_and_edge_weights_are_additive(data):
    # chi and the edge weights add over a Haken sum that keeps the
    # square condition, up to the vertex links its normalization drops:
    # no quads, one trigon count per vertex class, each link a sphere.
    p, q, u = data.draw(square_solutions())
    _, _, v = data.draw(square_solutions(base=(p, q, u)))
    assume(any(v))
    tri = build_triangulation(p, q)
    total = tuple(a + b for a, b in zip(u, v))
    full_u, full_v, full_sum = (reconstruct_trigons(tri, w)
                                for w in (u, v, total))
    links = FullCoordinates(tri, [a + b - c for a, b, c in zip(
        full_u.entries, full_v.entries, full_sum.entries)])
    assert all(links.quads(tet, j) == 0
               for tet in tri.tetrahedra for j in (1, 2, 3))
    counts = []
    for corner_class in vertex_classes(tri):
        levels = {links.trigons(tet, c) for tet, c in corner_class}
        assert len(levels) == 1 and min(levels) >= 0
        counts.extend(levels)
    assert euler_characteristic(tri, links) == 2 * sum(counts)
    reports = [classify(tri, w) for w in (u, v, total)]
    assert reports[0].euler + reports[1].euler == \
        reports[2].euler + 2 * sum(counts)
    link_weights = edge_weights(tri, links)
    for label in tri.edge_classes:
        assert (reports[0].edge_weights[label]
                + reports[1].edge_weights[label]) == \
            reports[2].edge_weights[label] + link_weights[label]


# ------------------------------------------ disk gluing against a reference

def reference_gluing(tri, v):
    """Reference for ``glue_disks`` and ``classify``: the per-disk
    gluing, with one breadth-first labelling of the 6n crossing nodes
    and one of the n disks with side parities.  Returns (arcs, number
    of surface vertices, components in order of least disk)."""
    full = reconstruct_trigons(tri, v)
    first = list(accumulate(full.entries, initial=0))
    tet_of = [slot // 7 + 1 for slot, count in enumerate(full.entries)
              for _ in range(count)]
    n = len(tet_of)

    def stack(tet, corner, j):
        """Arcs at a face corner whose corner quad type is j, innermost
        first, as (disk, reference side faces the corner) pairs."""
        slot = 7 * (tet - 1)
        out = [(d, 0) for d in range(first[slot + corner],
                                     first[slot + corner + 1])]
        quads = range(first[slot + 3 + j], first[slot + 4 + j])
        if corner in QUAD_PAIRS[j][0]:
            return out + [(d, 0) for d in quads]
        return out + [(d, 1) for d in reversed(quads)]

    arcs, joins = [], []
    crossed = bytearray(6 * n)
    gluings = reference_corner_gluings(tri)
    for face, (tet_a, za, qa), (tet_b, zb, qb) in gluings:
        side_a, side_b = stack(tet_a, za, qa), stack(tet_b, zb, qb)
        if len(side_a) != len(side_b):
            raise ArityMismatch(f"face {face.label}")
        edges = [(LOCAL_EDGES.index(frozenset((za, ya))),
                  LOCAL_EDGES.index(frozenset((zb, yb))))
                 for ya, yb in face.corners() if ya != za]
        for (da, flip_a), (db, flip_b) in zip(side_a, side_b):
            arcs.append((da, db, flip_a ^ flip_b))
            for ea, eb in edges:
                joins.append((6 * da + ea, 6 * db + eb, 0))
                crossed[6 * da + ea] = crossed[6 * db + eb] = 1
    vertices = [cls for cls in bfs_classes(6 * n, joins)[0]
                if crossed[cls[0]]]
    labels = [reference_edge_of(tri, tet_of[cls[0] // 6],
                                LOCAL_EDGES[cls[0] % 6])
              for cls in vertices]
    slots = reference_edge_slots(tri)
    for cls, label in zip(vertices, labels):
        if len(cls) != len(slots[label]):
            raise ArityMismatch(f"edge {label}")

    classes, parity = bfs_classes(n, arcs)
    contradicted = [da for da, db, flip in arcs
                    if (parity[db] - parity[da] - flip) % 2]
    component_of = [0] * n
    for comp, cls in enumerate(classes):
        for d in cls:
            component_of[d] = comp
    euler = [len(cls) for cls in classes]
    for da, _, _ in arcs:
        euler[component_of[da]] -= 1
    for cls in vertices:
        euler[component_of[cls[0] // 6]] += 1
    one_sided = {component_of[d] for d in contradicted}
    components = tuple((e, comp not in one_sided)
                       for comp, e in enumerate(euler))
    return arcs, len(vertices), components


def assert_matches_reference(tri, v):
    arcs, vertices, components = reference_gluing(tri, v)
    graph = glue_disks(tri, reconstruct_trigons(tri, v))
    assert graph.arcs.tolist() == [list(arc) for arc in arcs]
    report = classify(tri, v)
    assert report.components == components
    assert report.euler == sum(e for e, _ in components)
    assert report.orientable == all(o for _, o in components)
    assert vertices == sum(report.edge_weights.values())


def test_fixtures_match_the_reference_gluing():
    # Twice and three times a fixture are surfaces of several
    # components.
    for fixture in fixtures():
        if fixture.params.p <= 30:
            tri = build_triangulation(fixture.params.p, fixture.params.q)
            for k in (1, 2, 3):
                assert_matches_reference(
                    tri, tuple(k * x for x in fixture.vector))


def test_classify_labels_at_most_two_nodes_per_disk(monkeypatch):
    # Only the sides of the disks are labelled; surface vertices are
    # counted from the edge crossings, not labelled.
    tri = build_triangulation(8, 3)
    h = next(f.vector for f in fixtures()
             if (f.params.p, f.params.q) == (8, 3))
    v = tuple(5 * x for x in h)
    sizes = []

    def spy(n, u, w, budget=None):
        sizes.append(n)
        return least_labels(n, u, w, budget)

    monkeypatch.setattr(surface, "least_labels", spy)
    classify(tri, v)
    n = reconstruct_trigons(tri, v).total_disks()
    assert sizes and max(sizes) <= 2 * n


@pytest.mark.parametrize("p,q", coprime_pairs(8))
def test_square_fundamentals_and_multiples_match_the_reference(p, q):
    tri = build_triangulation(p, q)
    for v in square_fundamental_solutions(q_matrix(tri)):
        for k in (1, 2, 3):
            assert_matches_reference(tri, tuple(k * x for x in v))


@PROPERTY_SETTINGS
@given(square_solutions())
def test_square_sums_match_the_reference(case):
    p, q, v = case
    assert_matches_reference(build_triangulation(p, q), v)


# ------------------------------------------------------ doubling identities

@pytest.mark.parametrize("p", [4, 6])
def test_doubled_alternating_vectors_are_sphere_sums(p):
    tri = build_triangulation(p, 1)
    _, t_vecs = basis_vectors(tri)
    for start, parity in ((2, 1), (3, 0)):
        if start == 2:
            v = (0, 1, 0, 0, 0, 1) * (p // 2)
        else:
            v = (0, 0, 1, 0, 1, 0) * (p // 2)
        doubled = tuple(2 * x for x in v)
        total = [0] * (3 * p)
        for k in range(parity, p, 2):
            for j, x in enumerate(t_vecs[k]):
                total[j] += x
        assert doubled == tuple(total)


def test_doubling_two_sided_euler_doubles():
    tri = build_triangulation(7, 1)
    v = (1, 0, 0) * 7
    single = classify(tri, v)
    double = classify(tri, tuple(2 * x for x in v))
    assert double.euler == 2 * single.euler


def test_multiples_of_a_one_sided_surface():
    # k copies of a one-sided surface normalize to floor(k/2) copies of
    # the orientable double cover plus one odd copy.
    tri = build_triangulation(4, 1)
    v = (0, 1, 0, 0, 0, 1) * 2  # Klein bottle, double cover is a torus
    for k, expected in ((1, ((0, False),)),
                        (2, ((0, True),)),
                        (3, ((0, True), (0, False))),
                        (4, ((0, True), (0, True)))):
        report = classify(tri, tuple(k * x for x in v))
        assert tuple(sorted(report.components)) == tuple(sorted(expected))


def test_multiples_of_a_sphere_stay_parallel_spheres():
    tri = build_triangulation(8, 3)
    _, t_vecs = basis_vectors(tri)
    for k in (1, 2, 3):
        report = classify(tri, tuple(k * x for x in t_vecs[0]))
        assert report.components == ((2, True),) * k


def test_sum_of_sphere_vectors_with_shared_block():
    # The sphere vectors around edges 1 and 3 of T(8,3) share a block;
    # the minimal representative of their coordinate sum is the tube
    # sum, a torus, not the disjoint union.
    tri = build_triangulation(8, 3)
    _, t_vecs = basis_vectors(tri)
    v = tuple(a + b for a, b in zip(t_vecs[0], t_vecs[2]))
    report = classify(tri, v)
    assert report.components == ((0, True),)


def test_sum_with_block_conflict_is_rejected():
    tri = build_triangulation(8, 3)
    _, t_vecs = basis_vectors(tri)
    v = tuple(a + b for a, b in zip(t_vecs[0], t_vecs[1]))
    with pytest.raises(SquareConditionViolated):
        classify(tri, v)


@pytest.mark.parametrize("entry", [
    reconstruct_trigons, classify, decompose])
def test_a_matrix_of_another_pair_is_refused(entry):
    # The (7,3) matrix passes its own first fundamental, so without the
    # pair check the trigon walk over the (7,2) gluings fails its
    # matching equations and reports a bug (InconsistentPropagation).
    # decompose shares the one guard, refused before any residual.
    other = q_matrix(build_triangulation(7, 3))
    v = square_fundamental_solutions(other)[0]
    with pytest.raises(InvalidParams, match=r"^matrix of \(p,q\)=\(7,3\) "
                       r"given for \(7,2\)$"):
        entry(build_triangulation(7, 2), v, matrix=other)


@pytest.mark.parametrize("entry", [
    edge_weights, haken_residual, euler_characteristic, glue_disks])
@pytest.mark.parametrize("p,q", [(10, 3), (8, 5)])
def test_a_surface_of_another_pair_is_refused(entry, p, q):
    # Read with the (8,3) triangulation, the (10,3) surface gave weights
    # from its first 56 entries and the (8,5) one chi = -2.
    full = reconstruct_trigons(build_triangulation(p, q),
                               alternating_vector(p, 3))
    with pytest.raises(InvalidParams, match=(
            rf"^surface of \(p,q\)=\({p},{q}\) given for \(8,3\)$")):
        entry(build_triangulation(8, 3), full)


# ------------------------------------------------------------- criterion

def test_criterion_on_the_alternating_surface():
    tri = build_triangulation(8, 3)
    v = (0, 0, 1, 0, 1, 0) * 4
    report = classify(tri, v)
    assert report.meets_cores_once and report.has_type23_quad
    assert report.haken_fundamental_criterion


def test_criterion_fails_for_core_avoiding_torus():
    tri = build_triangulation(5, 1)
    report = classify(tri, (1, 0, 0) * 5)
    assert not report.has_type23_quad
    assert not report.haken_fundamental_criterion


# ---------------------------------------------------------------- naming

def test_surface_names():
    assert surface_name(2, True) == "sphere"
    assert surface_name(0, True) == "torus"
    assert surface_name(-2, True) == "orientable genus-2 surface"
    assert surface_name(1, False) == "projective plane"
    assert surface_name(0, False) == "Klein bottle"
    assert surface_name(-3, False) == "non-orientable genus-5 surface"
