"""
Tests for the triangulation combinatorics: parameter validation, face
and edge incidence, vertex classes, and the sense tables.

The closed-form index tables are checked against per-slot reference
builders kept here: one face class, edge slot, corner gluing and sense
contribution at a time.  Edge degrees, vertex classes and senses are
read off what the program reads: ``slot_edges``, ``corner_table`` and
the quad matrix.
"""

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lensq.errors import BudgetExceeded, InvalidParams
from lensq.qsystem import q_matrix
from lensq.surface import QUAD_ASCENDS, _corner_slots, least_labels
from lensq.triangulation import (
    BOT,
    LEFT,
    LOCAL_EDGES,
    PAIR_TO_QUAD,
    QUAD_PAIRS,
    QUAD_TYPES,
    RIGHT,
    TOP,
    LensParams,
    build_triangulation,
)


def coprime_pairs(max_p):
    return [(p, q) for p in range(2, max_p + 1) for q in range(1, p)
            if math.gcd(p, q) == 1]


CORNERS = (TOP, BOT, LEFT, RIGHT)


# ----------------------------------------------- per-slot reference

def norm(tri, i):
    """Canonical representative of a tetrahedron/edge index in 1..p."""
    return (i - 1) % tri.p + 1


def edge_label(tri, i):
    return f"e{norm(tri, i)}"


@dataclass(frozen=True)
class FaceClass:
    """One glued face: ``sides`` holds the two (tetrahedron, face)
    slots, a face being named by its opposite corner, and
    ``vertex_map`` sends corners of the first face to corners of the
    second."""

    label: str
    sides: tuple[tuple[int, int], tuple[int, int]]
    vertex_map: dict[int, int]

    def corners(self):
        """(corner on side 0, matched corner on side 1) pairs, sorted."""
        return tuple(sorted(self.vertex_map.items()))


def reference_edge_of(tri, tet, local_edge):
    """Edge class of a local edge, from its corners alone."""
    if TOP in local_edge and BOT in local_edge:
        return "Ev"
    if LEFT in local_edge and RIGHT in local_edge:
        return "Eh"
    return edge_label(tri, tet + (RIGHT in local_edge)
                      - tri.q * (BOT in local_edge))


def reference_edge_slots(tri):
    slots = {label: [] for label in tri.edge_classes}
    for tet in tri.tetrahedra:
        for local_edge in LOCAL_EDGES:
            slots[reference_edge_of(tri, tet, local_edge)].append(
                (tet, local_edge))
    return {label: tuple(v) for label, v in slots.items()}


def reference_face_classes(tri):
    faces = []
    for k in tri.tetrahedra:
        faces.append(FaceClass(
            label=f"V{k}",
            sides=((norm(tri, k - 1), LEFT), (k, RIGHT)),
            vertex_map={TOP: TOP, BOT: BOT, RIGHT: LEFT},
        ))
    for k in tri.tetrahedra:
        faces.append(FaceClass(
            label=f"H{k}",
            sides=((k, BOT), (norm(tri, k + tri.q), TOP)),
            vertex_map={TOP: BOT, LEFT: LEFT, RIGHT: RIGHT},
        ))
    return tuple(faces)


def reference_corner_gluings(tri):
    """(face class, side a, side b) per glued face corner, a side being
    (tetrahedron, corner, quad type cutting off that corner there): the
    type pairing the corner with the off-face vertex, the face's own
    label."""
    gluings = []
    for face in reference_face_classes(tri):
        (tet_a, fa), (tet_b, fb) = face.sides
        for za, zb in face.corners():
            gluings.append((face,
                            (tet_a, za, PAIR_TO_QUAD[frozenset((za, fa))]),
                            (tet_b, zb, PAIR_TO_QUAD[frozenset((zb, fb))])))
    return tuple(gluings)


def sense_contributions(tri, i, j):
    """Signed unit contributions of quad type (i,j), one per crossed
    local edge, before coincident edge classes are merged: +1 on the
    pair of type j % 3 + 1 and -1 on the pair of the remaining type."""
    plus = j % 3 + 1
    return tuple((reference_edge_of(tri, i, edge),
                  1 if PAIR_TO_QUAD[edge] == plus else -1)
                 for edge in LOCAL_EDGES if PAIR_TO_QUAD[edge] != j)


def reference_quad_senses(tri, i, j):
    net = {}
    for label, s in sense_contributions(tri, i, j):
        net[label] = net.get(label, 0) + s
    return tuple((label, s) for label, s in net.items() if s)


def reference_columns(tri):
    index = {label: r for r, label in enumerate(tri.edge_classes)}
    return tuple(
        tuple((index[label], s)
              for label, s in reference_quad_senses(tri, i, j))
        for i in tri.tetrahedra for j in QUAD_TYPES)


def reference_corner_slots(tri):
    """What ``glue_disks`` reads, one glued corner at a time: the
    full-coordinate positions (trigon a, quad a, trigon b, quad b), and
    whether the quad copies of side a and of side b ascend toward the
    corner."""
    positions, ascends = [], []
    for _, (tet_a, za, qa), (tet_b, zb, qb) in reference_corner_gluings(tri):
        positions.append([7 * (tet_a - 1) + za, 7 * (tet_a - 1) + 3 + qa,
                          7 * (tet_b - 1) + zb, 7 * (tet_b - 1) + 3 + qb])
        ascends.append([za in QUAD_PAIRS[qa][0], zb in QUAD_PAIRS[qb][0]])
    return positions, ascends


def vertex_classes(tri):
    """The local corners (tetrahedron, corner) of each vertex class, in
    order of their least corner: the corner graph of ``corner_table``
    labelled by ``least_labels``."""
    table = tri.corner_table
    label = least_labels(4 * tri.p, 4 * table[:, 0] + table[:, 1],
                         4 * table[:, 3] + table[:, 4])
    return tuple(
        tuple((node // 4 + 1, node % 4)
              for node in np.flatnonzero(label == least).tolist())
        for least in np.unique(label).tolist())


def sense(tri, edge, quad):
    """Net sense of quad type ``quad = (i, j)`` at an edge class: the
    quad matrix entry in that edge's row and that quad's column."""
    i, j = quad
    return q_matrix(tri).rows[tri.edge_classes.index(edge)][
        3 * (i - 1) + j - 1]


def assert_tables_match_reference(p, q):
    tri = build_triangulation(p, q)
    index = {label: r for r, label in enumerate(tri.edge_classes)}
    assert tri.slot_edges.tolist() == [
        [index[reference_edge_of(tri, tet, edge)] for edge in LOCAL_EDGES]
        for tet in tri.tetrahedra]
    gluings = reference_corner_gluings(tri)
    assert tri.corner_table.tolist() == [
        [tet_a - 1, za, qa - 1, tet_b - 1, zb, qb - 1]
        for _, (tet_a, za, qa), (tet_b, zb, qb) in gluings]
    assert [tri.face_label(row) for row in range(6 * p)] == [
        face.label for face, _, _ in gluings]
    # Tuple for tuple and in entry order: exact.push_column reads them,
    # and the column arrays hold them end to end.
    matrix, reference = q_matrix(tri), reference_columns(tri)
    assert tuple(matrix.column(j) for j in range(3 * p)) == reference
    assert matrix.col_start.tolist() == list(
        accumulate(map(len, reference), initial=0))
    assert list(zip(matrix.col_rows.tolist(), matrix.col_coefs.tolist())) == [
        pair for column in reference for pair in column]
    slots = reference_edge_slots(tri)
    flat = tri.slot_edges.ravel()
    assert np.bincount(flat, minlength=p + 2).tolist() == [
        len(slots[label]) for label in tri.edge_classes]
    for row, label in enumerate(tri.edge_classes):
        assert tuple((s // 6 + 1, LOCAL_EDGES[s % 6])
                     for s in np.flatnonzero(flat == row).tolist()) == \
            slots[label]
    positions, ascends = reference_corner_slots(tri)
    corners = _corner_slots(tri)
    assert corners.dtype == np.int64 and corners.tolist() == positions
    # Row k of the corner table takes its face template's flags.
    rows = np.arange(6 * p)
    assert QUAD_ASCENDS[rows // (3 * p) * 3 + rows % 3].tolist() == ascends


def test_tables_match_the_per_slot_reference_below_forty():
    for p, q in coprime_pairs(39):
        assert_tables_match_reference(p, q)


@pytest.mark.parametrize("p,q", [(418, 153), (998, 11), (1000, 7)])
def test_tables_match_the_per_slot_reference_at_large_p(p, q):
    assert_tables_match_reference(p, q)


def test_tables_are_read_only():
    tri = build_triangulation(7, 3)
    for table in (tri.slot_edges, tri.corner_table):
        assert table.dtype == np.int64
        with pytest.raises(ValueError):
            table[0, 0] = 1


def assert_level_tree_spans(tri):
    """Each of the 4p - 2 non-root corners comes once, after its parent,
    and its ``corner_table`` row joins it to the parent: as side b when
    the sign is 1, as side a when it is -1."""
    tree = tri.level_tree
    assert tree.shape == (4 * tri.p - 2, 4)
    reached = {TOP, LEFT}  # of tetrahedron 1
    for node, parent, row, sign in tree.tolist():
        assert parent in reached and node not in reached
        reached.add(node)
        tet_a, za, _, tet_b, zb, _ = tri.corner_table[row].tolist()
        sides = (4 * tet_a + za, 4 * tet_b + zb)
        assert sides == {1: (parent, node), -1: (node, parent)}[sign]
    assert reached == set(range(4 * tri.p))
    # The rows are three chains hung from the roots, then the RIGHT
    # nodes off the third chain: the layout the trigon walk sums along.
    p, (node, parent) = tri.p, tree[:, :2].T.tolist()
    for first, end, root in ((0, p - 1, TOP), (p - 1, 2 * p - 1, TOP),
                             (2 * p - 1, 3 * p - 2, LEFT)):
        assert parent[first: end] == [root] + node[first: end - 1]
    assert set(parent[3 * p - 2:]) <= set(node[2 * p - 1: 3 * p - 2] + [LEFT])


def test_level_tree_spans_the_corners_below_forty():
    for p, q in coprime_pairs(39):
        assert_level_tree_spans(build_triangulation(p, q))


@pytest.mark.parametrize("p,q", [(998, 3), (1001, 5)])
def test_level_tree_spans_the_corners_at_large_p(p, q):
    assert_level_tree_spans(build_triangulation(p, q))


def test_level_tree_is_read_only_and_leaves_the_triangulation_unwritten():
    tri = build_triangulation(7, 3)
    before = dict(vars(tri))
    tree = tri.level_tree
    assert tree.dtype == np.int64
    with pytest.raises(ValueError):
        tree[0, 0] = 1
    assert vars(tri) == before


def test_two_vertex_classes_below_forty():
    for p, q in coprime_pairs(39):
        poles, equator = vertex_classes(build_triangulation(p, q))
        tets = range(1, p + 1)
        assert poles == tuple((k, c) for k in tets for c in (TOP, BOT))
        assert equator == tuple((k, c) for k in tets for c in (LEFT, RIGHT))


# ---------------------------------------------------------------- params

def test_valid_params():
    tri = build_triangulation(2, 1)
    assert tri.p == 2 and tri.q == 1
    assert len(tri.tetrahedra) == 2
    assert tri.edge_classes == ("e1", "e2", "Eh", "Ev")


def test_five_two_has_seven_edge_classes():
    tri = build_triangulation(5, 2)
    assert len(tri.tetrahedra) == 5
    assert len(tri.edge_classes) == 7


@pytest.mark.parametrize("p,q", [(4, 2), (6, 3), (9, 6)])
def test_non_coprime_rejected(p, q):
    with pytest.raises(InvalidParams):
        build_triangulation(p, q)


@pytest.mark.parametrize("p,q", [(1, 1), (0, 1), (3, 0), (3, 3), (5, 7)])
def test_bad_ranges_rejected(p, q):
    with pytest.raises(InvalidParams):
        LensParams(p, q)


def test_p_past_int64_is_refused_before_any_table():
    with pytest.raises(BudgetExceeded,
                       match=f"^p = {10 ** 21} cannot be indexed in int64$"):
        build_triangulation(10 ** 21, 1)


# ------------------------------------------------------------- incidence

@pytest.mark.parametrize("p,q", coprime_pairs(7))
def test_cell_complex_euler_characteristic_vanishes(p, q):
    tri = build_triangulation(p, q)
    vertices = len(vertex_classes(tri))
    edges = len(tri.edge_classes)
    faces = len(tri.corner_table) // 3
    assert vertices == 2
    assert faces == 2 * p
    assert vertices - edges + faces - p == 0


@pytest.mark.parametrize("p,q", coprime_pairs(6))
def test_every_tetrahedron_fills_four_face_slots(p, q):
    tri = build_triangulation(p, q)
    slots = {}
    # Each face holds three rows; on either side its three corners are
    # all but the one that names the face.
    for face in tri.corner_table.reshape(2 * p, 3, 6).tolist():
        for side in (0, 3):
            (tet,) = {row[side] for row in face}
            (face_id,) = set(CORNERS) - {row[side + 1] for row in face}
            slots.setdefault(tet + 1, []).append(face_id)
    for tet in tri.tetrahedra:
        # All four faces of each tetrahedron appear exactly once.
        assert sorted(slots[tet]) == sorted(CORNERS)


@pytest.mark.parametrize("p,q", coprime_pairs(6))
def test_corner_gluings_cover_each_corner_once_per_quad_type(p, q):
    tri = build_triangulation(p, q)
    assert len(tri.corner_table) == 6 * p
    seen = {}
    for row in tri.corner_table.tolist():
        for tet, corner, qtype in (row[:3], row[3:]):
            seen.setdefault((tet + 1, corner), []).append(qtype + 1)
    # A corner lies on three faces, and in each it is cut off by a
    # different quad type.
    assert sorted(seen) == [(tet, c) for tet in tri.tetrahedra
                            for c in CORNERS]
    assert all(sorted(types) == [1, 2, 3] for types in seen.values())


def test_slanted_edge_joins_both_poles():
    tri = build_triangulation(7, 3)
    top_left = LOCAL_EDGES.index(frozenset((TOP, LEFT)))
    bot_left = LOCAL_EDGES.index(frozenset((BOT, LEFT)))
    for i in tri.tetrahedra:
        # pole-to-left-equator edge of tet i is class e_i ...
        assert tri.edge_classes[tri.slot_edges[i - 1, top_left]] == f"e{i}"
        # ... and the south-pole copy sits in tet i+q as its left edge.
        j = norm(tri, i + tri.q)
        assert tri.edge_classes[tri.slot_edges[j - 1, bot_left]] == f"e{i}"


def test_horizontal_gluing_of_five_two():
    # H1 glues the BOT face of tetrahedron 1 to the TOP face of 3 by
    # top -> bot, left -> left, right -> right: rows 3p .. 3p + 2.
    tri = build_triangulation(5, 2)
    rows = tri.corner_table[15:18].tolist()
    assert {tri.face_label(row) for row in range(15, 18)} == {"H1"}
    assert [(ta, za, tb, zb) for ta, za, _, tb, zb, _ in rows] == [
        (0, TOP, 2, BOT), (0, LEFT, 2, LEFT), (0, RIGHT, 2, RIGHT)]


def test_vertical_face_of_two_one():
    # V1 glues the LEFT face of tetrahedron 2 to the RIGHT face of 1.
    tri = build_triangulation(2, 1)
    rows = tri.corner_table[:3].tolist()
    assert {tri.face_label(row) for row in range(3)} == {"V1"}
    assert {(ta, tb) for ta, _, _, tb, _, _ in rows} == {(1, 0)}
    assert LEFT not in {za for _, za, _, _, _, _ in rows}
    assert RIGHT not in {zb for _, _, _, _, zb, _ in rows}


@pytest.mark.parametrize("p,q", coprime_pairs(6))
def test_edge_degrees(p, q):
    # Degrees e_1 .. e_p, Eh, Ev, in the row order of ``edge_classes``.
    tri = build_triangulation(p, q)
    degrees = np.bincount(tri.slot_edges.ravel(), minlength=p + 2)
    assert degrees.tolist() == [4] * p + [p, p]
    assert degrees.sum() == 6 * p


# ----------------------------------------------------------------- sense

def test_sense_table_for_q_one():
    tri = build_triangulation(5, 1)
    for i in tri.tetrahedra:
        before, after = edge_label(tri, i - 1), edge_label(tri, i + 1)
        here = edge_label(tri, i)
        assert sense(tri, before, (i, 1)) == 1
        assert sense(tri, here, (i, 1)) == -2
        assert sense(tri, after, (i, 1)) == 1
        assert sense(tri, here, (i, 2)) == 2
        assert sense(tri, before, (i, 2)) == 0
        assert sense(tri, before, (i, 3)) == -1
        assert sense(tri, after, (i, 3)) == -1
        assert sense(tri, here, (i, 3)) == 0
        assert sense(tri, "Eh", (i, 1)) == 0
        assert sense(tri, "Ev", (i, 1)) == 0
        assert sense(tri, "Eh", (i, 2)) == -1
        assert sense(tri, "Ev", (i, 2)) == -1
        assert sense(tri, "Eh", (i, 3)) == 1
        assert sense(tri, "Ev", (i, 3)) == 1


def test_sense_table_for_two_one():
    # Doubled collisions: the values are -2, 2, 0 on slanted edges.
    tri = build_triangulation(2, 1)
    for k, j in ((1, 2), (2, 1)):
        ek, ej = f"e{k}", f"e{j}"
        assert sense(tri, ek, (k, 1)) == -2
        assert sense(tri, ej, (k, 1)) == 2
        assert sense(tri, ek, (k, 2)) == 2
        assert sense(tri, ej, (k, 2)) == 0
        assert sense(tri, ek, (k, 3)) == 0
        assert sense(tri, ej, (k, 3)) == -2
        assert sense(tri, "Eh", (k, 2)) == -1
        assert sense(tri, "Ev", (k, 3)) == 1


@pytest.mark.parametrize("p,q", [(5, 2), (7, 3), (8, 5), (9, 4)])
def test_core_circle_senses(p, q):
    tri = build_triangulation(p, q)
    for i in tri.tetrahedra:
        assert sense(tri, "Eh", (i, 2)) == -1
        assert sense(tri, "Ev", (i, 2)) == -1
        assert sense(tri, "Eh", (i, 3)) == 1


@pytest.mark.parametrize("p,q", coprime_pairs(7))
def test_sense_contributions_match_crossed_edges(p, q):
    """Each signed unit contribution must sit on an edge the quad
    actually crosses, with multiplicity: the four local edges joining
    its two partition pairs, classed by ``slot_edges``."""
    tri = build_triangulation(p, q)
    for i in tri.tetrahedra:
        for j in (1, 2, 3):
            contributed = sorted(label for label, _ in
                                 sense_contributions(tri, i, j))
            pair_a, pair_b = QUAD_PAIRS[j]
            crossed = sorted(
                tri.edge_classes[tri.slot_edges[
                    i - 1, LOCAL_EDGES.index(frozenset((u, v)))]]
                for u in pair_a for v in pair_b)
            assert contributed == crossed


def hand_sense_table(tri, i, j):
    """The sense contributions of quad (i,j) written out by hand, one
    branch per quad type: the reference the one-rule
    ``sense_contributions`` is checked against, which in turn checks
    the QMatrix columns (``reference_columns``)."""
    q = tri.q

    def e(i):
        return edge_label(tri, i)

    return {
        1: ((e(i - q), +1), (e(i - q + 1), -1), (e(i), -1), (e(i + 1), +1)),
        2: ((e(i - q + 1), +1), (e(i), +1), ("Eh", -1), ("Ev", -1)),
        3: ((e(i - q), -1), (e(i + 1), -1), ("Eh", +1), ("Ev", +1)),
    }[j]


def test_sense_rule_matches_hand_table_below_forty():
    for p, q in coprime_pairs(39):
        tri = build_triangulation(p, q)
        for i in tri.tetrahedra:
            for j in (1, 2, 3):
                assert sorted(sense_contributions(tri, i, j)) == \
                    sorted(hand_sense_table(tri, i, j)), (p, q, i, j)


@pytest.mark.parametrize("j", [0, 4, -1])
def test_sense_contributions_reject_bad_type(j):
    tri = build_triangulation(5, 2)
    with pytest.raises(ValueError, match="^quad type must be 1, 2 or 3"):
        tri.sense_template(j)


@pytest.mark.parametrize("p,q", coprime_pairs(7))
def test_quad_separates_opposite_edges(p, q):
    # A quad is disjoint from the two local edges of its partition
    # pairs; their classes, by ``slot_edges``.
    tri = build_triangulation(p, q)

    def separated(i, j):
        return tuple(tri.edge_classes[tri.slot_edges[
            i - 1, LOCAL_EDGES.index(pair)]] for pair in QUAD_PAIRS[j])

    for i in tri.tetrahedra:
        assert separated(i, 1) == ("Ev", "Eh")
        assert separated(i, 2) == (edge_label(tri, i + 1),
                                   edge_label(tri, i - q))
        assert separated(i, 3) == (edge_label(tri, i),
                                   edge_label(tri, i - q + 1))


@pytest.mark.parametrize("p,q", [(5, 2), (7, 2), (7, 3), (8, 3), (9, 2)])
def test_mirror_parameter_symmetry(p, q):
    """T(p,q) and T(p,p-q) have the same multiset of sense values."""
    def all_senses(tri):
        return sorted(abs(x) for row in q_matrix(tri).rows for x in row)

    assert all_senses(build_triangulation(p, q)) == \
        all_senses(build_triangulation(p, p - q))


def test_local_edges_cover_tetrahedron():
    assert len(LOCAL_EDGES) == 6
    assert frozenset((TOP, BOT)) in LOCAL_EDGES
    assert frozenset((LEFT, RIGHT)) in LOCAL_EDGES


# ------------------------------------------------- class labelling

def bfs_classes(n, edges):
    """Reference labelling by one breadth-first pass: the classes of
    the nodes 0..n-1 under the edges (x, y, d), each an ascending list,
    in order of their least node, and each node's potential relative to
    that least node, pot(y) - pot(x) = d along the edges first reached.
    Edges off the search tree are not checked."""
    adjacent = [[] for _ in range(n)]
    for x, y, d in edges:
        adjacent[x].append((y, d))
        adjacent[y].append((x, -d))
    potential, classes = [None] * n, []
    for start in range(n):
        if potential[start] is None:
            potential[start], queue = 0, [start]
            for node in queue:
                for other, d in adjacent[node]:
                    if potential[other] is None:
                        potential[other] = potential[node] + d
                        queue.append(other)
            classes.append(sorted(queue))
    return classes, potential


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 16).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                       st.booleans()), max_size=32))))
def test_least_labels_name_the_least_node_of_each_class(case):
    n, edges = case
    classes, parity = bfs_classes(n, [(x, y, int(flip))
                                      for x, y, flip in edges])
    want = [0] * n
    for cls in classes:
        for x in cls:
            want[x] = cls[0]
    u = [x for x, _, _ in edges]
    v = [y for _, y, _ in edges]
    assert least_labels(n, u, v).tolist() == want

    # The doubled side graph: side s of x meets side s ^ flip of y.  A
    # class is one-sided exactly when some edge contradicts the parities
    # of the search.
    one_sided = {want[x] for x, y, flip in edges
                 if (parity[y] - parity[x] - flip) % 2}
    flips = np.array([int(flip) for _, _, flip in edges], dtype=np.int64)
    u, v = np.array(u, dtype=np.int64), np.array(v, dtype=np.int64)
    doubled = least_labels(2 * n, np.concatenate((2 * u, 2 * u + 1)),
                           np.concatenate((2 * v + flips, 2 * v + 1 - flips)))
    for cls in classes:
        least = cls[0]
        assert (doubled[2 * least] == doubled[2 * least + 1]) == (
            least in one_sided)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 40).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
             max_size=60))))
def test_least_labels_keep_int32_edges_and_their_classes(case):
    n, edges = case
    u = [x for x, _ in edges]
    v = [y for _, y in edges]
    wide = least_labels(n, np.array(u, dtype=np.int64),
                        np.array(v, dtype=np.int64))
    narrow = least_labels(n, np.array(u, dtype=np.int32),
                          np.array(v, dtype=np.int32))
    assert wide.dtype == np.int64 and narrow.dtype == np.int32
    assert np.array_equal(narrow, wide)
    # Mixed widths, and lists, take int64.
    assert least_labels(n, np.array(u, dtype=np.int32), v).dtype == np.int64


@pytest.mark.parametrize("n", [0, 1, 7])
def test_least_labels_without_edges_are_the_nodes(n):
    assert np.array_equal(least_labels(n, [], []), np.arange(n))
