"""
Reconstruction and topological classification of normal surfaces from
quad coordinates.

A quad vector that solves the matching equations and obeys the square
condition determines a normal surface once trigon counts are filled in.
The trigon counts follow from the face gluings: at every glued face
corner, the arcs from both sides must agree in number, which fixes all
trigon counts relative to one another around each vertex class; the
surface with no trivial (vertex-linking) component is the shift that
makes the minimum count in each class zero.

Classification numbers the disks slot by slot and glues them across
every face corner, matching arcs in nesting order.  All gluing goes
through one union-find with potentials (``triangulation.Potentials``):
trigon levels are potentials on the 4p corners; each arc joins its
disks' crossings with the face's other edges into surface vertices;
and the disks, glued along the arcs with each arc's side parity mod 2,
form the components.  A component is two-sided (equivalently
orientable, the ambient space being orientable) exactly when no arc
contradicts that parity.  chi = crossings - arcs + disks, per component.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

from .cone import Budget
from .errors import (
    ArityMismatch,
    DimensionMismatch,
    EmptyVector,
    InconsistentPropagation,
    InconsistentWeights,
    NotASolution,
    SquareConditionViolated,
)
from .qsystem import QMatrix, check_qvector, is_q_solution, q_matrix, square_condition
from .triangulation import (
    CORNERS,
    LOCAL_EDGES,
    QUAD_PAIRS,
    QUAD_TYPES,
    PAIR_TO_QUAD,
    LensTriangulation,
    Potentials,
)

# Per-tetrahedron layout of a full coordinate vector: four trigon counts
# in corner order, then the three quad counts.  Disks are numbered in
# the same order, each slot's copies in a row.
SLOTS_PER_TET = 7
DISK_KINDS = (tuple(("T", corner) for corner in CORNERS)
              + tuple(("Q", j) for j in QUAD_TYPES))
EDGE_INDEX = {edge: k for k, edge in enumerate(LOCAL_EDGES)}


class FullCoordinates:
    """A normal surface in full (trigon + quad) coordinates.

    ``entries`` is the flat 7p vector, tetrahedron-major, each block
    being (t_top, t_bot, t_left, t_right, x_1, x_2, x_3).
    """

    def __init__(self, tri: LensTriangulation, entries):
        entries = tuple(int(x) for x in entries)
        if len(entries) != SLOTS_PER_TET * tri.p:
            raise DimensionMismatch(
                f"full coordinates need length 7p = {SLOTS_PER_TET * tri.p},"
                f" got {len(entries)}")
        self.tri = tri
        self.entries = entries

    def trigons(self, tet: int, corner: int) -> int:
        return self.entries[SLOTS_PER_TET * (tet - 1) + corner]

    def quads(self, tet: int, qtype: int) -> int:
        return self.entries[SLOTS_PER_TET * (tet - 1) + 4 + (qtype - 1)]

    def total_disks(self) -> int:
        return sum(self.entries)

    def arcs(self, tet: int, corner: int, qtype: int) -> int:
        """Arcs cutting off ``corner`` in a face of ``tet`` whose corner
        quad type is ``qtype``: one per trigon there, one per quad."""
        return self.trigons(tet, corner) + self.quads(tet, qtype)

    def __eq__(self, other):
        return (isinstance(other, FullCoordinates)
                and self.entries == other.entries)

    def __repr__(self):
        return f"FullCoordinates(p={self.tri.p}, q={self.tri.q})"


def haken_matrix(tri: LensTriangulation):
    """The 6p x 7p full matching matrix, the dense form of
    ``tri.corner_gluings`` for display: one row per glued face corner.

    Row blocks follow the face-class order (vertical then cone faces),
    with one row per corner of the first side, corners ascending.  Each
    row is (side one arc count) - (side two arc count), so entries lie
    in {-1, 0, +1} and a full coordinate vector represents a surface
    exactly when the matrix kills it.
    """
    n = SLOTS_PER_TET * tri.p
    rows = []
    for _, side_a, side_b in tri.corner_gluings:
        row = [0] * n
        for (tet, corner, qtype), sign in ((side_a, 1), (side_b, -1)):
            row[SLOTS_PER_TET * (tet - 1) + corner] += sign
            row[SLOTS_PER_TET * (tet - 1) + 3 + qtype] += sign
        rows.append(tuple(row))
    return tuple(rows)


def haken_residual(tri: LensTriangulation, full: FullCoordinates):
    """``haken_matrix(tri)`` applied to ``full.entries``, one entry per
    glued face corner, without building the matrix."""
    return tuple(full.arcs(*side_a) - full.arcs(*side_b)
                 for _, side_a, side_b in tri.corner_gluings)


def reconstruct_trigons(tri: LensTriangulation, v,
                        matrix: QMatrix | None = None) -> FullCoordinates:
    """Fill in trigon counts for a quad solution with the square
    condition, normalized to have no trivial component.

    Each glued face corner z of ``tri.corner_gluings`` imposes
    t(z) + x(quad at z) = t(z') + x(quad at z'), one difference between
    two trigon levels in a union-find with potentials.  That fixes all
    trigon counts up to one constant per vertex class, which the
    no-trivial-component normalization pins to make each class's
    minimum zero.  A contradiction on a cycle is impossible for a
    matching solution and raises InconsistentPropagation as a guarded
    bug signal.
    """
    vec = check_qvector(v, tri.p, require_nonneg=True)
    if not any(vec):
        raise EmptyVector("cannot reconstruct a surface from the zero vector")
    if matrix is None:
        matrix = q_matrix(tri)
    if not is_q_solution(matrix, vec):
        raise NotASolution("quad vector violates the matching equations")
    if not square_condition(vec):
        raise SquareConditionViolated(
            "more than one quad type in a tetrahedron")

    def quad_count(tet, qtype):
        return vec[3 * (tet - 1) + (qtype - 1)]

    # Corner node 4(tet-1)+c; its potential is the trigon level, which
    # steps by the quad count here minus the quad count there across
    # each glued corner.
    levels = Potentials(4 * tri.p)
    for _, (tet_a, za, qa), (tet_b, zb, qb) in tri.corner_gluings:
        step = quad_count(tet_a, qa) - quad_count(tet_b, qb)
        if not levels.union(4 * (tet_a - 1) + za, 4 * (tet_b - 1) + zb,
                            step):
            raise InconsistentPropagation(
                f"corner {(tet_b, zb)} got contradictory trigon levels")
    level = [levels.find(node)[1] for node in range(4 * tri.p)]
    for corner_class in levels.classes():
        shift = min(level[node] for node in corner_class)
        for node in corner_class:
            level[node] -= shift

    entries = []
    for tet in tri.tetrahedra:
        entries.extend(level[4 * (tet - 1): 4 * tet])
        entries.extend(quad_count(tet, j) for j in QUAD_TYPES)
    full = FullCoordinates(tri, entries)
    if any(haken_residual(tri, full)):
        raise InconsistentPropagation(
            "reconstructed coordinates fail the full matching equations")
    return full


def edge_weights(tri: LensTriangulation, full: FullCoordinates):
    """Crossing count of the surface with each edge class.

    Every (tetrahedron, local edge) slot of a class must report the
    same value: the two trigon counts at the edge's ends plus the two
    quad types not parallel to it.
    """
    weights = {}
    for label in tri.edge_classes:
        values = set()
        for tet, local_edge in tri.edge_slots(label):
            u, v = sorted(local_edge)
            w = full.trigons(tet, u) + full.trigons(tet, v)
            parallel = PAIR_TO_QUAD[local_edge]
            w += sum(full.quads(tet, j) for j in QUAD_TYPES if j != parallel)
            values.add(w)
        if len(values) != 1:
            raise InconsistentWeights(
                f"edge {label} slots disagree: {sorted(values)}")
        weights[label] = values.pop()
    return weights


def euler_characteristic(tri: LensTriangulation, full: FullCoordinates) -> int:
    """chi = edge crossings - face arcs + disks, each counted once per
    class of the glued-up cell structure."""
    return _cell_euler(tri, full, edge_weights(tri, full))


def _cell_euler(tri, full, weights):
    """``euler_characteristic`` given the surface's edge weights."""
    arcs = sum(full.arcs(*side_a) for _, side_a, _ in tri.corner_gluings)
    return sum(weights.values()) - arcs + full.total_disks()


@dataclass(frozen=True)
class DiskGraph:
    """Individual normal disks and their arc identifications.

    ``disks``: tuple of (tet, kind, copy) where kind is ("T", corner)
    or ("Q", quad type).  ``arcs``: tuple of
    (disk index, disk index, reversed) where ``reversed`` records that
    the two disks' reference sides disagree across the glued arc.
    ``corner_classes``: tuple of surface vertices, each a tuple of
    (disk index, local edge) crossings; every crossing of the surface
    with an edge of the triangulation appears exactly once.
    """

    disks: tuple
    arcs: tuple
    corner_classes: tuple
    corner_edge_labels: tuple


def glue_disks(tri: LensTriangulation, full: FullCoordinates,
               budget: Budget | None = None) -> DiskGraph:
    """Instantiate disk copies and glue their arcs across every face.

    At a glued corner the arcs are matched in nesting order: trigon
    copies sit nearest the vertex, quad copies follow, and parallel
    quad copies run toward or away from the corner according to which
    side of the quad's partition the corner lies on.  Each arc also
    glues its disks' crossings with the face's two other edges, node
    6 * disk + LOCAL_EDGES index.  A ``budget``, if given, is charged
    the disk count first and its deadline read once per glued corner.
    """
    if budget:
        budget.check(full.total_disks(), what="normal disks")
    first = list(accumulate(full.entries, initial=0))
    disks = [(slot // SLOTS_PER_TET + 1, DISK_KINDS[slot % SLOTS_PER_TET], c)
             for slot, count in enumerate(full.entries) for c in range(count)]

    def stack(tet, corner, j):
        """Arcs at a face corner whose corner quad type is j, innermost
        first, as (disk id, reference side faces the corner) pairs."""
        slot = SLOTS_PER_TET * (tet - 1)
        trigons = range(first[slot + corner], first[slot + corner + 1])
        quads = range(first[slot + 3 + j], first[slot + 4 + j])
        out = [(d, False) for d in trigons]
        if corner in QUAD_PAIRS[j][0]:
            out.extend((d, False) for d in quads)
        else:
            out.extend((d, True) for d in reversed(quads))
        return out

    arcs = []
    crossings = Potentials(6 * len(disks))
    crossed = bytearray(6 * len(disks))
    for face, (tet_a, za, qa), (tet_b, zb, qb) in tri.corner_gluings:
        if budget:
            budget.check()
        side_a = stack(tet_a, za, qa)
        side_b = stack(tet_b, zb, qb)
        if len(side_a) != len(side_b):
            raise ArityMismatch(
                f"face {face.label} corner {za}->{zb}: "
                f"{len(side_a)} vs {len(side_b)} arcs")
        edges = [(EDGE_INDEX[frozenset((za, ya))],
                  EDGE_INDEX[frozenset((zb, yb))])
                 for ya, yb in face.corners() if ya != za]
        for (da, flip_a), (db, flip_b) in zip(side_a, side_b):
            arcs.append((da, db, flip_a ^ flip_b))
            for ea, eb in edges:
                crossings.union(6 * da + ea, 6 * db + eb)
                crossed[6 * da + ea] = crossed[6 * db + eb] = 1

    corner_classes = tuple(
        tuple((node // 6, LOCAL_EDGES[node % 6]) for node in cls)
        for cls in crossings.classes() if crossed[cls[0]])
    labels = tuple(tri.edge_of(disks[cls[0][0]][0], cls[0][1])
                   for cls in corner_classes)
    # Sanity: one crossing point shows up once per slot around its edge.
    for cls, label in zip(corner_classes, labels):
        if len(cls) != tri.edge_degree(label):
            raise ArityMismatch(
                f"edge {label}: crossing has {len(cls)} corners, "
                f"edge degree is {tri.edge_degree(label)}")
    return DiskGraph(disks=tuple(disks), arcs=tuple(arcs),
                     corner_classes=corner_classes,
                     corner_edge_labels=labels)


@dataclass(frozen=True)
class SurfaceReport:
    """Classification of the surface behind a quad solution."""

    euler: int
    orientable: bool
    components: tuple          # of (euler, orientable)
    edge_weights: dict
    meets_cores_once: bool
    has_type23_quad: bool

    def component_count(self) -> int:
        return len(self.components)

    @property
    def haken_fundamental_criterion(self) -> bool:
        """See :func:`haken_fundamental_criterion`."""
        return self.meets_cores_once and self.has_type23_quad


def classify(tri: LensTriangulation, v, matrix: QMatrix | None = None,
             budget: Budget | None = None) -> SurfaceReport:
    """Full topological report for a quad solution.

    Components glue the disks along every arc, with the arc's side
    parity as potential mod 2; one whose arcs contradict that parity is
    one-sided.  Per-component Euler characteristics count crossings -
    arcs + disks.  The ambient-space parity law (a connected surface is
    one-sided exactly when it crosses each core circle an odd number of
    times) is checked per component as an internal cross-validation.
    ``budget`` bounds the disk gluing (see :func:`glue_disks`).
    """
    full = reconstruct_trigons(tri, v, matrix=matrix)
    weights = edge_weights(tri, full)
    graph = glue_disks(tri, full, budget)
    n = len(graph.disks)

    sides = Potentials(n, modulus=2)
    one_sided_disks = [da for da, db, reverse in graph.arcs
                       if not sides.union(da, db, reverse)]
    component_of = [0] * n
    classes = sides.classes()
    for comp, cls in enumerate(classes):
        for d in cls:
            component_of[d] = comp
    one_sided = {component_of[d] for d in one_sided_disks}

    # An arc, and a crossing, lies in one component by construction:
    # its disks were glued above.
    arc_counts = [0] * len(classes)
    for da, _, _ in graph.arcs:
        arc_counts[component_of[da]] += 1
    vertex_counts = [0] * len(classes)
    core_parities = [dict(Ev=0, Eh=0) for _ in classes]
    for cls, label in zip(graph.corner_classes, graph.corner_edge_labels):
        comp = component_of[cls[0][0]]
        vertex_counts[comp] += 1
        if label in ("Ev", "Eh"):
            core_parities[comp][label] ^= 1

    components = []
    for comp, cls in enumerate(classes):
        orientable = comp not in one_sided
        euler = vertex_counts[comp] - arc_counts[comp] + len(cls)
        if (not orientable) != bool(core_parities[comp]["Ev"]) or \
           (not orientable) != bool(core_parities[comp]["Eh"]):
            raise InconsistentPropagation(
                f"orientability contradicts core crossing parity in "
                f"component {comp}")
        components.append((euler, orientable))

    total_euler = sum(e for e, _ in components)
    formula_euler = _cell_euler(tri, full, weights)
    if total_euler != formula_euler:
        raise InconsistentPropagation(
            f"component Euler sum {total_euler} != cell count "
            f"{formula_euler}")

    meets_cores_once, has_type23_quad = _criterion_parts(tri, v, weights)
    return SurfaceReport(
        euler=total_euler,
        orientable=all(o for _, o in components),
        components=tuple(components),
        edge_weights=weights,
        meets_cores_once=meets_cores_once,
        has_type23_quad=has_type23_quad,
    )


def _criterion_parts(tri: LensTriangulation, v, weights):
    """(crosses each core circle once, has a type-2 or type-3 quad)."""
    vec = check_qvector(v, tri.p)
    return (weights["Ev"] == 1 and weights["Eh"] == 1,
            any(vec[3 * i + 1] or vec[3 * i + 2] for i in range(tri.p)))


def haken_fundamental_criterion(tri: LensTriangulation, v,
                                matrix: QMatrix | None = None) -> bool:
    """Sufficient condition for minimality in the full-coordinate
    system: the surface crosses each core circle exactly once and has a
    quad of type 2 or 3 somewhere.

    Such a surface cannot split off the core-avoiding torus (the only
    normal surface disjoint from both cores), because that torus fills
    every tetrahedron with type-1 quads, which the square condition
    forbids next to a type-2 or type-3 quad.
    """
    full = reconstruct_trigons(tri, v, matrix=matrix)
    return all(_criterion_parts(tri, v, edge_weights(tri, full)))


def surface_name(euler: int, orientable: bool) -> str:
    """Human name of a closed surface from (orientability, chi)."""
    if orientable:
        genus = (2 - euler) // 2
        return {0: "sphere", 1: "torus"}.get(
            genus, f"orientable genus-{genus} surface")
    k = 2 - euler
    return {1: "projective plane", 2: "Klein bottle"}.get(
        k, f"non-orientable genus-{k} surface")
