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

The classification pipeline then instantiates one node per normal disk
copy, glues arcs in nesting order across every face, and reads off
components, Euler characteristic (crossings - arcs + disks), and
orientability.  Orientability is decided by transporting a transverse
side-choice across arc gluings: at a glued corner both disks either
face the corner vertex or face away, which yields a parity constraint
per arc; the surface is two-sided (equivalently orientable, the
ambient space being orientable) exactly when the constraints admit a
global solution.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

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
    QUAD_PAIRS,
    QUAD_TYPES,
    PAIR_TO_QUAD,
    LensTriangulation,
)

# Per-tetrahedron layout of a full coordinate vector: four trigon counts
# in corner order, then the three quad counts.
SLOTS_PER_TET = 7


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

    Walks the corner identification graph of ``tri.corner_gluings``:
    each glued face corner z imposes
    t(z) + x(quad at z) = t(z') + x(quad at z'), fixing all
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

    # Corner graph: the trigon level steps by the quad count here minus
    # the quad count there across each glued corner.
    adjacency = {(tet, c): [] for tet in tri.tetrahedra for c in CORNERS}
    for _, (tet_a, za, qa), (tet_b, zb, qb) in tri.corner_gluings:
        step = quad_count(tet_a, qa) - quad_count(tet_b, qb)
        adjacency[(tet_a, za)].append(((tet_b, zb), step))
        adjacency[(tet_b, zb)].append(((tet_a, za), -step))

    # Relative trigon levels by breadth-first propagation.
    level = {}
    for corner_class in tri.vertex_classes():
        seed = corner_class[0]
        level[seed] = 0
        queue = deque([seed])
        while queue:
            node = queue.popleft()
            for other, step in adjacency[node]:
                value = level[node] + step
                if other not in level:
                    level[other] = value
                    queue.append(other)
                elif level[other] != value:
                    raise InconsistentPropagation(
                        f"corner {other} got levels {level[other]} "
                        f"and {value}")
        shift = min(level[c] for c in corner_class)
        for c in corner_class:
            level[c] -= shift

    entries = []
    for tet in tri.tetrahedra:
        entries.extend(level[(tet, c)] for c in CORNERS)
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


def glue_disks(tri: LensTriangulation, full: FullCoordinates) -> DiskGraph:
    """Instantiate disk copies and glue their arcs across every face.

    At a glued corner the arcs are matched in nesting order: trigon
    copies sit nearest the vertex, quad copies follow, and parallel
    quad copies run toward or away from the corner according to which
    side of the quad's partition the corner lies on.
    """
    disks = []
    index = {}
    for tet in tri.tetrahedra:
        for corner in CORNERS:
            for copy in range(full.trigons(tet, corner)):
                index[(tet, ("T", corner), copy)] = len(disks)
                disks.append((tet, ("T", corner), copy))
        for j in QUAD_TYPES:
            for copy in range(full.quads(tet, j)):
                index[(tet, ("Q", j), copy)] = len(disks)
                disks.append((tet, ("Q", j), copy))

    def stack(tet, corner, j):
        """Arcs at a face corner whose corner quad type is j, innermost
        first, as (disk id, reference side faces the corner) pairs."""
        out = []
        for copy in range(full.trigons(tet, corner)):
            out.append((index[(tet, ("T", corner), copy)], False))
        count = full.quads(tet, j)
        ascending = corner in QUAD_PAIRS[j][0]
        copies = range(count) if ascending else range(count - 1, -1, -1)
        flip = not ascending
        for copy in copies:
            out.append((index[(tet, ("Q", j), copy)], flip))
        return out

    arcs = []
    corner_parent = {}

    def find(x):
        while corner_parent[x] != x:
            corner_parent[x] = corner_parent[corner_parent[x]]
            x = corner_parent[x]
        return x

    def union(x, y):
        corner_parent.setdefault(x, x)
        corner_parent.setdefault(y, y)
        rx, ry = find(x), find(y)
        if rx != ry:
            corner_parent[rx] = ry

    for face, (tet_a, za, qa), (tet_b, zb, qb) in tri.corner_gluings:
        side_a = stack(tet_a, za, qa)
        side_b = stack(tet_b, zb, qb)
        if len(side_a) != len(side_b):
            raise ArityMismatch(
                f"face {face.label} corner {za}->{zb}: "
                f"{len(side_a)} vs {len(side_b)} arcs")
        others = [(ya, yb) for ya, yb in face.corners() if ya != za]
        for (da, flip_a), (db, flip_b) in zip(side_a, side_b):
            arcs.append((da, db, flip_a ^ flip_b))
            for ya, yb in others:
                union((da, frozenset((za, ya))),
                      (db, frozenset((zb, yb))))

    groups = {}
    for node in corner_parent:
        groups.setdefault(find(node), []).append(node)
    corner_classes = tuple(tuple(sorted(g)) for g in
                           sorted(groups.values(), key=lambda g: min(g)))
    labels = []
    for cls in corner_classes:
        disk_id, local_edge = cls[0]
        labels.append(tri.edge_of(disks[disk_id][0], local_edge))
    labels = tuple(labels)
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


def classify(tri: LensTriangulation, v,
             matrix: QMatrix | None = None) -> SurfaceReport:
    """Full topological report for a quad solution.

    Components come from connectivity of the disk graph; per-component
    Euler characteristics from crossings - arcs + disks within the
    component; orientability from the two-sidedness transport.  The
    ambient-space parity law (a connected surface is one-sided exactly
    when it crosses each core circle an odd number of times) is checked
    per component as an internal cross-validation.
    """
    full = reconstruct_trigons(tri, v, matrix=matrix)
    weights = edge_weights(tri, full)
    graph = glue_disks(tri, full)
    n = len(graph.disks)

    neighbors = {d: [] for d in range(n)}
    for da, db, reverse in graph.arcs:
        neighbors[da].append((db, reverse))
        neighbors[db].append((da, reverse))

    component_of = [None] * n
    orientable_flags = []
    for start in range(n):
        if component_of[start] is not None:
            continue
        comp = len(orientable_flags)
        colour = {start: False}
        component_of[start] = comp
        queue = deque([start])
        consistent = True
        while queue:
            node = queue.popleft()
            for other, reverse in neighbors[node]:
                want = colour[node] ^ reverse
                if other in colour:
                    if colour[other] != want:
                        consistent = False
                else:
                    colour[other] = want
                    component_of[other] = comp
                    queue.append(other)
        orientable_flags.append(consistent)

    arc_counts = [0] * len(orientable_flags)
    for da, db, _ in graph.arcs:
        if component_of[da] != component_of[db]:
            raise InconsistentPropagation(
                "arc joins two different components")
        arc_counts[component_of[da]] += 1
    disk_counts = [0] * len(orientable_flags)
    for d in range(n):
        disk_counts[component_of[d]] += 1
    vertex_counts = [0] * len(orientable_flags)
    core_parities = [dict(Ev=0, Eh=0) for _ in orientable_flags]
    for cls, label in zip(graph.corner_classes, graph.corner_edge_labels):
        comps = {component_of[d] for d, _ in cls}
        if len(comps) != 1:
            raise InconsistentPropagation(
                "one edge crossing met several components")
        comp = comps.pop()
        vertex_counts[comp] += 1
        if label in ("Ev", "Eh"):
            core_parities[comp][label] ^= 1

    components = []
    for comp, orientable in enumerate(orientable_flags):
        euler = vertex_counts[comp] - arc_counts[comp] + disk_counts[comp]
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
