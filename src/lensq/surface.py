"""
Reconstruction and topological classification of normal surfaces from
quad coordinates.

A quad vector that solves the matching equations and obeys the square
condition determines a normal surface once trigon counts are filled in.
The trigon counts follow from the face gluings: at every glued face
corner, the arcs from both sides must agree in number, which fixes all
trigon counts relative to one another around each vertex class; the
surface with no trivial (vertex-linking) component is the shift that
makes the minimum count in each class zero.  The vector is admitted by
its QMatrix (``SolutionCone.admit``), and a matrix or a surface of
another (p,q) is refused by ``triangulation.check_same_pair``.

A surface's 7p full-coordinate entries are held as one integer array
(``FullCoordinates.array``), and every per-corner and per-slot pass is
one array expression over it.  Its dtype is picked once per surface by
one rule (``_value_dtype``): int64 when a bound on the widest sum the
passes form proves that every value fits, ``object`` (Python ints)
otherwise, on the same code path.

The full (trigon + quad) matching system is read through one table,
``LensTriangulation.corner_slots``: per glued face corner, the
full-coordinate positions of the trigon and the quad on each side.  The
dense matrix, its residual, the trigon walk, the Euler count and the
gluing all read it.

Classification numbers the disks slot by slot and glues them across
every face corner, matching arcs in nesting order.  The 6p glued
corners are read once, as runs of disk ids; everything per disk or arc
is an array pass, its ids int32 whenever the surface's side nodes fit
(``glue_disks``).  Each arc joins the sides of its two disks, swapped
when the arc reverses them, and one labelling of the sides
(``least_labels``, the package's one class labelling) gives the
components.  A component is two-sided (equivalently orientable, the
ambient space being orientable) exactly when its least disk's two
sides lie in different classes.  A
surface vertex on edge class r meets one disk in each of the deg(r)
slots around r, all in one component, so a component's vertices on r
are its crossings with r over deg(r); chi = vertices - arcs + disks,
per component.  The trigon levels need no labelling either: they are
running sums along the chains of the corner graph's closed-form
spanning tree, ``LensTriangulation.level_tree``, written straight into
the trigon positions.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .cone import Budget
from .errors import (
    ArityMismatch,
    BudgetExceeded,
    DimensionMismatch,
    InconsistentPropagation,
    InconsistentWeights,
    NegativeEntry,
    SquareConditionViolated,
)
from .exact import value_dtype
from .qsystem import QMatrix, matrix_for, square_condition
from .triangulation import (
    BOT,
    CORNER_TEMPLATE,
    INT64_MAX,
    LEFT,
    LOCAL_EDGES,
    QUAD_PAIRS,
    QUAD_TYPES,
    RIGHT,
    SLOTS_PER_TET,
    TOP,
    LensTriangulation,
    check_same_pair,
)

# The largest id int32 holds.
INT32_MAX = int(np.iinfo(np.int32).max)

# Per slot of a tetrahedron's block, whether its disks cross each local
# edge, a 7 x 6 table: the trigon at corner k crosses the three edges at
# k, and a quad of type j the four edges outside its partition pairs.
CROSSES = np.array(
    [[k in edge for edge in LOCAL_EDGES] for k in (TOP, BOT, LEFT, RIGHT)]
    + [[edge not in QUAD_PAIRS[j] for edge in LOCAL_EDGES]
       for j in QUAD_TYPES])
# Per row of ``CORNER_TEMPLATE``, whether the quad copies of side a and
# of side b ascend toward the corner (step 1): whether the corner lies
# on the first side of its quad's partition.
QUAD_ASCENDS = np.array([
    (za in QUAD_PAIRS[xa - 3][0], zb in QUAD_PAIRS[xb - 3][0])
    for za, xa, zb, xb in CORNER_TEMPLATE])


class FullCoordinates:
    """A normal surface in full (trigon + quad) coordinates.

    ``entries`` is the flat 7p vector, tetrahedron-major, each block
    being (t_top, t_bot, t_left, t_right, x_1, x_2, x_3), as a tuple of
    Python ints; ``array`` holds the same entries as one read-only
    numpy array in the surface's value dtype (``_value_dtype``).
    Entries are read with ``operator.index``, so a non-integer raises
    TypeError; a wrong length raises DimensionMismatch and a negative
    entry NegativeEntry.  An integer numpy array is read as a whole,
    without a call per entry.
    """

    def __init__(self, tri: LensTriangulation, entries):
        if not (isinstance(entries, np.ndarray)
                and entries.dtype.kind in "iu"):
            entries = np.array(list(map(operator.index, entries)),
                               dtype=object)
        if len(entries) != SLOTS_PER_TET * tri.p:
            raise DimensionMismatch(
                f"full coordinates need length 7p = {SLOTS_PER_TET * tri.p},"
                f" got {len(entries)}")
        if entries.min() < 0:
            raise NegativeEntry("full coordinates have a negative entry")
        self.tri = tri
        self.array = entries.astype(_value_dtype(tri.p, int(entries.max())))
        self.array.flags.writeable = False

    @property
    def entries(self):
        """The entries as a tuple of Python ints, made on each read."""
        return tuple(self.array.tolist())

    def trigons(self, tet: int, corner: int) -> int:
        return int(self.array[SLOTS_PER_TET * (tet - 1) + corner])

    def quads(self, tet: int, qtype: int) -> int:
        return int(self.array[SLOTS_PER_TET * (tet - 1) + 4 + (qtype - 1)])

    def total_disks(self) -> int:
        return int(self.array.sum())

    def __eq__(self, other):
        return (isinstance(other, FullCoordinates)
                and np.array_equal(self.array, other.array))

    def __repr__(self):
        return f"FullCoordinates(p={self.tri.p}, q={self.tri.q})"


def _value_dtype(p: int, largest: int):
    """The value dtype of a surface on p tetrahedra whose entries are at
    most ``largest``: ``exact.value_dtype`` of 12 p ``largest``, int64
    when that fits and ``object`` (Python ints) otherwise.

    That bounds every value the passes form: the widest sum is the arc
    count of ``_cell_euler``, two entries at each of the 6p glued
    corners, while a residual or a slot weight adds four entries and
    the disk total 7p.
    """
    return value_dtype(12 * p * largest)


def haken_matrix(tri: LensTriangulation):
    """The 6p x 7p full matching matrix, the dense form of
    ``tri.corner_slots`` for display: one row per glued face corner.

    Row blocks follow the face-class order (vertical then cone faces),
    with one row per corner of the first side, corners ascending.  Each
    row is (side one arc count) - (side two arc count), so entries lie
    in {-1, 0, +1} and a full coordinate vector represents a surface
    exactly when the matrix kills it.
    """
    n = SLOTS_PER_TET * tri.p
    rows = []
    for trigon_a, quad_a, trigon_b, quad_b in tri.corner_slots.tolist():
        row = [0] * n
        row[trigon_a] += 1
        row[quad_a] += 1
        row[trigon_b] -= 1
        row[quad_b] -= 1
        rows.append(tuple(row))
    return tuple(rows)


def _residual(full: FullCoordinates):
    """``haken_matrix`` applied to ``full``, as an array with one entry
    per row of ``full.tri.corner_slots``."""
    arcs = full.array[full.tri.corner_slots]
    return arcs[:, 0] + arcs[:, 1] - arcs[:, 2] - arcs[:, 3]


def haken_residual(tri: LensTriangulation, full: FullCoordinates):
    """``haken_matrix(tri)`` applied to ``full.entries``, one entry per
    glued face corner, without building the matrix.  A surface of
    another (p,q) raises InvalidParams."""
    check_same_pair(tri, full.tri, "surface")
    return tuple(_residual(full).tolist())


def reconstruct_trigons(tri: LensTriangulation, v,
                        matrix: QMatrix | None = None) -> FullCoordinates:
    """Fill in trigon counts for a quad solution with the square
    condition, normalized to have no trivial component.

    Each glued face corner z (row of ``tri.corner_slots``) imposes
    t(z) + x(quad at z) = t(z') + x(quad at z'), one difference between
    two trigon levels.  The levels are walked along the spanning tree
    ``tri.level_tree``, which fixes all trigon counts up to one
    constant for the pole corners and one for the equator corners; the
    no-trivial-component normalization pins each to make its minimum
    zero.  The quads are put into the p x 7 entries first, so each
    step reads its two quads through ``corner_slots`` and each level is
    written straight into its trigon position.  The tree is three
    chains hung from its roots, whose levels are running sums of their
    steps, and one step to each RIGHT corner, so the walk is a few
    array passes in the surface's value dtype (``_value_dtype``),
    picked up front from the largest entry a walk of p steps can reach.
    The full matching equations are then checked on every corner at
    once, so a corner outside the tree whose cycle does not close,
    impossible for a matching solution, raises InconsistentPropagation
    as a guarded bug signal.

    ``v`` is admitted by ``matrix.admit``: a non-integral entry or a
    failed matching equation raises NotASolution, a wrong length
    DimensionMismatch, a negative entry NegativeEntry and the zero
    vector EmptyVector.  Two quad types in
    one tetrahedron then raise SquareConditionViolated.  ``matrix`` is
    read through ``qsystem.matrix_for``: a matrix of another (p,q)
    raises InvalidParams.
    """
    _, admitted = matrix_for(tri, matrix).admit(v)
    if not square_condition(admitted):
        raise SquareConditionViolated(
            "more than one quad type in a tetrahedron")

    # A trigon level steps by the quad count at the parent's side minus
    # that at the node's side.  A level lies within p steps of 0, so the
    # surface's entries lie within 2p max(vec); the running sum over the
    # 3p - 2 chain steps below stays far inside the 24 p^2 max(vec) that
    # dtype admits.
    p = tri.p
    entries = np.zeros((p, SLOTS_PER_TET),
                       dtype=_value_dtype(p, 2 * p * int(admitted.max())))
    entries[:, 4:] = admitted.reshape(p, 3)
    flat = entries.reshape(-1)
    tree = tri.level_tree
    quad = tri.corner_slots[tree[:, 2], 1::2].T
    up, down = np.where(tree[:, 3] > 0, quad, quad[::-1])
    step = flat[up] - flat[down]
    # Rows [0, p-1), [p-1, 2p-1) and [2p-1, 3p-2) are the TOP, BOT and
    # LEFT chains, each hung from a root at level 0, so their levels are
    # one running sum restarted at each chain; the last p rows hang one
    # RIGHT node off a LEFT node.
    run = np.cumsum(step[:3 * p - 2])
    run[p - 1:] -= run[p - 2]
    run[2 * p - 1:] -= run[2 * p - 2]
    flat[tree[:3 * p - 2, 0]] = run
    right = tree[3 * p - 2:]
    flat[right[:, 0]] = flat[right[:, 1]] + step[3 * p - 2:]
    for corners in ((TOP, BOT), (LEFT, RIGHT)):
        entries[:, corners] -= entries[:, corners].min()
    full = FullCoordinates(tri, flat)
    if np.count_nonzero(_residual(full)):
        raise InconsistentPropagation(
            "reconstructed coordinates fail the full matching equations")
    return full


def edge_weights(tri: LensTriangulation, full: FullCoordinates):
    """Crossing count of the surface with each edge class.

    Every (tetrahedron, local edge) slot of a class must report the
    same value: the sum of the block's entries whose disks cross that
    local edge (``CROSSES``), the two trigons at the edge's ends and the
    two quad types not parallel to it.  The first slot
    that disagrees with its class's first slot raises
    InconsistentWeights; a surface of another (p,q) raises
    InvalidParams.
    """
    check_same_pair(tri, full.tri, "surface")
    block = full.array.reshape(-1, SLOTS_PER_TET)
    slot = block @ CROSSES.astype(block.dtype)
    slot, edge = slot.ravel(), tri.slot_edges.ravel()
    # Every class has a slot, so its weight is one of its slots'; it is
    # the class's weight when all its slots agree with it.
    weights = np.zeros(len(tri.edge_classes), dtype=slot.dtype)
    weights[edge] = slot
    if np.count_nonzero(weights[edge] != slot):
        first = {}
        for r, w in zip(edge.tolist(), slot.tolist()):
            if first.setdefault(r, w) != w:
                raise InconsistentWeights(
                    f"edge {tri.edge_classes[r]} slots disagree: "
                    f"{sorted((first[r], w))}")
    return dict(zip(tri.edge_classes, weights.tolist()))


def euler_characteristic(tri: LensTriangulation, full: FullCoordinates) -> int:
    """chi = edge crossings - face arcs + disks, each counted once per
    class of the glued-up cell structure.  A surface of another (p,q)
    raises InvalidParams."""
    return _cell_euler(full, edge_weights(tri, full))


def _cell_euler(full, weights):
    """``euler_characteristic`` given the surface's edge weights: the
    arcs are counted on side a of ``full.tri.corner_slots``."""
    arcs = int(full.array[full.tri.corner_slots[:, :2]].sum())
    return sum(weights.values()) - arcs + full.total_disks()


@dataclass(frozen=True, eq=False)
class DiskGraph:
    """Individual normal disks and their arc identifications, as arrays.

    Disks are numbered slot by slot, each slot's copies in a row.
    ``disks``: the slot 7 (tet - 1) + k of each disk, a trigon at
    corner k for k < 4 and a quad of type k - 3 otherwise.  ``arcs``:
    an A x 3 array of (disk, disk, reversed) rows, ``reversed`` being
    1 when the two disks' reference sides disagree across the glued
    arc.  Both hold the graph's one id dtype (see :func:`glue_disks`).
    """

    disks: np.ndarray
    arcs: np.ndarray


def _side_runs(first, trigon, quad, ascending):
    """The arcs at each glued corner side, innermost first, as two runs
    of disk ids, trigons then quads: (start, length, step) arrays with
    one row per corner, the corner's trigon and quad at full-coordinate
    positions ``trigon`` and ``quad``.  Quad copies run toward the
    corner (step 1) when it lies on the first side of the quad's
    partition (``ascending``) and away from it (step -1) otherwise."""
    t0, t1 = first[trigon], first[trigon + 1]
    q0, q1 = first[quad], first[quad + 1]
    return (np.stack((t0, np.where(ascending, q0, q1 - 1)), axis=1),
            np.stack((t1 - t0, q1 - q0), axis=1),
            np.stack((np.ones_like(t0), 2 * ascending - 1), axis=1,
                     dtype=first.dtype))


def _expand_runs(start, length, step):
    """The disk ids of consecutive runs, concatenated, and whether each
    was read away from the corner, its reference side then facing away
    too."""
    used = length.ravel() > 0
    start, length, step = (a.ravel()[used] for a in (start, length, step))
    # Each id is the previous one plus its run's step, except that a
    # run's first id jumps from the previous run's last one.
    ids = np.repeat(step, length)
    ids[np.cumsum(length) - length] = start - np.concatenate(
        ([0], (start + step * (length - 1))[:-1]))
    np.cumsum(ids, out=ids)
    return ids, np.repeat(step < 0, length)


def _arc_array(side_a, side_b):
    """The A x 3 array of (disk, disk, reversed) arcs pairing the runs
    of side a with those of side b, position by position."""
    (da, flip_a), (db, flip_b) = _expand_runs(*side_a), _expand_runs(*side_b)
    return np.stack((da, db, flip_a ^ flip_b), axis=1)


def glue_disks(tri: LensTriangulation, full: FullCoordinates,
               budget: Budget | None = None) -> DiskGraph:
    """Number the disk copies and glue their arcs across every face.

    At a glued corner the arcs are matched in nesting order: trigon
    copies sit nearest the vertex, quad copies follow, and parallel
    quad copies run toward or away from the corner according to which
    side of the quad's partition the corner lies on.  The glued
    corners' positions come as one integer table (``tri.corner_slots``),
    their ascend flags from ``QUAD_ASCENDS``; array passes turn them
    into the arcs.  A ``budget``, if given, is charged the disk count,
    and its deadline read, before any array is made.
    Every array of the graph, and every per-disk array built from it,
    holds its ids in one dtype, ``_index_dtype`` of the side node count
    (2 per disk, the widest index :func:`classify` builds from the
    graph) and the 7p slots: int32 when they fit, int64 otherwise.  A
    surface too large for int64 side nodes raises BudgetExceeded,
    budget or not.  A surface of another (p,q) raises InvalidParams.
    """
    check_same_pair(tri, full.tri, "surface")
    total = full.total_disks()
    if budget is not None:
        budget.check(total, what="normal disks")
    if 2 * total > INT64_MAX:
        raise BudgetExceeded(
            f"{total} normal disks cannot be indexed in int64")
    dtype = _index_dtype(max(2 * total, len(full.array)))
    # Row k of ``corner_slots`` takes its face template's row.
    ascend = np.broadcast_to(QUAD_ASCENDS.reshape(2, 1, 3, 2),
                             (2, tri.p, 3, 2)).reshape(-1, 2)
    counts = full.array.astype(dtype)
    first = np.zeros(len(counts) + 1, dtype=dtype)
    np.cumsum(counts, out=first[1:])
    slots = tri.corner_slots
    side_a = _side_runs(first, slots[:, 0], slots[:, 1], ascend[:, 0])
    side_b = _side_runs(first, slots[:, 2], slots[:, 3], ascend[:, 1])
    arity_a, arity_b = side_a[1].sum(axis=1), side_b[1].sum(axis=1)
    wrong = np.flatnonzero(arity_a != arity_b)
    if wrong.size:
        k = wrong[0]
        za, zb = (slots[k, [0, 2]] % SLOTS_PER_TET).tolist()
        raise ArityMismatch(
            f"face {tri.face_label(k)} corner {za}->{zb}: "
            f"{arity_a[k]} vs {arity_b[k]} arcs")
    return DiskGraph(disks=np.repeat(np.arange(len(counts), dtype=dtype),
                                     counts),
                     arcs=_arc_array(side_a, side_b))


def _index_dtype(ids: int):
    """The id dtype of a disk graph whose ids run below ``ids``: int32
    when ``ids`` is at most int32's max, int64 otherwise."""
    return np.int32 if ids <= INT32_MAX else np.int64


def least_labels(n: int, u, v, budget=None):
    """For every node 0..n-1, the least node of its class under the
    edges u[k] ~ v[k]: the package's one class labelling, for the sides
    of the glued disks.  The labels take the edges' dtype widened to
    ``_index_dtype(n)``: int32 when both are int32 arrays and n fits it,
    as for the side graph of a surface under 2^30 disks; int64 for
    int64 edges, mixed widths or lists.

    Each round reads the ``budget`` deadline, keeps the edges whose ends
    carry different labels, hooks every class root to the least root it
    meets along them, jumps pointers until each node points at its root
    and gathers the kept edges' labels.  It stops when no edge joins two
    labels; every round lowers some root's label, so it does.
    """
    dtype = np.result_type(getattr(u, "dtype", np.int64),
                           getattr(v, "dtype", np.int64), _index_dtype(n))
    u, v = np.asarray(u, dtype=dtype), np.asarray(v, dtype=dtype)
    label = np.arange(n, dtype=dtype)
    # The labels of the edges' ends, the nodes themselves at first.
    lu, lv = u, v
    while True:
        if budget is not None:
            budget.check()
        # An edge whose ends share a label keeps them together for good.
        # The full-length arrays go before the hooking; in the first
        # round every edge is usually apart, and nothing is copied.
        apart = lu != lv
        if not apart.any():
            return label
        if not apart.all():
            u, v, lu, lv = u[apart], v[apart], lu[apart], lv[apart]
        del apart
        np.minimum.at(label, np.maximum(lu, lv), np.minimum(lu, lv))
        del lu, lv
        while True:
            jumped = label[label]
            if np.array_equal(jumped, label):
                break
            label = jumped
        lu, lv = label[u], label[v]


def _components(graph: DiskGraph, budget: Budget | None):
    """The component of each disk, numbered by least disk, and whether
    each component is one-sided, from one labelling of the side graph
    that reads the ``budget`` deadline each round."""
    # Side node 2d + s is side s of disk d; an arc (a, b, reversed)
    # glues side s of a to side s ^ reversed of b.  The edge lists are
    # one preallocated pair in the graph's dtype.
    n, m, arcs = len(graph.disks), len(graph.arcs), graph.arcs
    u = np.empty(2 * m, dtype=arcs.dtype)
    v = np.empty_like(u)
    np.multiply(arcs[:, 0], 2, out=u[:m])
    np.multiply(arcs[:, 1], 2, out=v[:m])
    v[:m] += arcs[:, 2]
    np.bitwise_xor(u[:m], 1, out=u[m:])
    np.bitwise_xor(v[:m], 1, out=v[m:])
    side = least_labels(2 * n, u, v, budget)
    # Each side class holds a side of its component's least disk, whose
    # two sides share a class exactly when the component is one-sided.
    least = side[0::2] // 2
    is_root = least == np.arange(n, dtype=least.dtype)
    roots = np.flatnonzero(is_root)
    one_sided = side[2 * roots] == side[2 * roots + 1]
    # A disk's component is the rank of its least disk among the roots.
    return (np.cumsum(is_root, dtype=least.dtype) - 1)[least], one_sided


def _component_vertices(tri, disks, component_of):
    """The surface vertices of each component on each edge class it
    meets, as arrays (component, edge class index, vertices) sorted by
    component, then edge class.  A component's crossings with edge
    class r, summed from its disks' slots (``CROSSES``), are deg(r) per
    vertex; a sum that deg(r) does not divide raises ArityMismatch."""
    # One sorted copy of the per-disk rows, as (component, slot) keys;
    # runs of equal keys are one component's copies of one slot.
    nslots = SLOTS_PER_TET * tri.p
    ncomps = int(component_of.max()) + 1 if len(disks) else 0
    if ncomps * nslots > INT64_MAX:
        raise BudgetExceeded(f"{ncomps} components of {nslots} slots "
                             f"cannot be indexed in int64")
    key = component_of.astype(np.int64)
    key *= nslots
    key += disks
    key.sort()
    start = np.flatnonzero(np.diff(key, prepend=-1))
    copies = np.diff(start, append=len(key))
    comp, slot = np.divmod(key[start], nslots)
    del key
    # Each run crosses its slot's local edges (``CROSSES``); sum the
    # crossings per (component, edge class) key.  Laid out one local
    # edge at a time, each edge's keys come sorted by component and
    # within a component nearly by edge class, so the stable (merge)
    # sort has few runs to merge.
    nedges = len(tri.edge_classes)
    cross = CROSSES[slot % SLOTS_PER_TET]
    tet, base = slot // SLOTS_PER_TET, comp * nedges
    key = np.empty(np.count_nonzero(cross), dtype=np.int64)
    count = np.empty_like(key)
    end = 0
    for local, edges in enumerate(tri.slot_edges.T):
        run = np.flatnonzero(cross[:, local])
        at, end = end, end + len(run)
        np.add(base[run], edges[tet[run]], out=key[at:end])
        count[at:end] = copies[run]
    del cross, tet, base
    order = np.argsort(key, kind="stable")
    key = key[order]
    count = count[order]
    del order
    start = np.flatnonzero(np.diff(key, prepend=-1))
    comp, edge = np.divmod(key[start], nedges)
    crossings = np.add.reduceat(count, start)
    degree = np.bincount(tri.slot_edges.ravel(), minlength=nedges)[edge]
    wrong = np.flatnonzero(crossings % degree)
    if wrong.size:
        k = wrong[0]
        raise ArityMismatch(
            f"edge {tri.edge_classes[edge[k]]} in component {comp[k]}: "
            f"{crossings[k]} crossings, edge degree is {degree[k]}")
    return comp, edge, crossings // degree


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
        """Sufficient condition for minimality in the full-coordinate
        system: the surface crosses each core circle exactly once and
        has a quad of type 2 or 3 somewhere.

        Such a surface cannot split off the core-avoiding torus (the
        only normal surface disjoint from both cores), because that
        torus fills every tetrahedron with type-1 quads, which the
        square condition forbids next to a type-2 or type-3 quad.
        """
        return self.meets_cores_once and self.has_type23_quad


def classify(tri: LensTriangulation, v, matrix: QMatrix | None = None,
             budget: Budget | None = None) -> SurfaceReport:
    """Full topological report for a quad solution.

    Components label the side graph: node 2d + s is side s of disk d,
    and each arc joins the sides it glues, swapped when the arc is
    reversed.  A component is one-sided exactly when its least disk's
    two sides share a label.  Per-component Euler characteristics count
    vertices - arcs + disks, the vertices from the component's edge
    crossings (see :func:`_component_vertices`).  The ambient-space
    parity law (a connected surface is one-sided exactly when it
    crosses each core circle an odd number of times) is checked per
    component on its vertices on Ev and Eh, as an internal
    cross-validation.
    ``budget`` bounds the disk count (see :func:`glue_disks`) and has
    its deadline read once per round of the side labelling, the only
    labelling here.
    """
    full = reconstruct_trigons(tri, v, matrix)
    weights = edge_weights(tri, full)
    graph = glue_disks(tri, full, budget)
    component_of, one_sided = _components(graph, budget)

    # An arc lies in one component by construction: its disks were
    # glued above.
    k = len(one_sided)
    comp, edge, count = _component_vertices(tri, graph.disks, component_of)
    vertices = np.zeros(k, dtype=np.int64)
    np.add.at(vertices, comp, count)
    euler = (vertices - np.bincount(component_of[graph.arcs[:, 0]],
                                    minlength=k)
             + np.bincount(component_of, minlength=k))
    for core in ("Ev", "Eh"):
        on_core = np.zeros(k, dtype=np.int64)
        here = edge == tri.edge_classes.index(core)
        on_core[comp[here]] = count[here]
        wrong = np.flatnonzero((on_core % 2 == 1) != one_sided)
        if wrong.size:
            raise InconsistentPropagation(
                f"orientability contradicts core crossing parity in "
                f"component {wrong[0]}")
    components = tuple(zip(euler.tolist(), (~one_sided).tolist()))

    total_euler = sum(e for e, _ in components)
    formula_euler = _cell_euler(full, weights)
    if total_euler != formula_euler:
        raise InconsistentPropagation(
            f"component Euler sum {total_euler} != cell count "
            f"{formula_euler}")

    return SurfaceReport(
        euler=total_euler,
        orientable=all(o for _, o in components),
        components=components,
        edge_weights=weights,
        meets_cores_once=weights["Ev"] == 1 and weights["Eh"] == 1,
        has_type23_quad=bool(np.count_nonzero(
            full.array.reshape(-1, SLOTS_PER_TET)[:, 5:])),
    )


def surface_name(euler: int, orientable: bool) -> str:
    """Human name of a closed surface from (orientability, chi)."""
    if orientable:
        genus = (2 - euler) // 2
        return {0: "sphere", 1: "torus"}.get(
            genus, f"orientable genus-{genus} surface")
    k = 2 - euler
    return {1: "projective plane", 2: "Klein bottle"}.get(
        k, f"non-orientable genus-{k} surface")
