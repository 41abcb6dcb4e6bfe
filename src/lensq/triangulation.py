"""
Combinatorial model of the natural p-tetrahedron triangulation of a
(p,q)-lens space.

The lens space is built from a suspension of a p-gon: two cone points
(the north and south poles, joined by the vertical axis edge Ev), p
equator vertices, and one tetrahedron over each p-gon side.  Tetrahedron
i spans the poles and the equator vertices i and i+1.  Its upper cone
face is glued to the lower cone face of tetrahedron i+q by a twist of q
steps composed with a reflection through the equator plane, so the
gluing is a mirror map.  All horizontal p-gon sides become one edge Eh,
and the slanted edges fall into p classes e_1 .. e_p, where e_i runs
from the north pole to equator vertex i and, via the gluing, from the
south pole to equator vertex i+q.

Everything downstream (matching matrices, surface reconstruction) works
from this module's incidence data, so conventions are centralized here:

* tetrahedra are indexed 1..p and all index arithmetic is mod p with
  canonical representatives in 1..p;
* local corners of a tetrahedron are TOP (north pole), BOT (south
  pole), LEFT (equator vertex i), RIGHT (equator vertex i+1);
* the three quad types of tetrahedron i are numbered 1..3: type 1
  separates Ev from Eh, type 2 separates e_{i+1} from e_{i-q}, type 3
  separates e_i from e_{i-(q-1)};
* senses follow one rule: a quad of type j crosses the four edges of
  the other two types' partition pairs, counting +1 on the pair of type
  j % 3 + 1 and -1 on the pair of the remaining type (the cyclic order
  of the Q-matching equations, Tollefson, "Normal surface Q-theory",
  1998);
* a face of a tetrahedron is named by its opposite corner.

Tetrahedron k meets only k +- 1 and k +- q, so the incidence is two
read-only int64 tables in closed form, built with numpy up front.
Their indices are 0-based: tetrahedron k is row k - 1, quad type j is
j - 1, and edge class r is ``edge_classes[r]`` (e_i, then Eh, Ev).

* ``slot_edges`` (p x 6), the edge class of each local edge in
  ``LOCAL_EDGES`` order: row k is (Ev, Eh, k, k+1, k-q, k+1-q) mod p.
* ``corner_table`` (6p x 6), one glued face corner per row: (tet a,
  corner a, quad a, tet b, corner b, quad b), the quad type being the
  one whose arc cuts off that corner in that face.  Face V_k glues
  tetrahedron k-1 to k and H_k glues k to k+q, each by a three-row
  template (``FACE_TEMPLATES``): rows V_1..V_p, then H_1..H_p.

A quad type's senses are one template over the local edges
(``sense_template``), since which edges of a row coincide depends on p
and q only.  ``face_label`` names the face of a ``corner_table`` row,
for display and error messages.  ``check_same_pair`` is the one guard
that refuses a matrix or a surface of another (p,q).

The corner graph (local corners joined across every glued face corner)
has two classes, the poles and the equator, for every coprime (p,q).
``level_tree`` walks it along a spanning tree in closed form, so no
class labelling is needed here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceeded, InvalidParams
from .exact import INT64_MAX

# Local corner labels of one tetrahedron.
TOP, BOT, LEFT, RIGHT = 0, 1, 2, 3
CORNER_NAMES = {TOP: "top", BOT: "bot", LEFT: "left", RIGHT: "right"}

# The six local edges, and the partition pairs of the three quad types.
# A quad of a given type is disjoint from the two edges of its partition
# pairs and crosses the other four local edges once each.
LOCAL_EDGES = tuple(
    frozenset(e)
    for e in ((TOP, BOT), (LEFT, RIGHT), (TOP, LEFT), (TOP, RIGHT),
              (BOT, LEFT), (BOT, RIGHT))
)

QUAD_PAIRS = {
    1: (frozenset((TOP, BOT)), frozenset((LEFT, RIGHT))),
    2: (frozenset((TOP, RIGHT)), frozenset((BOT, LEFT))),
    3: (frozenset((TOP, LEFT)), frozenset((BOT, RIGHT))),
}
PAIR_TO_QUAD = {pair: j for j, pairs in QUAD_PAIRS.items() for pair in pairs}
QUAD_TYPES = (1, 2, 3)

# The face templates: (label prefix, face of side a, face of side b,
# (corner a, corner b) pairs by corner a).  V_k is the RIGHT
# face of tetrahedron k and the LEFT face of k-1; H_k glues the upper
# cone face of k, pole to pole reversed, onto the lower one of k+q.
FACE_TEMPLATES = (
    ("V", LEFT, RIGHT, ((TOP, TOP), (BOT, BOT), (RIGHT, LEFT))),
    ("H", BOT, TOP, ((TOP, BOT), (LEFT, LEFT), (RIGHT, RIGHT))),
)
# Their six corner rows, V then H: (corner a, quad a, corner b, quad b),
# quad types from 0.  The quad type that cuts off a corner in a face
# pairs the corner with the face's off vertex, the face's own label.
CORNER_TEMPLATE = tuple(
    (za, PAIR_TO_QUAD[frozenset((za, fa))] - 1,
     zb, PAIR_TO_QUAD[frozenset((zb, fb))] - 1)
    for _, fa, fb, pairs in FACE_TEMPLATES for za, zb in pairs)


@dataclass(frozen=True)
class LensParams:
    """Validated parameters (p, q) of a lens space, gcd(p,q)=1."""

    p: int
    q: int

    def __post_init__(self):
        if self.p < 2:
            raise InvalidParams(f"p must be at least 2, got {self.p}")
        if not 1 <= self.q <= self.p - 1:
            raise InvalidParams(
                f"q must lie in [1, p-1] = [1, {self.p - 1}], got {self.q}")
        if math.gcd(self.p, self.q) != 1:
            raise InvalidParams(
                f"p and q must be coprime, got gcd({self.p},{self.q}) = "
                f"{math.gcd(self.p, self.q)}")


class LensTriangulation:
    """Immutable incidence model of the p-tetrahedron triangulation.

    Construct via :func:`build_triangulation`.  All query methods are
    pure; instances can be shared freely across threads.  The incidence
    is held as the read-only index tables ``slot_edges`` and
    ``corner_table`` (see the module docstring).
    """

    def __init__(self, params: LensParams):
        p, q = params.p, params.q
        # The widest index, a full-coordinate slot, lies below 7p.
        if 7 * p > INT64_MAX:
            raise BudgetExceeded(f"p = {p} cannot be indexed in int64")
        self.p, self.q = p, q
        self.tetrahedra = tuple(range(1, p + 1))
        # Row / reporting order of the edge classes: e_1 .. e_p, Eh, Ev.
        self.edge_classes = tuple(
            [f"e{i}" for i in self.tetrahedra] + ["Eh", "Ev"])
        k = np.arange(p)
        slot_edges = np.empty((p, 6), dtype=np.int64)
        slot_edges[:, 0], slot_edges[:, 1] = p + 1, p
        slot_edges[:, 2:] = (k[:, None] + (0, 1, -q, 1 - q)) % p
        # Face template f glues tetrahedron k + shift_a to k + shift_b.
        table = np.empty((2, p, 3, 6), dtype=np.int64)
        table[..., [1, 2, 4, 5]] = np.reshape(CORNER_TEMPLATE, (2, 1, 3, 4))
        for f, (shift_a, shift_b) in enumerate(((-1, 0), (0, q))):
            table[f, :, :, 0] = ((k + shift_a) % p)[:, None]
            table[f, :, :, 3] = ((k + shift_b) % p)[:, None]
        self.slot_edges, self.corner_table = slot_edges, table.reshape(-1, 6)
        for array in (self.slot_edges, self.corner_table):
            array.flags.writeable = False

    def face_label(self, row: int) -> str:
        """The face, "V_k" or "H_k", that glues ``corner_table`` row
        ``row``."""
        prefix = FACE_TEMPLATES[row // (3 * self.p)][0]
        return f"{prefix}{row // 3 % self.p + 1}"

    @property
    def level_tree(self):
        """A spanning walk of the corner graph, as a read-only
        (4p - 2) x 4 int64 table of (node, parent, ``corner_table``
        row, sign), corner node 4 (tet - 1) + corner.  Every node comes
        after its parent; the roots are TOP and LEFT of tetrahedron 1.
        The row's side b is the node when sign is 1 and the parent when
        it is -1.

        With tetrahedra from 1 and indices mod p, the walk takes TOP
        k-1 -> k and BOT k-1 -> k by V_k, TOP 1 -> BOT 1+q by H_1, LEFT
        k -> k+q by H_k (q is a unit mod p, so this reaches every k),
        and RIGHT k-1 from LEFT k by V_k.  The rows come in that order:
        rows [0, p-1), [p-1, 2p-1) and [2p-1, 3p-2) are the TOP, BOT and
        LEFT chains, each row's parent the node of the row before except
        that each chain starts at a root; the last p rows hang one RIGHT
        node each off the LEFT chain.  The 2p + 2 rows outside it
        close cycles.  Built in closed form on each read, which costs
        about 1% of one walk along it, so nothing is written onto the
        triangulation.
        """
        p, q = self.p, self.q
        k = np.arange(p)
        # The tetrahedra (from 0) of the BOT chain and the LEFT chain,
        # in walk order.
        bot, left = (q + k) % p, k * q % p
        nodes = np.concatenate((4 * k[1:] + TOP, 4 * bot + BOT,
                                4 * left[1:] + LEFT,
                                4 * ((k - 1) % p) + RIGHT))
        parents = np.concatenate((4 * k[:-1] + TOP, [TOP],
                                  4 * bot[:-1] + BOT, 4 * left[:-1] + LEFT,
                                  4 * k + LEFT))
        # Face f (from 0, the p H faces after the p V faces) holds rows
        # 3f + pair, its pairs in ``FACE_TEMPLATES`` order.
        rows = np.concatenate((3 * k[1:], [3 * p], 3 * bot[1:] + 1,
                               3 * p + 3 * left[:-1] + 1, 3 * k + 2))
        signs = np.ones(4 * p - 2, dtype=np.int64)
        signs[-p:] = -1
        tree = np.stack((nodes, parents, rows, signs), axis=1)
        tree.flags.writeable = False
        return tree

    def sense_template(self, j: int):
        """Net sense of quad type j in every tetrahedron k, as (local
        edge, coefficient) pairs, the edge class being ``slot_edges[k -
        1, local edge]``.

        A quad of type j crosses the four local edges of the other two
        types' partition pairs.  In the cyclic order 1 -> 2 -> 3 -> 1
        it counts +1 on the pair of the next type, j % 3 + 1, and -1 on
        the pair of the remaining type.  Local edges of one class (q =
        1, q = p - 1, p = 2) merge onto the first and zeros are dropped;
        which entries of a ``slot_edges`` row coincide depends on p and
        q only, so row 0 decides for all rows.
        """
        if j not in QUAD_PAIRS:
            raise ValueError(f"quad type must be 1, 2 or 3, got {j}")
        rows = self.slot_edges[0].tolist()
        first, net = {}, {}
        for e, edge in enumerate(LOCAL_EDGES):
            if PAIR_TO_QUAD[edge] != j:
                lead = first.setdefault(rows[e], e)
                net[lead] = net.get(lead, 0) + (
                    1 if PAIR_TO_QUAD[edge] == j % 3 + 1 else -1)
        return tuple((e, s) for e, s in net.items() if s)

    def __repr__(self):
        return f"LensTriangulation(p={self.p}, q={self.q})"


def check_same_pair(tri: LensTriangulation, other, what: str):
    """Raise InvalidParams naming both pairs when ``other``, anything
    with ``p`` and ``q`` (a quad matrix, a surface's triangulation), is
    of another (p,q) than ``tri``; ``what`` names it in the message."""
    if (other.p, other.q) != (tri.p, tri.q):
        raise InvalidParams(f"{what} of (p,q)=({other.p},{other.q}) "
                            f"given for ({tri.p},{tri.q})")


def build_triangulation(params_or_p, q: int | None = None) -> LensTriangulation:
    """Build the triangulation for ``LensParams`` or a plain (p, q) pair.

    Raises InvalidParams unless p >= 2, 1 <= q <= p-1 and gcd(p,q) = 1,
    and BudgetExceeded when the 7p full-coordinate slots cannot be
    indexed in int64.
    """
    if isinstance(params_or_p, LensParams):
        params = params_or_p
    else:
        params = LensParams(int(params_or_p), int(q))
    return LensTriangulation(params)
