"""
Reference oracle for the square-fundamental search: the necklace walk
that ``qsystem.square_fundamental_solutions`` used before it searched
maximal admissible faces.

The square fundamentals are the union of the Hilbert bases of the 3^p
one-type-per-block pattern subcones.  The oracle solves one pattern
per dihedral orbit, a 3-ary necklace whose reflected orbit has no
smaller necklace.  The necklaces are the leaves of the prenecklace
tree (Fredricksen-Kessler-Maiorana), walked depth first; each tree
node pushes one pattern column onto its parent's column-by-column
elimination (``exact.push_column``), so a leaf's kernel basis is
collected along its path.  A pattern's extreme rays come from that
kernel basis by a double description of its own
(``extreme_rays_of_kernel``), so the oracle shares neither the face
search nor the ray enumeration of the package.
"""

from math import gcd

from lensq import exact
from lensq.cone import Budget, graded_lex_key, hilbert_basis
from lensq.errors import InternalInvariantError
from lensq.triangulation import QUAD_TYPES


def primitive(vec):
    """``vec`` divided by the gcd of its entries, as a tuple of ints.

    Signs are kept; the zero vector is returned unchanged.
    """
    g = gcd(*vec)
    return tuple(x // g for x in vec) if g > 1 else tuple(vec)


def prenecklaces(p, k):
    """Every k-ary prenecklace of length p, in lexicographic order (the
    Fredricksen-Kessler-Maiorana algorithm).

    Yields ``(i, word, necklace)``: the word, one list changed in place;
    the first position at which it differs from the word before; and
    whether it is a necklace, the lexicographically least rotation of
    its orbit (its Lyndon prefix length divides p).  The words are the
    leaves of the prenecklace tree in depth-first order, so positions
    i to p - 1 are the tree nodes first visited on the way to a word.
    """
    word = [0] * p
    i, lyndon = 0, 1
    while True:
        yield i, word, p % lyndon == 0
        i = p - 1
        while i >= 0 and word[i] == k - 1:
            i -= 1
        if i < 0:
            return
        word[i] += 1
        for j in range(i + 1, p):
            word[j] = word[j - i - 1]
        lyndon = i + 1


def least_rotation(word):
    """The lexicographically least rotation of ``word``, as a list, in
    O(len(word)) comparisons: two candidate starts i < j race along the
    doubled word, and on the first mismatch after k equal letters the
    larger candidate moves past those k + 1 starts, none of which can
    begin the least rotation."""
    n = len(word)
    doubled = list(word) * 2
    i, j, k = 0, 1, 0
    while j < n and k < n:
        a, b = doubled[i + k], doubled[j + k]
        if a == b:
            k += 1
            continue
        if a > b:
            i += k + 1
        else:
            j += k + 1
        i, j, k = min(i, j), max(i, j) + (i == j), 0
    return doubled[i:i + n]


def necklace_kernels(matrix):
    """The kernel basis of every necklace pattern of the QMatrix
    ``matrix``, found along the prenecklace tree.

    The node at depth i pushes pattern column i (quad column 3i + t)
    onto the elimination state of its parent; going back up truncates
    the state.  Yields ``(columns, kernel)`` for each necklace,
    ``kernel`` being ``exact.kernel_basis`` of the pattern's rows as
    the ``exact.push_column`` dependency dicts, entry k at key ~k.
    """
    p = matrix.p
    pivots = []
    # Per depth on the current path: len(pivots) before the node's
    # push, and the node's dependency or None.
    sizes, vectors = [], []
    for i, word, necklace in prenecklaces(p, len(QUAD_TYPES)):
        if sizes:
            del pivots[sizes[i]:], sizes[i:], vectors[i:]
        for j in range(i, p):
            sizes.append(len(pivots))
            vectors.append(exact.push_column(
                pivots, matrix.column(3 * j + word[j]) + ((~j, 1),)))
        if necklace:
            yield ([3 * j + t for j, t in enumerate(word)],
                   [v for v in vectors if v is not None])


def block_rotation(p, k):
    """Block rotation k of the p blocks as a column table: position c
    reads column (c + 3k) mod 3p."""
    return [(c + 3 * k) % (3 * p) for c in range(3 * p)]


def block_reflection(p):
    """The block reflection as a column table: position (i, t) reads
    column (-i mod p, t)."""
    return [3 * (-i % p) + t for i in range(p) for t in range(3)]


def core_exchange(p, q):
    """The core exchange as a column table when q^2 = +-1 and
    q != +-1 (mod p), else None: position (i, t) reads column
    (q i mod p, tau(t)), tau swapping quad types 2 and 3 (t = 1, 2)
    when q^2 = -1 and fixing them when q^2 = 1."""
    if q in (1, p - 1) or q * q % p not in (1, p - 1):
        return None
    tau = (0, 1, 2) if q * q % p == 1 else (0, 2, 1)
    return [3 * (q * i % p) + tau[t] for i in range(p) for t in range(3)]


def extreme_rays_of_kernel(basis):
    """Primitive extreme rays of the non-negative part of the span of
    ``basis``, a kernel basis in the form ``exact.kernel_basis`` gives.

    The basis vectors span a simplicial cone, described by every column
    on which all of them are non-negative; each remaining column
    x_j >= 0 is imposed by ray splitting with the combinatorial
    adjacency test.  Returns integer tuples sorted in graded
    lexicographic order.
    """
    if not basis:
        return ()
    rays, ncols = basis, len(basis[0])
    imposed = [j for j in range(ncols) if all(r[j] >= 0 for r in rays)]
    for j in sorted(set(range(ncols)) - set(imposed)):
        pos = [r for r in rays if r[j] > 0]
        neg = [r for r in rays if r[j] < 0]
        zero = [r for r in rays if r[j] == 0]
        if neg and (pos or zero):
            tight = {r: frozenset(i for i in imposed if r[i] == 0)
                     for r in rays}
            new = []
            for rp in pos:
                for rn in neg:
                    common = tight[rp] & tight[rn]
                    if not any(r is not rp and r is not rn
                               and common <= tight[r] for r in rays):
                        new.append(primitive(
                            [rp[j] * b - rn[j] * a for a, b in zip(rp, rn)]))
            rays = pos + zero + new
        elif neg:
            rays = []
        imposed.append(j)

    for r in rays:
        if any(v < 0 for v in r):
            raise InternalInvariantError(f"ray left the orthant: {r}")
    return tuple(sorted(set(rays), key=graded_lex_key))


def necklace_square_fundamentals(matrix):
    """The square-condition fundamental solutions of the QMatrix
    ``matrix`` by the necklace walk: the Hilbert basis of one pattern
    per dihedral orbit, closed under the block rotations and the block
    reflection, built from their closed forms (``block_rotation``,
    ``block_reflection``).
    A full-rank necklace is skipped, and so is one whose reversed
    word's least rotation is smaller, as that necklace came first."""
    budget = Budget(max_seconds=None)
    solved = set()
    for columns, kernel in necklace_kernels(matrix):
        if not kernel:
            continue
        word = [c % 3 for c in columns]
        if least_rotation(word[::-1]) < word:
            continue
        pattern = matrix.restrict(columns)
        pattern.extreme_rays = extreme_rays_of_kernel(
            [tuple(v.get(~k, 0) for k in range(matrix.p)) for v in kernel])
        for small in hilbert_basis(pattern, budget):
            entries = dict(zip(columns, small))
            solved.add(tuple(entries.get(c, 0) for c in range(matrix.ncols)))
    p = matrix.p
    found = set()
    for v in solved:
        for image in (v, [v[c] for c in block_reflection(p)]):
            found.update(tuple(image[c] for c in block_rotation(p, k))
                         for k in range(p))
    return tuple(sorted(found, key=graded_lex_key))
