"""Combinatorial cubical and simplicial complexes.

A k-cube is stored as a tuple of 2^k corner vertices in binary-coordinate
order: the corner at position b has coordinate j equal to bit j of b.  Two
distinct cubes of a complex never share their full vertex set, so a cube is
identified by its vertex set and kept in a canonical corner order: the
smallest corner first, then its neighbours in increasing order at positions
1, 2, 4, ..., 2^(k-1), which fixes every other position.  This is the
lexicographic minimum over the 2^k * k! symmetries of the combinatorial
cube.

Simplices are stored as sorted vertex tuples.

The 1-skeleton bookkeeping shared by the other modules lives here too:
`DisjointSet` (connectivity: components, parallel classes, sim_v
partitions), `spanning_forest_labels` (parities along a spanning forest:
folding corners, cycle bases, direction parities) and
`CubicalComplex.axis_edges` (the edge of each axis of a cube).

File formats (ASCII, LF, '#' comments):

    cubical-complex v1          simplicial-complex v1
    vertices <N>                vertices <N>
    cube <k> <v_0> ... <v_2^k-1>    simplex <k> <v_0> ... <v_k>

Only maximal cells are listed; loading closes under faces.  A comment line
``# spec: <text>`` right after the header is preserved as provenance so
that generated files round-trip byte-identically.
"""

import itertools
import operator
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

from .errors import NotAComplex, ParseError, UnknownVertex


# ---------------------------------------------------------------------------
# canonical forms

@lru_cache(maxsize=None)
def _corner_picker(p0, axes):
    # corner tuple -> canonical order, for the smallest corner at position
    # p0 and the cube's axes listed by increasing neighbour of that corner
    order = [p0]
    for a in axes:
        order += [p ^ (1 << a) for p in order]
    return operator.itemgetter(*order)


def canonical_frame(corners):
    """(p0, axes) of a k-cube corner tuple, k >= 1: canonical position q
    holds input position p0 ^ (sum of 1 << axes[t] over the bits t of q),
    so the canonical face along axis t, side s, is the input face along
    axis axes[t], side s ^ (p0 >> axes[t] & 1)."""
    k = (len(corners) - 1).bit_length()
    p0 = corners.index(min(corners))
    return p0, tuple(sorted(range(k), key=lambda j: corners[p0 ^ (1 << j)]))


def canonical_cube(corners):
    """Canonical corner order of a cube given as distinct corners.  An edge
    is its sorted pair; a square's least corner comes first, the far end of
    its diagonal last, the other diagonal in increasing order between."""
    if len(corners) == 2:
        a, b = corners
        return (a, b) if a < b else (b, a)
    if len(corners) == 4:
        c0, c1, c2, c3 = corners
        lo1, hi1 = (c0, c3) if c0 < c3 else (c3, c0)
        lo2, hi2 = (c1, c2) if c1 < c2 else (c2, c1)
        return (lo1, lo2, hi2, hi1) if lo1 < lo2 else (lo2, lo1, hi1, hi2)
    k = (len(corners) - 1).bit_length()
    if len(corners) != 1 << k:
        raise NotAComplex("corner count %d is not a power of two" % len(corners))
    if k == 0:
        return tuple(corners)
    return _corner_picker(*canonical_frame(corners))(corners)


@lru_cache(maxsize=None)
def _face_pickers(k):
    # k-cube corners -> face corners, at 2*axis + side; an edge's faces
    # are slices, so they stay tuples
    return [operator.itemgetter(
                *[b for b in range(1 << k) if (b >> axis) & 1 == side])
            if k > 1 else operator.itemgetter(slice(side, side + 1))
            for axis in range(k) for side in (0, 1)]


def _face_closure(vertex_count, maximal):
    """Face closure of a list of corner tuples.

    Returns the cubes by dim (each level sorted, level 0 all vertices) and
    the face table of CubicalComplex.  Cubes are keyed by canonical tuple
    and every side-1 face occurrence of dimension >= 1 is canonicalized; a
    level with two cubes on one sorted corner tuple is refused.
    """
    levels = {}   # dim -> {canonical cube: position in order of discovery}
    facets = {}   # dim -> positions in levels[dim-1] of each cube's faces
    listed = {}   # sorted corners -> listed cube, for the first pass only
    for corners in maximal:
        k = (len(corners) - 1).bit_length()
        if len(corners) != 1 << k:
            raise NotAComplex("cube with %d corners" % len(corners))
        if len(set(corners)) != len(corners):
            raise NotAComplex("cube has repeated corners", detail=(tuple(corners),))
        for v in corners:
            if not (0 <= v < vertex_count):
                raise NotAComplex("corner %d out of range" % v)
        cube = canonical_cube(tuple(corners))
        other = listed.setdefault(tuple(sorted(cube)), cube)
        if other != cube:
            raise NotAComplex("two distinct cubes on the same vertex set",
                              detail=(other, cube))
        level = levels.setdefault(k, {})
        level.setdefault(cube, len(level))
    del listed
    top = max(levels) if levels else 0
    # faces only go down, so level k is complete once level k+1 is done
    # a side-0 face keeps the least corner and its neighbours in increasing
    # order, so it is canonical already; only side-1 faces are reordered
    for k in range(top, 0, -1):
        pickers = _face_pickers(k)
        sides = list(zip(pickers[::2], pickers[1::2]))
        canon = canonical_cube if k > 1 else tuple
        below = levels.setdefault(k - 1, {})
        place = below.setdefault
        row = facets[k] = []
        for cube in levels[k]:
            for side0, side1 in sides:
                row.append(place(side0(cube), len(below)))
                row.append(place(canon(side1(cube)), len(below)))

    cubes_by_dim = [tuple((v,) for v in range(vertex_count))]
    face_table = [[]]
    ranks = [[v for (v,) in levels.pop(0, ())]]   # position -> index
    for k in range(1, top + 1):
        level = list(levels.pop(k))
        order = sorted(range(len(level)), key=level.__getitem__)
        cubes_by_dim.append(tuple(level[j] for j in order))
        below, flat, w = ranks[-1], facets.pop(k), 2 * k
        face_table.append([below[p] for j in order
                           for p in flat[w * j:w * j + w]])
        ranks.append(sorted(range(len(level)), key=order.__getitem__))
        if len(set(map(tuple, map(sorted, level)))) < len(level):
            raise NotAComplex("two distinct cubes on the same vertex set")
    return tuple(cubes_by_dim), face_table


# ---------------------------------------------------------------------------
# 1-skeleton helpers

class DisjointSet:
    """Union-find over 0..n-1 whose roots are the least members.

    Least-member roots make root order, and so every class id and group
    order derived from it, a pure function of the partition.
    """

    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, x):
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a, b):
        """Merge the sets of a and b; True iff they were apart."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if ra < rb:
            self.parent[rb] = ra
        else:
            self.parent[ra] = rb
        return True

    def groups(self, items=None):
        """Sets met by `items` (default all) as lists, ordered by root."""
        out = {}
        for x in range(len(self.parent)) if items is None else items:
            out.setdefault(self.find(x), []).append(x)
        return [out[r] for r in sorted(out)]


def spanning_forest_labels(vertex_count, edges, weights):
    """XOR labels along a spanning forest of the multigraph `edges`.

    Each component is labelled from its lowest vertex, at label 0, with
    label[w] = label[u] ^ weights[e] along tree edges.  The forest is fixed
    (cycle bases depend on it): a stack over adjacency in edge order, a
    vertex labelled when pushed.  Returns (label, off-tree edges in
    increasing order); the labels fit every edge iff they fit the
    off-tree ones.
    """
    adj = [[] for _ in range(vertex_count)]
    for e, (u, w) in enumerate(edges):
        adj[u].append((w, e))
        adj[w].append((u, e))
    label = [None] * vertex_count
    in_tree = bytearray(len(edges))
    for base in range(vertex_count):
        if label[base] is not None:
            continue
        label[base] = 0
        stack = [base]
        while stack:
            u = stack.pop()
            for w, e in adj[u]:
                if label[w] is None:
                    label[w] = label[u] ^ weights[e]
                    in_tree[e] = 1
                    stack.append(w)
    return label, [e for e in range(len(edges)) if not in_tree[e]]


# ---------------------------------------------------------------------------
# cubical complexes

class CubicalComplex:
    """Finite face-closed cubical complex with dense vertex ids 0..N-1.

    Immutable after construction; derived tables are cached lazily and all
    queries are pure.  A cube is keyed by its canonical corner tuple; no
    two cubes share a vertex set.
    """

    def __init__(self, vertex_count, cubes_by_dim, face_table,
                 provenance=None):
        # internal: use from_maximal_cubes, or reindex a complex's tables
        # (restrict_complex, decomposition.hyperplanes)
        self.vertex_count = vertex_count
        self.cubes = cubes_by_dim  # tuple over dims of tuples of corner tuples
        self.provenance = provenance
        # per dim k: face indices (in dim k-1) of every k-cube, 2k per cube
        # in axis/side order
        self._faces = face_table
        self._adj = None
        self._star = None
        self._cofaces = None
        self._n_cofaces = None
        self._maximal = None
        self._axes = {}

    # -- construction ------------------------------------------------------

    @classmethod
    def from_maximal_cubes(cls, vertex_count, maximal, check_intersections=True,
                           provenance=None):
        """Build the face closure of the given cubes.

        The cubes need not be maximal.
        Raises NotAComplex on repeated corners, on two cubes sharing a full
        vertex set with different combinatorial structure, or (when
        `check_intersections` is set) on a pair of cubes whose vertex sets
        intersect in something that is not a common face.
        """
        cplx = cls(vertex_count, *_face_closure(vertex_count, maximal),
                   provenance=provenance)
        if check_intersections:
            cplx._check_intersections()
        return cplx

    def _check_intersections(self):
        """Raise NotAComplex unless any two cubes meet in a common face.

        The complex is face-closed and each vertex set carries one cube,
        so this holds iff no two distinct cubes of dimension >= 1 share a
        diagonal (corners p and 2^k-1 ^ p).  (=>) A & B then holds two
        opposite corners of each, so as a face of both it is A = B.  (<=)
        For u, w in A & B, A's face with diagonal {u, w} is B's, so A & B
        holds it; adding the bits in which such pairs differ one at a time
        shows that A & B is a face of A, and of B.  Edges count too.  The
        test is one set of the n_k * 2^(k-1) diagonals of each dimension k;
        only when it holds fewer does a dict scan name the first clash.
        """
        n, keys, total = self.vertex_count, set(), 0
        for k in range(1, len(self.cubes)):
            level, half = self.cubes[k], 1 << (k - 1)
            total += half * len(level)
            for p in range(half):   # corners p and ~p = 2^k - 1 - p
                keys.update([u * n + w if u < w else w * n + u
                             for c in level for u, w in ((c[p], c[~p]),)])
        if len(keys) == total:
            return
        seen = {}
        for cube in itertools.chain.from_iterable(self.cubes[1:]):
            half = len(cube) >> 1
            for u, w in zip(cube[:half], cube[:half - 1:-1]):
                other = seen.setdefault(u * n + w if u < w else w * n + u,
                                        cube)
                if other is not cube:
                    raise NotAComplex("cube intersection is not a face",
                                      detail=(other, cube))

    # -- basic queries -------------------------------------------------------

    @property
    def dim(self):
        return len(self.cubes) - 1

    def n_cubes(self, k):
        if 0 <= k < len(self.cubes):
            return len(self.cubes[k])
        return 0

    def cell_counts(self):
        return tuple(len(level) for level in self.cubes)

    def euler_characteristic(self):
        return sum((-1) ** k * len(level) for k, level in enumerate(self.cubes))

    def faces(self, k, i):
        """The 2k codimension-1 faces of cube (k, i), in axis/side order."""
        return [(k - 1, fi)
                for fi in self._faces[k][2 * k * i:2 * k * (i + 1)]]

    def _build_cofaces(self):
        if self._cofaces is None:
            tables = [[[] for _ in level] for level in self.cubes]
            for d, row in enumerate(self._faces):
                for j, fi in enumerate(row):
                    tables[d - 1][fi].append((d, j // (2 * d)))
            self._cofaces = tables
        return self._cofaces

    def cofaces(self, k, i):
        return self._build_cofaces()[k][i]

    def _coface_counts(self, k):
        """Number of cofaces of every k-cube, by index."""
        if self._n_cofaces is None:
            counts = [[0] * len(level) for level in self.cubes]
            for d, row in enumerate(self._faces):
                below = counts[d - 1]
                for fi in row:
                    below[fi] += 1
            self._n_cofaces = counts
        return self._n_cofaces[k]

    def maximal_cubes(self):
        """Cubes that are no face of another cube, in (dim, index) order."""
        if self._maximal is None:
            self._maximal = [(d, i) for d in range(len(self.cubes))
                             for i, c in enumerate(self._coface_counts(d))
                             if not c]
        return self._maximal

    def homogeneity_witness(self):
        """A cube that lies below no top cube, or None.

        Faces are codimension-1, so such a cube is a maximal cube of lower
        dimension; the first one in (dim, index) order is returned.
        """
        maximal = self.maximal_cubes()
        if maximal and maximal[0][0] < self.dim:
            k, i = maximal[0]
            return self.cubes[k][i]
        return None

    def neighbors(self, v):
        if self._adj is None:
            adj = [[] for _ in range(self.vertex_count)]
            if len(self.cubes) > 1:
                for u, w in self.cubes[1]:
                    adj[u].append(w)
                    adj[w].append(u)
            self._adj = tuple(tuple(sorted(a)) for a in adj)
        return self._adj[v]

    def edge_index(self, u, w):
        if not 0 <= u < self.vertex_count:
            return None
        nbrs = self.neighbors(u)
        j = bisect_left(nbrs, w)
        if j < len(nbrs) and nbrs[j] == w:
            return self._directions[0][u][j]
        return None

    def axis_edges(self, k):
        """Edge index of each axis at corner 0 of every k-cube, flat: entry
        k*i + ax is edge_index(cube[0], cube[1 << ax]) of cube (k, i), read
        off the side-0 faces along axes 0 and 1, which keep corner 0 and
        the order of the other axes."""
        table = self._axes.get(k)
        if table is None and k == 1:
            table = self._axes[1] = list(range(self.n_cubes(1)))
        elif table is None:
            below, faces, j = self.axis_edges(k - 1), self._faces[k], k - 1
            table = self._axes[k] = []
            for i in range(0, len(faces), 2 * k):
                f0, f1 = j * faces[i], j * faces[i + 2]
                table += [below[f1]] + below[f0:f0 + j]
        return table

    @cached_property
    def _directions(self):
        # per vertex: the edge index of each neighbour, and a dict from each
        # neighbour to its link mask (bit j for the j-th neighbour)
        bit = [{w: 1 << j for j, w in enumerate(self.neighbors(v))}
               for v in range(self.vertex_count)]
        edges = [[0] * len(bits) for bits in bit]
        for e, (u, w) in enumerate(self.cubes[1] if len(self.cubes) > 1 else ()):
            edges[u][bit[u][w].bit_length() - 1] = e
            edges[w][bit[w][u].bit_length() - 1] = e
        masks = [dict.fromkeys(bits, 0) for bits in bit]
        for c0, c1, c2, c3 in self.cubes[2] if len(self.cubes) > 2 else ():
            for v0, a, b in ((c0, c1, c2), (c1, c0, c3), (c2, c0, c3),
                             (c3, c1, c2)):
                masks[v0][a] |= bit[v0][b]
                masks[v0][b] |= bit[v0][a]
        return edges, masks

    def directions(self, v):
        """The direction table at v: (neighbours in increasing order, the
        edge index of each, a dict from each neighbour to its link mask).
        Direction j is the j-th neighbour; bit j of a link mask is set iff
        direction j spans a square with that direction at v.  Raises
        UnknownVertex for v outside 0..N-1."""
        if not 0 <= v < self.vertex_count:
            raise UnknownVertex("vertex %d" % v)
        edges, masks = self._directions
        return self.neighbors(v), edges[v], masks[v]

    def star(self, v):
        """Cubes containing v: tuple over dims of lists of (index, position)."""
        if self._star is None:
            tables = [tuple([] for _ in self.cubes) for _ in range(self.vertex_count)]
            for k, level in enumerate(self.cubes):
                for i, cube in enumerate(level):
                    for pos, w in enumerate(cube):
                        tables[w][k].append((i, pos))
            self._star = tables
        return self._star[v]

    def cubes_with_edge(self, u, w):
        """Yield (k, i, pos_u, axis) for cubes containing the edge u-w."""
        for k in range(1, len(self.cubes)):
            for i, pos in self.star(u)[k]:
                cube = self.cubes[k][i]
                for axis in range(k):
                    if cube[pos ^ (1 << axis)] == w:
                        yield k, i, pos, axis
                        break

    def vertex_components(self):
        """Partition of vertices by 1-skeleton connectivity, each sorted."""
        ds = DisjointSet(self.vertex_count)
        for u, w in self.cubes[1] if len(self.cubes) > 1 else ():
            ds.union(u, w)
        return ds.groups()

    def is_connected(self):
        return len(self.vertex_components()) <= 1

    def __eq__(self, other):
        return (isinstance(other, CubicalComplex)
                and self.vertex_count == other.vertex_count
                and self.cubes == other.cubes)

    def __repr__(self):
        return "CubicalComplex(%s)" % (" ".join(
            "%d:%d" % (k, len(level)) for k, level in enumerate(self.cubes)))


@dataclass
class ComponentPiece:
    """A connected component with index maps back to its parent complex,
    per dimension in `local_index` (level 0 is `vertex_index`)."""
    complex: CubicalComplex
    to_parent: tuple          # new vertex id -> parent vertex id
    vertex_index: dict        # parent vertex id -> new vertex id
    local_index: list = None  # per dim: parent cube index -> new index


def restrict_complex(parent, cube_refs):
    """Induced complex on a face-closed set of parent cubes.

    `cube_refs` is an iterable of (dim, index) pairs; it must be closed
    under faces and include the 0-cubes of every listed cube, or
    NotAComplex names a missing face.  The vertices are renumbered in
    increasing order, which keeps canonical cubes canonical and levels
    sorted: each level is the listed parent cubes in parent order, each
    face entry the parent's, renumbered; nothing is closed again.  The
    renumberings are the piece's `local_index`.
    """
    chosen = [set() for _ in parent.cubes]
    for k, i in cube_refs:
        chosen[k].add(i)
    while len(chosen) > 1 and not chosen[-1]:
        chosen.pop()
    cubes, face_table, index = [], [[]], []
    for k, refs in enumerate(map(sorted, chosen)):
        if k:   # faces first: once they are all listed, so are the corners
            row, below, w = parent._faces[k], index[k - 1], 2 * k
            try:
                face_table.append([below[f] for i in refs
                                   for f in row[w * i:w * i + w]])
            except KeyError as exc:
                face = parent.cubes[k - 1][exc.args[0]]
                raise NotAComplex("cube set misses the face %r" % (face,),
                                  detail=(face,)) from None
        index.append(dict(zip(refs, range(len(refs)))))
        cubes.append(tuple(tuple(map(index[0].__getitem__,
                                     parent.cubes[k][i])) for i in refs))
    cplx = CubicalComplex(len(index[0]), tuple(cubes), face_table)
    return ComponentPiece(cplx, tuple(index[0]), index[0], index)


def components(cplx):
    """Connected components of a complex, by 1-skeleton connectivity.

    Components are ordered by their least parent vertex.
    """
    parts = cplx.vertex_components()
    if len(parts) == 1:
        index = [{i: i for i in range(len(level))} for level in cplx.cubes]
        return [ComponentPiece(cplx, tuple(range(cplx.vertex_count)),
                               index[0], index)]
    where = {}
    for ci, part in enumerate(parts):
        for v in part:
            where[v] = ci
    refs = [[] for _ in parts]
    for k, level in enumerate(cplx.cubes):
        for i, cube in enumerate(level):
            refs[where[cube[0]]].append((k, i))
    return [restrict_complex(cplx, r) for r in refs]


# ---------------------------------------------------------------------------
# simplicial complexes

class SimplicialComplex:
    """Finite face-closed simplicial complex; simplices are sorted tuples."""

    def __init__(self, vertex_count, simplices_by_dim):
        self.vertex_count = vertex_count
        self.simplices = simplices_by_dim
        self._members = set()
        for level in self.simplices:
            self._members.update(level)
        self._adj = None

    @classmethod
    def from_maximal(cls, vertex_count, maximal):
        levels = {}
        for s in maximal:
            t = tuple(sorted(s))
            if len(set(t)) != len(t):
                raise NotAComplex("simplex has repeated vertices", detail=(t,))
            for v in t:
                if not (0 <= v < vertex_count):
                    raise NotAComplex("vertex %d out of range" % v)
            for r in range(1, len(t) + 1):
                for sub in itertools.combinations(t, r):
                    levels.setdefault(r - 1, set()).add(sub)
        top = max(levels) if levels else 0
        out = []
        for k in range(top + 1):
            if k == 0:
                out.append(tuple((v,) for v in range(vertex_count)))
            else:
                out.append(tuple(sorted(levels.get(k, ()))))
        return cls(vertex_count, tuple(out))

    @property
    def dim(self):
        return len(self.simplices) - 1

    def n_simplices(self, k):
        if 0 <= k < len(self.simplices):
            return len(self.simplices[k])
        return 0

    def has(self, vertices):
        return tuple(sorted(vertices)) in self._members

    def neighbors(self, v):
        if self._adj is None:
            adj = [set() for _ in range(self.vertex_count)]
            if len(self.simplices) > 1:
                for u, w in self.simplices[1]:
                    adj[u].add(w)
                    adj[w].add(u)
            self._adj = tuple(tuple(sorted(a)) for a in adj)
        return self._adj[v]

    def euler_characteristic(self):
        return sum((-1) ** k * len(level) for k, level in enumerate(self.simplices))

    def maximal_simplices(self):
        """Simplices that are no face of another, in (dim, vertices) order."""
        in_higher = set()
        for level in self.simplices[1:]:
            for s in level:
                for r in range(1, len(s)):
                    in_higher.update(itertools.combinations(s, r))
        return [s for level in self.simplices for s in level
                if s not in in_higher]

    def is_dimensionally_homogeneous(self):
        n = self.dim
        for k in range(n):
            in_next = set()
            for s in self.simplices[k + 1]:
                in_next.update(itertools.combinations(s, k + 1))
            for s in self.simplices[k]:
                if s not in in_next:
                    return False
        return True

    def has_no_boundary(self):
        n = self.dim
        if n < 1:
            return False
        count = {}
        for s in self.simplices[n]:
            for f in itertools.combinations(s, n):
                count[f] = count.get(f, 0) + 1
        return all(count.get(f, 0) >= 2 for f in self.simplices[n - 1])

    def __eq__(self, other):
        return (isinstance(other, SimplicialComplex)
                and self.vertex_count == other.vertex_count
                and self.simplices == other.simplices)

    def __repr__(self):
        return "SimplicialComplex(%s)" % (" ".join(
            "%d:%d" % (k, len(level)) for k, level in enumerate(self.simplices)))


def is_flag(K):
    """Flag test: every clique of the 1-skeleton spans a simplex.

    Returns (True, None) or (False, witness) where the witness is a minimal
    non-spanning clique, as a sorted vertex tuple.
    """
    nbrs = [set(K.neighbors(v)) for v in range(K.vertex_count)]
    # the top level included: no clique above it spans a simplex
    for k in range(1, len(K.simplices)):
        for s in K.simplices[k]:
            common = set.intersection(*(nbrs[v] for v in s))
            for w in sorted(common):
                if w > s[-1] and not K.has(s + (w,)):
                    return False, tuple(sorted(s + (w,)))
    return True, None


def simplicial_isomorphic(K1, K2):
    """Exact isomorphism search; returns a vertex bijection or None."""
    if K1.vertex_count != K2.vertex_count:
        return None
    if [len(l) for l in K1.simplices] != [len(l) for l in K2.simplices]:
        return None

    def signature(K, v):
        sig = []
        for level in K.simplices:
            sig.append(sum(1 for s in level if v in s))
        return tuple(sig)

    sig1 = [signature(K1, v) for v in range(K1.vertex_count)]
    sig2 = [signature(K2, v) for v in range(K2.vertex_count)]
    if sorted(sig1) != sorted(sig2):
        return None
    cands = [
        [w for w in range(K2.vertex_count) if sig2[w] == sig1[v]]
        for v in range(K1.vertex_count)
    ]
    order = sorted(range(K1.vertex_count), key=lambda v: (len(cands[v]), v))
    mapping = {}
    used = set()

    def extend(idx):
        if idx == len(order):
            for level in K1.simplices:
                for s in level:
                    if not K2.has(tuple(mapping[v] for v in s)):
                        return False
            return True
        v = order[idx]
        for w in cands[v]:
            if w in used:
                continue
            ok = True
            for u in mapping:
                if (u in K1.neighbors(v)) != (mapping[u] in K2.neighbors(w)):
                    ok = False
                    break
            if ok:
                mapping[v] = w
                used.add(w)
                if extend(idx + 1):
                    return True
                del mapping[v]
                used.discard(w)
        return False

    if extend(0):
        return dict(mapping)
    return None


# ---------------------------------------------------------------------------
# vertex links

@dataclass
class VertexLink:
    """Link of a cubical-complex vertex.

    Link vertices are the directions at `at`: link vertex j points along the
    edge from `at` to `directions[j]`.
    """
    at: int
    directions: tuple
    complex: SimplicialComplex
    index_of: dict = field(repr=False)


def link(cplx, v):
    """Vertex link; a set of directions spans a simplex iff a cube does."""
    if not (0 <= v < cplx.vertex_count):
        raise UnknownVertex("vertex %d" % v)
    dirs = cplx.neighbors(v)
    idx = {w: j for j, w in enumerate(dirs)}
    maximal = []
    star = cplx.star(v)
    for k in range(1, len(cplx.cubes)):
        for i, pos in star[k]:
            cube = cplx.cubes[k][i]
            maximal.append(tuple(idx[cube[pos ^ (1 << ax)]] for ax in range(k)))
    K = SimplicialComplex.from_maximal(len(dirs), maximal)
    return VertexLink(v, dirs, K, idx)


# ---------------------------------------------------------------------------
# FCC validation

@dataclass
class FccReport:
    dimension: int
    connected: bool
    dimensionally_homogeneous: bool
    no_boundary: bool
    flag_links: bool
    foldable: bool
    is_fcc: bool
    homogeneity_witness: tuple = None   # a cube not below a top cube
    boundary_witness: tuple = None      # a facet in < 2 top cubes
    flag_witness: tuple = None          # (vertex, direction vertices)
    fold_witness: object = None         # NotFoldable detail, if any

    def to_kv(self):
        pairs = [
            ("dimension", self.dimension),
            ("connected", self.connected),
            ("dimensionally_homogeneous", self.dimensionally_homogeneous),
            ("no_boundary", self.no_boundary),
            ("flag_links", self.flag_links),
            ("foldable", self.foldable),
            ("is_fcc", self.is_fcc),
        ]
        if self.homogeneity_witness is not None:
            pairs.append(("witness.not_homogeneous", self.homogeneity_witness))
        if self.boundary_witness is not None:
            pairs.append(("witness.boundary", self.boundary_witness))
        if self.flag_witness is not None:
            v, triple = self.flag_witness
            pairs.append(("witness.flag.vertex", v))
            pairs.append(("witness.flag.directions", triple))
        return pairs

    def render(self):
        return render_report("fcc-report v1", self.to_kv())


def _flag_witness(cplx):
    """(v, directions) of the least vertex whose link is not flag, or None.

    A clique grows one direction at a time, so the link at v is flag iff
    every direction link-adjacent to all directions of a k-cube s at v,
    k >= 2, spans a (k+1)-coface of s with them.  This assumes that
    distinct cubes at v have distinct direction sets.  The intersection
    axiom gives it: two k-cubes at v on the same directions share v and
    its k neighbours, and the only face holding those is the whole cube,
    so the two are one cube.  The generators build complexes that satisfy
    it.  Cofaces of s then add distinct directions, so the test is a
    count: s has as many (k+1)-cofaces as its directions have common link
    neighbours (a top cube none), an `&` of the link masks of the
    direction table (`CubicalComplex.directions`).  A vertex that fails
    the count gets its link built, and `is_flag` confirms it and names
    the witness.
    """
    n = cplx.vertex_count
    masks = cplx._directions[1]
    suspect = bytearray(n)
    for k in range(2, len(cplx.cubes)):
        counts = cplx._coface_counts(k)
        # per corner position: its neighbour along axis 0, then the rest
        steps = [(p, p ^ 1, [p ^ (1 << ax) for ax in range(1, k)])
                 for p in range(1 << k)]
        for cube, count in zip(cplx.cubes[k], counts):
            for p, q, rest in steps:
                adj = masks[cube[p]]
                common = adj[cube[q]]
                for r in rest:
                    common &= adj[cube[r]]
                if common.bit_count() != count:
                    suspect[cube[p]] = 1
    for v in range(n):
        if suspect[v]:
            lnk = link(cplx, v)
            ok, bad = is_flag(lnk.complex)
            if not ok:
                return v, tuple(lnk.directions[j] for j in bad)
    return None


def validate_fcc(cplx, folding=None):
    """Check the FCC axioms and report each one.

    `folding` may carry a precomputed folding to check (`verify_folding`,
    on edges and squares) instead of searching for one; one for another
    complex, or with a direction or corner off the n-cube, is not foldable;
    so is a `NotFoldable`, which becomes the report's `fold_witness`.
    A folding that `find_folding` built for this very complex was verified
    there and is not verified again.  Empty and 0-dimensional complexes
    are never FCCs.  The flag test reads the face table (`_flag_witness`).
    """
    from . import folding as folding_mod

    n = cplx.dim
    connected = cplx.vertex_count > 0 and cplx.is_connected()
    homog_witness = cplx.homogeneity_witness() if n >= 1 else None
    homogeneous = n >= 1 and homog_witness is None
    boundary_witness = None
    if homogeneous:
        boundary_witness = next((cplx.cubes[n - 1][i] for i, count in
                                 enumerate(cplx._coface_counts(n - 1))
                                 if count < 2), None)
    no_boundary = homogeneous and boundary_witness is None
    flag_witness = _flag_witness(cplx)
    flag_links = flag_witness is None
    foldable = False
    fold_witness = None
    if homogeneous:
        if folding is None:
            folding = folding_mod.find_folding(cplx)
        if isinstance(folding, folding_mod.NotFoldable):
            fold_witness = folding
        else:
            # a folding find_folding built for this complex is verified
            foldable = (folding._verified_for is cplx
                        or folding_mod.verify_folding(cplx, folding))
    is_fcc = (connected and homogeneous and no_boundary and flag_links
              and foldable)
    return FccReport(n, connected, homogeneous, no_boundary, flag_links,
                     foldable, is_fcc, homog_witness, boundary_witness,
                     flag_witness, fold_witness)


# ---------------------------------------------------------------------------
# file formats and reports

def _format_value(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (list, tuple)):
        return " ".join(_format_value(x) for x in value)
    return str(value)


def render_report(header, pairs):
    """Canonical key/value serialization: stable insertion order, LF lines."""
    lines = [header]
    for key, value in pairs:
        lines.append("%s = %s" % (key, _format_value(value)))
    return "\n".join(lines) + "\n"


# Largest `vertices N` a file may declare.  Loading allocates per-vertex
# tables before it reads a cell, so a huge N in a one-line header would
# exhaust memory; X(H) with m = (2, 2, 2) (131,072 cubes) stays far below.
MAX_VERTICES = 1 << 20

# Largest `simplex K` a file may hold: loading lists all 2^(K+1) faces, so
# a short line would exhaust memory.  davis_X takes 16 generators by default.
MAX_SIMPLEX_DIM = 16


def _parse_cell_file(text, kind, cell_word):
    lineno = 0
    header = None
    provenance = None
    vertex_count = None
    cells = []
    for raw in text.split("\n"):
        lineno += 1
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("spec:") and provenance is None:
                provenance = body[len("spec:"):].strip()
            continue
        if header is None:
            if line != kind + " v1":
                raise ParseError("line %d: expected '%s v1'" % (lineno, kind))
            header = line
            continue
        parts = line.split()
        if vertex_count is None:
            if parts[0] != "vertices" or len(parts) != 2:
                raise ParseError("line %d: expected 'vertices <N>'" % lineno)
            try:
                vertex_count = int(parts[1])
            except ValueError:
                raise ParseError("line %d: bad vertex count" % lineno)
            if vertex_count < 0:
                raise ParseError("line %d: negative vertex count" % lineno)
            if vertex_count > MAX_VERTICES:
                raise ParseError("line %d: more than %d vertices"
                                 % (lineno, MAX_VERTICES))
            continue
        if parts[0] != cell_word or len(parts) < 2:
            raise ParseError("line %d: expected '%s <k> <vertices>'"
                             % (lineno, cell_word))
        try:
            k = int(parts[1])
            verts = list(map(int, parts[2:]))
        except ValueError:
            raise ParseError("line %d: bad integer" % lineno)
        if k < 0:
            raise ParseError("line %d: negative dimension" % lineno)
        cells.append((k, verts))
    if header is None or vertex_count is None:
        raise ParseError("missing header or vertices line")
    return vertex_count, cells, provenance


def load_complex(text):
    """Parse the cubical complex format; returns the face closure.

    Rejects malformed documents (ParseError) and inputs violating the
    complex axioms (NotAComplex).
    """
    vertex_count, cells, provenance = _parse_cell_file(
        text, "cubical-complex", "cube")
    maximal = []
    for k, verts in cells:
        # no line holds 2^64 corners; a larger k must not build 1 << k
        if k >= 64 or len(verts) != 1 << k:
            need = 1 << k if k < 64 else "2^%d" % k
            raise ParseError("cube of dimension %d needs %s corners, got %d"
                             % (k, need, len(verts)))
        maximal.append(tuple(verts))
    del cells   # no parse error is left to raise; free before the closure
    return CubicalComplex.from_maximal_cubes(
        vertex_count, maximal, check_intersections=True, provenance=provenance)


def serialize_complex(cplx):
    """Canonical text form: maximal cubes only, sorted by (dim, corners)."""
    lines = ["cubical-complex v1"]
    if cplx.provenance:
        lines.append("# spec: %s" % cplx.provenance)
    lines.append("vertices %d" % cplx.vertex_count)
    maximal = sorted(cplx.maximal_cubes())
    for k, i in maximal:
        cube = cplx.cubes[k][i]
        lines.append("cube %d %s" % (k, " ".join(str(v) for v in cube)))
    return "\n".join(lines) + "\n"


def load_simplicial(text):
    vertex_count, cells, provenance = _parse_cell_file(
        text, "simplicial-complex", "simplex")
    maximal = []
    for k, verts in cells:
        if len(verts) != k + 1:
            raise ParseError("simplex of dimension %d needs %d vertices, got %d"
                             % (k, k + 1, len(verts)))
        if k > MAX_SIMPLEX_DIM:
            raise ParseError("simplex of dimension %d is above %d"
                             % (k, MAX_SIMPLEX_DIM))
        maximal.append(tuple(verts))
    K = SimplicialComplex.from_maximal(vertex_count, maximal)
    K.provenance = provenance
    return K


def serialize_simplicial(K):
    lines = ["simplicial-complex v1"]
    if getattr(K, "provenance", None):
        lines.append("# spec: %s" % K.provenance)
    lines.append("vertices %d" % K.vertex_count)
    for s in K.maximal_simplices():
        lines.append("simplex %d %s" % (len(s) - 1, " ".join(str(v) for v in s)))
    return "\n".join(lines) + "\n"
