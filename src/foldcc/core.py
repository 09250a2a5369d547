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
from dataclasses import dataclass, field
from functools import lru_cache

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


def canonical_cube(corners):
    """Canonical corner order of a cube given as a corner tuple."""
    k = (len(corners) - 1).bit_length()
    if len(corners) != 1 << k:
        raise NotAComplex("corner count %d is not a power of two" % len(corners))
    if k == 0:
        return tuple(corners)
    p0 = corners.index(min(corners))
    axes = sorted(range(k), key=lambda j: corners[p0 ^ (1 << j)])
    return _corner_picker(p0, tuple(axes))(corners)


def cube_face(corners, axis, side):
    """Codimension-1 face of a cube tuple: fix coordinate `axis` to `side`."""
    k = (len(corners) - 1).bit_length()
    return tuple(corners[b] for b in range(1 << k) if (b >> axis) & 1 == side)


def _is_position_face(positions):
    # positions: distinct corner positions inside a cube; True iff they
    # form the position set of a face (all bits outside the mixed bits agree)
    and_mask = ~0
    or_mask = 0
    for p in positions:
        and_mask &= p
        or_mask |= p
    free = or_mask & ~and_mask
    return len(positions) == 1 << free.bit_count()


def _face_closure(vertex_count, maximal):
    """Face closure of a list of corner tuples.

    Returns the cubes by dim (each level sorted, level 0 all vertices), the
    map vertex set -> (dim, index) and the face table of CubicalComplex.
    Every face is canonicalized once per cube it bounds.
    """
    levels = {}   # dim -> canonical cubes in order of discovery
    found = {}    # vertex set -> position in levels[dim]
    facets = {}   # dim -> positions in levels[dim-1] of each cube's faces

    def place(cube, k):
        level = levels.setdefault(k, [])
        j = found.setdefault(frozenset(cube), len(level))
        if j == len(level):
            level.append(cube)
        elif level[j] != cube:
            raise NotAComplex("two distinct cubes on the same vertex set",
                              detail=(level[j], cube))
        return j

    for corners in maximal:
        k = (len(corners) - 1).bit_length()
        if len(corners) != 1 << k:
            raise NotAComplex("cube with %d corners" % len(corners))
        if len(set(corners)) != len(corners):
            raise NotAComplex("cube has repeated corners", detail=(tuple(corners),))
        for v in corners:
            if not (0 <= v < vertex_count):
                raise NotAComplex("corner %d out of range" % v)
        place(canonical_cube(tuple(corners)), k)
    top = max(levels) if levels else 0
    # faces only go down, so level k is complete once level k+1 is done
    for k in range(top, 0, -1):
        facets[k] = [place(canonical_cube(cube_face(cube, axis, side)), k - 1)
                     for cube in levels.get(k, ())
                     for axis in range(k) for side in (0, 1)]

    cubes_by_dim = [tuple((v,) for v in range(vertex_count))]
    face_table = [[]]
    ranks = [[v for (v,) in levels.get(0, ())]]   # position -> index
    for k in range(1, top + 1):
        level = levels.get(k, [])
        order = sorted(range(len(level)), key=level.__getitem__)
        cubes_by_dim.append(tuple(level[j] for j in order))
        below, flat, w = ranks[-1], facets[k], 2 * k
        face_table.append([below[p] for j in order
                           for p in flat[w * j:w * j + w]])
        ranks.append(sorted(range(len(level)), key=order.__getitem__))
    for vset, j in found.items():
        k = (len(vset) - 1).bit_length()
        found[vset] = (k, ranks[k][j])
    for v in range(vertex_count):
        found.setdefault(frozenset((v,)), (0, v))
    return tuple(cubes_by_dim), found, face_table


# ---------------------------------------------------------------------------
# cubical complexes

class CubicalComplex:
    """Finite face-closed cubical complex with dense vertex ids 0..N-1.

    Immutable after construction; derived tables are cached lazily and all
    queries are pure.
    """

    def __init__(self, vertex_count, cubes_by_dim, provenance=None,
                 by_vset=None, face_table=None):
        # internal: use from_maximal_cubes / _from_closed
        self.vertex_count = vertex_count
        self.cubes = cubes_by_dim  # tuple over dims of tuples of corner tuples
        self.provenance = provenance
        if by_vset is None:
            by_vset = {frozenset(c): (k, i)
                       for k, level in enumerate(self.cubes)
                       for i, c in enumerate(level)}
        self._by_vset = by_vset
        # per dim k: face indices (in dim k-1) of every k-cube, 2k per cube
        # in axis/side order
        self._faces = face_table
        self._adj = None
        self._link_adj = None
        self._star = None
        self._cofaces = None
        self._maximal = None

    # -- construction ------------------------------------------------------

    @classmethod
    def from_maximal_cubes(cls, vertex_count, maximal, check_intersections=True,
                           provenance=None):
        """Build the face closure of the given cubes.

        Raises NotAComplex on repeated corners, on two cubes sharing a full
        vertex set with different combinatorial structure, or (when
        `check_intersections` is set) on a pair of cubes whose vertex sets
        intersect in something that is not a common face.
        """
        cubes_by_dim, by_vset, face_table = _face_closure(vertex_count, maximal)
        cplx = cls(vertex_count, cubes_by_dim, provenance=provenance,
                   by_vset=by_vset, face_table=face_table)
        if check_intersections:
            cplx._check_intersections()
        return cplx

    @classmethod
    def _from_closed(cls, vertex_count, cubes_by_dim):
        # cubes already face-closed (e.g. relabelled from a closed complex);
        # tuples are re-canonicalized but no closure or axiom check is run.
        levels = [tuple((v,) for v in range(vertex_count))] + [
            tuple(sorted(canonical_cube(c) for c in set(level)))
            for level in cubes_by_dim[1:]]
        while len(levels) > 1 and not levels[-1]:
            levels.pop()
        return cls(vertex_count, tuple(levels))

    def _check_intersections(self):
        # The intersection axiom for all cube pairs follows from the axiom
        # on pairs of maximal cubes once the complex is face-closed and
        # cubes are determined by their vertex sets, so only maximal pairs
        # are examined.  Each pair is handled at the least common vertex.
        maximal = [self.cubes[k][i] for k, i in self.maximal_cubes()]
        vsets = [frozenset(cube) for cube in maximal]
        at = [[] for _ in range(self.vertex_count)]
        for j, cube in enumerate(maximal):
            for v in cube:
                at[v].append(j)
        for v in range(self.vertex_count):
            for a, b in itertools.combinations(at[v], 2):
                inter = vsets[a] & vsets[b]
                if min(inter) != v:
                    continue
                if not all(_is_position_face([maximal[j].index(w) for w in inter])
                           for j in (a, b)):
                    raise NotAComplex("cube intersection is not a face",
                                      detail=(maximal[a], maximal[b]))

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

    def cube_index(self, corners):
        """(dim, index) of the cube with this vertex set, or None."""
        return self._by_vset.get(frozenset(corners))

    def faces(self, k, i):
        """The 2k codimension-1 faces of cube (k, i), in axis/side order."""
        return [(k - 1, fi)
                for fi in self._face_table()[k][2 * k * i:2 * k * (i + 1)]]

    def _face_table(self):
        if self._faces is None:
            by_vset = self._by_vset
            self._faces = [
                [by_vset[frozenset(cube_face(cube, axis, side))][1]
                 for cube in level for axis in range(k) for side in (0, 1)]
                for k, level in enumerate(self.cubes)]
        return self._faces

    def _build_cofaces(self):
        if self._cofaces is None:
            tables = [[[] for _ in level] for level in self.cubes]
            for d, row in enumerate(self._face_table()):
                for j, fi in enumerate(row):
                    tables[d - 1][fi].append((d, j // (2 * d)))
            self._cofaces = tables
        return self._cofaces

    def cofaces(self, k, i):
        return self._build_cofaces()[k][i]

    def maximal_cubes(self):
        """Cubes that are no face of another cube, in (dim, index) order."""
        if self._maximal is None:
            covered = [bytearray(len(level)) for level in self.cubes]
            for d, row in enumerate(self._face_table()):
                for fi in row:
                    covered[d - 1][fi] = 1
            self._maximal = [(d, i) for d, marks in enumerate(covered)
                             for i, mark in enumerate(marks) if not mark]
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
        ref = self._by_vset.get(frozenset((u, w)))
        if ref is None or ref[0] != 1:
            return None
        return ref[1]

    def link_adj(self, v):
        """Directions at v adjacent in the link: w -> set of w' spanning a
        square with w at v."""
        if self._link_adj is None:
            tables = [dict() for _ in range(self.vertex_count)]
            if len(self.cubes) > 2:
                for c0, c1, c2, c3 in self.cubes[2]:
                    for v0, a, b in ((c0, c1, c2), (c1, c0, c3),
                                     (c2, c0, c3), (c3, c1, c2)):
                        t = tables[v0]
                        t.setdefault(a, set()).add(b)
                        t.setdefault(b, set()).add(a)
            self._link_adj = tables
        return self._link_adj[v]

    def spans_square(self, v, a, b):
        """True iff the edges v-a and v-b are two sides of a square."""
        return b in self.link_adj(v).get(a, ())

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
        parent = list(range(self.vertex_count))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        if len(self.cubes) > 1:
            for u, w in self.cubes[1]:
                ru, rw = find(u), find(w)
                if ru != rw:
                    parent[max(ru, rw)] = min(ru, rw)
        groups = {}
        for v in range(self.vertex_count):
            groups.setdefault(find(v), []).append(v)
        return [groups[r] for r in sorted(groups)]

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
    """A connected component with index maps back to its parent complex."""
    complex: CubicalComplex
    to_parent: tuple          # new vertex id -> parent vertex id
    vertex_index: dict        # parent vertex id -> new vertex id


def restrict_complex(parent, cube_refs):
    """Induced complex on a face-closed set of parent cubes.

    `cube_refs` is an iterable of (dim, index) pairs; it must be closed
    under faces and include the 0-cubes of every listed cube.
    """
    verts = sorted({v for k, i in cube_refs for v in parent.cubes[k][i]})
    vmap = {v: j for j, v in enumerate(verts)}
    by_dim = {}
    for k, i in cube_refs:
        by_dim.setdefault(k, []).append(
            tuple(vmap[v] for v in parent.cubes[k][i]))
    top = max(by_dim) if by_dim else 0
    levels = [tuple(by_dim.get(k, ())) for k in range(top + 1)]
    cplx = CubicalComplex._from_closed(len(verts), levels)
    return ComponentPiece(cplx, tuple(verts), vmap)


def components(cplx):
    """Connected components of a complex, by 1-skeleton connectivity.

    Components are ordered by their least parent vertex.
    """
    parts = cplx.vertex_components()
    if len(parts) == 1:
        return [ComponentPiece(cplx, tuple(range(cplx.vertex_count)),
                               {v: v for v in range(cplx.vertex_count)})]
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
    for k in range(1, len(K.simplices)):
        for s in K.simplices[k]:
            common = set.intersection(*(nbrs[v] for v in s))
            for w in sorted(common):
                if w > s[-1] and not K.has(s + (w,)):
                    return False, tuple(sorted(s + (w,)))
    # cliques one larger than the top dimension
    if K.simplices[-1]:
        k = len(K.simplices) - 1
        for s in K.simplices[k]:
            common = set.intersection(*(nbrs[v] for v in s))
            for w in sorted(common):
                if w > s[-1]:
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


def validate_fcc(cplx, folding=None):
    """Check the FCC axioms and report each one.

    `folding` may carry a precomputed folding to verify instead of searching
    for one.  Empty and 0-dimensional complexes are never FCCs (a top
    dimension of at least 1 is required).
    """
    from . import folding as folding_mod

    n = cplx.dim
    connected = cplx.vertex_count > 0 and cplx.is_connected()
    homog_witness = cplx.homogeneity_witness() if n >= 1 else None
    homogeneous = n >= 1 and homog_witness is None
    no_boundary = n >= 1
    boundary_witness = None
    if homogeneous and n >= 1:
        for i in range(cplx.n_cubes(n - 1)):
            if len(cplx.cofaces(n - 1, i)) < 2:
                no_boundary = False
                boundary_witness = cplx.cubes[n - 1][i]
                break
    elif n >= 1:
        no_boundary = False
    flag_links = True
    flag_witness = None
    for v in range(cplx.vertex_count):
        lnk = link(cplx, v)
        ok, bad = is_flag(lnk.complex)
        if not ok:
            flag_links = False
            flag_witness = (v, tuple(lnk.directions[j] for j in bad))
            break
    foldable = False
    fold_witness = None
    if homogeneous and n >= 1:
        if folding is not None:
            foldable = folding_mod.verify_folding(cplx, folding)
        else:
            result = folding_mod.find_folding(cplx)
            if isinstance(result, folding_mod.NotFoldable):
                fold_witness = result
            else:
                foldable = True
    is_fcc = (connected and homogeneous and no_boundary and flag_links
              and foldable and n >= 1)
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
            continue
        if parts[0] != cell_word or len(parts) < 2:
            raise ParseError("line %d: expected '%s <k> <vertices>'"
                             % (lineno, cell_word))
        try:
            k = int(parts[1])
            verts = [int(x) for x in parts[2:]]
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
        if len(verts) != 1 << k:
            raise ParseError("cube of dimension %d needs %d corners, got %d"
                             % (k, 1 << k, len(verts)))
        maximal.append(tuple(verts))
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
        maximal.append(tuple(verts))
    K = SimplicialComplex.from_maximal(vertex_count, maximal)
    K.provenance = provenance
    return K


def serialize_simplicial(K):
    lines = ["simplicial-complex v1"]
    if getattr(K, "provenance", None):
        lines.append("# spec: %s" % K.provenance)
    lines.append("vertices %d" % K.vertex_count)
    in_higher = set()
    for level in K.simplices[1:]:
        for s in level:
            for r in range(1, len(s)):
                in_higher.update(itertools.combinations(s, r))
    for k, level in enumerate(K.simplices):
        for s in level:
            if s not in in_higher:
                lines.append("simplex %d %s" % (k, " ".join(str(v) for v in s)))
    return "\n".join(lines) + "\n"
