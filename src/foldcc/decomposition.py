"""Color-restricted subcomplexes, hyperplane complexes, and the graph of
spaces they induce.

For a folded complex with colors 1..n and T a set of colors, X_T keeps the
cubes all of whose edges are colored inside T (every vertex stays).  The
hyperplane complex H_i glues the perpendicular midcubes of the color-i
edges: its vertices are the color-i edges themselves and each k-cube with
a color-i axis contributes a (k-1)-midcube.

Fixing a color i, the components of X_{T_i} (T_i omitting i) are the
vertex spaces, the components of H_i the edge spaces, and each edge space
attaches to the one or two vertex spaces its product neighborhood touches;
the attaching maps send a midcube to the matching side face of its carrier
cube.  Both come off the coloring's folding: an edge space is one
direction-i parallel class (a chain of squares from a color-i edge never
leaves its class), and side b holds the endpoints whose corner has bit
i-1 equal to b, so loops and multi-edges in the base graph stay apart.
"""

from dataclasses import dataclass
from itertools import chain

from .core import ComponentPiece, CubicalComplex, DisjointSet, _split
from .errors import BadColorSet, NotFCC


@dataclass
class Subcomplex:
    """The cubes of the parent whose edges are colored inside `colors`."""
    parent: CubicalComplex
    colors: frozenset
    refs: tuple                # (dim, index) pairs into the parent

    def components(self):
        """Component pieces ordered by least contained parent vertex."""
        return _split(self.parent, self.refs)


def subcomplex_XT(cplx, coloring, T):
    """Cubes whose edges all have colors in T; 0-cubes are always included."""
    T = frozenset(T)
    if not T or not T <= set(range(1, coloring.n + 1)):
        raise BadColorSet("colors %r outside 1..%d" % (sorted(T), coloring.n))
    inside = [c in T for c in coloring.colors]
    refs = [(0, i) for i in range(cplx.vertex_count)]
    for k in range(1, cplx.dim + 1):
        table, keep = cplx.axis_edges(k), [True] * cplx.n_cubes(k)
        for j in [j for j, e in enumerate(table) if not inside[e]]:
            keep[j // k] = False
        refs += [(k, i) for i, kept in enumerate(keep) if kept]
    return Subcomplex(cplx, T, tuple(refs))


@dataclass
class HyperplaneComponent:
    """A component of H_i.

    Vertices of the component are color-i edges of the parent
    (edge_of_vertex maps back); a component cube is the midcube of the
    parent cube that holds the edges at its corners.
    """
    color: int
    complex: CubicalComplex
    edge_of_vertex: tuple      # component vertex -> parent edge index


def hyperplanes(cplx, coloring, color):
    """Components of the hyperplane complex H_color.

    Midcubes are read off the parent's face table in canonical order.  A
    color square's midcube is its faces along the other axis, in order.
    For a carrier of dimension >= 3, its faces' midcubes are its
    midcube's faces: the side-0 ones start at the least edge (at corner
    0) and, in decreasing order, lie along the canonical axes 0, 1, ...
    Every corner with a zero bit lies in one of them, the far corner in
    the side-1 face along axis 0, opposite corner 1.  Component j is the
    j-th parallel class of direction `color`, its edges numbered in
    increasing order, which keeps canonical orders canonical.
    """
    if not 1 <= color <= coloring.n:
        raise BadColorSet("color %d outside 1..%d" % (color, coloring.n))
    class_of = coloring.folding.classes.class_of
    number = {c: j for j, c in enumerate(
        c for c, d in enumerate(coloring.folding.direction_of) if d == color)}
    verts, local = [[] for _ in number], {}
    for e in coloring.edges_of_color(color):
        edges = verts[number[class_of[e]]]
        local[e] = len(edges)
        edges.append(e)
    # per midcube dimension: carriers by component in increasing order of
    # their midcubes (in local ids), and the face entries of each
    levels = []
    for k in range(2, cplx.dim + 1):
        n = cplx.n_cubes(k)
        mids, comp_of, faces = [None] * n, [0] * n, [None] * n
        if k == 2:
            row = cplx._faces[2]
            for i, axis in enumerate(_color_axes(cplx, coloring, color, 2)):
                if axis >= 0:
                    p, q = row[4 * i + 2 - 2 * axis], row[4 * i + 3 - 2 * axis]
                    mids[i] = faces[i] = (local[p], local[q])
                    comp_of[i] = number[class_of[p]]
        else:
            row, w, half = cplx._faces[k], 2 * k, 1 << (k - 2)
            # (t, p) for each position q from half up to the far corner: t
            # is the lowest zero bit of q, p its position in the face along t
            upper = [(t, q >> t + 1 << t | q & (1 << t) - 1)
                     for q in range(half, 2 * half - 1)
                     for t in [(~q & q + 1).bit_length() - 1]]

            def face_mid(f):
                return below[row[f]]
            for i, axis in enumerate(_color_axes(cplx, coloring, color, k)):
                if axis < 0:
                    continue
                # face-row entries of the side-0 faces, by canonical axis
                zero = sorted([w * i + 2 * r for r in range(k) if r != axis],
                              key=face_mid, reverse=True)
                first, side1 = face_mid(zero[-1]), face_mid(zero[0] + 1)
                mids[i] = (*first, *[face_mid(zero[t])[p] for t, p in upper],
                           side1[~side1.index(first[1])])
                comp_of[i] = below_comp[row[zero[0]]]
                faces[i] = [below_pos[row[f + s]] for f in zero
                            for s in (0, 1)]
        buckets, pos = [[] for _ in verts], [0] * n
        for i, mid in enumerate(mids):
            if mid is not None:
                buckets[comp_of[i]].append(i)
        for carriers in buckets:
            carriers.sort(key=mids.__getitem__)
            for j, i in enumerate(carriers):
                pos[i] = j
        levels.append((buckets, mids, faces))
        below, below_comp, below_pos = mids, comp_of, pos
    out = []
    points = tuple((j,) for j in range(max(map(len, verts), default=0)))
    for c, edges in enumerate(verts):
        cubes, face_table = [points[:len(edges)]], [[]]
        for buckets, level_mids, level_faces in levels:
            carriers = buckets[c]
            if not carriers:
                break
            cubes.append(tuple(map(level_mids.__getitem__, carriers)))
            face_table.append(list(chain.from_iterable(
                map(level_faces.__getitem__, carriers))))
        cx = CubicalComplex(len(edges), tuple(cubes), face_table)
        out.append(HyperplaneComponent(color, cx, tuple(edges)))
    return out


def direction_parity(cplx, coloring, color):
    """Bit color-1 of the folding's vertex corners: the 0/1 labelling
    flipped exactly by color-`color` edges.  NotFCC is raised when an
    edge's color does not fit it, i.e. the colors are not the folding's."""
    bit = color - 1
    parity = [x >> bit & 1 for x in coloring.folding.vertex_corner]
    if any(parity[u] ^ parity[w] != (c == color)
           for (u, w), c in zip(cplx.cubes[1], coloring.colors)):
        raise NotFCC("coloring is not folding-induced "
                     "(direction %d parity inconsistent)" % color)
    return parity


@dataclass
class AttachingMap:
    """Combinatorial map from an edge space into a vertex space.

    vertex_map[w] is the vertex-space local id of the parity-`side`
    endpoint of the color-i edge w.  It fixes the whole map: an edge-space
    cube goes to the side face of its carrier, the vertex-space cube on
    the images of its corners, and no other cube has that vertex set.
    """
    side: int
    edge_space: HyperplaneComponent
    vertex_space: ComponentPiece
    vertex_map: tuple


@dataclass
class CoveringReport:
    is_covering: bool
    vertex: int = None         # edge-space vertex where the star fails
    missed_edge: tuple = None  # (v, u) edge of the vertex space, local ids


def is_covering(g):
    """Star check at the 1-skeleton level: the map is a covering iff at
    every edge-space vertex the sorted images of its neighbours are the
    neighbours of its image.

    At the first vertex w that fails, the witness is (w, least missed edge
    at g(w)), or (w, None) if none is missed; the two directions a missed
    edge names are at link distance >= pi in the parent.
    """
    Y, B, vmap = g.edge_space.complex, g.vertex_space.complex, g.vertex_map
    image = vmap.__getitem__
    for w, v in enumerate(vmap):
        if tuple(sorted(map(image, Y.neighbors(w)))) != B.neighbors(v):
            missed = sorted(set(B.neighbors(v)).difference(
                map(image, Y.neighbors(w))))
            return CoveringReport(False, w, (v, missed[0]) if missed else None)
    return CoveringReport(True)


@dataclass
class GraphOfSpaces:
    """Base multigraph with vertex spaces, edge spaces and attaching maps.

    base_edges[j] = (b0, b1) joins the vertex spaces touched by edge space
    j on parity sides 0 and 1 (b0 = b1 gives a loop); attaching[j] holds
    the two AttachingMaps.
    """
    color: int
    vertex_spaces: list
    edge_spaces: list
    base_edges: tuple
    attaching: list

    def base_graph_connected(self):
        return DisjointSet(len(self.vertex_spaces)).labels(
            self.base_edges)[1] == 1

    def to_kv(self):
        pairs = [
            ("color", self.color),
            ("base.vertices", len(self.vertex_spaces)),
            ("base.edges", len(self.base_edges)),
        ]
        for j, (b0, b1) in enumerate(self.base_edges):
            pairs.append(("base.edge.%d" % j, (b0, b1)))
        for j, piece in enumerate(self.vertex_spaces):
            pairs.append(("vertex_space.%d.cells" % j,
                          piece.complex.cell_counts()))
        for j, h in enumerate(self.edge_spaces):
            pairs.append(("edge_space.%d.cells" % j, h.complex.cell_counts()))
        for j, (g0, g1) in enumerate(self.attaching):
            pairs.append(("map.%d.side0.covering" % j, is_covering(g0).is_covering))
            pairs.append(("map.%d.side1.covering" % j, is_covering(g1).is_covering))
        return pairs


def graph_of_spaces(cplx, coloring, color):
    """Graph-of-spaces structure for one color of a folded FCC."""
    n = coloring.n
    if cplx.dim < 2 or n < 2:
        raise NotFCC("graph of spaces needs dimension >= 2")
    if not 1 <= color <= n:
        raise BadColorSet("color %d outside 1..%d" % (color, n))
    T = frozenset(range(1, n + 1)) - {color}
    vertex_spaces = subcomplex_XT(cplx, coloring, T).components()
    space_of_vertex = [0] * cplx.vertex_count
    for bi, piece in enumerate(vertex_spaces):
        for v in piece.to_parent:
            space_of_vertex[v] = bi
    edge_spaces = hyperplanes(cplx, coloring, color)
    parity = direction_parity(cplx, coloring, color)

    base_edges, attaching = [], []
    for h in edge_spaces:
        sides = []
        for b in (0, 1):
            vmap = [u if parity[u] == b else w for u, w in
                    map(cplx.cubes[1].__getitem__, h.edge_of_vertex)]
            bset = set(map(space_of_vertex.__getitem__, vmap))
            if len(bset) != 1:
                raise NotFCC("edge space touches several components per side")
            bi = bset.pop()
            piece = vertex_spaces[bi]
            local_vmap = tuple(map(piece.vertex_index.__getitem__, vmap))
            sides.append((bi, AttachingMap(b, h, piece, local_vmap)))
        base_edges.append((sides[0][0], sides[1][0]))
        attaching.append((sides[0][1], sides[1][1]))
    return GraphOfSpaces(color, vertex_spaces, edge_spaces,
                         tuple(base_edges), attaching)


def _color_axes(cplx, coloring, color, k):
    # per k-cube: its first axis whose edges have `color`, or -1
    colors, table = coloring.colors, cplx.axis_edges(k)
    out = [-1] * cplx.n_cubes(k)
    for j in reversed([j for j, e in enumerate(table) if colors[e] == color]):
        out[j // k] = j % k
    return out


def count_identity_holds(cplx, coloring, color):
    """#k-cubes(X) = #k-cubes(X_{T_i}) + #(k-1)-cubes(H_i) for every k."""
    T = frozenset(range(1, coloring.n + 1)) - {color}
    counts = [0] * (cplx.dim + 1)
    if T:
        for k, _ in subcomplex_XT(cplx, coloring, T).refs:
            counts[k] += 1
    else:
        counts[0] = cplx.vertex_count
    for h in hyperplanes(cplx, coloring, color):
        for k, level in enumerate(h.complex.cubes):
            counts[k + 1] += len(level)
    return counts == list(cplx.cell_counts())
