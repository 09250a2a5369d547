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
cube.  Sides are labelled by the direction-i parity of the folding (side b
holds the endpoints with parity b), so loops and multi-edges in the base
graph are kept apart.
"""

from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter

from .core import (ComponentPiece, CubicalComplex, DisjointSet,
                   _corner_picker, _split, spanning_forest_labels)
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


@lru_cache(maxsize=None)
def _carrier_ends(k, axis):
    # carrier corners p and p | bit of its midcube's corners, in order
    lo = [p for p in range(1 << k) if not p >> axis & 1]
    return itemgetter(*lo), itemgetter(*[p | 1 << axis for p in lo])


def _midcube_axes(corners):
    # p0 = 0: corner 0 of a canonical carrier is its least vertex
    return tuple(sorted(range(len(corners).bit_length() - 1),
                        key=lambda t: corners[1 << t]))


@lru_cache(maxsize=None)
def _midcube_layout(k, axis, axes):
    # frame (0, axes): corner order, carrier face-row entries of the faces
    rest = [a for a in range(k) if a != axis]
    return _corner_picker(0, axes), [2 * rest[a] + side for a in axes
                                     for side in (0, 1)]


def hyperplanes(cplx, coloring, color):
    """Components of the hyperplane complex H_color.

    A midcube's corners are its carrier's color edges, put in canonical
    order once by the frame (0, axes) read off the canonical carrier
    (`_midcube_axes`).  Its face along canonical axis t, side s, is the
    midcube of the carrier's face along axis rest[axes[t]], side s (rest:
    the carrier's axes but the color axis), read off the parent's face
    table.  A component numbers its edges in increasing order, which keeps
    canonical orders canonical and sorted levels sorted.
    """
    if not 1 <= color <= coloring.n:
        raise BadColorSet("color %d outside 1..%d" % (color, coloring.n))
    colored, edge_at = coloring.edges_of_color(color), {}
    for e in colored:
        u, w = cplx.cubes[1][e]
        edge_at[u, w] = edge_at[w, u] = e
    edge_of = edge_at.__getitem__
    # per midcube dimension: (canonical corners, carrier index, face offsets)
    mids = [[((e,), e, ()) for e in colored]]
    for k in range(2, cplx.dim + 1):
        mids.append([])
        for i, axis in enumerate(_color_axes(cplx, coloring, color, k)):
            if axis >= 0:
                lo, hi = _carrier_ends(k, axis)
                cube = cplx.cubes[k][i]
                corners = tuple(map(edge_of, zip(lo(cube), hi(cube))))
                pick, faces = _midcube_layout(k, axis, _midcube_axes(corners))
                mids[k - 1].append((pick(corners), i, faces))
    ds = DisjointSet(cplx.n_cubes(1))
    for corners, _, _ in mids[1] if len(mids) > 1 else ():
        ds.union(*corners)
    # least edge -> midcubes by dimension
    comps = {e: [[] for _ in mids] for e in colored if ds.find(e) == e}
    for d, level in enumerate(mids):
        for mid in level:
            comps[ds.find(mid[0][0])][d].append(mid)
    out = []
    for root in sorted(comps):
        levels = comps[root]
        while not levels[-1]:
            levels.pop()
        verts = [e for (e,), _, _ in levels[0]]
        below = local = dict(zip(verts, range(len(verts))))
        cubes, face_table = [], [[]]
        for d, level in enumerate(levels):
            level.sort()
            cubes.append(tuple(tuple(map(local.__getitem__, corners))
                               for corners, _, _ in level))
            if d:
                row, w = cplx._faces[d + 1], 2 * d + 2
                face_table.append([below[row[w * i + o]]
                                   for _, i, offsets in level
                                   for o in offsets])
                below = {i: j for j, (_, i, _) in enumerate(level)}
        cx = CubicalComplex(len(verts), tuple(cubes), face_table)
        out.append(HyperplaneComponent(color, cx, tuple(verts)))
    return out


def direction_parity(cplx, coloring, color):
    """The 0/1 vertex labelling flipped exactly by color-`color` edges.

    Exists precisely because the coloring is folding-induced; NotFCC is
    raised when the parity is inconsistent.
    """
    edges = cplx.cubes[1]
    flips = [1 if c == color else 0 for c in coloring.colors]
    parity, off_tree = spanning_forest_labels(cplx.vertex_count, edges, flips)
    for e in off_tree:
        u, w = edges[e]
        if parity[u] ^ parity[w] != flips[e]:
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
    """Star check at the 1-skeleton level: the map is a covering iff every
    edge-space vertex star maps isomorphically onto its image star.

    On failure returns the witness (w, missed edge at g(w)); the two
    directions it names are at link distance >= pi in the parent.
    """
    Y = g.edge_space.complex
    B = g.vertex_space.complex
    for w in range(Y.vertex_count):
        v = g.vertex_map[w]
        images = [g.vertex_map[w2] for w2 in Y.neighbors(w)]
        targets = list(B.neighbors(v))
        missed = sorted(set(targets) - set(images))
        if missed:
            return CoveringReport(False, w, (v, missed[0]))
        if len(set(images)) != len(images) or len(images) != len(targets):
            return CoveringReport(False, w, None)
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
        ds = DisjointSet(len(self.vertex_spaces))
        for b0, b1 in self.base_edges:
            ds.union(b0, b1)
        return len(ds.groups()) == 1

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
    space_of_vertex = {}
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
            bset = {space_of_vertex[v] for v in vmap}
            if len(bset) != 1:
                raise NotFCC("edge space touches several components per side")
            bi = bset.pop()
            piece = vertex_spaces[bi]
            local_vmap = tuple(piece.vertex_index[v] for v in vmap)
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
