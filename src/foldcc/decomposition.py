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

import itertools
from dataclasses import dataclass

from .core import (ComponentPiece, CubicalComplex, DisjointSet, cube_face,
                   restrict_complex, spanning_forest_labels)
from .errors import BadColorSet, NotFCC


@dataclass
class Subcomplex:
    """The cubes of the parent whose edges are colored inside `colors`."""
    parent: CubicalComplex
    colors: frozenset
    refs: tuple                # (dim, index) pairs into the parent

    def components(self):
        """Component pieces ordered by least contained parent vertex."""
        parent = self.parent
        ds = DisjointSet(parent.vertex_count)
        for k, i in self.refs:
            if k == 1:
                ds.union(*parent.cubes[1][i])
        groups = {}
        for k, i in self.refs:
            groups.setdefault(ds.find(parent.cubes[k][i][0]), []).append((k, i))
        return [restrict_complex(parent, groups[r]) for r in sorted(groups)]


def subcomplex_XT(cplx, coloring, T):
    """Cubes whose edges all have colors in T; 0-cubes are always included."""
    T = frozenset(T)
    if not T or not T <= set(range(1, coloring.n + 1)):
        raise BadColorSet("colors %r outside 1..%d" % (sorted(T), coloring.n))
    refs = [(0, i) for i in range(cplx.vertex_count)]
    for k in range(1, cplx.dim + 1):
        table = cplx.axis_edges(k)
        for i in range(cplx.n_cubes(k)):
            if all(coloring.of_edge(e) in T for e in table[k * i:k * i + k]):
                refs.append((k, i))
    return Subcomplex(cplx, T, tuple(refs))


@dataclass
class HyperplaneComponent:
    """A component of H_i with its carrier bookkeeping.

    Vertices of the component are color-i edges of the parent
    (edge_of_vertex maps back); carrier maps a component cube to the parent
    cube it is the midcube of.
    """
    color: int
    complex: CubicalComplex
    edge_of_vertex: tuple      # component vertex -> parent edge index
    carrier: dict              # (k, idx) in component -> (k+1, parent idx)


def _midcube_refs(cplx, coloring, color):
    # (parent ref, axis, midcube corner tuple of parent edge indices)
    out = []
    for k in range(1, cplx.dim + 1):
        table = cplx.axis_edges(k)
        for i, cube in enumerate(cplx.cubes[k]):
            axis = _color_axis(coloring, table[k * i:k * i + k], color)
            if axis is None:
                continue
            corners = []
            rest = [ax for ax in range(k) if ax != axis]
            for b in range(1 << (k - 1)):
                p = 0
                for j, ax in enumerate(rest):
                    if (b >> j) & 1:
                        p |= 1 << ax
                corners.append(cplx.edge_index(cube[p], cube[p | (1 << axis)]))
            out.append(((k, i), axis, tuple(corners)))
    return out


def hyperplanes(cplx, coloring, color):
    """Components of the hyperplane complex H_color."""
    if not 1 <= color <= coloring.n:
        raise BadColorSet("color %d outside 1..%d" % (color, coloring.n))
    mids = _midcube_refs(cplx, coloring, color)
    ds = DisjointSet(cplx.n_cubes(1))
    for ref, axis, corners in mids:
        if len(corners) == 2:
            ds.union(*corners)
    groups = ds.groups(sorted(coloring.edges_of_color(color)))
    comp_of = {}
    for ci, verts in enumerate(groups):
        for e in verts:
            comp_of[e] = ci
    comp_mids = [[] for _ in groups]
    for ref, axis, corners in mids:
        comp_mids[comp_of[corners[0]]].append((ref, corners))
    out = []
    for ci, verts in enumerate(groups):
        local = {e: j for j, e in enumerate(verts)}
        carrier_by_vset = {}
        for ref, corners in comp_mids[ci]:
            carrier_by_vset[frozenset(local[e] for e in corners)] = ref
        # the midcubes of one component are closed under faces
        cx = CubicalComplex.from_maximal_cubes(
            len(verts), [tuple(local[e] for e in corners)
                         for _, corners in comp_mids[ci]],
            check_intersections=False)
        carrier = {}
        for k in range(1, cx.dim + 1):
            for i, cube in enumerate(cx.cubes[k]):
                carrier[(k, i)] = carrier_by_vset[frozenset(cube)]
        for i in range(cx.n_cubes(0)):
            carrier[(0, i)] = (1, verts[i])
        out.append(HyperplaneComponent(color, cx, tuple(verts), carrier))
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
    endpoint of the color-i edge w; cube_map sends each edge-space cube to
    the matching side face of its carrier.
    """
    side: int
    edge_space: HyperplaneComponent
    vertex_space: ComponentPiece
    vertex_map: tuple
    cube_map: dict


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

    base_edges = []
    attaching = []
    for h in edge_spaces:
        sides = []
        for b in (0, 1):
            vmap = []
            for w in range(h.complex.vertex_count):
                u1, u2 = cplx.cubes[1][h.edge_of_vertex[w]]
                vmap.append(u1 if parity[u1] == b else u2)
            bset = {space_of_vertex[v] for v in vmap}
            if len(bset) != 1:
                raise NotFCC("edge space touches several components per side")
            bi = bset.pop()
            piece = vertex_spaces[bi]
            local_vmap = tuple(piece.vertex_index[v] for v in vmap)
            cube_map = {}
            for (k, j), (pk, pi) in h.carrier.items():
                if k == 0:
                    cube_map[(k, j)] = (0, local_vmap[j])
                    continue
                pcube = cplx.cubes[pk][pi]
                axis = _color_axis(
                    coloring, cplx.axis_edges(pk)[pk * pi:pk * pi + pk], color)
                if axis is None:
                    raise NotFCC("carrier cube lost its color-%d axis" % color)
                local_side = 0 if parity[pcube[0]] == b else 1
                face = cube_face(pcube, axis, local_side)
                local_face = tuple(piece.vertex_index[v] for v in face)
                cube_map[(k, j)] = piece.complex.cube_index(local_face)
            sides.append((bi, AttachingMap(b, h, piece, local_vmap, cube_map)))
        base_edges.append((sides[0][0], sides[1][0]))
        attaching.append((sides[0][1], sides[1][1]))
    return GraphOfSpaces(color, vertex_spaces, edge_spaces,
                         tuple(base_edges), attaching)


def _color_axis(coloring, axis_edges, color):
    # first axis of a cube, given its axis edges, with an edge of `color`
    for ax, e in enumerate(axis_edges):
        if coloring.of_edge(e) == color:
            return ax
    return None


def count_identity_holds(cplx, coloring, color):
    """#k-cubes(X) = #k-cubes(X_{T_i}) + #(k-1)-cubes(H_i) for every k."""
    T = frozenset(range(1, coloring.n + 1)) - {color}
    if T:
        xt = subcomplex_XT(cplx, coloring, T)
        xt_counts = {}
        for k, i in xt.refs:
            xt_counts[k] = xt_counts.get(k, 0) + 1
    else:
        xt_counts = {0: cplx.vertex_count}
    h_counts = {}
    for h in hyperplanes(cplx, coloring, color):
        for k, level in enumerate(h.complex.cubes):
            h_counts[k] = h_counts.get(k, 0) + len(level)
    for k in range(cplx.dim + 1):
        total = xt_counts.get(k, 0) + h_counts.get(k - 1, 0)
        if total != cplx.n_cubes(k):
            return False
    return True
