"""Independent oracles used to freeze expected values.

These deliberately avoid the library code paths they check: clique
enumeration is brute force, link metrics come from plain BFS over the
link 1-skeleton, and cell counts are recomputed from first principles.
"""

import itertools
from collections import deque

from foldcc.core import (ComponentPiece, CubicalComplex, DisjointSet,
                         SimplicialComplex, _corner_picker, _face_pickers,
                         canonical_cube, canonical_frame, is_flag, link,
                         spanning_forest_labels)
from foldcc.errors import (ConstructionFailed, IsCircle, NotAComplex,
                           NotClosed, NotConnected, NotFCC, NotSingleClass,
                           PreconditionFailed)
from foldcc.decomposition import (CoveringReport, HyperplaneComponent,
                                  Subcomplex)
from foldcc.generators import Subdivision, hemispherex, standard_sphere
from foldcc.geodesic import (DistanceClass, EdgePath, OrientedEdge,
                             SimVClasses, _connector, _is_circle, _loop_at,
                             _node, _path, distance_class, is_local_geodesic,
                             rank_one_certificate, sim_v_classes)
from foldcc.rank import _pi_pairs_at


def brute_force_nonspanning_clique(K):
    """Smallest vertex set pairwise joined by edges that spans no simplex,
    by exhaustive enumeration (small complexes only)."""
    edges = {frozenset(e) for e in (K.simplices[1] if K.dim >= 1 else ())}
    for size in range(3, K.vertex_count + 1):
        for sub in itertools.combinations(range(K.vertex_count), size):
            if all(frozenset(p) in edges
                   for p in itertools.combinations(sub, 2)):
                if not K.has(sub):
                    return tuple(sub)
    return None


def link_graph_distances(cplx, v):
    """Exact edge-count distances between all directions at v, from BFS on
    the link 1-skeleton (only meaningful when the link is a graph).

    Returns {(a, b): k} with k in edges (pi/2 units); missing pairs are
    disconnected (distance beyond every threshold).
    """
    lnk = link(cplx, v)
    assert lnk.complex.dim <= 1, "oracle needs a 1-dimensional link"
    nbrs = {j: set() for j in range(len(lnk.directions))}
    if lnk.complex.dim == 1:
        for a, b in lnk.complex.simplices[1]:
            nbrs[a].add(b)
            nbrs[b].add(a)
    out = {}
    for start in range(len(lnk.directions)):
        dist = {start: 0}
        queue = deque([start])
        while queue:
            x = queue.popleft()
            for y in nbrs[x]:
                if y not in dist:
                    dist[y] = dist[x] + 1
                    queue.append(y)
        for j, d in dist.items():
            out[(lnk.directions[start], lnk.directions[j])] = d
    return out


def davis_face_count(K, k):
    """#k-faces of Y(K) by the direct formula sum over k-simplices of
    2^(|S| - k)."""
    S = K.vertex_count
    if k == 0:
        return 1 << S
    return K.n_simplices(k - 1) * (1 << (S - k))


def cube_face(corners, axis, side):
    """Codimension-1 face of a cube tuple: fix coordinate `axis` to `side`."""
    return tuple(c for b, c in enumerate(corners) if (b >> axis) & 1 == side)


def recomputed_incidence(cplx):
    """faces, cofaces (per dim, per index) and maximal cubes, recomputed
    from cube_face + canonical_cube."""
    index = [{c: i for i, c in enumerate(level)} for level in cplx.cubes]
    faces = [[] for _ in cplx.cubes]
    cofaces = [[[] for _ in level] for level in cplx.cubes]
    for k, level in enumerate(cplx.cubes):
        for i, cube in enumerate(level):
            refs = [(k - 1, index[k - 1][canonical_cube(cube_face(cube, a, s))])
                    for a in range(k) for s in (0, 1)]
            faces[k].append(refs)
            for fk, fi in refs:
                cofaces[fk][fi].append((k, i))
    maximal = [(k, i) for k, level in enumerate(cofaces)
               for i, cof in enumerate(level) if not cof]
    return faces, cofaces, maximal


def assert_incidence(cplx):
    faces, cofaces, maximal = recomputed_incidence(cplx)
    for k, level in enumerate(cplx.cubes):
        assert [cplx.faces(k, i) for i in range(len(level))] == faces[k]
        assert cplx._coface_counts(k) == [len(c) for c in cofaces[k]]
    assert cplx.maximal_cubes() == maximal
    for k in range(1, len(cplx.cubes)):
        assert cplx.axis_edges(k) == [cplx.edge_index(cube[0], cube[1 << ax])
                                      for cube in cplx.cubes[k]
                                      for ax in range(k)]
    # the incidence table lists each vertex's edges in edge order, which is
    # increasing other end only while level 1 is sorted with u < w
    rows = [[] for _ in range(cplx.vertex_count)]
    for e, (u, w) in enumerate(cplx.cubes[1] if cplx.dim >= 1 else ()):
        rows[u].append((w, e))
        rows[w].append((u, e))
    for v, row in enumerate(rows):
        row.sort()
        nbrs, edges = tuple(w for w, _ in row), [e for _, e in row]
        assert cplx.neighbors(v) == nbrs
        assert cplx.directions(v)[:2] == (nbrs, edges)


def vertex_set_map(cplx):
    """Vertex set -> (dim, index) of every cube of the complex."""
    return {frozenset(cube): (k, i) for k, level in enumerate(cplx.cubes)
            for i, cube in enumerate(level)}


def assert_vertex_set_lookups(cplx):
    """Every cube has a vertex set of its own, and edge_index of two
    vertices that span no edge is None."""
    by_vset = vertex_set_map(cplx)
    for k, level in enumerate(cplx.cubes):
        for i, cube in enumerate(level):
            assert by_vset[frozenset(reversed(cube))] == (k, i)
    edges = set(cplx.cubes[1]) if cplx.dim >= 1 else set()
    u, w = next(((u, w) for u, w in itertools.combinations(
        range(cplx.vertex_count), 2) if (u, w) not in edges), (0, 0))
    assert cplx.edge_index(u, w) is None


def relabelled(cplx, rng):
    """The complex with its vertices permuted by `rng`, rebuilt from its
    maximal cubes."""
    perm = list(range(cplx.vertex_count))
    rng.shuffle(perm)
    return CubicalComplex.from_maximal_cubes(
        cplx.vertex_count, [tuple(perm[v] for v in cplx.cubes[k][i])
                            for k, i in cplx.maximal_cubes()])


def assert_parity_witness(cplx, classes, cycle, length):
    """A parity witness checked without the cycle search: `cycle` is a
    closed walk of `length` steps (the last vertex back to the first)
    along edges of `cplx` that crosses the parallel classes numbered in
    `classes` an odd number of times.  The classes are recomputed here from
    the opposite sides of each square, numbered by their least edge."""
    edges = cplx.cubes[1]
    edge_of = {frozenset(e): i for i, e in enumerate(edges)}
    opposite = [[] for _ in edges]
    for a, b, c, d in cplx.cubes[2] if cplx.dim >= 2 else ():
        for x, y in (((a, b), (c, d)), ((a, c), (b, d))):
            e, f = edge_of[frozenset(x)], edge_of[frozenset(y)]
            opposite[e].append(f)
            opposite[f].append(e)
    class_of = [None] * len(edges)
    count = 0
    for e in range(len(edges)):
        if class_of[e] is None:
            class_of[e] = count
            stack = [e]
            while stack:
                for f in opposite[stack.pop()]:
                    if class_of[f] is None:
                        class_of[f] = count
                        stack.append(f)
            count += 1
    assert len(cycle) == length
    crossings = 0
    for u, w in zip(cycle, cycle[1:] + cycle[:1]):
        e = edge_of.get(frozenset((u, w)))
        assert e is not None, "no edge %d-%d" % (u, w)
        crossings += class_of[e] in classes
    assert crossings % 2 == 1


def assert_same_complex(got, want):
    """Equal cubes and face tables."""
    assert got.vertex_count == want.vertex_count
    assert got.cubes == want.cubes
    assert got._faces == want._faces


# The decomposition as it was built before pieces and hyperplane components
# reindexed the parent's face table: every derived complex went through
# CubicalComplex.from_maximal_cubes (canonicalization and face closure).

def reference_restrict(parent, cube_refs):
    verts = sorted({v for k, i in cube_refs for v in parent.cubes[k][i]})
    vmap = {v: j for j, v in enumerate(verts)}
    cplx = CubicalComplex.from_maximal_cubes(
        len(verts), [tuple(vmap[v] for v in parent.cubes[k][i])
                     for k, i in cube_refs], check_intersections=False)
    return ComponentPiece(cplx, tuple(verts), vmap)


def reference_split(parent, cube_refs):
    """core._split as it was: a union per listed edge, then a find per
    vertex; each group of refs goes through reference_restrict."""
    ds = DisjointSet(parent.vertex_count)
    for k, i in cube_refs:
        if k == 1:
            ds.union(*parent.cubes[1][i])
    root, groups = [ds.find(v) for v in range(parent.vertex_count)], {}
    for k, i in cube_refs:
        groups.setdefault(root[parent.cubes[k][i][0]], []).append((k, i))
    return [reference_restrict(parent, groups[r]) for r in sorted(groups)]


def reference_subcomplex_XT(cplx, coloring, T):
    """subcomplex_XT as it was: one test of every edge of every cube."""
    T = frozenset(T)
    refs = [(0, i) for i in range(cplx.vertex_count)]
    for k in range(1, cplx.dim + 1):
        table = cplx.axis_edges(k)
        for i in range(cplx.n_cubes(k)):
            if all(coloring.of_edge(e) in T for e in table[k * i:k * i + k]):
                refs.append((k, i))
    return Subcomplex(cplx, T, tuple(refs))


def reference_color_axis(cplx, coloring, k, i, color):
    for ax in range(k):
        cube = cplx.cubes[k][i]
        if coloring.of_pair(cube[0], cube[1 << ax]) == color:
            return ax
    return None


def midcube_corners(cplx, k, i, axis):
    """Edge indices of the midcube of cube (k, i) across `axis`, in the
    carrier's corner order."""
    cube, rest = cplx.cubes[k][i], [ax for ax in range(k) if ax != axis]
    corners = []
    for b in range(1 << (k - 1)):
        p = sum(1 << ax for j, ax in enumerate(rest) if (b >> j) & 1)
        corners.append(cplx.edge_index(cube[p], cube[p | (1 << axis)]))
    return tuple(corners)


def midcube_axes(corners):
    """The axes of the frame (0, axes) that puts the midcube corners of a
    canonical carrier, in carrier order, in canonical order: its least
    corner is the edge at carrier corner 0."""
    return tuple(sorted(range(len(corners).bit_length() - 1),
                        key=lambda t: corners[1 << t]))


def reference_hyperplanes(cplx, coloring, color):
    """The components of H_color, and beside them the carrier of each:
    a dict from every component cube (k, i) to the parent cube (k + 1, j)
    it is the midcube of."""
    mids = []   # (parent ref, midcube corner tuple of parent edge indices)
    for k in range(1, cplx.dim + 1):
        for i in range(cplx.n_cubes(k)):
            axis = reference_color_axis(cplx, coloring, k, i, color)
            if axis is not None:
                mids.append(((k, i), midcube_corners(cplx, k, i, axis)))
    ds = DisjointSet(cplx.n_cubes(1))
    for ref, corners in mids:
        if len(corners) == 2:
            ds.union(*corners)
    groups = ds.groups(sorted(coloring.edges_of_color(color)))
    comp_of = {e: ci for ci, verts in enumerate(groups) for e in verts}
    comp_mids = [[] for _ in groups]
    for ref, corners in mids:
        comp_mids[comp_of[corners[0]]].append((ref, corners))
    out, carriers = [], []
    for verts, own in zip(groups, comp_mids):
        local = {e: j for j, e in enumerate(verts)}
        carrier_by_vset = {frozenset(local[e] for e in corners): ref
                           for ref, corners in own}
        cx = CubicalComplex.from_maximal_cubes(
            len(verts), [tuple(local[e] for e in corners)
                         for _, corners in own], check_intersections=False)
        carrier = {}
        for k in range(1, cx.dim + 1):
            for i, cube in enumerate(cx.cubes[k]):
                carrier[(k, i)] = carrier_by_vset[frozenset(cube)]
        for i in range(cx.n_cubes(0)):
            carrier[(0, i)] = (1, verts[i])
        out.append(HyperplaneComponent(color, cx, tuple(verts)))
        carriers.append(carrier)
    return out, carriers


def reference_direction_parity(cplx, coloring, color):
    """The former decomposition.direction_parity: the 0/1 vertex labelling
    flipped exactly by color-`color` edges, labelled along a fresh
    spanning forest from the colors alone."""
    edges = cplx.cubes[1]
    flips = [1 if c == color else 0 for c in coloring.colors]
    parity, off_tree = spanning_forest_labels(cplx, flips)
    for e in off_tree:
        u, w = edges[e]
        if parity[u] ^ parity[w] != flips[e]:
            raise NotFCC("coloring is not folding-induced "
                         "(direction %d parity inconsistent)" % color)
    return parity


def reference_cube_map(cplx, coloring, color, parity, h, carrier, b, piece):
    """The side-b cube map of edge space h, whose carrier dict is
    `carrier`, into the vertex space `piece`: each cube goes to the side-b
    face of its carrier."""
    cube_map, by_vset = {}, vertex_set_map(piece.complex)
    for (k, j), (pk, pi) in carrier.items():
        if k == 0:
            u1, u2 = cplx.cubes[1][h.edge_of_vertex[j]]
            cube_map[(k, j)] = (0, piece.vertex_index[
                u1 if parity[u1] == b else u2])
            continue
        pcube = cplx.cubes[pk][pi]
        axis = reference_color_axis(cplx, coloring, pk, pi, color)
        face = cube_face(pcube, axis, 0 if parity[pcube[0]] == b else 1)
        cube_map[(k, j)] = by_vset.get(
            frozenset(piece.vertex_index[v] for v in face))
    return cube_map


def attaching_images(g):
    """The cube map an attaching map's vertex map fixes: each edge-space
    cube (k, j) to the vertex-space cube on the images of its corners.
    The lookup raises KeyError unless that vertex set is a cube, and the
    image must have dimension k."""
    by_vset, out = vertex_set_map(g.vertex_space.complex), {}
    for k, level in enumerate(g.edge_space.complex.cubes):
        for j, cube in enumerate(level):
            out[(k, j)] = by_vset[frozenset(g.vertex_map[c] for c in cube)]
            assert out[(k, j)][0] == k
    return out


def assert_locally_injective(g):
    """Every edge-space cube maps onto a cube, and the cubes of each
    vertex star map to distinct cubes."""
    images = attaching_images(g)
    Y = g.edge_space.complex
    for w in range(Y.vertex_count):
        star = Y.star(w)
        for k in range(1, Y.dim + 1):
            hits = [images[(k, i)] for i, _ in star[k]]
            assert len(set(hits)) == len(hits)


def reference_is_covering(g):
    """decomposition.is_covering as it was, one set difference per
    edge-space vertex."""
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


# The half subdivision as it was built when every complex kept a map from
# each cube's vertex set to its (dim, index): the lookups go through that map.

def davis_inputs():
    """Small K for X(K): the octahedron, the double arc, the hexagon joined
    with S^0, a non-pure K with an isolated vertex (X has maximal cubes of
    dimensions 1, 2 and 3) and the empty K (X is one vertex)."""
    return {
        "octahedron": standard_sphere(2),
        "double arc": hemispherex(1, (1, 1), allow_dim1=True).complex,
        "hexagon join": SimplicialComplex.from_maximal(
            8, [tuple(sorted((i, (i + 1) % 6, a)))
                for i in range(6) for a in (6, 7)]),
        "non-pure": SimplicialComplex.from_maximal(
            6, [(0, 1, 2), (3, 4), (5,)]),
        "empty": SimplicialComplex.from_maximal(0, []),
    }


def reference_subdivide_half(Y):
    by_vset = vertex_set_map(Y)
    vertex_for = {}
    carrier_of = []
    for k, level in enumerate(Y.cubes):
        for i in range(len(level)):
            vertex_for[(k, i)] = len(carrier_of)
            carrier_of.append((k, i))
    maximal = []
    for k, i in Y.maximal_cubes():
        cube = Y.cubes[k][i]
        if k == 0:
            maximal.append((vertex_for[(0, i)],))
            continue
        for p in range(1 << k):
            corners = []
            for sub in range(1 << k):
                face = [cube[q] for q in range(1 << k) if q & ~sub == p & ~sub]
                corners.append(vertex_for[by_vset[frozenset(face)]])
            maximal.append(tuple(corners))
    X = CubicalComplex.from_maximal_cubes(
        len(carrier_of), maximal, check_intersections=False)
    return Subdivision(X, Y, vertex_for, tuple(carrier_of))


def reference_origin_direction(sub, s):
    return sub.vertex_for[vertex_set_map(sub.parent)[frozenset((0, 1 << s))]]


# The face closure and flag count as they were before the closure keyed
# cubes by their canonical tuple and the flag count ran on bitmasks.

def reference_canonical_cube(corners):
    """canonical_cube without its edge and square shortcuts."""
    if len(corners) == 1:
        return tuple(corners)
    return _corner_picker(*canonical_frame(corners))(corners)


def reference_face_closure(vertex_count, maximal):
    """Face closure with one frozenset per face occurrence: every face is
    placed by its vertex set, and a face whose vertex set already carries
    another cube fails at once."""
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
            raise NotAComplex("cube has repeated corners",
                              detail=(tuple(corners),))
        for v in corners:
            if not (0 <= v < vertex_count):
                raise NotAComplex("corner %d out of range" % v)
        place(reference_canonical_cube(tuple(corners)), k)
    top = max(levels) if levels else 0
    for k in range(top, 0, -1):
        pickers = _face_pickers(k)
        sides = list(zip(pickers[::2], pickers[1::2]))
        row = facets[k] = []
        for cube in levels.get(k, ()):
            for side0, side1 in sides:
                row.append(place(side0(cube), k - 1))
                row.append(place(reference_canonical_cube(side1(cube)), k - 1))

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


def reference_link_adj(cplx):
    """Directions at each vertex adjacent in the link, as sets: per vertex
    v, w -> set of w' spanning a square with w at v.  The set-based table
    that the direction table's link masks replaced."""
    tables = [dict() for _ in range(cplx.vertex_count)]
    if len(cplx.cubes) > 2:
        for c0, c1, c2, c3 in cplx.cubes[2]:
            for v0, a, b in ((c0, c1, c2), (c1, c0, c3),
                             (c2, c0, c3), (c3, c1, c2)):
                t = tables[v0]
                t.setdefault(a, set()).add(b)
                t.setdefault(b, set()).add(a)
    return tables


def reference_distance_class(link_adj, v, a, b):
    """distance_class on the set-based table, for directions a, b at v."""
    if a == b:
        return DistanceClass.ZERO
    ladj = link_adj[v]
    if b in ladj.get(a, ()):
        return DistanceClass.QUARTER
    if ladj.get(a) and ladj.get(b) and ladj[a] & ladj[b]:
        return DistanceClass.PI
    return DistanceClass.MORE_THAN_PI


def certifies_rank_one(cplx, coloring, report):
    """Re-check the witness of a rank-one report by its certificate.

    An "all-colors" witness must pass `rank_one_certificate`.  A
    "strict-pi" witness is a closed local geodesic with a junction whose
    two directions are strictly beyond pi in the link (classified on the
    set-based table), so no flat half-plane bounds it; from dimension 3 on
    it need not use every color.
    """
    path = report.witness_path
    if report.certificate != "strict-pi":
        return rank_one_certificate(cplx, coloring, path)
    return reference_strict_pi(reference_link_adj(cplx), cplx, path)


def reference_strict_pi(link_adj, cplx, path):
    """The strict-pi certificate, its junctions classified on the
    set-based link table `link_adj` of cplx."""
    steps = path.steps
    return (path.closed and is_local_geodesic(cplx, path) == (True, None)
            and any(reference_distance_class(link_adj, s.tail, r.tail, s.head)
                    is DistanceClass.MORE_THAN_PI
                    for r, s in zip(steps[-1:] + steps[:-1], steps)))


def reference_sim_v_classes(cplx, coloring, link_adj, v):
    """sim_v_classes over pairs of directions classified on sets."""
    n = coloring.n
    ds = DisjointSet(n + 1)
    witnesses = {}
    nbrs = cplx.neighbors(v)
    far = (DistanceClass.PI, DistanceClass.MORE_THAN_PI)
    for ai in range(len(nbrs)):
        for bi in range(ai + 1, len(nbrs)):
            a, b = nbrs[ai], nbrs[bi]
            i = coloring.of_pair(v, a)
            j = coloring.of_pair(v, b)
            key = (min(i, j), max(i, j))
            if key in witnesses:
                continue
            if reference_distance_class(link_adj, v, a, b) in far:
                witnesses[key] = (a, b) if i <= j else (b, a)
                ds.union(i, j)
    partition = tuple(frozenset(g) for g in ds.groups(range(1, n + 1)))
    return SimVClasses(v, partition, witnesses)


def reference_cross_pairs(cplx, coloring, link_adj):
    """rank._cross_pairs with set intersections for the link tests."""
    obstructed = set()
    first_strict = None
    for v in range(cplx.vertex_count):
        nbrs = cplx.neighbors(v)
        ladj = link_adj[v]
        colors = [coloring.of_pair(v, a) for a in nbrs]
        for ai, (a, ca) in enumerate(zip(nbrs, colors)):
            adj_a = ladj.get(a, set())
            for b, cb in zip(nbrs[ai + 1:], colors[ai + 1:]):
                if ca == cb or b in adj_a:
                    continue
                obstructed.add((min(ca, cb), max(ca, cb)))
                if first_strict is None:
                    adj_b = ladj.get(b, set())
                    if not (adj_a and adj_b and adj_a & adj_b):
                        first_strict = (v, a, b)
    out = []
    full = set(range(1, coloring.n + 1))
    for r in range(1, coloring.n):
        for rest in itertools.combinations(sorted(full - {1}), r - 1):
            T = {1, *rest}
            S = full - T
            if not S:
                continue
            if any((min(i, j), max(i, j)) in obstructed
                   for i in T for j in S):
                continue
            out.append((tuple(sorted(T)), tuple(sorted(S))))
    return out, first_strict


def reference_flag_witness(cplx):
    """The flag count on per-direction sets of link neighbours: at every
    corner of every k-cube, k >= 2, intersect the `reference_link_adj`
    sets of its k directions and compare the size with the cube's coface
    count."""
    suspect = bytearray(cplx.vertex_count)
    link_adj = reference_link_adj(cplx)
    for k in range(2, len(cplx.cubes)):
        counts = cplx._coface_counts(k)
        steps = [(p, p ^ 1, [p ^ (1 << ax) for ax in range(1, k)])
                 for p in range(1 << k)]
        for cube, count in zip(cplx.cubes[k], counts):
            for p, q, rest in steps:
                adj = link_adj[cube[p]]
                common = adj[cube[q]].intersection(*[adj[cube[r]]
                                                     for r in rest])
                if len(common) != count:
                    suspect[cube[p]] = 1
    for v in range(cplx.vertex_count):
        if suspect[v]:
            lnk = link(cplx, v)
            ok, bad = is_flag(lnk.complex)
            if not ok:
                return v, tuple(lnk.directions[j] for j in bad)
    return None


def reference_verify_folding(cplx, folding):
    """The per-cube folding check that the edge-and-square check replaced:
    every k-cube, k >= 1, has k distinct axis bits and corner b at corner
    0 moved along b's axes.  It does not check directions or corners
    against n."""
    if folding.complex is not cplx and folding.complex != cplx:
        return False
    vc = folding.vertex_corner
    bit_of = [1 << (folding.direction_of[c] - 1)
              for c in folding.classes.class_of]
    for k in range(1, cplx.dim + 1):
        table = cplx.axis_edges(k)
        for i, cube in enumerate(cplx.cubes[k]):
            bits = [bit_of[e] for e in table[k * i:k * i + k]]
            if len(set(bits)) != k:
                return False
            want = [vc[cube[0]]]   # corner b: corner 0 moved along b's axes
            for bit in bits:
                want += [x ^ bit for x in want]
            if [vc[v] for v in cube] != want:
                return False
    return True


def reference_diagonal_scan(cplx):
    """The dict scan over cube diagonals that the one-set test replaced:
    raises NotAComplex naming the first cube whose diagonal an earlier
    cube already has, and that earlier cube."""
    n, seen = cplx.vertex_count, {}
    for k in range(1, len(cplx.cubes)):
        half = 1 << (k - 1)
        for cube in cplx.cubes[k]:
            for u, w in zip(cube[:half], cube[:half - 1:-1]):
                other = seen.setdefault(u * n + w if u < w else w * n + u,
                                        cube)
                if other is not cube:
                    raise NotAComplex("cube intersection is not a face",
                                      detail=(other, cube))


# ---------------------------------------------------------------------------
# the edge-list walk engine that the oriented-edge walks of foldcc.geodesic
# replaced, kept verbatim: each color component is copied into an edge
# list, walked by (edge index, flip) refs over a sorted adjacency


def _oriented_refs(edge_list):
    # oriented edge (tail, head) -> its ref (edge index, flip)
    index = {}
    for i, (u, w) in enumerate(edge_list):
        index[(u, w)] = (i, 0)
        index[(w, u)] = (i, 1)
    return index


def _adjacency(edge_list):
    adj = {}
    for idx, (u, w) in enumerate(edge_list):
        adj.setdefault(u, []).append((idx, 0))
        adj.setdefault(w, []).append((idx, 1))
    for v in adj:
        adj[v].sort(key=lambda r: (_head(edge_list, r), r[0]))
    return adj


def _head(edge_list, ref):
    idx, flip = ref
    return edge_list[idx][1 - flip]


def _tail(edge_list, ref):
    idx, flip = ref
    return edge_list[idx][flip]


def _check_graph(edge_list, require_not_circle=True):
    adj = _adjacency(edge_list)
    if adj:
        ds = DisjointSet(max(adj) + 1)
        for u, w in edge_list:
            ds.union(u, w)
        if len(ds.groups(adj)) != 1:
            raise NotConnected("graph is not connected")
        if require_not_circle and all(len(refs) == 2 for refs in adj.values()):
            raise IsCircle("graph is a circle")
    return adj


def _bfs_walk(first, succ, goal):
    # shortest walk (a list of nodes) from a node of `first` along succ to
    # a goal node, ties broken by queue order; None if there is none
    prev = dict.fromkeys(first)
    queue = deque(first)
    while queue:
        x = queue.popleft()
        if goal(x):
            walk = [x]
            while prev[walk[-1]] is not None:
                walk.append(prev[walk[-1]])
            return walk[::-1]
        for y in succ(x):
            if y not in prev:
                prev[y] = x
                queue.append(y)
    return None


def _forward(edge_list, adj):
    # the non-backtracking successors of an oriented ref
    return lambda ref: [nxt for nxt in adj.get(_head(edge_list, ref), ())
                        if nxt != (ref[0], 1 - ref[1])]


def reference_connector_walk(edge_list, e1, e2):
    """Lemma-backed connector in a multigraph.

    Edges are (u, w) pairs; an oriented ref is (edge index, flip) with
    flip = 1 traversing w->u.  Returns the shortest walk c from the head of
    e1 to the head of e2 such that reverse(e2) * c * e1 is non-backtracking
    at every junction; ties break on canonical edge order.
    """
    succ = _forward(edge_list, _check_graph(edge_list))
    goal_v = _head(edge_list, e2)
    if _head(edge_list, e1) == goal_v and e1 != e2:
        return []
    walk = _bfs_walk(succ(e1), succ, lambda ref: (
        _head(edge_list, ref) == goal_v and ref != e2))
    if walk is None:
        raise ConstructionFailed("no connector walk exists (valence-1 vertex?)")
    return walk


def reference_loop_at_vertex(edge_list, v):
    """Shortest non-backtracking closed walk based at v, with a legal
    closing junction (first step is not the reverse of the last)."""
    adj = _check_graph(edge_list, require_not_circle=False)
    if v not in adj:
        raise ConstructionFailed("vertex %d has no edges" % v)
    succ = _forward(edge_list, adj)
    walks = [_bfs_walk([start], succ, lambda ref: (
        _head(edge_list, ref) == v and ref != (start[0], 1 - start[1])))
        for start in adj[v]]
    walks = [walk for walk in walks if walk is not None]
    if not walks:
        raise ConstructionFailed("no closed loop through vertex %d" % v)
    return min(walks, key=len)


def _walk_to_path(edge_list, walk, base, closed):
    steps = []
    for ref in walk:
        steps.append(OrientedEdge(_tail(edge_list, ref), _head(edge_list, ref)))
    return EdgePath(base, tuple(steps), closed)


# foldcc.geodesic's perpendicular sets and 1-complex connectors, which
# nothing in the library called, kept for the tests of the direction table
# and of the oriented-edge walks

def perpendicular_set(cplx, e):
    """Directions at tail(e) at distance pi/2 from e, sorted."""
    nbrs, _, masks = cplx.directions(e.tail)
    mask = masks.get(e.head, 0)
    return tuple(w for j, w in enumerate(nbrs) if mask >> j & 1)


def graph_connector(graph, e1, e2):
    """Connector in a 1-dimensional cubical complex, as an EdgePath.

    e1, e2 are OrientedEdges of `graph`; the result runs from head(e1) to
    head(e2) and concatenates with e1 and reverse(e2) without backtracking
    (the e1 = e2 form gives the probe loop of the Lemma).
    """
    if graph.dim > 1:
        raise PreconditionFailed("graph_connector needs a 1-complex")
    if graph.edge_index(*e1) is None or graph.edge_index(*e2) is None:
        raise PreconditionFailed("edge not in graph")
    if sum(len(part) > 1 for part in graph.vertex_components()) != 1:
        raise NotConnected("graph is not connected")
    colors = (0,) * graph.n_cubes(1)
    if _is_circle(graph, colors, 0, e1.tail):
        raise IsCircle("graph is a circle")
    walk = _connector(graph, colors, 0, _node(graph, e1), _node(graph, e2))
    return _path(graph, walk, e1.head, closed=False)


def reference_color_component_edges(cplx, coloring, v, color):
    """Edges of the color subgraph component X_{color, v}, in parent ids."""
    edges = {}
    adj = {}
    for e in coloring.edges_of_color(color):
        u, w = cplx.cubes[1][e]
        adj.setdefault(u, []).append((w, e))
        adj.setdefault(w, []).append((u, e))
    if v not in adj:
        raise PreconditionFailed("no color-%d edge at vertex %d" % (color, v))
    seen = {v}
    queue = [v]
    while queue:
        u = queue.pop()
        for w, e in adj[u]:
            edges[e] = cplx.cubes[1][e]
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return [edges[e] for e in sorted(edges)]


def reference_probe_loop(cplx, edge_list, e):
    # the geodesic segment e * loop * reverse(e) inside a color subgraph
    ref = _oriented_refs(edge_list)[tuple(e)]
    walk = reference_connector_walk(edge_list, ref, ref)
    inner = _walk_to_path(edge_list, walk, e.head, closed=False)
    return EdgePath(e.tail, (e,) + inner.steps + (e.reverse,), closed=False)


def reference_loop_path(edge_list, v):
    """The base loop of the all-color builder, as the edge-list engine
    built it from the color component's edge list."""
    walk = reference_loop_at_vertex(edge_list, v)
    return _walk_to_path(edge_list, walk, v, closed=True)


def cubes_with_edge(cplx, u, w):
    """Yield (k, i, pos_u, axis) for cubes containing the edge u-w."""
    for k in range(1, len(cplx.cubes)):
        for i, pos in cplx.star(u)[k]:
            cube = cplx.cubes[k][i]
            for axis in range(k):
                if cube[pos ^ (1 << axis)] == w:
                    yield k, i, pos, axis
                    break


# the geodesic builders as they were when every piece became an EdgePath
# before it was chained: kept as the reference for the one-walk builders

def _reversed(path):
    end = path.steps[-1].head if path.steps else path.base
    return EdgePath(end, tuple(s.reverse for s in reversed(path.steps)),
                    path.closed)


def _rotated(path, i):
    if not path.closed:
        raise NotClosed("only closed paths rotate")
    steps = path.steps[i:] + path.steps[:i]
    return EdgePath(steps[0].tail if steps else path.base, steps, True)


def _probe_loop(cplx, coloring, e):
    # the geodesic segment e * loop * reverse(e) inside the color of e
    x = _node(cplx, e)
    loop = _connector(cplx, coloring.colors, coloring.colors[x >> 1], x, x)
    return _path(cplx, [x, *loop, x ^ 1], e.tail, closed=False)


def _rotate_to_color_at(cplx, coloring, path, v, color):
    # reparametrize a closed path to start at v along an edge of the color
    for t, s in enumerate(path.steps):
        if s.tail == v and coloring.of_pair(s.tail, s.head) == color:
            return _rotated(path, t), s
    rev = _reversed(path)
    for t, s in enumerate(rev.steps):
        if s.tail == v and coloring.of_pair(s.tail, s.head) == color:
            return _rotated(rev, t), s
    raise ConstructionFailed(
        "path has no color-%d edge at vertex %d" % (color, v))


def reference_all_color_geodesic(cplx, coloring, v, T):
    simv = sim_v_classes(cplx, coloring, v)
    T = frozenset(T)
    if T not in simv.partition:
        raise NotSingleClass("%r is not a sim_v class at %d" % (sorted(T), v))

    order = [min(T)]
    remaining = sorted(T - set(order))
    while remaining:
        nxt = None
        for c in remaining:
            if any((min(c, o), max(c, o)) in simv.witnesses for o in order):
                nxt = c
                break
        if nxt is None:
            raise NotSingleClass("class %r is not chained at %d" % (sorted(T), v))
        order.append(nxt)
        remaining.remove(nxt)

    base_walk = _loop_at(cplx, coloring.colors, order[0], v)
    path = _path(cplx, base_walk, v, closed=True)

    for t in range(1, len(order)):
        ck = order[t]
        cj = None
        for o in order[:t]:
            if (min(ck, o), max(ck, o)) in simv.witnesses:
                cj = o
                break
        pair = simv.witnesses[(min(ck, cj), max(ck, cj))]
        d_j, d_k = pair if cj <= ck else (pair[1], pair[0])
        e_jp = OrientedEdge(v, d_j)
        e_k = OrientedEdge(v, d_k)
        c1 = _probe_loop(cplx, coloring, e_k)
        c2 = _probe_loop(cplx, coloring, e_jp)
        path, e_j = _rotate_to_color_at(cplx, coloring, path, v, cj)
        if e_jp != e_j:
            c3 = _probe_loop(cplx, coloring, e_j)
            steps = c1.steps + c2.steps + path.steps + c3.steps + c2.steps
        else:
            steps = path.steps + c2.steps + c1.steps
        path = EdgePath(v, steps, closed=True)

    ok, where = is_local_geodesic(cplx, path)
    if not ok:
        raise ConstructionFailed("junction check failed at step %d" % where)
    if not (T <= path.color_set(coloring)):
        raise ConstructionFailed("constructed path misses a color of %r"
                                 % sorted(T))
    return path


def reference_strict_pi_geodesic(cplx, coloring, v, a, b):
    i = coloring.of_pair(v, a)
    j = coloring.of_pair(v, b)
    if i == j:
        raise PreconditionFailed("directions must have different colors")
    if distance_class(cplx, v, a, b) is not DistanceClass.MORE_THAN_PI:
        raise PreconditionFailed("directions are not strictly beyond pi")
    c1 = _probe_loop(cplx, coloring, OrientedEdge(v, a))
    c2 = _probe_loop(cplx, coloring, OrientedEdge(v, b))
    path = EdgePath(v, c1.steps + c2.steps, closed=True)
    ok, where = is_local_geodesic(cplx, path)
    if not ok:
        raise ConstructionFailed("junction check failed at step %d" % where)
    return path


def reference_step_d_search(cplx, coloring):
    for blue, green, red in itertools.permutations(range(1, coloring.n + 1)):
        pieces = DisjointSet(cplx.vertex_count)
        pieces.labels([cplx.cubes[1][e] for e in coloring.edges_of_color(blue)])
        for piece in pieces.groups():
            v_candidates = []
            w_candidates = []
            for v in piece:
                br = _pi_pairs_at(cplx, coloring, v, blue, red)
                if br:
                    v_candidates.append((v, br[0]))
                bg = _pi_pairs_at(cplx, coloring, v, blue, green)
                if bg:
                    w_candidates.append((v, bg[0]))
            if not v_candidates or not w_candidates:
                continue
            for (v1, (d_b, d_r)), (v2, (d_bp, d_g)) in itertools.product(
                    v_candidates, w_candidates):
                x1 = _node(cplx, (v1, d_b))
                x2 = _node(cplx, (v2, d_bp))
                walk = _connector(cplx, coloring.colors, blue, x1, x2)
                c = _path(cplx, [x1, *walk, x2 ^ 1], v1, closed=False)
                c1 = _probe_loop(cplx, coloring, OrientedEdge(v1, d_r))
                c2 = _probe_loop(cplx, coloring, OrientedEdge(v2, d_g))
                path = EdgePath(
                    v1, c.steps + c2.steps + _reversed(c).steps + c1.steps,
                    closed=True)
                if rank_one_certificate(cplx, coloring, path):
                    return path
    return None
