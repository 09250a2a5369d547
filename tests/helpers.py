"""Independent oracles used to freeze expected values.

These deliberately avoid the library code paths they check: clique
enumeration is brute force, link metrics come from plain BFS over the
link 1-skeleton, and cell counts are recomputed from first principles.
"""

import itertools
from collections import deque

from foldcc.core import (ComponentPiece, CubicalComplex, DisjointSet,
                         _corner_picker, _face_pickers, canonical_cube,
                         canonical_frame, is_flag, link)
from foldcc.errors import NotAComplex
from foldcc.decomposition import HyperplaneComponent, Subcomplex
from foldcc.generators import Subdivision
from foldcc.geodesic import DistanceClass, SimVClasses


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


def all_corpus_edges(cplx):
    for e in range(cplx.n_cubes(1)):
        yield cplx.cubes[1][e]


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
        assert [cplx.cofaces(k, i) for i in range(len(level))] == cofaces[k]
    assert cplx.maximal_cubes() == maximal
    for k in range(1, len(cplx.cubes)):
        assert cplx.axis_edges(k) == [cplx.edge_index(cube[0], cube[1 << ax])
                                      for cube in cplx.cubes[k]
                                      for ax in range(k)]


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


def assert_local_index(parent, piece):
    """local_index[k] sends each parent k-cube of the piece to the piece's
    cube on the renumbered corners, and level 0 is vertex_index."""
    assert piece.local_index[0] is piece.vertex_index
    assert len(piece.local_index) == len(piece.complex.cubes)
    for k, index in enumerate(piece.local_index):
        assert sorted(index.values()) == list(range(piece.complex.n_cubes(k)))
        for i, j in index.items():
            assert piece.complex.cubes[k][j] == tuple(
                piece.vertex_index[v] for v in parent.cubes[k][i])


def relabelled(cplx, rng):
    """The complex with its vertices permuted by `rng`, rebuilt from its
    maximal cubes."""
    perm = list(range(cplx.vertex_count))
    rng.shuffle(perm)
    return CubicalComplex.from_maximal_cubes(
        cplx.vertex_count, [tuple(perm[v] for v in cplx.cubes[k][i])
                            for k, i in cplx.maximal_cubes()])


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


def reference_hyperplanes(cplx, coloring, color):
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
    out = []
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
        out.append(HyperplaneComponent(color, cx, tuple(verts), carrier))
    return out


def reference_cube_map(cplx, coloring, color, parity, h, b, piece):
    """The side-b cube map of edge space h into the vertex space `piece`."""
    cube_map, by_vset = {}, vertex_set_map(piece.complex)
    for (k, j), (pk, pi) in h.carrier.items():
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


# The half subdivision as it was built when every complex kept a map from
# each cube's vertex set to its (dim, index): the lookups go through that map.

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
