"""Constructors for the example families used throughout the package.

Standard spheres and hemispherexes are simplicial; the cube-of-a-flag-
complex construction Y(K), its half subdivision X(K), grid tori and
products are cubical.  All constructors are pure and deterministic.
"""

import itertools
from dataclasses import dataclass

from .core import CubicalComplex, SimplicialComplex
from .errors import BadDimension, BadDims, BadSpec, TooLarge


def standard_sphere(n):
    """Boundary of the (n+1)-cross-polytope: the all right n-sphere.

    Vertices come in n+1 antipodal pairs; pair i (1-based) is vertices
    2(i-1) and 2(i-1)+1.  A vertex set spans a simplex iff it meets each
    pair at most once.  Equator i is the standard (n-1)-sphere omitting
    pair i.

    >>> standard_sphere(1).n_simplices(1)
    4
    """
    if n < 1:
        raise BadDimension("standard sphere needs n >= 1")
    pairs = [(2 * i, 2 * i + 1) for i in range(n + 1)]
    tops = [tuple(sorted(choice)) for choice in itertools.product(*pairs)]
    return SimplicialComplex.from_maximal(2 * (n + 1), tops)


def equator_vertices(n, i):
    """Vertices of equator i (1-based) of the standard n-sphere."""
    return tuple(v for j in range(n + 1) if j + 1 != i
                 for v in (2 * j, 2 * j + 1))


@dataclass
class Hemispherex:
    """A hemispherex with its pole labelling.

    poles[j] = (vertex id, equator index); pair_of[v] gives the antipodal
    pair index of a sphere vertex (poles carry the index of their equator,
    which is the color a folding assigns them).
    """
    complex: SimplicialComplex
    n: int
    multiplicities: tuple
    poles: tuple

    @property
    def pole_vertices(self):
        return tuple(v for v, _ in self.poles)


def hemispherex(n, multiplicities, allow_dim1=False):
    """Standard n-sphere with m_i >= 1 hemispheres attached along each
    equator; poles are the cone points.

    The paper's definition needs n >= 2; n = 1 is reachable behind
    `allow_dim1` and yields the smallest rank-one-producing inputs (the
    double-arc graph for multiplicities (1, 1)).
    """
    if n < 1 or (n < 2 and not allow_dim1):
        raise BadSpec("hemispherex needs n >= 2 (n = 1 only with allow_dim1)")
    multiplicities = tuple(multiplicities)
    if len(multiplicities) != n + 1:
        raise BadSpec("need %d multiplicities, got %d"
                      % (n + 1, len(multiplicities)))
    if any(m < 1 for m in multiplicities):
        raise BadSpec("every equator needs at least one hemisphere")
    sphere = standard_sphere(n)
    tops = [s for s in sphere.simplices[n]]
    vertex_count = sphere.vertex_count
    poles = []
    for i in range(1, n + 2):
        eq = equator_vertices(n, i)
        eq_pairs = [(eq[2 * j], eq[2 * j + 1]) for j in range(n)]
        eq_tops = ([tuple(sorted(choice)) for choice in itertools.product(*eq_pairs)]
                   if n >= 2 else [(v,) for v in eq])
        for _ in range(multiplicities[i - 1]):
            pole = vertex_count
            vertex_count += 1
            poles.append((pole, i))
            for s in eq_tops:
                tops.append(tuple(sorted(s + (pole,))))
    K = SimplicialComplex.from_maximal(vertex_count, tops)
    return Hemispherex(K, n, multiplicities, tuple(poles))


def davis_Y(K, max_generators=16):
    """Subcomplex of the |S|-cube spanned by the faces whose direction sets
    are simplices of K; every vertex link is isomorphic to K.

    Vertices are numbered by the integer value of their coordinate
    bitstring (coordinate s = bit s).
    """
    S = K.vertex_count
    if S > max_generators:
        raise TooLarge("2^%d vertices exceeds the cap (max_generators=%d)"
                       % (S, max_generators))
    maximal = []
    for T in K.maximal_simplices():
        mask = 0
        for s in T:
            mask |= 1 << s
        free = [1 << s for s in T]
        k = len(T)
        bases = [z for z in range(1 << S) if z & mask == 0]
        for z in bases:
            corners = []
            for b in range(1 << k):
                x = z
                for j in range(k):
                    if (b >> j) & 1:
                        x |= free[j]
                corners.append(x)
            maximal.append(tuple(corners))
    return CubicalComplex.from_maximal_cubes(
        1 << S, maximal, check_intersections=False)


@dataclass
class Subdivision:
    """Half-coordinate subdivision of a cubical complex.

    New vertices are the centers of the old cubes: originals keep their
    ids, subdivision vertices follow in canonical face order.  carrier_of
    maps an X vertex to the (dim, index) of the Y cube it is the center
    of; vertex_for is the inverse.
    """
    complex: CubicalComplex
    parent: CubicalComplex
    vertex_for: dict
    carrier_of: tuple


def subdivide_half(Y):
    """Subdivide every k-cube into 2^k by halving each coordinate.

    The cubes of the subdivision correspond to pairs A <= B of faces of Y;
    the corners of the pair-cube are the centers of the intermediate faces.
    """
    vertex_for = {}
    carrier_of = []
    center = {}   # sorted corners of a Y cube -> its center
    for k, level in enumerate(Y.cubes):
        for i, cube in enumerate(level):
            vertex_for[(k, i)] = center[tuple(sorted(cube))] = len(carrier_of)
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
                corners.append(center[tuple(sorted(face))])
            maximal.append(tuple(corners))
    X = CubicalComplex.from_maximal_cubes(
        len(carrier_of), maximal, check_intersections=False)
    return Subdivision(X, Y, vertex_for, tuple(carrier_of))


def davis_X(K, max_generators=16):
    """X(K): the half-coordinate subdivision of Y(K).

    The origin (corner 0 of the ambient cube) keeps vertex id 0; the
    direction along coordinate s at the origin points to the center of the
    s-edge, reachable through the returned Subdivision maps.
    """
    return subdivide_half(davis_Y(K, max_generators=max_generators))


def origin_direction(sub, s):
    """X(K) neighbor of the origin along coordinate s (the s-edge center)."""
    return sub.vertex_for[(1, sub.parent.edge_index(0, 1 << s))]


def torus_grid(dims):
    """Product of cycles of the given lengths as a grid complex.

    Every length must be at least 3 (shorter cycles break the intersection
    axiom).  Foldability additionally needs every length even; that is
    reported downstream, not enforced here.
    """
    dims = tuple(dims)
    if not dims or any(k < 3 for k in dims):
        raise BadDims("torus grid needs every side >= 3")
    n = len(dims)
    strides = [1] * n
    for j in range(1, n):
        strides[j] = strides[j - 1] * dims[j - 1]
    total = strides[-1] * dims[-1]

    def vid(coords):
        return sum(c * s for c, s in zip(coords, strides))

    maximal = []
    for base in itertools.product(*(range(k) for k in dims)):
        corners = []
        for b in range(1 << n):
            coords = [(base[j] + ((b >> j) & 1)) % dims[j] for j in range(n)]
            corners.append(vid(coords))
        maximal.append(tuple(corners))
    return CubicalComplex.from_maximal_cubes(
        total, maximal, check_intersections=False)


def cycle_graph(k):
    """The k-cycle as a 1-dimensional cubical complex."""
    return torus_grid((k,))


def product(C1, C2):
    """Product complex: cubes are pairs of cubes, dimensions add.

    Vertex (v1, v2) gets id v1 * N2 + v2; the first factor's axes come
    first in every product cube.
    """
    N2 = C2.vertex_count
    maximal = []
    for k1, i1 in C1.maximal_cubes():
        Q1 = C1.cubes[k1][i1]
        for k2, i2 in C2.maximal_cubes():
            Q2 = C2.cubes[k2][i2]
            corners = []
            for b in range(1 << (k1 + k2)):
                b1 = b & ((1 << k1) - 1)
                b2 = b >> k1
                corners.append(Q1[b1] * N2 + Q2[b2])
            maximal.append(tuple(corners))
    return CubicalComplex.from_maximal_cubes(
        C1.vertex_count * N2, maximal, check_intersections=False)


def simplicial_graph_to_cubical(K):
    """View a 1-dimensional simplicial complex as a cubical 1-complex."""
    if K.dim > 1:
        raise BadDimension("input has simplices of dimension > 1")
    edges = [tuple(e) for e in (K.simplices[1] if K.dim >= 1 else ())]
    return CubicalComplex.from_maximal_cubes(
        K.vertex_count, edges, check_intersections=False)
