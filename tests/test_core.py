import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from foldcc import core
from foldcc.core import (CubicalComplex, DisjointSet, SimplicialComplex,
                         _flag_witness, canonical_cube, components, cube_face,
                         is_flag, link, load_complex, load_simplicial,
                         restrict_complex, serialize_complex,
                         serialize_simplicial, simplicial_isomorphic,
                         spanning_forest_labels, validate_fcc)
from foldcc.errors import NotAComplex, NotHomogeneous, ParseError, UnknownVertex
from foldcc.folding import find_folding
from foldcc.generators import (cycle_graph, davis_X, hemispherex, product,
                               standard_sphere, torus_grid)

from helpers import brute_force_nonspanning_clique

SQUARE = "cubical-complex v1\nvertices 4\ncube 2 0 1 2 3\n"


def corner_orders(corners):
    """Every corner tuple of the same cube (all 2^k * k! of them)."""
    k = (len(corners) - 1).bit_length()
    for perm in itertools.permutations(range(k)):
        for mask in range(1 << k):
            # position b of the image takes the corner whose coordinate
            # perm[j] is bit j of b, flipped by bit j of mask
            yield tuple(
                corners[sum((((b >> j) ^ (mask >> j)) & 1) << perm[j]
                            for j in range(k))]
                for b in range(1 << k))


def symmetry_minimum(corners):
    """Lexicographic minimum over all 2^k * k! symmetries of the cube."""
    return min(corner_orders(corners))


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


def empty_triangle_complex():
    # three squares around vertex 0 whose link is a hollow triangle
    return CubicalComplex.from_maximal_cubes(
        7, [(0, 1, 2, 4), (0, 2, 3, 5), (0, 1, 3, 6)])


class TestLoading:
    def test_single_square_closure(self):
        cplx = load_complex(SQUARE)
        assert cplx.cell_counts() == (4, 4, 1)

    def test_two_squares_sharing_an_edge(self):
        text = ("cubical-complex v1\nvertices 6\n"
                "cube 2 0 1 2 3\ncube 2 2 3 4 5\n")
        assert load_complex(text).cell_counts() == (6, 7, 2)

    def test_two_distinct_squares_on_same_vertices(self):
        text = ("cubical-complex v1\nvertices 4\n"
                "cube 2 0 1 2 3\ncube 2 0 1 3 2\n")
        with pytest.raises(NotAComplex):
            load_complex(text)

    def test_repeated_corner_rejected(self):
        with pytest.raises(NotAComplex):
            load_complex("cubical-complex v1\nvertices 3\ncube 2 0 1 2 2\n")

    def test_intersection_axiom_rejected(self):
        # two 3-cubes sharing two opposite faces of each other: their
        # vertex sets meet in 8 vertices, not a common face
        top = tuple(range(8))
        other = (0, 1, 2, 3, 6, 7, 4, 5)
        with pytest.raises(NotAComplex):
            CubicalComplex.from_maximal_cubes(8, [top, other])

    def test_parse_errors(self):
        for text in ["garbage\n",
                     "cubical-complex v1\n",
                     "cubical-complex v1\nvertices 4\ncube\n",
                     "cubical-complex v1\nvertices x\n",
                     "cubical-complex v1\nvertices 4\ncube 2 0 1 2\n",
                     "cubical-complex v1\nvertices 4\nsquare 2 0 1 2 3\n"]:
            with pytest.raises(ParseError):
                load_complex(text)

    def test_out_of_range_corner(self):
        with pytest.raises(NotAComplex):
            load_complex("cubical-complex v1\nvertices 2\ncube 1 0 5\n")

    def test_loading_is_deterministic(self):
        text = serialize_complex(torus_grid((4, 4)))
        assert load_complex(text) == load_complex(text)

    def test_round_trip_is_byte_identical(self):
        for cplx in [torus_grid((4, 4)), torus_grid((4, 4, 4)),
                     empty_triangle_complex()]:
            text = serialize_complex(cplx)
            assert serialize_complex(load_complex(text)) == text

    def test_provenance_survives_round_trip(self):
        cplx = torus_grid((4, 4))
        cplx.provenance = "torus:4,4"
        text = serialize_complex(cplx)
        assert "# spec: torus:4,4" in text
        assert serialize_complex(load_complex(text)) == text


class TestCanonicalCube:
    def test_equals_symmetry_minimum_for_every_corner_order(self):
        r = random.Random(3)
        for _ in range(60):
            k = r.randrange(5)
            cube = tuple(r.sample(range(1000), 1 << k))
            expect = symmetry_minimum(cube)
            for corners in corner_orders(cube):
                assert canonical_cube(corners) == expect
            assert canonical_cube(list(cube)) == expect

    def test_equals_symmetry_minimum_on_random_cubes(self):
        r = random.Random(4)
        for _ in range(1000):
            cube = tuple(r.sample(range(40), 1 << r.randrange(5)))
            assert canonical_cube(cube) == symmetry_minimum(cube)

    def test_smallest_corner_then_its_neighbours_in_order(self):
        assert canonical_cube((7, 3, 5, 1)) == (1, 3, 5, 7)
        # corner 1 sits at position 5; its neighbours 2, 5, 6 lie along
        # axes 2, 1, 0, which become axes 0, 1, 2
        assert canonical_cube((9, 2, 4, 8, 6, 1, 3, 5)) == (
            1, 2, 5, 8, 6, 9, 3, 4)

    def test_corner_count_must_be_a_power_of_two(self):
        for corners in [(), (0, 1, 2)]:
            with pytest.raises(NotAComplex):
                canonical_cube(corners)


class TestFaceIncidence:
    def test_table_matches_recomputation_on_corpus(self, corpus_all):
        for entry in corpus_all:
            assert_incidence(entry.complex)

    def test_table_matches_recomputation_on_pieces(self):
        cplx = torus_grid((4, 4, 4))
        refs = set()
        stack = [(k, i) for k in range(cplx.dim + 1)
                 for i, _ in cplx.star(0)[k]]
        while stack:
            ref = stack.pop()
            if ref not in refs:
                refs.add(ref)
                stack.extend(cplx.faces(*ref))
        piece = restrict_complex(cplx, sorted(refs)).complex
        assert piece.cell_counts() == (27, 54, 36, 8)
        assert_incidence(piece)
        two = CubicalComplex.from_maximal_cubes(
            9, [(0, 1, 2, 3), (4, 5, 6, 7), (7, 8)])
        for part in components(two):
            assert_incidence(part.complex)


    def test_every_codim1_face_is_found(self):
        cplx = torus_grid((4, 4, 4))
        for k in range(1, cplx.dim + 1):
            for i in range(cplx.n_cubes(k)):
                faces = cplx.faces(k, i)
                assert len(faces) == 2 * k
                for fd, fi in faces:
                    assert 0 <= fi < cplx.n_cubes(fd)

    def test_cofaces_invert_faces(self):
        cplx = torus_grid((4, 4))
        for i in range(cplx.n_cubes(1)):
            for cd, ci in cplx.cofaces(1, i):
                assert (1, i) in cplx.faces(cd, ci)

    def test_torus_euler_characteristic_vanishes(self):
        for dims in [(4, 4), (5, 4), (4, 4, 4), (3, 3, 3)]:
            assert torus_grid(dims).euler_characteristic() == 0


class TestLink:
    def test_torus_vertex_link_is_a_4_cycle(self):
        lnk = link(torus_grid((4, 4)), 0)
        assert lnk.complex.dim == 1
        assert lnk.complex.n_simplices(0) == 4
        assert lnk.complex.n_simplices(1) == 4
        cyc = SimplicialComplex.from_maximal(
            4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        assert simplicial_isomorphic(lnk.complex, cyc) is not None

    def test_cube_corner_link_is_a_simplex(self):
        for n in (1, 2, 3):
            cube = CubicalComplex.from_maximal_cubes(
                1 << n, [tuple(range(1 << n))])
            lnk = link(cube, 0)
            assert lnk.complex.dim == n - 1
            assert lnk.complex.n_simplices(n - 1) == 1

    def test_unknown_vertex(self):
        with pytest.raises(UnknownVertex):
            link(torus_grid((4, 4)), 99)

    def test_link_directions_name_neighbors(self):
        cplx = torus_grid((4, 4))
        lnk = link(cplx, 5)
        assert lnk.directions == cplx.neighbors(5)


class TestFlag:
    def test_octahedron_is_flag(self):
        K = standard_sphere(2)
        ok, witness = is_flag(K)
        assert ok and witness is None
        assert brute_force_nonspanning_clique(K) is None

    def test_hollow_triangle(self):
        K = SimplicialComplex.from_maximal(3, [(0, 1), (1, 2), (0, 2)])
        ok, witness = is_flag(K)
        assert not ok
        assert witness == (0, 1, 2)
        assert brute_force_nonspanning_clique(K) == (0, 1, 2)

    def test_girth_four_graph_is_flag(self):
        K = SimplicialComplex.from_maximal(
            4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        assert is_flag(K) == (True, None)

    def test_witness_is_minimal(self):
        # a filled tetrahedron boundary missing only the top cell is flag
        # at dimension 2 but not 3
        faces = list(itertools.combinations(range(4), 3))
        K = SimplicialComplex.from_maximal(4, faces)
        ok, witness = is_flag(K)
        assert not ok and witness == (0, 1, 2, 3)
        assert brute_force_nonspanning_clique(K) == (0, 1, 2, 3)


class TestValidateFcc:
    def test_torus_is_fcc(self):
        report = validate_fcc(torus_grid((4, 4, 4)))
        assert report.is_fcc
        assert report.dimension == 3

    def test_single_square_has_boundary(self):
        report = validate_fcc(load_complex(SQUARE))
        assert not report.no_boundary
        assert not report.is_fcc
        assert report.boundary_witness is not None

    def test_empty_triangle_link_fails_flag(self):
        report = validate_fcc(empty_triangle_complex())
        assert not report.flag_links
        v, triple = report.flag_witness
        assert v == 0
        assert triple == (1, 2, 3)

    def test_zero_dimensional_rejected(self):
        cplx = CubicalComplex.from_maximal_cubes(2, [(0,), (1,)])
        report = validate_fcc(cplx)
        assert not report.is_fcc
        assert report.dimension == 0

    def test_odd_torus_not_foldable(self):
        report = validate_fcc(torus_grid((5, 4)))
        assert report.connected and report.no_boundary and report.flag_links
        assert not report.foldable and not report.is_fcc

    def test_homogeneity_witness_on_dangling_edge(self):
        # a square with an edge hanging off corner 3, then also with an
        # isolated vertex, which comes first in (dim, index) order
        for n, expect in [(5, (3, 4)), (6, (5,))]:
            cplx = CubicalComplex.from_maximal_cubes(
                n, [(0, 1, 2, 3), (3, 4)])
            report = validate_fcc(cplx)
            assert not report.dimensionally_homogeneous
            assert report.homogeneity_witness == expect
            assert ("witness.not_homogeneous = %s"
                    % " ".join(map(str, expect))) in report.render()
            with pytest.raises(NotHomogeneous) as err:
                find_folding(cplx)
            assert str(err.value) == (
                "cube %r is not a face of a top cube" % (expect,))

    def test_report_renders(self):
        text = validate_fcc(torus_grid((4, 4))).render()
        assert text.startswith("fcc-report v1\n")
        assert "is_fcc = true" in text


def reference_flag_witness(cplx):
    """The per-vertex flag test the face-table test must reproduce: build
    every link and run is_flag on it, least vertex first."""
    for v in range(cplx.vertex_count):
        lnk = link(cplx, v)
        ok, bad = is_flag(lnk.complex)
        if not ok:
            return v, tuple(lnk.directions[j] for j in bad)
    return None


_XDA = davis_X(hemispherex(1, (1, 1), allow_dim1=True).complex).complex
FLAG_BASES = [torus_grid((4, 4)), torus_grid((4, 6)), torus_grid((4, 4, 4)),
              _XDA, product(_XDA, cycle_graph(4)),
              product(_XDA, cycle_graph(6))]


@st.composite
def pruned_complexes(draw):
    """A relabelled base complex with 0-3 of its top cubes removed."""
    base = draw(st.sampled_from(FLAG_BASES))
    perm = draw(st.permutations(range(base.vertex_count)))
    cubes = [tuple(perm[v] for v in base.cubes[k][i])
             for k, i in base.maximal_cubes()]
    drop = draw(st.sets(st.integers(0, len(cubes) - 1), max_size=3))
    return CubicalComplex.from_maximal_cubes(
        base.vertex_count, [c for j, c in enumerate(cubes) if j not in drop])


class TestFlagFromFaceTable:
    @settings(max_examples=40, deadline=None)
    @given(pruned_complexes())
    def test_matches_the_per_vertex_links(self, cplx):
        assert _flag_witness(cplx) == reference_flag_witness(cplx)

    def test_fails_where_a_top_cube_is_missing(self):
        # a 3-cube's corner link is a filled triangle; without the cube it
        # is hollow
        base = torus_grid((4, 4, 4))
        cubes = [base.cubes[k][i] for k, i in base.maximal_cubes()]
        cplx = CubicalComplex.from_maximal_cubes(base.vertex_count, cubes[1:])
        assert _flag_witness(cplx) == reference_flag_witness(cplx)
        assert _flag_witness(cplx)[0] == cubes[0][0]

    def test_empty_triangle(self):
        cplx = empty_triangle_complex()
        assert _flag_witness(cplx) == reference_flag_witness(cplx) \
            == (0, (1, 2, 3))

    def test_count_failure_is_confirmed_by_the_link(self, monkeypatch):
        # Two squares at 0 on the directions 1, 2 break the intersection
        # axiom; a 3-cube on one of them makes the counts disagree at 0,
        # but the link at 0 (a filled triangle) is flag.  The link is
        # built there and the search moves on.
        cplx = CubicalComplex.from_maximal_cubes(
            10, [(0, 1, 2, 3, 5, 6, 7, 8), (0, 1, 2, 4)],
            check_intersections=False)
        built = []
        monkeypatch.setattr(core, "link", lambda c, v: built.append(v)
                            or link(c, v))
        assert _flag_witness(cplx) == reference_flag_witness(cplx)
        assert 0 in built
        assert built == sorted(built)

    def test_validate_reports_the_witness(self):
        report = validate_fcc(empty_triangle_complex())
        assert (report.flag_links, report.flag_witness) == \
            (False, (0, (1, 2, 3)))


def reference_intersections_ok(cplx):
    """The pairwise scan the diagonal test replaced: every two maximal
    cubes that share a vertex meet in a face of both, each pair examined
    at its least common vertex.  The corner positions of a face of size s
    differ from those of that vertex in log2(s) bits."""
    maximal = [cplx.cubes[k][i] for k, i in cplx.maximal_cubes()]
    vsets = [frozenset(cube) for cube in maximal]
    at = [[] for _ in range(cplx.vertex_count)]
    for j, cube in enumerate(maximal):
        for v in cube:
            at[v].append(j)
    for v in range(cplx.vertex_count):
        for a, b in itertools.combinations(at[v], 2):
            inter = vsets[a] & vsets[b]
            if min(inter) != v:
                continue
            for cube in (maximal[a], maximal[b]):
                free = 0
                for w in inter:
                    free |= cube.index(w) ^ cube.index(v)
                if len(inter) != 1 << free.bit_count():
                    return False
    return True


def agrees_with_reference(n, cubes):
    """The diagonal test rejects the closure of `cubes` iff the pairwise
    scan does; a soup whose closure fails for another reason is skipped.
    Returns whether the soup broke the axiom."""
    try:
        cplx = CubicalComplex.from_maximal_cubes(n, cubes,
                                                 check_intersections=False)
    except NotAComplex:
        return None
    expect = reference_intersections_ok(cplx)
    try:
        cplx._check_intersections()
    except NotAComplex as exc:
        assert str(exc) == "cube intersection is not a face"
        assert not expect
        return True
    assert expect
    return False


@st.composite
def cube_soups(draw):
    """A few cubes of dimension <= 3 on at most 14 vertices, in any corner
    order: most of them overlap."""
    n = draw(st.integers(2, 14))
    cubes = []
    for _ in range(draw(st.integers(1, 6))):
        k = draw(st.integers(1, min(3, n.bit_length() - 1)))
        cubes.append(tuple(draw(st.lists(st.integers(0, n - 1), unique=True,
                                         min_size=1 << k, max_size=1 << k))))
    return n, cubes


@st.composite
def glued_complexes(draw):
    """A base complex plus one cube on corners of a top cube, their
    neighbours and new vertices."""
    base = draw(st.sampled_from(FLAG_BASES[:5]))
    cubes = [base.cubes[k][i] for k, i in base.maximal_cubes()]
    top = draw(st.sampled_from(cubes))
    near = sorted({w for v in top for w in base.neighbors(v)})
    pool = near + list(range(base.vertex_count, base.vertex_count + 8))
    k = draw(st.integers(1, 3))
    extra = draw(st.lists(st.sampled_from(pool), unique=True,
                          min_size=1 << k, max_size=1 << k))
    return base.vertex_count + 8, cubes + [tuple(extra)]


class TestIntersectionAxiom:
    @settings(max_examples=400, deadline=None)
    @given(cube_soups())
    def test_soups_match_the_pairwise_scan(self, soup):
        agrees_with_reference(*soup)

    @settings(max_examples=100, deadline=None)
    @given(glued_complexes())
    def test_glued_corpus_complexes_match_the_pairwise_scan(self, soup):
        agrees_with_reference(*soup)

    def test_soups_hit_both_outcomes(self):
        rng = random.Random(7)
        seen = set()
        for _ in range(300):
            n = rng.randint(4, 14)
            cubes = [tuple(rng.sample(range(n), 1 << rng.randint(1, 2)))
                     for _ in range(rng.randint(1, 4))]
            seen.add(agrees_with_reference(n, cubes))
        assert {True, False} <= seen

    def test_corpus_passes(self):
        for base in FLAG_BASES:
            assert reference_intersections_ok(base)
            base._check_intersections()

    def test_edge_on_a_square_diagonal(self):
        with pytest.raises(NotAComplex) as err:
            CubicalComplex.from_maximal_cubes(4, [(0, 1, 2, 3), (3, 0)])
        assert str(err.value) == "cube intersection is not a face"
        assert err.value.detail == ((0, 3), (0, 1, 2, 3))

    def test_squares_sharing_only_opposite_corners(self):
        cubes = [(0, 1, 2, 3), (0, 4, 5, 3)]
        assert not reference_intersections_ok(CubicalComplex.from_maximal_cubes(
            6, cubes, check_intersections=False))
        with pytest.raises(NotAComplex) as err:
            CubicalComplex.from_maximal_cubes(6, cubes)
        assert err.value.detail == ((0, 1, 2, 3), (0, 4, 5, 3))

    def test_squares_sharing_adjacent_corners_pass(self):
        # an edge is a face of both, the diagonals differ
        CubicalComplex.from_maximal_cubes(6, [(0, 1, 2, 3), (0, 1, 4, 5)])


class TestLinkConsequences:
    # links of an FCC of dimension n are homogeneous of dimension n-1,
    # have no boundary and are flag
    def test_on_small_fccs(self, torus44, x_double_arc):
        for entry in (torus44, x_double_arc):
            cplx = entry.complex
            n = cplx.dim
            for v in range(cplx.vertex_count):
                lnk = link(cplx, v).complex
                assert lnk.dim == n - 1
                assert lnk.is_dimensionally_homogeneous()
                if n >= 2:
                    assert lnk.has_no_boundary()
                assert is_flag(lnk)[0]


class TestComponents:
    def test_connected_torus(self):
        assert len(components(torus_grid((4, 4)))) == 1

    def test_two_disjoint_squares(self):
        cplx = CubicalComplex.from_maximal_cubes(
            8, [(0, 1, 2, 3), (4, 5, 6, 7)])
        parts = components(cplx)
        assert len(parts) == 2
        for piece in parts:
            assert piece.complex.cell_counts() == (4, 4, 1)
            for new, old in enumerate(piece.to_parent):
                assert piece.vertex_index[old] == new

    def test_component_complexes_round_trip(self):
        cplx = CubicalComplex.from_maximal_cubes(
            8, [(0, 1, 2, 3), (4, 5, 6, 7)])
        for piece in components(cplx):
            text = serialize_complex(piece.complex)
            assert load_complex(text) == piece.complex


class TestSimplicial:
    def test_simplex_dimension_is_capped(self):
        def text(k):
            return ("simplicial-complex v1\nvertices 20\nsimplex %d %s\n"
                    % (k, " ".join(map(str, range(k + 1)))))
        assert load_simplicial(text(core.MAX_SIMPLEX_DIM)).dim == 16
        with pytest.raises(ParseError):
            load_simplicial(text(core.MAX_SIMPLEX_DIM + 1))

    def test_round_trip(self):
        K = standard_sphere(2)
        text = serialize_simplicial(K)
        assert load_simplicial(text) == K
        assert serialize_simplicial(load_simplicial(text)) == text

    def test_isomorphism_finds_relabelling(self):
        K = standard_sphere(2)
        perm = [3, 4, 5, 0, 1, 2]
        relabeled = SimplicialComplex.from_maximal(
            6, [tuple(perm[v] for v in s) for s in K.simplices[2]])
        mapping = simplicial_isomorphic(K, relabeled)
        assert mapping is not None
        for s in K.simplices[2]:
            assert relabeled.has(tuple(mapping[v] for v in s))

    def test_isomorphism_rejects_different_complexes(self):
        K1 = standard_sphere(1)
        K2 = SimplicialComplex.from_maximal(
            4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])
        assert simplicial_isomorphic(K1, K2) is None


@st.composite
def multigraphs(draw, max_weight=1):
    """(n, edges, weights): loops and parallel edges allowed."""
    n = draw(st.integers(1, 9))
    vertex = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=20))
    weights = draw(st.lists(st.integers(0, max_weight), min_size=len(edges),
                            max_size=len(edges)))
    return n, edges, weights


def bfs_components(n, edges):
    adj = [[] for _ in range(n)]
    for u, w in edges:
        adj[u].append(w)
        adj[w].append(u)
    seen, out = set(), []
    for v in range(n):
        if v not in seen:
            comp, queue = [], [v]
            seen.add(v)
            while queue:
                u = queue.pop()
                comp.append(u)
                for w in adj[u]:
                    if w not in seen:
                        seen.add(w)
                        queue.append(w)
            out.append(sorted(comp))
    return out


class TestGraphHelpers:
    @settings(max_examples=300, deadline=None)
    @given(multigraphs())
    def test_disjoint_set_groups_are_the_components(self, graph):
        n, edges, _ = graph
        ds = DisjointSet(n)
        for u, w in edges:
            ds.union(u, w)
        groups = ds.groups()
        assert groups == bfs_components(n, edges)
        for group in groups:
            assert all(ds.find(x) == group[0] for x in group)
        odd = [v for v in range(n) if v % 2]
        assert ds.groups(odd) == [g for g in (
            [v for v in group if v % 2] for group in groups) if g]

    @settings(max_examples=300, deadline=None)
    @given(multigraphs(max_weight=15))
    def test_labels_follow_the_tree_edges(self, graph):
        n, edges, weights = graph
        label, off_tree = spanning_forest_labels(n, edges, weights)
        tree = set(range(len(edges))) - set(off_tree)
        assert off_tree == sorted(off_tree)
        for e in tree:
            u, w = edges[e]
            assert label[u] ^ label[w] == weights[e]
        for comp in bfs_components(n, edges):
            assert label[comp[0]] == 0
            # a spanning forest has one edge fewer than its vertices
            assert sum(1 for e in tree if edges[e][0] in comp) == len(comp) - 1

    @settings(max_examples=300, deadline=None)
    @given(multigraphs())
    def test_off_tree_mismatch_iff_odd_cycle(self, graph):
        n, edges, weights = graph
        label, off_tree = spanning_forest_labels(n, edges, weights)
        mismatch = any(label[edges[e][0]] ^ label[edges[e][1]] != weights[e]
                       for e in off_tree)
        two_colorable = any(
            all((mask >> u & 1) ^ (mask >> w & 1) == weights[e]
                for e, (u, w) in enumerate(edges))
            for mask in range(1 << n))
        assert mismatch == (not two_colorable)


CELL_LINES = st.one_of(
    st.builds("vertices {}".format, st.integers(-2, 12)),
    st.builds(lambda k, vs: "cube %d %s" % (k, " ".join(map(str, vs))),
              st.integers(-1, 3), st.lists(st.integers(-1, 12), max_size=9)),
    st.builds(lambda k, vs: "simplex %d %s" % (k, " ".join(map(str, vs))),
              st.integers(-1, 3), st.lists(st.integers(-1, 12), max_size=5)),
    st.sampled_from(["cubical-complex v1", "simplicial-complex v1",
                     "# spec: x", "#", "", "cube", "vertices x", "simplex 1"]),
    st.text(max_size=12))


@st.composite
def documents(draw):
    """A header, a vertex count and well-sized cell lines with any ids,
    now and then a junk line."""
    cubical = draw(st.booleans())
    n = draw(st.integers(0, 10))
    lines = ["cubical-complex v1" if cubical else "simplicial-complex v1",
             "vertices %d" % n]
    for _ in range(draw(st.integers(0, 5))):
        k = draw(st.integers(0, 3))
        size = 1 << k if cubical else k + 1
        ids = draw(st.lists(st.integers(-1, n), min_size=size,
                            max_size=size))
        lines.append("%s %d %s" % ("cube" if cubical else "simplex", k,
                                   " ".join(map(str, ids))))
    if draw(st.integers(0, 4)) == 0:
        lines.insert(draw(st.integers(0, len(lines))), draw(CELL_LINES))
    return "\n".join(lines) + "\n"


class TestLoadersOnAnyText:
    # a loader returns a complex or raises ParseError or NotAComplex
    @staticmethod
    def check(text):
        for loader, kind in [(load_complex, CubicalComplex),
                             (load_simplicial, SimplicialComplex)]:
            try:
                result = loader(text)
            except (ParseError, NotAComplex):
                continue
            assert isinstance(result, kind)

    @settings(max_examples=300, deadline=None)
    @given(st.text(max_size=60))
    def test_any_text(self, text):
        self.check(text)

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(["cubical-complex v1\n", "simplicial-complex v1\n",
                            ""]),
           st.lists(CELL_LINES, max_size=8))
    def test_cell_lines(self, header, lines):
        self.check(header + "\n".join(lines) + "\n")

    @settings(max_examples=300, deadline=None)
    @given(documents())
    def test_documents(self, text):
        self.check(text)
