import itertools
import random

import pytest

from foldcc.core import (CubicalComplex, SimplicialComplex, canonical_cube,
                         components, cube_face, is_flag, link, load_complex,
                         load_simplicial, restrict_complex, serialize_complex,
                         serialize_simplicial, simplicial_isomorphic,
                         validate_fcc)
from foldcc.errors import NotAComplex, NotHomogeneous, ParseError, UnknownVertex
from foldcc.folding import find_folding
from foldcc.generators import cycle_graph, standard_sphere, torus_grid

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
