import pytest

from foldcc.core import (CubicalComplex, SimplicialComplex, is_flag, link,
                         load_complex, serialize_complex,
                         simplicial_isomorphic, validate_fcc)
from foldcc.errors import BadDimension, BadDims, BadSpec, TooLarge
from foldcc.folding import NotFoldable, fold_simplicial
from foldcc.generators import (cycle_graph, davis_X, davis_Y, equator_vertices,
                               hemispherex, origin_direction, product,
                               simplicial_graph_to_cubical, standard_sphere,
                               subdivide_half, torus_grid)

from helpers import (assert_same_complex, davis_face_count,
                     reference_origin_direction, reference_subdivide_half)


class TestStandardSphere:
    def test_circle(self):
        K = standard_sphere(1)
        assert (K.n_simplices(0), K.n_simplices(1)) == (4, 4)
        for v in range(4):
            assert len(K.neighbors(v)) == 2

    def test_octahedron_counts(self):
        K = standard_sphere(2)
        assert (K.n_simplices(0), K.n_simplices(1), K.n_simplices(2)) == (6, 12, 8)

    def test_equators_are_lower_spheres(self):
        for n in (1, 2, 3):
            K = standard_sphere(n)
            assert K.is_dimensionally_homogeneous()
            assert K.has_no_boundary()
            equators = [equator_vertices(n, i) for i in range(1, n + 2)]
            assert len(equators) == n + 1
            for eq in equators:
                assert len(eq) == 2 * n

    def test_bad_dimension(self):
        with pytest.raises(BadDimension):
            standard_sphere(0)


class TestHemispherex:
    def test_octahedral_counts(self):
        K = hemispherex(2, (1, 1, 1)).complex
        assert (K.n_simplices(0), K.n_simplices(1), K.n_simplices(2)) == (9, 24, 20)

    def test_double_arc_graph(self):
        hx = hemispherex(1, (1, 1), allow_dim1=True)
        K = hx.complex
        assert K.vertex_count == 6
        assert K.n_simplices(1) == 8
        assert len(hx.poles) == 2
        for pole, eq in hx.poles:
            assert len(K.neighbors(pole)) == 2

    def test_corollary_hypotheses(self):
        # flag, dimensionally homogeneous, no boundary, foldable
        for n, mult in [(1, (1, 1)), (1, (2, 1)), (2, (1, 1, 1)),
                        (2, (2, 2, 2)), (3, (1, 1, 1, 1))]:
            K = hemispherex(n, mult, allow_dim1=True).complex
            assert is_flag(K)[0]
            assert K.is_dimensionally_homogeneous()
            assert K.has_no_boundary()
            assert not isinstance(fold_simplicial(K), NotFoldable)

    def test_n1_needs_extension_flag(self):
        with pytest.raises(BadSpec):
            hemispherex(1, (1, 1))

    def test_bad_multiplicities(self):
        with pytest.raises(BadSpec):
            hemispherex(2, (1, 1))
        with pytest.raises(BadSpec):
            hemispherex(2, (1, 0, 1))


class TestDavisY:
    def test_single_edge_gives_square(self):
        K = simplicial_graph_to_cubical  # noqa: F841  (keep import used)
        edge = SimplicialComplex.from_maximal(2, [(0, 1)])
        Y = davis_Y(edge)
        assert Y.cell_counts() == (4, 4, 1)

    def test_double_arc_counts(self):
        K = hemispherex(1, (1, 1), allow_dim1=True).complex
        Y = davis_Y(K)
        assert Y.cell_counts() == (64, 192, 128)
        assert Y.euler_characteristic() == 0

    def test_face_count_formula(self):
        for K in (hemispherex(1, (1, 1), allow_dim1=True).complex,
                  standard_sphere(1),
                  hemispherex(2, (1, 1, 1)).complex):
            Y = davis_Y(K)
            for k in range(Y.dim + 1):
                assert Y.n_cubes(k) == davis_face_count(K, k)

    def test_every_link_isomorphic_to_K(self):
        K = hemispherex(1, (1, 1), allow_dim1=True).complex
        Y = davis_Y(K)
        for v in range(0, Y.vertex_count, 7):
            assert simplicial_isomorphic(link(Y, v).complex, K) is not None

    def test_generator_cap(self):
        with pytest.raises(TooLarge):
            davis_Y(standard_sphere(2), max_generators=5)


class TestSubdivision:
    def test_square_subdivides_into_four(self):
        square = CubicalComplex.from_maximal_cubes(4, [(0, 1, 2, 3)])
        sub = subdivide_half(square)
        assert sub.complex.cell_counts() == (9, 12, 4)
        # original vertices keep their ids
        assert sub.carrier_of[0] == (0, 0)

    def test_double_arc_quotient_counts(self):
        K = hemispherex(1, (1, 1), allow_dim1=True).complex
        X = davis_X(K).complex
        assert X.cell_counts() == (384, 896, 512)
        assert X.euler_characteristic() == 0

    def test_octahedral_hemispherex_top_count(self, hemispherex_meta):
        X = hemispherex_meta[1].complex
        assert X.n_cubes(3) == 10240
        assert X.cell_counts() == (7168, 24576, 27648, 10240)

    def test_euler_characteristic_preserved(self):
        for Y in (torus_grid((4, 4)),
                  davis_Y(standard_sphere(1))):
            X = subdivide_half(Y).complex
            assert X.euler_characteristic() == Y.euler_characteristic()

    def test_subdivision_cell_identity(self):
        # #k-cubes of the subdivision = sum_j #j(Y) * C(j,k) * 2^k
        from math import comb
        Y = torus_grid((4, 4, 4))
        X = subdivide_half(Y).complex
        for k in range(X.dim + 1):
            want = sum(Y.n_cubes(j) * comb(j, k) * (1 << k)
                       for j in range(k, Y.dim + 1))
            assert X.n_cubes(k) == want

    def test_origin_direction_lookup(self, double_arc_meta):
        hx, sub = double_arc_meta
        X = sub.complex
        for s in range(hx.complex.vertex_count):
            w = origin_direction(sub, s)
            assert w in X.neighbors(0)

    def test_matches_the_vertex_set_reference(self):
        # the octahedron, the double arc, and the hexagon joined with S^0
        hexagon_join = SimplicialComplex.from_maximal(
            8, [tuple(sorted((i, (i + 1) % 6, a)))
                for i in range(6) for a in (6, 7)])
        for K in (standard_sphere(2),
                  hemispherex(1, (1, 1), allow_dim1=True).complex,
                  hexagon_join):
            Y = davis_Y(K)
            got, want = subdivide_half(Y), reference_subdivide_half(Y)
            assert_same_complex(got.complex, want.complex)
            assert got.vertex_for == want.vertex_for
            assert got.carrier_of == want.carrier_of
            for s in range(K.vertex_count):
                assert (origin_direction(got, s)
                        == reference_origin_direction(want, s))


class TestTorusAndProduct:
    def test_grid_counts(self):
        assert torus_grid((4, 4)).cell_counts() == (16, 32, 16)
        assert torus_grid((4, 4, 4)).cell_counts() == (64, 192, 192, 64)

    def test_odd_grid_is_valid_complex(self):
        cplx = torus_grid((5, 4))
        assert validate_fcc(cplx).no_boundary

    def test_bad_dims(self):
        with pytest.raises(BadDims):
            torus_grid((2, 4))
        with pytest.raises(BadDims):
            torus_grid(())

    def test_square_times_edge_is_a_cube(self):
        square = CubicalComplex.from_maximal_cubes(4, [(0, 1, 2, 3)])
        edge = CubicalComplex.from_maximal_cubes(2, [(0, 1)])
        prod = product(square, edge)
        assert prod.cell_counts() == (8, 12, 6, 1)

    def test_product_vertex_count(self, double_arc_meta):
        X = double_arc_meta[1].complex
        prod = product(X, cycle_graph(4))
        assert prod.vertex_count == 384 * 4

    def test_torus_is_product_of_cycles(self):
        assert product(cycle_graph(4), cycle_graph(4)) == torus_grid((4, 4))

    def test_products_of_fccs_are_fccs(self):
        prod = product(torus_grid((4, 4)), cycle_graph(4))
        assert validate_fcc(prod).is_fcc


class TestGeneratedCorpusIsValid:
    def test_every_corpus_entry_passed_validation(self, corpus_all):
        # entries only enter the corpus after validate_fcc (see conftest);
        # spot-check the reports again on the small ones
        for entry in corpus_all:
            if entry.complex.vertex_count <= 512:
                assert validate_fcc(entry.complex, folding=entry.folding).is_fcc

    def test_serialization_round_trip_on_generated(self):
        for cplx in (torus_grid((4, 4, 4)),
                     davis_X(hemispherex(1, (1, 1), allow_dim1=True).complex).complex):
            text = serialize_complex(cplx)
            assert load_complex(text) == cplx
