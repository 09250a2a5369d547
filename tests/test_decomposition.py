import itertools
import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from foldcc import decomposition
from foldcc.core import (CubicalComplex, canonical_frame, is_flag, link,
                         validate_fcc)
from foldcc.decomposition import (count_identity_holds, direction_parity,
                                  graph_of_spaces, hyperplanes, is_covering,
                                  subcomplex_XT)
from foldcc.errors import BadColorSet, NotFCC
from foldcc.folding import EdgeColoring, coloring_from, find_folding
from foldcc.generators import (cycle_graph, davis_X, hemispherex, product,
                               torus_grid)

from helpers import (assert_incidence, assert_local_index,
                     assert_same_complex, assert_vertex_set_lookups,
                     midcube_corners, reference_color_axis,
                     reference_cube_map, reference_hyperplanes,
                     reference_restrict, reference_subcomplex_XT,
                     relabelled)


def colored(cplx):
    return cplx, coloring_from(find_folding(cplx))


class TestSubcomplexXT:
    def test_torus_single_color_gives_four_cycles(self, torus44):
        xt = subcomplex_XT(torus44.complex, torus44.coloring, {1})
        parts = xt.components()
        assert len(parts) == 4
        for piece in parts:
            assert piece.complex.cell_counts() == (4, 4)

    def test_full_color_set_gives_everything(self, torus44):
        xt = subcomplex_XT(torus44.complex, torus44.coloring, {1, 2})
        counts = {}
        for k, i in xt.refs:
            counts[k] = counts.get(k, 0) + 1
        assert counts == {0: 16, 1: 32, 2: 16}

    def test_single_square(self):
        cplx, coloring = colored(CubicalComplex.from_maximal_cubes(
            4, [(0, 1, 2, 3)]))
        xt = subcomplex_XT(cplx, coloring, {1})
        counts = {}
        for k, i in xt.refs:
            counts[k] = counts.get(k, 0) + 1
        assert counts == {0: 4, 1: 2}

    def test_bad_color_set(self, torus44):
        with pytest.raises(BadColorSet):
            subcomplex_XT(torus44.complex, torus44.coloring, set())
        with pytest.raises(BadColorSet):
            subcomplex_XT(torus44.complex, torus44.coloring, {5})

    def test_components_round_trip(self, torus44):
        from foldcc.core import components
        xt = subcomplex_XT(torus44.complex, torus44.coloring, {1})
        for piece in xt.components():
            again = components(piece.complex)
            assert len(again) == 1
            assert again[0].complex == piece.complex


class TestHyperplanes:
    def test_torus_hyperplanes_are_circles(self, torus44):
        comps = hyperplanes(torus44.complex, torus44.coloring, 1)
        assert len(comps) == 4
        for h in comps:
            assert h.complex.cell_counts() == (4, 4)

    def test_single_cube_midcubes(self):
        cplx, coloring = colored(CubicalComplex.from_maximal_cubes(
            8, [tuple(range(8))]))
        for i in (1, 2, 3):
            comps = hyperplanes(cplx, coloring, i)
            assert len(comps) == 1
            assert comps[0].complex.cell_counts() == (4, 4, 1)

    def test_hemispherex_edge_spaces_are_fccs(self, x_hemispherex):
        comps = hyperplanes(x_hemispherex.complex, x_hemispherex.coloring, 1)
        for h in comps:
            report = validate_fcc(h.complex)
            assert report.is_fcc
            assert report.dimension == 2

    def test_carriers_point_to_parents(self, torus44):
        comps = hyperplanes(torus44.complex, torus44.coloring, 2)
        for h in comps:
            for (k, i), (pk, pi) in h.carrier.items():
                assert pk == k + 1
                cube = torus44.complex.cubes[pk][pi]
                if k == 0:
                    e = h.edge_of_vertex[h.complex.cubes[0][i][0]]
                    assert torus44.complex.cubes[1][e] == cube


class TestCountIdentity:
    def test_torus_and_double_arc(self, torus44, x_double_arc):
        for entry in (torus44, x_double_arc):
            for color in range(1, entry.coloring.n + 1):
                assert count_identity_holds(entry.complex, entry.coloring, color)


class TestFullSubcomplexProperty:
    def test_induced_links_are_full(self, torus44, x_double_arc):
        # a link simplex whose directions all lie in the component lies in
        # the component's induced link (local convexity witness)
        for entry in (torus44, x_double_arc):
            cplx, coloring = entry.complex, entry.coloring
            for T in ({1}, {2}):
                xt = subcomplex_XT(cplx, coloring, T)
                included = set(xt.refs)
                for v in range(cplx.vertex_count):
                    star = cplx.star(v)
                    for k in range(1, cplx.dim + 1):
                        for i, pos in star[k]:
                            cube = cplx.cubes[k][i]
                            dirs_in = all(
                                coloring.of_pair(v, cube[pos ^ (1 << ax)]) in T
                                for ax in range(k))
                            assert dirs_in == ((k, i) in included)


class TestGraphOfSpaces:
    def test_torus_base_graph_is_a_cycle(self, torus44):
        gos = graph_of_spaces(torus44.complex, torus44.coloring, 1)
        assert len(gos.vertex_spaces) == 4
        assert len(gos.base_edges) == 4
        assert gos.base_graph_connected()
        degree = {}
        for b0, b1 in gos.base_edges:
            degree[b0] = degree.get(b0, 0) + 1
            degree[b1] = degree.get(b1, 0) + 1
        assert all(d == 2 for d in degree.values())

    def test_loops_when_single_vertex_space(self, x_double_arc):
        cplx, coloring = x_double_arc.complex, x_double_arc.coloring
        for color in (1, 2):
            gos = graph_of_spaces(cplx, coloring, color)
            if len(gos.vertex_spaces) == 1:
                assert all(b0 == b1 == 0 for b0, b1 in gos.base_edges)
                break
        else:
            pytest.skip("no single-component X_T in this complex")

    def test_vertex_and_edge_spaces_are_lower_fccs(self, torus44):
        for color in (1, 2):
            gos = graph_of_spaces(torus44.complex, torus44.coloring, color)
            for piece in gos.vertex_spaces:
                report = validate_fcc(piece.complex)
                assert report.is_fcc and report.dimension == 1
            for h in gos.edge_spaces:
                report = validate_fcc(h.complex)
                assert report.is_fcc and report.dimension == 1

    def test_dimension_one_rejected(self):
        cplx, coloring = colored(cycle_graph(4))
        with pytest.raises(NotFCC):
            graph_of_spaces(cplx, coloring, 1)

    def test_attaching_maps_locally_injective(self, torus44, x_double_arc):
        for entry in (torus44, x_double_arc):
            for color in range(1, entry.coloring.n + 1):
                gos = graph_of_spaces(entry.complex, entry.coloring, color)
                for g0, g1 in gos.attaching:
                    for g in (g0, g1):
                        _assert_locally_injective(g)

    def test_cube_maps_land_on_cubes(self, torus44):
        gos = graph_of_spaces(torus44.complex, torus44.coloring, 1)
        for g0, g1 in gos.attaching:
            for g in (g0, g1):
                B = g.vertex_space.complex
                for (k, i), ref in g.cube_map.items():
                    assert ref is not None
                    bk, bi = ref
                    assert bk == k
                    assert 0 <= bi < B.n_cubes(bk)


def _assert_locally_injective(g):
    Y = g.edge_space.complex
    for w in range(Y.vertex_count):
        star = Y.star(w)
        for k in range(1, Y.dim + 1):
            images = [g.cube_map[(k, i)] for i, _ in star[k]]
            assert len(set(images)) == len(images)


class TestIsCovering:
    def test_torus_maps_are_coverings(self, torus44):
        for color in (1, 2):
            gos = graph_of_spaces(torus44.complex, torus44.coloring, color)
            for g0, g1 in gos.attaching:
                assert is_covering(g0).is_covering
                assert is_covering(g1).is_covering

    def test_hemispherex_has_non_covering_per_color(self, x_hemispherex):
        for color in (1, 2, 3):
            gos = graph_of_spaces(x_hemispherex.complex,
                                  x_hemispherex.coloring, color)
            bad = [g for g0, g1 in gos.attaching for g in (g0, g1)
                   if not is_covering(g).is_covering]
            assert bad
            report = is_covering(bad[0])
            w, (v, u) = report.vertex, report.missed_edge
            # the witness names a missed edge in the vertex space
            B = bad[0].vertex_space.complex
            assert u in B.neighbors(v)

    def test_cylinder_attachment_is_a_covering(self):
        # 1-cube-thick product: C4 x [0,1]; the edge space is a circle
        # mapping identically onto each end
        edge = CubicalComplex.from_maximal_cubes(2, [(0, 1)])
        cyl, coloring = colored(product(cycle_graph(4), edge))
        circle_color = coloring.of_pair(0, 2)  # a cycle-direction edge
        rung_color = 3 - circle_color
        gos = graph_of_spaces(cyl, coloring, rung_color)
        assert len(gos.vertex_spaces) == 2
        assert len(gos.edge_spaces) == 1
        for g0, g1 in gos.attaching:
            assert is_covering(g0).is_covering
            assert is_covering(g1).is_covering

    def test_covering_witness_names_pi_separated_directions(self, x_hemispherex):
        from foldcc.geodesic import DistanceClass, distance_class
        cplx = x_hemispherex.complex
        gos = graph_of_spaces(cplx, x_hemispherex.coloring, 1)
        for g0, g1 in gos.attaching:
            for g in (g0, g1):
                report = is_covering(g)
                if report.is_covering or report.missed_edge is None:
                    continue
                w = report.vertex
                v_local, u_local = report.missed_edge
                v = g.vertex_space.to_parent[v_local]
                u = g.vertex_space.to_parent[u_local]
                # the hyperplane direction at v: the endpoint across the
                # color-i edge that w names
                e_parent = g.edge_space.edge_of_vertex[w]
                a, b = cplx.cubes[1][e_parent]
                across = b if a == v else a
                assert distance_class(cplx, v, u, across) in (
                    DistanceClass.PI, DistanceClass.MORE_THAN_PI)
                return
        pytest.skip("no witness with a missed edge found")


class TestDirectionParity:
    def test_rejects_non_folding_coloring(self, torus44):
        cplx, coloring = torus44.complex, torus44.coloring
        colors = list(coloring.colors)
        colors[0] = 3 - colors[0]  # swap one edge's color
        broken = EdgeColoring(cplx, 2, tuple(colors))
        with pytest.raises(NotFCC):
            direction_parity(cplx, broken, colors[0])


_XDA = davis_X(hemispherex(1, (1, 1), allow_dim1=True).complex).complex
REFERENCE_BASES = [cycle_graph(6), torus_grid((4, 4)), torus_grid((4, 6)),
                   torus_grid((4, 4, 4)), _XDA, product(_XDA, cycle_graph(4))]


def assert_matches_the_references(cplx, coloring):
    """X_T and its vertex spaces for every T, hyperplane components and
    attaching maps for every color, against the per-cube X_T and the
    builds through face closure."""
    n = coloring.n
    for r in range(1, n + 1):
        for T in itertools.combinations(range(1, n + 1), r):
            sub = subcomplex_XT(cplx, coloring, T)
            assert sub.refs == reference_subcomplex_XT(cplx, coloring, T).refs
            got = sub.components()
            with mock.patch.object(decomposition, "restrict_complex",
                                   reference_restrict):
                want = sub.components()
            assert len(got) == len(want)
            for piece, ref in zip(got, want):
                assert_same_complex(piece.complex, ref.complex)
                assert piece.to_parent == ref.to_parent
                assert piece.vertex_index == ref.vertex_index
                assert_local_index(cplx, piece)
                assert_incidence(piece.complex)
                assert_vertex_set_lookups(piece.complex)
    for color in range(1, n + 1):
        got = hyperplanes(cplx, coloring, color)
        want = reference_hyperplanes(cplx, coloring, color)
        assert len(got) == len(want)
        for h, ref in zip(got, want):
            assert_same_complex(h.complex, ref.complex)
            assert h.edge_of_vertex == ref.edge_of_vertex
            # insertion order too: levels >= 1 first, then level 0
            assert list(h.carrier.items()) == list(ref.carrier.items())
            assert_incidence(h.complex)
            assert_vertex_set_lookups(h.complex)
        if cplx.dim < 2:
            continue
        gos = graph_of_spaces(cplx, coloring, color)
        parity = direction_parity(cplx, coloring, color)
        for g0, g1 in gos.attaching:
            for g in (g0, g1):
                h, piece = g.edge_space, g.vertex_space
                ends = [cplx.cubes[1][e] for e in h.edge_of_vertex]
                assert g.vertex_map == tuple(
                    piece.vertex_index[u if parity[u] == g.side else w]
                    for u, w in ends)
                assert list(g.cube_map.items()) == list(reference_cube_map(
                    cplx, coloring, color, parity, h, g.side, piece).items())


def assert_frames_read_off_the_carriers(cplx, coloring):
    """Every midcube's frame from its canonical carrier is the frame
    canonical_frame finds: p0 = 0, and the same axes."""
    for color in range(1, coloring.n + 1):
        for k in range(2, cplx.dim + 1):
            for i in range(cplx.n_cubes(k)):
                axis = reference_color_axis(cplx, coloring, k, i, color)
                if axis is not None:
                    corners = midcube_corners(cplx, k, i, axis)
                    assert canonical_frame(corners) == (
                        0, decomposition._midcube_axes(corners))


class TestAgainstTheClosureReferences:
    @settings(max_examples=15, deadline=None)
    @given(st.sampled_from(REFERENCE_BASES),
           st.randoms(use_true_random=False))
    def test_relabelled_corpus_complexes(self, base, rng):
        cplx, coloring = colored(relabelled(base, rng))
        assert_matches_the_references(cplx, coloring)
        assert_frames_read_off_the_carriers(cplx, coloring)

    def test_relabelled_hemispherex(self, x_hemispherex):
        cplx, coloring = colored(relabelled(x_hemispherex.complex,
                                            random.Random(8)))
        assert_matches_the_references(cplx, coloring)
        assert_frames_read_off_the_carriers(cplx, coloring)

    def test_the_decomposition_builds_no_closure(self, torus44, monkeypatch):
        # pieces and hyperplane components reindex the parent's tables
        def refuse(*args, **kwargs):
            raise AssertionError("face closure called")
        monkeypatch.setattr(decomposition.CubicalComplex,
                            "from_maximal_cubes", refuse)
        monkeypatch.setattr("foldcc.core.canonical_cube", refuse)
        monkeypatch.setattr("foldcc.core._face_closure", refuse)
        for color in (1, 2):
            graph_of_spaces(torus44.complex, torus44.coloring, color)
