import itertools
import random
import tracemalloc
from functools import cached_property

import pytest
from hypothesis import given, settings, strategies as st

from foldcc import core
from foldcc.core import (CubicalComplex, DisjointSet, SimplicialComplex,
                         _face_closure, _flag_witness, canonical_cube,
                         canonical_frame, components,
                         is_flag, link, load_complex, load_simplicial,
                         restrict_complex, serialize_complex,
                         serialize_simplicial, simplicial_isomorphic,
                         spanning_forest_labels, validate_fcc)
from foldcc.errors import NotAComplex, NotHomogeneous, ParseError, UnknownVertex
from foldcc.decomposition import graph_of_spaces
from foldcc.folding import NotFoldable, coloring_from, find_folding
from foldcc.generators import (cycle_graph, davis_X, hemispherex, product,
                               standard_sphere, torus_grid)
from foldcc.rank import detect_rank3

from helpers import (assert_incidence, assert_same_complex,
                     brute_force_nonspanning_clique, cube_face,
                     recomputed_incidence, reference_face_closure,
                     reference_diagonal_scan, reference_flag_witness,
                     reference_restrict, relabelled, vertex_set_map)

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
        # a bare lookup in the shared vertex ids would turn -1 into the
        # last vertex
        for corner in (5, 2, -1):
            with pytest.raises(NotAComplex, match="^corner %d out of range$"
                               % corner):
                load_complex("cubical-complex v1\nvertices 2\n"
                             "cube 1 0 %d\n" % corner)

    def test_corners_share_one_int_per_vertex(self):
        # ints above 256 are not shared by the parser; the loader maps
        # every corner onto one object per vertex id
        cplx = load_complex(serialize_complex(torus_grid((8, 8, 8))))
        seen = {}
        for level in cplx.cubes[1:]:
            for cube in level:
                for v in cube:
                    assert seen.setdefault(v, v) is v
        assert len(seen) == 512

    def test_loading_is_deterministic(self):
        text = serialize_complex(torus_grid((4, 4)))
        assert load_complex(text) == load_complex(text)

    def test_loading_xh_keeps_no_per_cube_map(self, hemispherex_meta):
        # what X(H) holds once loaded: its cubes and face table, 11 MiB;
        # an eager per-cube table such as a vertex-set map adds 26 MiB
        text = serialize_complex(hemispherex_meta[1].complex)
        tracemalloc.start()
        try:
            cplx = load_complex(text)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert cplx.n_cubes(3) == 10240
        assert held < 20 << 20

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

    def test_frame_names_the_faces(self):
        # canonical face along axis t, side s = input face along axes[t],
        # side s ^ bit axes[t] of p0
        r = random.Random(5)
        for _ in range(300):
            cube = tuple(r.sample(range(40), 1 << r.randrange(1, 5)))
            p0, axes = canonical_frame(cube)
            canon = canonical_cube(cube)
            assert canon[0] == cube[p0] == min(cube)
            for t, a in enumerate(axes):
                for side in (0, 1):
                    assert set(cube_face(canon, t, side)) == set(
                        cube_face(cube, a, side ^ (p0 >> a & 1)))

    def test_every_order_of_a_square_or_an_edge(self):
        # the shortcuts for 2 and 4 corners, on every corner order, not
        # only those of one square
        r = random.Random(6)
        for _ in range(30):
            square = r.sample(range(40), 4)
            for corners in itertools.permutations(square):
                assert canonical_cube(corners) == symmetry_minimum(corners)
            for corners in itertools.permutations(square[:2]):
                assert canonical_cube(corners) == symmetry_minimum(corners)

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
        _, cofaces, _ = recomputed_incidence(cplx)
        for k, level in enumerate(cofaces):
            assert cplx._coface_counts(k) == [len(c) for c in level]

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

    def test_neighbors_refuse_unknown_vertices(self):
        # -1 would index the last vertex's row, N would index past the end
        for cx in (torus_grid((4, 4)), standard_sphere(2)):
            for v in (-1, cx.vertex_count):
                with pytest.raises(UnknownVertex):
                    cx.neighbors(v)

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

    def test_a_not_foldable_result_passed_as_folding(self):
        cplx = torus_grid((5, 4))
        result = find_folding(cplx)
        assert isinstance(result, NotFoldable)
        report = validate_fcc(cplx, folding=result)
        assert not report.foldable and not report.is_fcc
        assert report.fold_witness is result
        assert report == validate_fcc(cplx)

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


def per_link_flag_witness(cplx):
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
        assert _flag_witness(cplx) == per_link_flag_witness(cplx)

    def test_fails_where_a_top_cube_is_missing(self):
        # a 3-cube's corner link is a filled triangle; without the cube it
        # is hollow
        base = torus_grid((4, 4, 4))
        cubes = [base.cubes[k][i] for k, i in base.maximal_cubes()]
        cplx = CubicalComplex.from_maximal_cubes(base.vertex_count, cubes[1:])
        assert _flag_witness(cplx) == per_link_flag_witness(cplx)
        assert _flag_witness(cplx)[0] == cubes[0][0]

    def test_empty_triangle(self):
        cplx = empty_triangle_complex()
        assert _flag_witness(cplx) == per_link_flag_witness(cplx) \
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
        assert _flag_witness(cplx) == per_link_flag_witness(cplx)
        assert 0 in built
        assert built == sorted(built)

    def test_validate_reports_the_witness(self):
        report = validate_fcc(empty_triangle_complex())
        assert (report.flag_links, report.flag_witness) == \
            (False, (0, (1, 2, 3)))


def closed_stars(cplx, seeds):
    """The face-closed set of cubes that meet one of the `seeds`."""
    refs = set()
    stack = [(k, i) for v in seeds for k in range(cplx.dim + 1)
             for i, _ in cplx.star(v)[k]]
    while stack:
        ref = stack.pop()
        if ref not in refs:
            refs.add(ref)
            stack.extend(cplx.faces(*ref))
    return refs


class TestRestrictComplex:
    """Pieces reindex the parent's face table; the reference builds them
    through face closure, as the decomposition used to."""

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(FLAG_BASES), st.randoms(use_true_random=False),
           st.data())
    def test_matches_the_closure_reference(self, base, rng, data):
        cplx = relabelled(base, rng)
        seeds = data.draw(st.sets(st.integers(0, cplx.vertex_count - 1),
                                  min_size=1, max_size=4))
        refs = sorted(closed_stars(cplx, seeds))
        rng.shuffle(refs)
        got, want = restrict_complex(cplx, refs), reference_restrict(cplx, refs)
        assert_same_complex(got.complex, want.complex)
        assert got.to_parent == want.to_parent
        assert list(got.vertex_index.items()) == list(want.vertex_index.items())
        assert_incidence(got.complex)

    def test_a_set_that_is_not_face_closed_is_refused(self):
        square = CubicalComplex.from_maximal_cubes(4, [(0, 1, 2, 3)])
        refs = [(0, v) for v in range(4)] + [(1, 0), (1, 1), (1, 2), (2, 0)]
        with pytest.raises(NotAComplex, match="misses the face") as info:
            restrict_complex(square, refs)
        assert info.value.detail == ((2, 3),)
        # an edge whose end is not listed
        with pytest.raises(NotAComplex) as info:
            restrict_complex(square, [(0, 0), (1, 0)])
        assert info.value.detail == ((1,),)

    def test_empty_set(self):
        piece = restrict_complex(torus_grid((4, 4)), [])
        assert piece.complex.cell_counts() == (0,)
        assert piece.to_parent == () and piece.vertex_index == {}


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


def diagonal_clash(check, cplx):
    """(text, detail) of the NotAComplex that `check(cplx)` raises, or None."""
    try:
        check(cplx)
    except NotAComplex as exc:
        return str(exc), exc.detail
    return None


def agrees_with_reference(n, cubes):
    """The diagonal test rejects the closure of `cubes` iff the pairwise
    scan does, and names the same pair of cubes as the dict scan it
    replaced; a soup whose closure fails for another reason is skipped.
    Returns whether the soup broke the axiom."""
    try:
        cplx = CubicalComplex.from_maximal_cubes(n, cubes,
                                                 check_intersections=False)
    except NotAComplex:
        return None
    expect = reference_intersections_ok(cplx)
    clash = diagonal_clash(CubicalComplex._check_intersections, cplx)
    assert clash == diagonal_clash(reference_diagonal_scan, cplx)
    if clash is not None:
        assert clash[0] == "cube intersection is not a face"
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


def same_closure(n, cubes):
    """_face_closure gives the reference's cubes and face table, its cubes
    carry the reference's vertex-set map, or it raises the same exception
    type with the same text.  Returns the complex, or None."""
    try:
        want = reference_face_closure(n, cubes)
    except NotAComplex as exc:
        with pytest.raises(NotAComplex) as info:
            _face_closure(n, cubes)
        assert (type(info.value), str(info.value)) == (type(exc), str(exc))
        return None
    got = _face_closure(n, cubes)
    assert got[0] == want[0]
    assert got[1] == want[2]
    cplx = CubicalComplex(n, *got)
    assert vertex_set_map(cplx) == want[1]
    return cplx


def same_flag_witness(cplx):
    witness = _flag_witness(cplx)
    assert witness == reference_flag_witness(cplx)
    return witness


def shuffled_corners(cube, rng):
    """The same cube under a random symmetry: axes permuted, sides flipped."""
    k = (len(cube) - 1).bit_length()
    perm, mask = rng.sample(range(k), k), rng.randrange(1 << k)
    return tuple(cube[sum((((b >> j) ^ (mask >> j)) & 1) << perm[j]
                          for j in range(k))] for b in range(1 << k))


class TestAgainstTheReferences:
    """The closure keyed by canonical tuples and the flag count on bitmasks
    against the frozenset closure and the set-based count they replaced."""

    @settings(max_examples=300, deadline=None)
    @given(cube_soups())
    def test_soups(self, soup):
        cplx = same_closure(*soup)
        if cplx is not None:
            same_flag_witness(cplx)

    @settings(max_examples=60, deadline=None)
    @given(glued_complexes())
    def test_glued_corpus_complexes(self, soup):
        cplx = same_closure(*soup)
        if cplx is not None:
            same_flag_witness(cplx)

    def test_relabelled_corpus(self, corpus_all):
        # X(H) itself, not its three twice larger covers, to keep this short
        rng = random.Random(9)
        for base in [e.complex for e in corpus_all]:
            if base.n_cubes(base.dim) > 10240:
                continue
            perm = rng.sample(range(base.vertex_count), base.vertex_count)
            cubes = [shuffled_corners(tuple(perm[v] for v in base.cubes[k][i]),
                                      rng) for k, i in base.maximal_cubes()]
            rng.shuffle(cubes)
            cplx = same_closure(base.vertex_count, cubes)
            assert cplx.cell_counts() == base.cell_counts()
            assert same_flag_witness(cplx) is None

    def test_relabelled_four_torus(self):
        # the soups stop at dimension 3; here side-1 faces are 3-cubes,
        # which canonical_cube reorders by its general branch
        rng = random.Random(12)
        base = torus_grid((4, 4, 4, 4))
        perm = rng.sample(range(base.vertex_count), base.vertex_count)
        cubes = [shuffled_corners(tuple(perm[v] for v in base.cubes[k][i]),
                                  rng) for k, i in base.maximal_cubes()]
        rng.shuffle(cubes)
        cplx = same_closure(base.vertex_count, cubes)
        assert cplx.cell_counts() == base.cell_counts()

    def test_torus_minus_a_top_cube(self):
        rng = random.Random(10)
        base = torus_grid((6, 6, 6))
        tops = [base.cubes[k][i] for k, i in base.maximal_cubes()]
        for drop in rng.sample(range(len(tops)), 4):
            perm = rng.sample(range(base.vertex_count), base.vertex_count)
            cubes = [tuple(perm[v] for v in c)
                     for j, c in enumerate(tops) if j != drop]
            cplx = same_closure(base.vertex_count, cubes)
            # every corner of the missing cube has a hollow triangle link
            assert same_flag_witness(cplx)[0] == min(perm[v]
                                                     for v in tops[drop])

    def test_flag_complexes_build_no_link(self, monkeypatch):
        # the count alone clears every vertex of a flag complex
        built = []
        monkeypatch.setattr(core, "link", lambda c, v: built.append(v)
                            or link(c, v))
        for base in FLAG_BASES:
            assert _flag_witness(relabelled(base, random.Random(11))) is None
        assert built == []

    def test_non_flag_corner(self):
        # three squares round a corner, with no cube (foldbench's reject
        # workload validates it)
        cplx = same_closure(7, [(0, 1, 2, 4), (0, 1, 3, 5), (0, 2, 3, 6)])
        assert same_flag_witness(cplx) == (0, (1, 2, 3))

    @pytest.mark.parametrize("n, cubes, text", [
        (4, [(0, 1, 2)], "cube with 3 corners"),
        (4, [(0, 1, 2, 2)], "cube has repeated corners"),
        (2, [(0, 5)], "corner 5 out of range"),
        # the listed pair is found before the later bad corner count
        (4, [(0, 1, 2, 3), (0, 1, 3, 2), (0, 1, 2)],
         "two distinct cubes on the same vertex set"),
        # a listed square on a face of a listed 3-cube, in another order
        (8, [tuple(range(8)), (0, 1, 3, 2)],
         "two distinct cubes on the same vertex set"),
        # two 3-cubes whose faces on {0, 1, 2, 3} differ
        (12, [tuple(range(8)), (0, 1, 3, 2, 8, 9, 10, 11)],
         "two distinct cubes on the same vertex set"),
        (4, [()], "cube with 0 corners"),
        # two 4-cubes whose faces on {0, ..., 7} differ, while no two of
        # their squares share a vertex set: only level 3 clashes
        (24, [tuple(range(16)),
              (0, 1, 2, 4, 3, 5, 6, 7) + tuple(range(16, 24))],
         "two distinct cubes on the same vertex set"),
    ])
    def test_hostile_inputs(self, n, cubes, text):
        with pytest.raises(NotAComplex, match="^%s$" % text):
            _face_closure(n, cubes)
        assert same_closure(n, cubes) is None


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
        cplx = torus_grid((4, 4))
        parts = components(cplx)
        assert len(parts) == 1

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
def multigraphs(draw):
    """(n, edges): loops and parallel edges allowed."""
    n = draw(st.integers(1, 9))
    vertex = st.integers(0, n - 1)
    return n, draw(st.lists(st.tuples(vertex, vertex), max_size=20))


@st.composite
def weighted_graphs(draw, max_weight=1):
    """(1-dimensional complex, weight per edge) on a drawn multigraph:
    loops are dropped and parallel edges merged, as no complex has either."""
    n, edges = draw(multigraphs())
    cplx = CubicalComplex.from_maximal_cubes(
        n, sorted({(min(e), max(e)) for e in edges if e[0] != e[1]}))
    weights = draw(st.lists(st.integers(0, max_weight),
                            min_size=cplx.n_cubes(1),
                            max_size=cplx.n_cubes(1)))
    return cplx, weights


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
        n, edges = graph
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
    @given(weighted_graphs(max_weight=15))
    def test_labels_follow_the_tree_edges(self, graph):
        cplx, weights = graph
        n, edges = cplx.vertex_count, cplx.cubes[1] if cplx.dim >= 1 else ()
        label, off_tree = spanning_forest_labels(cplx, weights)
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
    @given(weighted_graphs())
    def test_off_tree_mismatch_iff_odd_cycle(self, graph):
        cplx, weights = graph
        n, edges = cplx.vertex_count, cplx.cubes[1] if cplx.dim >= 1 else ()
        label, off_tree = spanning_forest_labels(cplx, weights)
        mismatch = any(label[edges[e][0]] ^ label[edges[e][1]] != weights[e]
                       for e in off_tree)
        two_colorable = any(
            all((mask >> u & 1) ^ (mask >> w & 1) == weights[e]
                for e, (u, w) in enumerate(edges))
            for mask in range(1 << n))
        assert mismatch == (not two_colorable)


class TestIncidenceTable:
    @pytest.fixture
    def built(self, monkeypatch):
        # every complex whose incidence table is built, once per build
        out = []
        build = CubicalComplex.__dict__["_incidence"].func

        def counted(cplx):
            out.append(cplx)
            return build(cplx)

        table = cached_property(counted)
        table.__set_name__(CubicalComplex, "_incidence")
        monkeypatch.setattr(CubicalComplex, "_incidence", table)
        return out

    def test_one_build_per_complex(self, built):
        # the folding, its check, the rank steps and every graph of spaces
        # share the parent's table
        cplx = torus_grid((4, 4, 4))
        folding = find_folding(cplx)
        assert validate_fcc(cplx, folding=folding).is_fcc
        detect_rank3(cplx, folding=folding, assume_fcc=True)
        coloring = coloring_from(folding)
        for color in range(1, folding.n + 1):
            graph_of_spaces(cplx, coloring, color)
        assert [c for c in built if c is cplx] == [cplx]

    def test_parity_cycle_reads_the_folding_search_table(self, built):
        odd = torus_grid((5, 4, 4))
        result = find_folding(odd)
        assert [c for c in built if c is odd] == [odd]
        assert len(result.cycle) == 5
        assert [c for c in built if c is odd] == [odd]


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
