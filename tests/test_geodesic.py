import pytest
from hypothesis import given, settings, strategies as st

from foldcc import rank
from foldcc.core import CubicalComplex, load_complex
from foldcc.errors import (FoldccError, IsCircle, MismatchedBase, NotClosed,
                           NotSingleClass, PreconditionFailed, UnknownVertex)
from foldcc.folding import coloring_from, find_folding
from foldcc.generators import (cycle_graph, davis_X, hemispherex,
                               origin_direction, product, torus_grid)
from foldcc.geodesic import (DistanceClass, EdgePath, OrientedEdge,
                             _ends, _loop_at, _node, _path, _probe, _turns,
                             build_all_color_geodesic,
                             build_strict_pi_geodesic, distance_class,
                             is_local_geodesic, rank_one_certificate,
                             serialize_path, sim_v_classes,
                             strict_pi_certificate, transfer)

from helpers import (cubes_with_edge, graph_connector, link_graph_distances,
                     perpendicular_set, reference_all_color_geodesic,
                     reference_color_component_edges, reference_cross_pairs,
                     reference_distance_class, reference_link_adj,
                     reference_loop_path, reference_probe_loop,
                     reference_sim_v_classes, reference_step_d_search,
                     reference_strict_pi, reference_strict_pi_geodesic,
                     relabelled)

SQUARE = load_complex("cubical-complex v1\nvertices 4\ncube 2 0 1 2 3\n")


def classify_exact(d):
    if d is None:
        return DistanceClass.MORE_THAN_PI
    return {0: DistanceClass.ZERO, 1: DistanceClass.QUARTER,
            2: DistanceClass.PI}.get(d, DistanceClass.MORE_THAN_PI)


class TestDistanceClass:
    def test_square_corner_is_quarter(self):
        assert distance_class(SQUARE, 0, 1, 2) is DistanceClass.QUARTER

    def test_equal_directions_are_zero(self):
        assert distance_class(SQUARE, 0, 1, 1) is DistanceClass.ZERO

    def test_hemispherex_poles_at_pi(self, hemispherex_meta):
        hx, sub = hemispherex_meta
        X = sub.complex
        dirs = [origin_direction(sub, p) for p in hx.pole_vertices]
        for i in range(len(dirs)):
            for j in range(i + 1, len(dirs)):
                assert distance_class(X, 0, dirs[i], dirs[j]) is DistanceClass.PI

    def test_double_arc_poles_beyond_pi(self, double_arc_meta):
        hx, sub = double_arc_meta
        X = sub.complex
        p1, p2 = (origin_direction(sub, p) for p in hx.pole_vertices)
        assert distance_class(X, 0, p1, p2) is DistanceClass.MORE_THAN_PI
        # the exact 1-dimensional link metric puts them at 3 * pi/2
        exact = link_graph_distances(X, 0)
        assert exact[(p1, p2)] == 3

    def test_symmetry(self, x_double_arc):
        cplx = x_double_arc.complex
        for v in range(0, cplx.vertex_count, 17):
            nbrs = cplx.neighbors(v)
            for a in nbrs:
                for b in nbrs:
                    assert (distance_class(cplx, v, a, b)
                            is distance_class(cplx, v, b, a))

    def test_same_color_never_quarter(self, x_double_arc):
        cplx, coloring = x_double_arc.complex, x_double_arc.coloring
        for v in range(cplx.vertex_count):
            nbrs = cplx.neighbors(v)
            for a in nbrs:
                for b in nbrs:
                    if a < b and coloring.of_pair(v, a) == coloring.of_pair(v, b):
                        assert (distance_class(cplx, v, a, b)
                                is not DistanceClass.QUARTER)

    def test_mismatched_base(self):
        with pytest.raises(MismatchedBase):
            distance_class(SQUARE, 0, 3, 1)

    def test_oracle_agreement_on_double_arc(self, x_double_arc):
        cplx = x_double_arc.complex
        for v in range(cplx.vertex_count):
            exact = link_graph_distances(cplx, v)
            nbrs = cplx.neighbors(v)
            for a in nbrs:
                for b in nbrs:
                    d = exact.get((a, b))
                    assert distance_class(cplx, v, a, b) is classify_exact(d)


def assert_table_matches_sets(cplx, coloring):
    """The direction table's edges and link masks, and the readers that
    test bits, agree with the set-based link table."""
    link_adj = reference_link_adj(cplx)
    for v in range(cplx.vertex_count):
        nbrs, edges, masks = cplx.directions(v)
        assert list(masks) == list(nbrs)
        assert [cplx.cubes[1][e] for e in edges] == [
            (min(v, w), max(v, w)) for w in nbrs]
        for a, mask in masks.items():
            assert {w for j, w in enumerate(nbrs)
                    if mask >> j & 1} == link_adj[v].get(a, set())
            for b in nbrs:
                assert (distance_class(cplx, v, a, b)
                        is reference_distance_class(link_adj, v, a, b))
        assert (sim_v_classes(cplx, coloring, v)
                == reference_sim_v_classes(cplx, coloring, link_adj, v))
    assert (rank._cross_pairs(cplx, coloring)
            == reference_cross_pairs(cplx, coloring, link_adj))


TABLE_BASES = [torus_grid((4, 4)), torus_grid((4, 4, 4)), cycle_graph(6),
               davis_X(hemispherex(1, (1, 1), allow_dim1=True).complex).complex]


class TestDirectionTable:
    def test_corpus_against_the_sets(self, corpus_all):
        # X(H) itself, not its three twice larger covers, to keep this short
        for entry in corpus_all:
            if entry.complex.n_cubes(entry.dim) <= 10240:
                assert_table_matches_sets(entry.complex, entry.coloring)

    @settings(max_examples=20, deadline=None)
    @given(st.sampled_from(TABLE_BASES), st.randoms(use_true_random=False))
    def test_relabelled_bases_against_the_sets(self, base, rng):
        cplx = relabelled(base, rng)
        assert_table_matches_sets(cplx, coloring_from(find_folding(cplx)))


class TestUnknownVertex:
    # the vertex range is checked once, where the direction table is read
    @pytest.mark.parametrize("v", [-1, 64])
    def test_table_readers_refuse(self, v):
        cplx = torus_grid((4, 4, 4))
        coloring = coloring_from(find_folding(cplx))
        assert cplx.vertex_count == 64
        with pytest.raises(UnknownVertex):
            sim_v_classes(cplx, coloring, v)
        with pytest.raises(UnknownVertex):
            build_all_color_geodesic(cplx, coloring, v, {1})
        with pytest.raises(UnknownVertex):
            perpendicular_set(cplx, OrientedEdge(v, 0))
        with pytest.raises(UnknownVertex):
            distance_class(cplx, v, 0, 1)

    def test_edge_lookups_stay_none(self):
        cplx = torus_grid((4, 4, 4))
        coloring = coloring_from(find_folding(cplx))
        w = cplx.neighbors(63)[0]
        for u in (-1, 64):
            assert cplx.edge_index(u, w) is None
            with pytest.raises(KeyError):
                coloring.of_pair(u, w)
        with pytest.raises(KeyError):
            coloring.of_pair(0, 63)


class TestLocalGeodesic:
    def test_square_shortcut_fails(self):
        path = EdgePath(0, (OrientedEdge(0, 1), OrientedEdge(1, 3)), False)
        ok, junction = is_local_geodesic(SQUARE, path)
        assert not ok and junction == 1

    def test_backtrack_fails(self):
        path = EdgePath(0, (OrientedEdge(0, 1), OrientedEdge(1, 0)), False)
        assert is_local_geodesic(SQUARE, path) == (False, 1)

    def test_straight_torus_line(self, torus44):
        cplx = torus44.complex
        # the x-axis line 0 -> 4 -> 8 -> 12 -> 0 (vertex ids x*4+y)
        steps = tuple(OrientedEdge(4 * i, 4 * ((i + 1) % 4)) for i in range(4))
        path = EdgePath(0, steps, True)
        assert is_local_geodesic(cplx, path) == (True, None)

    def test_two_step_loop_backtracks_at_interior(self, torus44):
        path = EdgePath(0, (OrientedEdge(0, 4), OrientedEdge(4, 0)), True)
        assert is_local_geodesic(torus44.complex, path) == (False, 1)

    def test_closing_junction_checked(self, x_double_arc):
        # a probe segment e * loop * reverse(e) is a legal open geodesic;
        # closing it up backtracks exactly at the base junction
        cplx, coloring = x_double_arc.complex, x_double_arc.coloring
        v = 0
        w = next(w for w in cplx.neighbors(v) if coloring.of_pair(v, w) == 1)
        seg = _path(cplx, _probe(cplx, coloring.colors, _node(cplx, (v, w))),
                    v, closed=False)
        assert is_local_geodesic(cplx, seg) == (True, None)
        closed = EdgePath(v, seg.steps, True)
        ok, junction = is_local_geodesic(cplx, closed)
        assert not ok and junction == 0

    def test_path_serialization(self):
        path = EdgePath(0, (OrientedEdge(0, 1), OrientedEdge(1, 3),
                            OrientedEdge(3, 2), OrientedEdge(2, 0)), True)
        text = serialize_path(path)
        assert text.splitlines()[:3] == ["path v1", "base 0", "closed 1"]
        assert text.count("edge ") == 4


class TestTransfer:
    def test_single_square(self):
        D = transfer(SQUARE, OrientedEdge(0, 1))
        assert D.vertex_map == {2: 3}
        assert perpendicular_set(SQUARE, OrientedEdge(0, 1)) == (2,)

    def test_involution_and_color_preservation(self, x_double_arc):
        cplx, coloring = x_double_arc.complex, x_double_arc.coloring
        for u, w in cplx.cubes[1]:
            e = OrientedEdge(u, w)
            D = transfer(cplx, e)
            Dback = transfer(cplx, e.reverse)
            for x, y in D.vertex_map.items():
                assert Dback.vertex_map[y] == x
                assert coloring.of_pair(u, x) == coloring.of_pair(w, y)

    def test_pi_class_preservation(self, x_double_arc):
        cplx = x_double_arc.complex
        for u, w in cplx.cubes[1]:
            e = OrientedEdge(u, w)
            D = transfer(cplx, e)
            perp = sorted(D.vertex_map)
            for i in range(len(perp)):
                for j in range(i + 1, len(perp)):
                    before = distance_class(cplx, u, perp[i], perp[j])
                    after = distance_class(
                        cplx, w, D.vertex_map[perp[i]], D.vertex_map[perp[j]])
                    assert (before is DistanceClass.PI) == (after is DistanceClass.PI)

    def test_perpendicular_simplices_map_to_simplices(self, x_hemispherex):
        cplx = x_hemispherex.complex
        for u, w in list(cplx.cubes[1])[::97]:
            e = OrientedEdge(u, w)
            D = transfer(cplx, e)
            for k, i, pos, axis in cubes_with_edge(cplx, u, w):
                if k < 3:
                    continue
                cube = cplx.cubes[k][i]
                others = [ax for ax in range(k) if ax != axis]
                simplex = [cube[pos ^ (1 << ax)] for ax in others]
                image = [D.vertex_map[x] for x in simplex]
                target_pos = pos ^ (1 << axis)
                expect = {cube[target_pos ^ (1 << ax)] for ax in others}
                assert set(image) == expect


class TestLemmaTwoLink:
    # where a color has exactly two directions at a vertex, the link is a
    # spherical join: every other-color direction is adjacent to both
    def test_spherical_join_consequence(self, x_double_arc, torus44):
        for entry in (x_double_arc, torus44):
            cplx, coloring = entry.complex, entry.coloring
            for v in range(cplx.vertex_count):
                by_color = {}
                for w in cplx.neighbors(v):
                    by_color.setdefault(coloring.of_pair(v, w), []).append(w)
                for i, dirs in by_color.items():
                    if len(dirs) != 2:
                        continue
                    for j, others in by_color.items():
                        if i == j:
                            continue
                        for x in others:
                            for d in dirs:
                                assert (distance_class(cplx, v, x, d)
                                        is DistanceClass.QUARTER)

    def test_pi_pair_forces_three_directions(self, corpus2):
        # contrapositive: a cross-color pair at >= pi means the same-color
        # component is not a circle (>= 3 directions of that color at v)
        far = (DistanceClass.PI, DistanceClass.MORE_THAN_PI)
        for entry in corpus2:
            cplx, coloring = entry.complex, entry.coloring
            for v in range(cplx.vertex_count):
                nbrs = cplx.neighbors(v)
                for a in nbrs:
                    for b in nbrs:
                        ca, cb = coloring.of_pair(v, a), coloring.of_pair(v, b)
                        if ca == cb:
                            continue
                        if distance_class(cplx, v, a, b) in far:
                            same = [w for w in nbrs
                                    if coloring.of_pair(v, w) == cb]
                            assert len(same) >= 3


class TestConnector:
    def test_theta_graph_loop(self):
        # three 2-edge arcs 0-m-1 (m = 2, 3, 4): the probe loop from 0->2
        # leaves along the other two arcs before it returns to 2
        theta = CubicalComplex.from_maximal_cubes(
            5, [(0, m) for m in (2, 3, 4)] + [(m, 1) for m in (2, 3, 4)])
        e = OrientedEdge(0, 2)
        c = graph_connector(theta, e, e)
        assert c.vertices() == [2, 1, 3, 0, 4, 1, 2]
        assert c.steps[0] != e.reverse and c.steps[-1] != e

    def test_circle_raises(self):
        square_cycle = cycle_graph(4)
        e = OrientedEdge(*square_cycle.cubes[1][0])
        with pytest.raises(IsCircle):
            graph_connector(square_cycle, e, e)

    def test_double_arc_pole_loop(self, double_arc_meta):
        hx, sub = double_arc_meta
        # the double-arc graph itself: probe loop from a pole edge avoids
        # immediate reversal
        K = hx.complex
        graph = CubicalComplex.from_maximal_cubes(
            K.vertex_count, [tuple(e) for e in K.simplices[1]])
        pole = hx.poles[0][0]
        nb = graph.neighbors(pole)[0]
        e = OrientedEdge(pole, nb)
        c = graph_connector(graph, e, e)
        assert c.steps[0] != e.reverse
        assert c.steps[-1] != e
        full = EdgePath(pole, (e,) + c.steps + (e.reverse,), False)
        assert full.vertices()[0] == pole

    def test_loop_at_vertex_on_even_cycle(self, corpus1):
        entry = corpus1[1]  # C6
        path = build_all_color_geodesic(entry.complex, entry.coloring, 0, {1})
        assert len(path) == 6

    def test_graph_without_edges(self):
        # a 0-complex holds no edge to connect from
        points = CubicalComplex.from_maximal_cubes(3, [(0,), (1,), (2,)])
        e = OrientedEdge(0, 1)
        with pytest.raises(PreconditionFailed, match="edge not in graph"):
            graph_connector(points, e, e)

    def test_probe_loop_on_a_circle(self, torus44):
        # a color component of the flat torus is a circle, so the probe
        # loop can only come back along its first edge
        with pytest.raises(IsCircle, match="graph is a circle"):
            _probe(torus44.complex, torus44.coloring.colors,
                   _node(torus44.complex, (0, 1)))


def _outcome(build):
    try:
        return build()
    except FoldccError as exc:
        return type(exc), str(exc)


class TestAgainstTheEdgeListEngine:
    # the walks on oriented edges against the edge-list engine they
    # replaced: the same walk, or the same exception type and text
    def test_loops_and_probe_loops(self, corpus2, x_hemispherex,
                                   octahedra_wedge):
        checked = 0
        for entry in corpus2 + [x_hemispherex, octahedra_wedge]:
            cplx, coloring = entry.complex, entry.coloring
            component = {}  # (color, vertex) -> its component's edge list

            def edge_list(color, v):
                # every vertex of a component has the same edge list
                if (color, v) not in component:
                    edges = reference_color_component_edges(
                        cplx, coloring, v, color)
                    component.update(((color, u), edges)
                                     for e in edges for u in e)
                return component[(color, v)]

            for v in range(0, cplx.vertex_count, 17):
                for color in range(1, coloring.n + 1):
                    got = _outcome(lambda: _path(cplx, _loop_at(
                        cplx, coloring.colors, color, v), v, closed=True))
                    want = _outcome(lambda: reference_loop_path(
                        edge_list(color, v), v))
                    assert got == want, (entry.name, v, color)
                for w in cplx.neighbors(v):
                    e = OrientedEdge(v, w)
                    got = _outcome(lambda: _path(cplx, _probe(
                        cplx, coloring.colors, _node(cplx, e)), v,
                        closed=False))
                    want = _outcome(lambda: reference_probe_loop(
                        cplx, edge_list(coloring.of_pair(v, w), v), e))
                    assert got == want, (entry.name, e)
                    checked += 1
        assert checked > 1000


class TestOneWalkForm:
    # the builders that keep every witness a node walk against the ones
    # that chained EdgePaths: the same path, or the same exception type
    # and text
    def test_builders_against_the_chained_paths(self, corpus_all):
        kinds = set()
        for entry in corpus_all:
            cplx, coloring = entry.complex, entry.coloring
            full = frozenset(range(1, coloring.n + 1))
            step = -(-cplx.vertex_count // 7)   # at most 7 vertices each
            for v in range(0, cplx.vertex_count, step):
                classes = sim_v_classes(cplx, coloring, v).partition
                for T in set(classes) | {full}:
                    got = _outcome(lambda: build_all_color_geodesic(
                        cplx, coloring, v, T))
                    want = _outcome(lambda: reference_all_color_geodesic(
                        cplx, coloring, v, T))
                    assert got == want, (entry.name, v, sorted(T))
                    kinds.add(("all-colors", type(got)))
            strict = rank._cross_pairs(cplx, coloring)[1]
            if strict is not None:
                got = _outcome(lambda: build_strict_pi_geodesic(
                    cplx, coloring, *strict))
                assert got == _outcome(lambda: reference_strict_pi_geodesic(
                    cplx, coloring, *strict)), entry.name
                kinds.add(("strict-pi", type(got)))
            if coloring.n == 3:
                got = _outcome(lambda: rank._step_d_search(cplx, coloring))
                assert got == _outcome(lambda: reference_step_d_search(
                    cplx, coloring)), entry.name
                kinds.add(("step-d", type(got)))
        assert {("all-colors", EdgePath), ("all-colors", tuple),
                ("strict-pi", EdgePath), ("step-d", EdgePath),
                ("step-d", type(None))} <= kinds

    def test_turns_are_the_junctions_beyond_pi_over_two(self, corpus_all):
        # the walks' successor rule against the certificate's junction rule
        bad = (DistanceClass.ZERO, DistanceClass.QUARTER)
        for entry in corpus_all:
            cplx = entry.complex
            edges = cplx.cubes[1] if cplx.dim >= 1 else ()
            for x in range(2 * len(edges)):
                u, v = _ends(edges, x)
                assert _turns(cplx, x) == [
                    _node(cplx, (v, w)) for w in cplx.neighbors(v)
                    if distance_class(cplx, v, u, w) not in bad], (entry.name, x)

    def test_one_edge_path_per_witness(self, monkeypatch, x_hemispherex,
                                       x_double_arc, double_arc_meta):
        made = []   # one entry per EdgePath constructed
        init = EdgePath.__post_init__
        monkeypatch.setattr(EdgePath, "__post_init__",
                            lambda path: made.append(init(path)))
        build_all_color_geodesic(x_hemispherex.complex,
                                 x_hemispherex.coloring, 0, {1, 2, 3})
        assert len(made) == 1
        hx, sub = double_arc_meta
        p1, p2 = (origin_direction(sub, p) for p in hx.pole_vertices)
        build_strict_pi_geodesic(x_double_arc.complex, x_double_arc.coloring,
                                 0, p1, p2)
        assert len(made) == 2


class TestCertificate:
    def test_single_color_loop_fails(self, torus44):
        cplx, coloring = torus44.complex, torus44.coloring
        steps = tuple(OrientedEdge(4 * i, 4 * ((i + 1) % 4)) for i in range(4))
        path = EdgePath(0, steps, True)
        assert not rank_one_certificate(cplx, coloring, path)

    def test_quarter_junction_fails(self, torus44):
        cplx, coloring = torus44.complex, torus44.coloring
        # staircase around the torus: covers both colors, every junction
        # cuts a square corner
        steps = []
        at = (0, 0)
        for _ in range(4):
            x, y = at
            steps.append(OrientedEdge(x * 4 + y, ((x + 1) % 4) * 4 + y))
            at = ((x + 1) % 4, y)
            x, y = at
            steps.append(OrientedEdge(x * 4 + y, x * 4 + (y + 1) % 4))
            at = (x, (y + 1) % 4)
        path = EdgePath(0, tuple(steps), True)
        assert path.color_set(coloring) == {1, 2}
        assert not rank_one_certificate(cplx, coloring, path)

    def test_open_path_rejected(self, torus44):
        path = EdgePath(0, (OrientedEdge(0, 4),), False)
        with pytest.raises(NotClosed):
            rank_one_certificate(torus44.complex, torus44.coloring, path)

    def test_strict_pi_rejects_torus_loops(self, torus44):
        # a straight loop is a closed geodesic, but every junction is at pi
        cplx = torus44.complex
        steps = tuple(OrientedEdge(4 * i, 4 * ((i + 1) % 4)) for i in range(4))
        assert is_local_geodesic(cplx, EdgePath(0, steps, True)) == (True, None)
        assert not strict_pi_certificate(cplx, EdgePath(0, steps, True))
        assert not strict_pi_certificate(cplx, EdgePath(0, steps, False))

    def test_strict_pi_agrees_with_the_sets(self, corpus_all):
        # closed paths at vertex 0 and at the first strictly-beyond-pi
        # cross pair: one-color loops, probe loops and pairs of them
        verdicts = set()
        for entry in corpus_all:
            cplx, coloring = entry.complex, entry.coloring
            link_adj = reference_link_adj(cplx)
            strict = rank._cross_pairs(cplx, coloring)[1]
            for v in {0, strict[0] if strict else 0}:
                paths = []
                for color in range(1, coloring.n + 1):
                    try:
                        walk = _loop_at(cplx, coloring.colors, color, v)
                    except FoldccError:
                        continue
                    paths.append(_path(cplx, walk, v, closed=True))
                probes = []
                for a in cplx.neighbors(v):
                    try:
                        probes.append(_path(cplx, _probe(
                            cplx, coloring.colors, _node(cplx, (v, a))), v,
                            closed=False).steps)
                    except FoldccError:
                        continue
                paths += [EdgePath(v, p + q, True) for p in probes
                          for q in probes]
                for path in paths:
                    got = strict_pi_certificate(cplx, path)
                    assert got == reference_strict_pi(link_adj, cplx, path), (
                        entry.name, path)
                    verdicts.add(got)
        assert verdicts == {True, False}


class TestSimV:
    def test_torus_singletons(self, torus44):
        simv = sim_v_classes(torus44.complex, torus44.coloring, 0)
        assert simv.partition == (frozenset({1}), frozenset({2}))
        assert (1, 1) in simv.witnesses and (2, 2) in simv.witnesses
        assert (1, 2) not in simv.witnesses

    def test_hemispherex_origin_single_class(self, x_hemispherex):
        simv = sim_v_classes(x_hemispherex.complex, x_hemispherex.coloring, 0)
        assert simv.partition == (frozenset({1, 2, 3}),)

    def test_product_does_not_mix_factors(self, double_arc_meta):
        X = double_arc_meta[1].complex
        prod = product(X, cycle_graph(4))
        folding = find_folding(prod)
        coloring = coloring_from(folding)
        cyc_color = coloring.of_pair(0, 1)  # (v0, c0)-(v0, c1) cycle edge
        for v in range(0, prod.vertex_count, 101):
            simv = sim_v_classes(prod, coloring, v)
            for part in simv.partition:
                assert not (cyc_color in part and len(part) > 1)


class TestBuilders:
    def test_single_color_class_loop(self, torus44):
        path = build_all_color_geodesic(
            torus44.complex, torus44.coloring, 0, {1})
        assert path.closed
        assert path.color_set(torus44.coloring) == {1}
        assert is_local_geodesic(torus44.complex, path) == (True, None)

    def test_not_single_class_rejected(self, torus44):
        with pytest.raises(NotSingleClass):
            build_all_color_geodesic(torus44.complex, torus44.coloring, 0, {1, 2})

    def test_double_arc_all_colors(self, x_double_arc):
        path = build_all_color_geodesic(
            x_double_arc.complex, x_double_arc.coloring, 0, {1, 2})
        assert rank_one_certificate(x_double_arc.complex,
                                    x_double_arc.coloring, path)

    def test_hemispherex_all_colors(self, x_hemispherex):
        path = build_all_color_geodesic(
            x_hemispherex.complex, x_hemispherex.coloring, 0, {1, 2, 3})
        assert rank_one_certificate(x_hemispherex.complex,
                                    x_hemispherex.coloring, path)

    def test_strict_pi_geodesic(self, double_arc_meta, x_double_arc):
        hx, sub = double_arc_meta
        cplx, coloring = x_double_arc.complex, x_double_arc.coloring
        p1, p2 = (origin_direction(sub, p) for p in hx.pole_vertices)
        path = build_strict_pi_geodesic(cplx, coloring, 0, p1, p2)
        assert rank_one_certificate(cplx, coloring, path)

    def test_strict_pi_rejects_pi_pairs(self, hemispherex_meta, x_hemispherex):
        hx, sub = hemispherex_meta
        cplx, coloring = x_hemispherex.complex, x_hemispherex.coloring
        d1 = origin_direction(sub, hx.pole_vertices[0])
        d2 = origin_direction(sub, hx.pole_vertices[1])
        with pytest.raises(PreconditionFailed):
            build_strict_pi_geodesic(cplx, coloring, 0, d1, d2)

    def test_strict_pi_rejects_equal_colors(self, x_double_arc):
        cplx, coloring = x_double_arc.complex, x_double_arc.coloring
        v = 0
        nbrs = cplx.neighbors(v)
        same = [w for w in nbrs if coloring.of_pair(v, w) == 1]
        with pytest.raises(PreconditionFailed):
            build_strict_pi_geodesic(cplx, coloring, v, same[0], same[1])
