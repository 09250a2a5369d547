"""Acceptance criteria, one test per criterion.

Each test prints one ``ACCEPTANCE <n>: PASS`` line (visible with
``pytest -s``) and enforces the stated runtime budget where one is given.
The corpus fixtures live in conftest; every entry passed validate_fcc
before entering the corpus.
"""

import time

import pytest

from foldcc.cli import main as cli_main
from foldcc.core import (SimplicialComplex, link, load_complex,
                         simplicial_isomorphic, validate_fcc)
from foldcc.decomposition import (count_identity_holds, graph_of_spaces,
                                  is_covering)
from foldcc.folding import NotFoldable, find_folding
from foldcc.generators import davis_Y, hemispherex, standard_sphere, torus_grid
from foldcc.geodesic import (DistanceClass, OrientedEdge, distance_class,
                             build_strict_pi_geodesic, is_local_geodesic,
                             rank_one_certificate, sim_v_classes, transfer)
from foldcc.rank import detect_rank3, splitting_bipartitions

from helpers import (assert_locally_injective, certifies_rank_one,
                     link_graph_distances)


def _stamp(n, detail):
    print("ACCEPTANCE %d: PASS  %s" % (n, detail))


@pytest.fixture(scope="session")
def gos_table(corpus2, corpus3):
    """graph_of_spaces for every corpus complex and color (criteria 5, 10)."""
    table = {}
    for entry in corpus2 + corpus3:
        table[entry.name] = [
            graph_of_spaces(entry.complex, entry.coloring, color)
            for color in range(1, entry.coloring.n + 1)]
    return table


def test_criterion_1_hemispherex_rank_one(tmp_path, capsys):
    t0 = time.monotonic()
    hfile = tmp_path / "H.scx"
    xfile = tmp_path / "XH.cplx"
    assert cli_main(["generate", "hemispherex:n=2,m=1,1,1",
                     "--out", str(hfile)]) == 0
    assert cli_main(["generate", "davisX:K=%s" % hfile,
                     "--out", str(xfile)]) == 0
    assert cli_main(["validate", str(xfile)]) == 0
    wfile = tmp_path / "witness.path"
    assert cli_main(["rank", str(xfile), "--dim3", "--out", str(wfile)]) == 1
    capsys.readouterr()

    cplx = load_complex(xfile.read_text())
    assert cplx.dim == 3
    assert cplx.n_cubes(3) == 10240
    report = detect_rank3(cplx)
    assert report.verdict == "rank-one"
    assert rank_one_certificate(cplx, report.coloring, report.witness_path)
    assert report.witness_path.color_set(report.coloring) == {1, 2, 3}
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    _stamp(1, "X(octahedral hemispherex): rank one in %.1fs" % elapsed)


def test_criterion_2_torus_splitting(corpus3):
    t0 = time.monotonic()
    entry = next(e for e in corpus3 if e.name == "torus(4, 4, 4)")
    report = detect_rank3(entry.complex, folding=entry.folding,
                          assume_fcc=True)
    assert report.verdict == "split"
    assert len(report.all_bipartitions) == 3
    got = {frozenset((frozenset(T), frozenset(S)))
           for T, S in report.all_bipartitions}
    want = {frozenset((frozenset({1}), frozenset({2, 3}))),
            frozenset((frozenset({2}), frozenset({1, 3}))),
            frozenset((frozenset({3}), frozenset({1, 2})))}
    assert got == want
    # exclusivity: no rank-one machinery fires on a split complex
    assert _no_rank_one_signals(entry)
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    _stamp(2, "torus(4,4,4): all 3 bipartitions in %.2fs" % elapsed)


def _no_rank_one_signals(entry):
    cplx, coloring = entry.complex, entry.coloring
    full = frozenset(range(1, coloring.n + 1))
    far = (DistanceClass.PI, DistanceClass.MORE_THAN_PI)
    for v in range(cplx.vertex_count):
        simv = sim_v_classes(cplx, coloring, v)
        if simv.partition == (full,):
            return False
        for (i, j), (a, b) in simv.witnesses.items():
            if i != j and distance_class(cplx, v, a, b) is DistanceClass.MORE_THAN_PI:
                return False
    return True


def test_criterion_3_strict_pi_construction(double_arc_meta, x_double_arc):
    hx, sub = double_arc_meta
    Y, X = sub.parent, sub.complex
    assert Y.cell_counts() == (64, 192, 128)
    assert X.cell_counts() == (384, 896, 512)
    assert X.euler_characteristic() == 0
    assert x_double_arc.dim == 2

    from foldcc.generators import origin_direction
    p1, p2 = (origin_direction(sub, p) for p in hx.pole_vertices)
    assert distance_class(X, 0, p1, p2) is DistanceClass.MORE_THAN_PI
    exact = link_graph_distances(X, 0)
    assert exact[(p1, p2)] == 3  # 3 * pi/2 > pi

    path = build_strict_pi_geodesic(X, x_double_arc.coloring, 0, p1, p2)
    assert path.closed
    assert is_local_geodesic(X, path) == (True, None)
    assert rank_one_certificate(X, x_double_arc.coloring, path)
    _stamp(3, "X(double-arc): strict-pi geodesic of length %d" % len(path))


def test_criterion_4_dichotomy_completeness(corpus3):
    assert len(corpus3) >= 20
    t0 = time.monotonic()
    verdicts = {}
    for entry in corpus3:
        report = detect_rank3(entry.complex, folding=entry.folding,
                              assume_fcc=True)
        assert report.verdict != "inconclusive", entry.name
        assert report.verdict == entry.expect, entry.name
        if report.verdict == "rank-one":
            assert certifies_rank_one(entry.complex, entry.coloring,
                                      report), entry.name
            assert not report.all_bipartitions
        verdicts[entry.name] = report.verdict
    elapsed = time.monotonic() - t0
    assert elapsed < 600.0
    n_split = sum(1 for v in verdicts.values() if v == "split")
    _stamp(4, "%d complexes (%d split, %d rank-one) in %.0fs"
           % (len(verdicts), n_split, len(verdicts) - n_split, elapsed))


def test_criterion_5_decomposition_identities(corpus2, corpus3, gos_table):
    checked = 0
    for entry in corpus2 + corpus3:
        cplx, coloring = entry.complex, entry.coloring
        n = cplx.dim
        for color in range(1, coloring.n + 1):
            assert count_identity_holds(cplx, coloring, color), entry.name
            gos = gos_table[entry.name][color - 1]
            assert gos.base_graph_connected(), entry.name
            for piece in gos.vertex_spaces:
                rep = validate_fcc(piece.complex)
                assert rep.is_fcc and rep.dimension == n - 1, entry.name
            for h in gos.edge_spaces:
                rep = validate_fcc(h.complex)
                assert rep.is_fcc and rep.dimension == n - 1, entry.name
            for g0, g1 in gos.attaching:
                for g in (g0, g1):
                    assert_locally_injective(g)
            checked += 1
    _stamp(5, "count identity + space validation on %d (complex, color) pairs"
           % checked)


def test_criterion_6_davis_links():
    t0 = time.monotonic()
    edge = SimplicialComplex.from_maximal(2, [(0, 1)])
    four_cycle = standard_sphere(1)
    double_arc = hemispherex(1, (1, 1), allow_dim1=True).complex
    octa = standard_sphere(2)
    hemi9 = hemispherex(2, (1, 1, 1)).complex
    complexes = [edge, four_cycle, double_arc, octa, hemi9]
    assert all(K.vertex_count <= 9 for K in complexes)
    for K in complexes:
        Y = davis_Y(K)
        for v in range(Y.vertex_count):
            assert simplicial_isomorphic(link(Y, v).complex, K) is not None
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    _stamp(6, "5 flag complexes, every Y(K) link isomorphic to K, %.1fs"
           % elapsed)


def test_criterion_7_transfer_properties(corpus_all):
    edges_checked = 0
    for entry in corpus_all:
        cplx, coloring = entry.complex, entry.coloring
        for u, w in cplx.cubes[1]:
            e = OrientedEdge(u, w)
            D = transfer(cplx, e)
            Dback = transfer(cplx, e.reverse)
            perp = sorted(D.vertex_map)
            for x in perp:
                y = D.vertex_map[x]
                assert Dback.vertex_map[y] == x
                assert coloring.of_pair(u, x) == coloring.of_pair(w, y)
            for i in range(len(perp)):
                for j in range(i + 1, len(perp)):
                    before = distance_class(cplx, u, perp[i], perp[j])
                    after = distance_class(cplx, w, D.vertex_map[perp[i]],
                                           D.vertex_map[perp[j]])
                    assert ((before is DistanceClass.PI)
                            == (after is DistanceClass.PI))
            edges_checked += 1
    _stamp(7, "involution/color/pi-class preserved on %d edges" % edges_checked)


def test_criterion_8_distance_classifier_oracle(corpus2):
    classify = {0: DistanceClass.ZERO, 1: DistanceClass.QUARTER,
                2: DistanceClass.PI}
    pairs = 0
    for entry in corpus2:
        cplx = entry.complex
        for v in range(cplx.vertex_count):
            exact = link_graph_distances(cplx, v)
            nbrs = cplx.neighbors(v)
            for a in nbrs:
                for b in nbrs:
                    d = exact.get((a, b))
                    want = classify.get(d, DistanceClass.MORE_THAN_PI)
                    assert distance_class(cplx, v, a, b) is want
                    pairs += 1
    _stamp(8, "classifier matches the exact link metric on %d pairs" % pairs)


def test_criterion_9_foldability_negative_control():
    result = find_folding(torus_grid((5, 4)))
    assert isinstance(result, NotFoldable)
    assert result.reason == "parity"
    assert result.cycle is not None
    assert len(result.cycle) == 5
    # the cycle really crosses the witness class an odd number of times
    cplx = torus_grid((5, 4))
    from foldcc.folding import parallel_classes
    pc = parallel_classes(cplx)
    crossings = 0
    cyc = list(result.cycle)
    for t in range(len(cyc)):
        e = cplx.edge_index(cyc[t], cyc[(t + 1) % len(cyc)])
        assert e is not None
        if pc.class_of[e] in result.classes:
            crossings += 1
    assert crossings % 2 == 1
    _stamp(9, "torus(5,4): odd parity cycle of length 5")


def test_criterion_10_covering_implies_split(corpus2, corpus3, gos_table):
    implications = 0
    for entry in corpus2 + corpus3:
        cplx, coloring = entry.complex, entry.coloring
        accepted = {frozenset((frozenset(T), frozenset(S)))
                    for T, S in splitting_bipartitions(cplx, coloring)}
        for color in range(1, coloring.n + 1):
            gos = gos_table[entry.name][color - 1]
            all_cover = all(
                is_covering(g).is_covering
                for g0, g1 in gos.attaching for g in (g0, g1))
            if all_cover:
                want = frozenset((
                    frozenset({color}),
                    frozenset(range(1, coloring.n + 1)) - {color}))
                assert want in accepted, (entry.name, color)
                implications += 1
    assert implications > 0
    _stamp(10, "covering => split held %d times across the corpus"
           % implications)
