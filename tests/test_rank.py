import sys

import pytest
from hypothesis import given, settings, strategies as st

from foldcc import rank
from foldcc.core import CubicalComplex
from foldcc.errors import NotDim3, NotFCC
from foldcc.folding import NotFoldable, coloring_from, find_folding
from foldcc.generators import (cycle_graph, davis_X, hemispherex, product,
                               torus_grid)
from foldcc.geodesic import all_color_turn_cycle, rank_one_certificate
from foldcc.rank import (_step_d_search, detect_rank3, detect_rank_general,
                         splitting_bipartitions, verify_bipartition)


class TestSplittingBipartitions:
    def test_torus_accepts_all_three(self, corpus3):
        entry = corpus3[0]  # torus(4, 4, 4)
        bips = splitting_bipartitions(entry.complex, entry.coloring)
        assert len(bips) == 3
        for T, S in bips:
            assert verify_bipartition(entry.complex, entry.coloring, T, S)
            assert verify_bipartition(entry.complex, entry.coloring, S, T)

    def test_hemispherex_accepts_none(self, x_hemispherex):
        assert splitting_bipartitions(
            x_hemispherex.complex, x_hemispherex.coloring) == []

    def test_product_separates_cycle_factor(self, double_arc_meta):
        X = double_arc_meta[1].complex
        prod = product(X, cycle_graph(4))
        coloring = coloring_from(find_folding(prod))
        cyc_color = coloring.of_pair(0, 1)
        bips = splitting_bipartitions(prod, coloring)
        assert len(bips) == 1
        T, S = bips[0]
        assert (set(T) == {cyc_color}) or (set(S) == {cyc_color})

    def test_rejected_bipartition_fails_verification(self, x_hemispherex):
        assert not verify_bipartition(
            x_hemispherex.complex, x_hemispherex.coloring, {1}, {2, 3})


class TestDetectRank3:
    def test_torus_splits(self, corpus3):
        entry = corpus3[0]
        report = detect_rank3(entry.complex, folding=entry.folding,
                              assume_fcc=True)
        assert report.verdict == "split"
        assert len(report.all_bipartitions) == 3
        assert report.exit_code() == 0

    def test_hemispherex_rank_one(self, x_hemispherex):
        report = detect_rank3(x_hemispherex.complex,
                              folding=x_hemispherex.folding, assume_fcc=True)
        assert report.verdict == "rank-one"
        assert rank_one_certificate(x_hemispherex.complex,
                                    x_hemispherex.coloring,
                                    report.witness_path)
        assert report.exit_code() == 1

    def test_product_splits(self, corpus3):
        entry = next(e for e in corpus3 if "x_C" in e.name)
        report = detect_rank3(entry.complex, folding=entry.folding,
                              assume_fcc=True)
        assert report.verdict == "split"

    def test_wrong_dimension(self, torus44):
        with pytest.raises(NotDim3):
            detect_rank3(torus44.complex)

    def test_non_fcc_rejected(self):
        with pytest.raises(NotFCC):
            detect_rank3(torus_grid((5, 4, 4)))

    def test_a_not_foldable_result_passed_as_folding(self):
        for detect, cplx in ((detect_rank3, torus_grid((5, 4, 4))),
                             (detect_rank_general, torus_grid((5, 4)))):
            result = find_folding(cplx)
            assert isinstance(result, NotFoldable)
            for assume_fcc in (False, True):
                with pytest.raises(NotFCC, match="^complex is not foldable$"):
                    detect(cplx, folding=result, assume_fcc=assume_fcc)

    def test_diagnostics_fields(self, corpus3):
        entry = corpus3[0]
        report = detect_rank3(entry.complex, folding=entry.folding,
                              assume_fcc=True, diagnostics=True)
        assert report.simv_summary is not None
        assert set(report.covering_table) == {1, 2, 3}
        text = report.render()
        assert text.startswith("rank-report v1\n")
        assert "verdict = split" in text


class TestStepD:
    def test_direct_construction_on_hemispherex(self, x_hemispherex):
        path = _step_d_search(x_hemispherex.complex, x_hemispherex.coloring)
        assert path is not None
        assert rank_one_certificate(x_hemispherex.complex,
                                    x_hemispherex.coloring, path)


class TestDetectGeneral:
    def test_dimension_one_graph(self, corpus1):
        for entry in corpus1:
            report = detect_rank_general(entry.complex, folding=entry.folding,
                                         assume_fcc=True)
            assert report.verdict == "rank-one"
            assert rank_one_certificate(entry.complex, entry.coloring,
                                        report.witness_path)

    def test_dimension_two_strict_pi(self, x_double_arc):
        report = detect_rank_general(x_double_arc.complex,
                                     folding=x_double_arc.folding,
                                     assume_fcc=True)
        assert report.verdict == "rank-one"
        assert report.certificate == "strict-pi"

    def test_torus_any_dimension_splits(self, corpus2):
        entry = corpus2[0]
        report = detect_rank_general(entry.complex, folding=entry.folding,
                                     assume_fcc=True)
        assert report.verdict == "split"
        report4 = detect_rank_general(torus_grid((4, 4, 4, 4)))
        assert report4.verdict == "split"
        assert len(report4.all_bipartitions) == 7

    def test_turn_cycle_finds_graph_loop(self, corpus1):
        entry = corpus1[1]  # C6
        path = all_color_turn_cycle(entry.complex, entry.coloring)
        assert path.vertices() == [0, 1, 2, 3, 4, 5, 0]
        assert rank_one_certificate(entry.complex, entry.coloring, path)

    def test_turn_cycle_absent_on_flat_torus(self, torus44):
        # straight lines are the only local geodesics in a grid torus, so
        # no closed path covers both colors
        assert all_color_turn_cycle(torus44.complex, torus44.coloring) is None

    def test_turn_cycle_reached_past_step_c(self, corpus1, monkeypatch):
        monkeypatch.setattr(rank, "_single_class_vertex",
                            lambda cplx, coloring: (None, None))
        entry = corpus1[1]  # C6
        report = detect_rank_general(entry.complex, folding=entry.folding,
                                     assume_fcc=True)
        assert report.verdict == "rank-one"
        assert report.certificate == "all-colors"
        assert rank_one_certificate(entry.complex, entry.coloring,
                                    report.witness_path)

    def test_no_turn_cycle_is_inconclusive(self, torus44, monkeypatch):
        # with no splitting bipartition offered, the flat torus falls
        # through to the turn-graph test, which finds nothing
        monkeypatch.setattr(rank, "_cross_pairs",
                            lambda cplx, coloring: ([], None))
        report = detect_rank_general(torus44.complex, folding=torus44.folding,
                                     assume_fcc=True)
        assert report.verdict == "inconclusive"
        assert report.exit_code() == 2
        assert (report.inconclusive_reason
                == "no closed all-color 1-skeleton geodesic")
        text = report.render()
        assert "inconclusive.reason = no closed all-color 1-skeleton" in text
        assert "search." not in text


class TestTurnCycle:
    def test_decides_the_corpus_in_every_dimension(self, corpus_all):
        # an all-color strongly connected turn component exists iff the
        # dispatcher says rank-one, on both sides of the dichotomy, with
        # two split dimension-4 complexes as controls.  In dimension 3,
        # test_criterion_4_dichotomy_completeness pins the dispatcher's
        # verdict to `expect`, so it is not recomputed here
        cases = [(e.complex, e.folding, e.expect) for e in corpus_all]
        cases += [(cplx, find_folding(cplx), None) for cplx in (
            torus_grid((4, 4, 4, 4)),
            product(_double_arc_X(), torus_grid((4, 4))))]
        for cplx, folding, verdict in cases:
            if cplx.dim != 3:
                verdict = detect_rank_general(cplx, folding=folding,
                                              assume_fcc=True).verdict
            coloring = coloring_from(folding)
            path = all_color_turn_cycle(cplx, coloring)
            assert (path is not None) == (verdict == "rank-one"), cplx
            if path is not None:
                assert rank_one_certificate(cplx, coloring, path)

    def test_long_cycle_needs_no_recursion(self):
        # each orientation of the cycle is one turn component with more
        # nodes than the recursion limit.  A graph folds onto one edge
        k = 20000
        assert k > sys.getrecursionlimit()
        cplx = cycle_graph(k)
        coloring = coloring_from(find_folding(cplx))
        assert coloring.colors == (1,) * cplx.n_cubes(1)
        path = all_color_turn_cycle(cplx, coloring)
        assert len(path) == k
        assert rank_one_certificate(cplx, coloring, path)


class TestWitnessSoundness:
    def test_rank_one_witnesses_certify(self, corpus3):
        for entry in corpus3:
            if entry.expect != "rank-one":
                continue
            report = detect_rank3(entry.complex, folding=entry.folding,
                                  assume_fcc=True)
            assert rank_one_certificate(entry.complex, entry.coloring,
                                        report.witness_path)

    def test_split_witnesses_reverify(self, corpus3):
        for entry in corpus3:
            if entry.expect != "split":
                continue
            report = detect_rank3(entry.complex, folding=entry.folding,
                                  assume_fcc=True)
            T, S = report.bipartition
            assert verify_bipartition(entry.complex, entry.coloring, T, S)


def _double_arc_X():
    return davis_X(hemispherex(1, (1, 1), allow_dim1=True).complex).complex


# small corpus complexes and their verdicts, from both sides of the
# dichotomy in dimensions 1, 2 and 3
RELABEL_BASES = [(cycle_graph(6), "rank-one"), (torus_grid((4, 4)), "split"),
                 (_double_arc_X(), "rank-one"),
                 (torus_grid((4, 4, 4)), "split")]


def _relabel(cplx, perm):
    cubes = [tuple(perm[v] for v in cplx.cubes[k][i])
             for k, i in cplx.maximal_cubes()]
    return CubicalComplex.from_maximal_cubes(cplx.vertex_count, cubes)


class TestRelabelling:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(RELABEL_BASES).flatmap(lambda base: st.tuples(
        st.just(base), st.permutations(range(base[0].vertex_count)))))
    def test_verdict_and_witness_survive_relabelling(self, case):
        (base, expect), perm = case
        cplx = _relabel(base, perm)
        detect = detect_rank3 if cplx.dim == 3 else detect_rank_general
        report = detect(cplx)
        assert report.verdict == expect
        turn_cycle = all_color_turn_cycle(cplx, report.coloring)
        assert (turn_cycle is not None) == (expect == "rank-one")
        if expect == "rank-one":
            assert rank_one_certificate(cplx, report.coloring,
                                        report.witness_path)
        else:
            T, S = report.bipartition
            assert verify_bipartition(cplx, report.coloring, T, S)
