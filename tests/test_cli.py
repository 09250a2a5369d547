import gc
import os
import random
import tracemalloc

import pytest

from foldcc import cli, core, folding, generators
from foldcc.cli import main
from foldcc.core import (CubicalComplex, load_complex, serialize_complex,
                         serialize_simplicial)
from foldcc.errors import ConstructionFailed
from foldcc.generators import davis_X, torus_grid

from helpers import assert_parity_witness, davis_inputs, relabelled


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def assert_refusal(out, err):
    assert out == ""
    lines = err.rstrip("\n").split("\n")
    assert len(lines) == 1 and lines[0].startswith("error: ")


class TestGenerate:
    def test_torus_round_trip(self, tmp_path, capsys):
        out = tmp_path / "t.cplx"
        code, _, _ = run(capsys, "generate", "torus:4,4", "--out", str(out))
        assert code == 0
        text = out.read_text()
        assert serialize_complex(load_complex(text)) == text

    def test_generate_twice_is_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        run(capsys, "generate", "torus:4,4,4", "--out", str(a))
        run(capsys, "generate", "torus:4,4,4", "--out", str(b))
        assert a.read_text() == b.read_text()

    def test_hemispherex_then_davisx(self, tmp_path, capsys):
        hs = tmp_path / "H.scx"
        code, _, _ = run(capsys, "generate", "hemispherex:n=2,m=1,1,1",
                         "--out", str(hs))
        assert code == 0
        xh = tmp_path / "XH.cplx"
        code, _, _ = run(capsys, "generate", "davisX:K=%s" % hs,
                         "--out", str(xh))
        assert code == 0
        cplx = load_complex(xh.read_text())
        assert cplx.n_cubes(3) == 10240
        assert cplx.provenance == "davisX:K=%s" % hs

    def test_product_and_graph_specs(self, tmp_path, capsys):
        c4 = tmp_path / "c4.cplx"
        run(capsys, "generate", "torus:4", "--out", str(c4))
        prod = tmp_path / "p.cplx"
        code, _, _ = run(capsys, "generate",
                         "product:%s,%s" % (c4, c4), "--out", str(prod))
        assert code == 0
        assert load_complex(prod.read_text()).cell_counts() == (16, 32, 16)
        gr = tmp_path / "g.scx"
        gr.write_text("simplicial-complex v1\nvertices 3\n"
                      "simplex 1 0 1\nsimplex 1 1 2\nsimplex 1 0 2\n")
        out = tmp_path / "g.cplx"
        code, _, _ = run(capsys, "generate", "graph:%s" % gr, "--out", str(out))
        assert code == 0
        assert load_complex(out.read_text()).cell_counts() == (3, 3)

    def test_bad_spec(self, capsys):
        code, _, err = run(capsys, "generate", "noodle:7")
        assert code == 64

    @pytest.mark.parametrize("spec", [
        "hemispherex:n=2", "hemispherex:n=2,mm=1,1,1",
        "hemispherex:nn=2,m=1,1,1", "hemispherex:m=1,1,1,n=2",
        "hemispherex:"])
    def test_hemispherex_spec_names_its_form(self, capsys, spec):
        # a missing or misspelled field used to print a bare KeyError
        assert run(capsys, "generate", spec) == (
            64, "", "error: expected hemispherex:n=<int>,m=<int>,...\n")

    @pytest.mark.parametrize("n, mult", [(20, (1,) * 21), (9, (1,) * 10),
                                         (2, (15, 1, 1))])
    def test_huge_hemispherex_exits_65_before_building(self, capsys,
                                                        monkeypatch, n, mult):
        # n = 20 would list 2^42 faces; every size step costs 4-5x
        def no_sphere(n):
            raise AssertionError("built a sphere")

        monkeypatch.setattr(generators, "standard_sphere", no_sphere)
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "generate", "hemispherex:n=%d,m=%s"
                                 % (n, ",".join(map(str, mult))))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 65
        assert_refusal(out, err)
        assert err.startswith("error: TooLarge: n = %d with %d hemispheres"
                              % (n, sum(mult)))
        assert peak < 1 << 20

    def test_largest_hemispherex_spec_is_generated(self, capsys):
        code, out, _ = run(capsys, "generate", "hemispherex:n=2,m=14,1,1")
        assert code == 0
        assert "vertices 22\n" in out

    def test_dim1_hemispherex_needs_flag(self, tmp_path, capsys):
        code, _, _ = run(capsys, "generate", "hemispherex:n=1,m=1,1")
        assert code == 65
        code, out, _ = run(capsys, "generate", "hemispherex:n=1,m=1,1",
                           "--allow-dim1")
        assert code == 0
        assert "simplicial-complex v1" in out


class TestGenerateDavisX:
    # the file lists the subdivision's top cubes; X's closure is not built

    @pytest.mark.parametrize("name", sorted(davis_inputs()))
    def test_file_is_the_serialized_closure(self, tmp_path, capsys, name):
        K = davis_inputs()[name]
        path = tmp_path / "K.scx"
        path.write_text(serialize_simplicial(K))
        spec = "davisX:K=%s" % path
        code, out, err = run(capsys, "generate", spec)
        assert (code, err) == (0, "")
        X = davis_X(K).complex
        X.provenance = spec
        assert out == serialize_complex(X)
        if name == "empty":
            assert out.endswith("vertices 1\ncube 0 0\n")

    def test_builds_one_face_closure(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "K.scx"
        path.write_text(serialize_simplicial(davis_inputs()["octahedron"]))
        closed = []
        real = core._face_closure

        def counted(vertex_count, maximal):
            closed.append(vertex_count)
            return real(vertex_count, maximal)

        monkeypatch.setattr(core, "_face_closure", counted)
        code, _, _ = run(capsys, "generate", "davisX:K=%s" % path)
        assert code == 0
        assert closed == [1 << 6]   # Y's, on the 2^S corners of the cube

    def test_cap_runs_first(self, tmp_path, capsys):
        path = tmp_path / "K.scx"
        path.write_text("simplicial-complex v1\nvertices 17\n"
                        "simplex 1 0 1\nsimplex 0 16\n")
        code, out, err = run(capsys, "generate", "davisX:K=%s" % path)
        assert code == 65
        assert_refusal(out, err)
        assert err.startswith("error: TooLarge: ")


class TestValidate:
    def test_torus_passes(self, tmp_path, capsys):
        f = tmp_path / "t.cplx"
        run(capsys, "generate", "torus:4,4", "--out", str(f))
        code, out, _ = run(capsys, "validate", str(f))
        assert code == 0
        assert "is_fcc = true" in out

    def test_square_fails(self, tmp_path, capsys):
        f = tmp_path / "sq.cplx"
        f.write_text("cubical-complex v1\nvertices 4\ncube 2 0 1 2 3\n")
        code, out, _ = run(capsys, "validate", str(f))
        assert code == 1
        assert "no_boundary = false" in out

    def test_garbage_exits_64(self, tmp_path, capsys):
        f = tmp_path / "bad"
        f.write_text("not a complex\n")
        code, _, err = run(capsys, "validate", str(f))
        assert code == 64
        assert "expected" in err

    def test_empty_cell_line_exits_64(self, tmp_path, capsys):
        f = tmp_path / "bad.cplx"
        f.write_text("cubical-complex v1\nvertices 4\ncube\n")
        code, out, err = run(capsys, "validate", str(f))
        assert code == 64
        assert_refusal(out, err)
        k = tmp_path / "bad.scx"
        k.write_text("simplicial-complex v1\nvertices 3\nsimplex\n")
        code, out, err = run(capsys, "generate", "davisX:K=%s" % k)
        assert code == 64
        assert_refusal(out, err)


    def test_huge_cube_dimension_exits_64(self, tmp_path, capsys):
        f = tmp_path / "huge.cplx"
        f.write_text("cubical-complex v1\nvertices 4\n"
                     "cube 1000000000000000 0 1\n")
        code, out, err = run(capsys, "validate", str(f))
        assert code == 64
        assert_refusal(out, err)
        f.write_text("cubical-complex v1\nvertices 4\ncube 3 0 1\n")
        code, out, err = run(capsys, "validate", str(f))
        assert code == 64
        assert err == "error: cube of dimension 3 needs 8 corners, got 2\n"

    def test_huge_vertex_count_exits_64_before_allocating(self, tmp_path,
                                                          capsys):
        f = tmp_path / "huge.cplx"
        f.write_text("cubical-complex v1\nvertices 1000000000000000\n")
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "validate", str(f))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 64
        assert_refusal(out, err)
        assert err == "error: line 2: more than 1048576 vertices\n"
        assert peak < 1 << 20

    def test_huge_simplex_exits_64_before_building_faces(self, tmp_path,
                                                        capsys):
        # all 2^41 faces of one simplex 40 line would never fit in memory
        f = tmp_path / "huge.scx"
        f.write_text("simplicial-complex v1\nvertices 41\nsimplex 40 %s\n"
                     % " ".join(map(str, range(41))))
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "generate", "davisX:K=%s" % f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 64
        assert_refusal(out, err)
        assert err == "error: simplex of dimension 40 is above 16\n"
        assert peak < 1 << 20


class TestRankVerifiesOnce:
    def test_rank_calls_verify_folding_once(self, tmp_path, capsys,
                                            monkeypatch):
        path = tmp_path / "t.cplx"
        path.write_text(serialize_complex(torus_grid((4, 4, 4))))
        calls = []
        real = folding.verify_folding

        def counted(cplx, fold):
            calls.append(fold)
            return real(cplx, fold)

        monkeypatch.setattr(folding, "verify_folding", counted)
        code, out, _ = run(capsys, "rank", str(path), "--dim3")
        assert code == 0 and "verdict = split" in out
        assert len(calls) == 1


class TestUsageErrors:
    # argparse's own exit code 2 would read as rank's "inconclusive"
    @pytest.mark.parametrize("argv", [["rank"], ["nosuch", "x.cplx"],
                                      ["geodesic", "x.cplx", "--from", "a"],
                                      ["rank", "x.cplx", "--general",
                                       "--length-cap", "5"],
                                      ["generate", "davisX:K=x",
                                       "--max-generators", "5"]])
    def test_usage_error_exits_64(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 64
        assert_refusal(out, err)

    def test_generate_takes_no_generator_cap(self, capsys):
        # davis_Y's cap is a library parameter only
        _, _, err = run(capsys, "generate", "davisX:K=x",
                        "--max-generators", "5")
        assert "unrecognized arguments: --max-generators 5" in err

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--help"])
        assert info.value.code == 0
        assert "usage: foldcc" in capsys.readouterr().out


class TestFailedOutWrite:
    # a failed --out write is a refusal: nothing may reach stdout
    @pytest.mark.parametrize("command", ["decompose", "hyperplanes"])
    def test_directory_over_a_file(self, tmp_path, capsys, command):
        f = tmp_path / "t.cplx"
        run(capsys, "generate", "torus:4,4", "--out", str(f))
        code, out, err = run(capsys, command, str(f), "--color", "1",
                             "--out", str(f))
        assert code == 64
        assert_refusal(out, err)

    def test_geodesic_path_into_a_missing_directory(self, tmp_path, capsys):
        f = tmp_path / "t.cplx"
        run(capsys, "generate", "torus:4,6,4", "--out", str(f))
        code, out, err = run(capsys, "geodesic", str(f), "--from", "0",
                             "--out", str(tmp_path / "none" / "p.path"))
        assert code == 64
        assert_refusal(out, err)

    def test_rank_witness_into_a_directory(self, tmp_path, capsys):
        f = tmp_path / "c4.cplx"
        run(capsys, "generate", "torus:4", "--out", str(f))
        code, out, _ = run(capsys, "rank", str(f), "--general")
        assert code == 1 and "witness.path.length" in out
        code, out, err = run(capsys, "rank", str(f), "--general",
                             "--out", str(tmp_path))
        assert code == 64
        assert_refusal(out, err)


class TestRank:
    def test_torus_split_exit_zero(self, tmp_path, capsys):
        f = tmp_path / "t.cplx"
        run(capsys, "generate", "torus:4,4,4", "--out", str(f))
        code, out, _ = run(capsys, "rank", str(f), "--dim3")
        assert code == 0
        assert "verdict = split" in out
        assert "bipartitions.accepted = 3" in out

    def test_general_mode_on_dim2(self, tmp_path, capsys):
        f = tmp_path / "t.cplx"
        run(capsys, "generate", "torus:4,6", "--out", str(f))
        code, out, _ = run(capsys, "rank", str(f), "--general")
        assert code == 0

    def test_non_fcc_errors(self, tmp_path, capsys):
        f = tmp_path / "t.cplx"
        run(capsys, "generate", "torus:5,4", "--out", str(f))
        code, _, err = run(capsys, "rank", str(f), "--general")
        assert code == 65

    def test_dim3_on_wrong_dimension_errors(self, tmp_path, capsys):
        f = tmp_path / "t.cplx"
        run(capsys, "generate", "torus:4,4", "--out", str(f))
        code, _, _ = run(capsys, "rank", str(f), "--dim3")
        assert code == 65

    @pytest.mark.parametrize("argv", [("decompose", "--color", "1"),
                                      ("hyperplanes", "--color", "1"),
                                      ("geodesic", "--from", "0"),
                                      ("rank",)])
    def test_unfoldable_complex_is_not_an_fcc(self, tmp_path, capsys, argv):
        # torus(5,4) is a valid cubical complex without a folding
        f = tmp_path / "t.cplx"
        run(capsys, "generate", "torus:5,4", "--out", str(f))
        code, out, err = run(capsys, argv[0], str(f), *argv[1:])
        assert (code, out, err) == (
            65, "", "error: NotFCC: complex is not foldable\n")


class TestOtherCommands:
    def test_fold_writes_serialization(self, tmp_path, capsys):
        f = tmp_path / "t.cplx"
        run(capsys, "generate", "torus:4,4", "--out", str(f))
        code, out, _ = run(capsys, "fold", str(f))
        assert code == 0
        assert out.startswith("folding v1\n")

    def test_fold_odd_torus_reports_witness(self, tmp_path, capsys):
        f = tmp_path / "t.cplx"
        run(capsys, "generate", "torus:5,4", "--out", str(f))
        code, out, _ = run(capsys, "fold", str(f))
        assert code == 1
        assert "reason = parity" in out
        assert "cycle.length = 5" in out

    def test_fold_long_odd_torus_output(self, tmp_path, capsys):
        # stdout pinned byte for byte: the least base vertex on a shortest
        # odd cycle, and its BFS path on the parity double cover
        f = tmp_path / "t.cplx"
        run(capsys, "generate", "torus:45,4,4", "--out", str(f))
        assert run(capsys, "fold", str(f)) == (1, FOLD_T45, "")
        cplx = torus_grid((45, 4, 4))
        perm = list(range(cplx.vertex_count))
        random.Random(45).shuffle(perm)
        cubes = [tuple(perm[v] for v in cplx.cubes[k][i])
                 for k, i in cplx.maximal_cubes()]
        g = tmp_path / "r.cplx"
        g.write_text(serialize_complex(
            CubicalComplex.from_maximal_cubes(cplx.vertex_count, cubes)))
        assert run(capsys, "fold", str(g)) == (1, FOLD_T45_RELABELLED, "")

    @pytest.mark.parametrize("dims", [(45, 4, 4), (9, 9, 9)])
    def test_fold_witness_passes_the_independent_check(self, tmp_path,
                                                       capsys, dims):
        cplx = relabelled(torus_grid(dims), random.Random(len(dims) + 1))
        f = tmp_path / "r.cplx"
        f.write_text(serialize_complex(cplx))
        code, out, err = run(capsys, "fold", str(f))
        assert (code, err) == (1, "")
        report = dict(line.split(" = ") for line in out.splitlines()[1:])
        assert report["reason"] == "parity"
        cycle = tuple(map(int, report["cycle"].split()))
        shortest = min(k for k in dims if k % 2)
        assert report["cycle.length"] == str(shortest)
        assert_parity_witness(cplx, set(map(int, report["classes"].split())),
                              cycle, shortest)

    def test_decompose_writes_spaces(self, tmp_path, capsys):
        f = tmp_path / "t.cplx"
        run(capsys, "generate", "torus:4,4", "--out", str(f))
        outdir = tmp_path / "gos"
        code, out, _ = run(capsys, "decompose", str(f), "--color", "1",
                           "--out", str(outdir))
        assert code == 0
        assert "base.vertices = 4" in out
        files = sorted(os.listdir(outdir))
        assert "vertex_space_0.cplx" in files
        assert "edge_space_0.cplx" in files
        assert "map_0_side0.txt" in files

    def test_hyperplanes_report(self, tmp_path, capsys):
        f = tmp_path / "t.cplx"
        run(capsys, "generate", "torus:4,4", "--out", str(f))
        code, out, _ = run(capsys, "hyperplanes", str(f), "--color", "2")
        assert code == 0
        assert "components = 4" in out

    def test_geodesic_report(self, tmp_path, capsys):
        f = tmp_path / "t.cplx"
        run(capsys, "generate", "torus:4,4", "--out", str(f))
        code, out, _ = run(capsys, "geodesic", str(f), "--from", "0")
        assert code == 0
        assert "classes = 2" in out

    def test_geodesic_rejects_unknown_vertex(self, tmp_path, capsys):
        f = tmp_path / "t.cplx"
        run(capsys, "generate", "torus:4,4", "--out", str(f))
        for v in ("-1", "16"):
            code, out, err = run(capsys, "geodesic", str(f), "--from", v)
            assert code == 65
            assert_refusal(out, err)
            assert "UnknownVertex" in err

    @pytest.mark.parametrize("cubes, reason", [
        # a 4-edge path: no walk comes back to its end
        ([(v, v + 1) for v in range(4)],
         "no closed loop through vertex 0"),
        # the slit strip: 6 squares on the circle 0..5 with tops 6..11,
        # except that the square on (5, 0) ends at a separate top 12, so
        # the rung colour at 0 runs 6-0-12 and stops
        ([(v, v + 1, v + 6, v + 7) for v in range(5)] + [(5, 0, 11, 12)],
         "no connector walk exists (valence-1 vertex?)"),
    ])
    def test_geodesic_reports_a_failed_walk(self, tmp_path, capsys, cubes,
                                            reason):
        f = tmp_path / "c.cplx"
        cplx = CubicalComplex.from_maximal_cubes(
            max(map(max, cubes)) + 1, cubes)
        f.write_text(serialize_complex(cplx))
        code, out, err = run(capsys, "geodesic", str(f), "--from", "0")
        assert code == 0 and err == ""
        assert "class.0.path = unavailable (%s)\n" % reason in out

    def test_info(self, tmp_path, capsys):
        f = tmp_path / "t.cplx"
        run(capsys, "generate", "torus:4,4", "--out", str(f))
        code, out, _ = run(capsys, "info", str(f))
        assert code == 0
        assert "euler_characteristic = 0" in out
        assert "provenance = torus:4,4" in out


FOLD_T45 = (
    "folding-report v1\n"
    "foldable = false\n"
    "reason = parity\n"
    "classes = 0 1 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25"
    " 26 27 28 29 30 31 32 33 34 35 36 37 38 39 40 41 42 43 44 45 46 47 48\n"
    "cycle = 0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23"
    " 24 25 26 27 28 29 30 31 32 33 34 35 36 37 38 39 40 41 42 43 44\n"
    "cycle.length = 45\n")

FOLD_T45_RELABELLED = (
    "folding-report v1\n"
    "foldable = false\n"
    "reason = parity\n"
    "classes = 2 3 7 8 9 11 13 14 15 16 18 19 20 21 22 23 24 25 26 27 28 29"
    " 30 31 32 33 34 35 36 37 38 39 40 41 42 43 44 45 46 47 48 49 50 51 52\n"
    "cycle = 0 222 122 229 305 210 142 145 515 682 524 188 385 644 590 456"
    " 228 357 442 195 316 261 360 372 596 678 253 48 404 471 542 46 614 380"
    " 37 77 480 423 605 637 403 9 452 42 352\n"
    "cycle.length = 45\n")


class TestInternalErrors:
    @pytest.mark.parametrize("exc", [ConstructionFailed("bad folding"),
                                     RuntimeError("boom")])
    def test_unexpected_exception_exits_70(self, tmp_path, capsys,
                                           monkeypatch, exc):
        def broken(args):
            raise exc

        monkeypatch.setattr(cli, "cmd_info", broken)
        f = tmp_path / "t.cplx"
        run(capsys, "generate", "torus:4,4", "--out", str(f))
        code, out, err = run(capsys, "info", str(f))
        assert code == cli.EX_INTERNAL == 70
        assert_refusal(out, err)
        assert err.startswith("error: internal: ")


class TestCyclicCollector:
    # main runs the command with the cyclic collector off and gives it
    # back in the state it found it, on every way out
    PATHS = {"ok": (["info", "F"], 0),
             "usage": (["rank"], cli.EX_USAGE),
             "precondition": (["rank", "--dim3", "F"], cli.EX_DATAERR),
             "internal": (["info", "F"], cli.EX_INTERNAL),
             "help": (["--help"], None)}

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("path", sorted(PATHS))
    def test_state_is_restored(self, tmp_path, capsys, monkeypatch, enabled,
                               path):
        f = tmp_path / "t.cplx"
        f.write_text(serialize_complex(torus_grid((4, 4))))
        argv, code = self.PATHS[path]
        argv = [str(f) if a == "F" else a for a in argv]
        seen = []
        cmd_info = cli.cmd_info

        def spy(args):
            seen.append(gc.isenabled())
            if path == "internal":
                raise RuntimeError("boom")
            return cmd_info(args)

        monkeypatch.setattr(cli, "cmd_info", spy)
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            if code is None:
                with pytest.raises(SystemExit):
                    main(argv)
            else:
                assert main(argv) == code
            assert gc.isenabled() == enabled
        finally:
            (gc.enable if was else gc.disable)()
        assert seen == ([False] if argv[0] == "info" else [])
