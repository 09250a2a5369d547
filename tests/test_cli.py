import os

import pytest

from foldcc import cli
from foldcc.cli import main
from foldcc.core import load_complex, serialize_complex
from foldcc.errors import ConstructionFailed


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

    def test_dim1_hemispherex_needs_flag(self, tmp_path, capsys):
        code, _, _ = run(capsys, "generate", "hemispherex:n=1,m=1,1")
        assert code == 65
        code, out, _ = run(capsys, "generate", "hemispherex:n=1,m=1,1",
                           "--allow-dim1")
        assert code == 0
        assert "simplicial-complex v1" in out


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

    def test_info(self, tmp_path, capsys):
        f = tmp_path / "t.cplx"
        run(capsys, "generate", "torus:4,4", "--out", str(f))
        code, out, _ = run(capsys, "info", str(f))
        assert code == 0
        assert "euler_characteristic = 0" in out
        assert "provenance = torus:4,4" in out


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
