"""Command line surface.

Commands: validate, fold, decompose, hyperplanes, rank, geodesic,
generate, info.  Reports go to stdout in the canonical key/value form;
--out writes complexes, foldings and paths in their file formats.

Exit codes: validate returns 0 iff the complex is an FCC; rank returns
0 = split, 1 = rank one, 2 = inconclusive; 64 = malformed input or usage,
65 = input fails a precondition, 70 = internal error
(ConstructionFailed or any other unexpected exception).  Every error
prints one `error:` line to stderr.
"""

import argparse
import os
import sys

from . import core, decomposition, generators, geodesic, rank
from .errors import (ConstructionFailed, FoldccError, NotAComplex,
                     ParseError, UnknownVertex)
from .folding import (NotFoldable, coloring_from, find_folding,
                      serialize_folding)

EX_USAGE = 64
EX_DATAERR = 65
EX_INTERNAL = 70


def _read(path):
    with open(path, "r", encoding="ascii") as fh:
        return fh.read()


def _write(path, text):
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(text)


def _load(path):
    return core.load_complex(_read(path))


def cmd_validate(args):
    report = core.validate_fcc(_load(args.file))
    sys.stdout.write(report.render())
    return 0 if report.is_fcc else 1


def cmd_fold(args):
    cplx = _load(args.file)
    result = find_folding(cplx)
    if isinstance(result, NotFoldable):
        pairs = [("foldable", False), ("reason", result.reason)]
        if result.classes is not None:
            pairs.append(("classes", sorted(result.classes)))
        if result.cycle is not None:
            pairs.append(("cycle", result.cycle))
            pairs.append(("cycle.length", len(result.cycle)))
        sys.stdout.write(core.render_report("folding-report v1", pairs))
        return 1
    text = serialize_folding(result)
    if args.out:
        _write(args.out, text)
        sys.stdout.write(core.render_report(
            "folding-report v1",
            [("foldable", True), ("directions", result.n), ("out", args.out)]))
    else:
        sys.stdout.write(text)
    return 0


def _colored(path):
    cplx = core.load_complex(_read(path))
    folding = find_folding(cplx)
    if isinstance(folding, NotFoldable):
        raise NotAComplex("complex is not foldable")
    return cplx, coloring_from(folding)


def cmd_decompose(args):
    cplx, coloring = _colored(args.file)
    gos = decomposition.graph_of_spaces(cplx, coloring, args.color)
    sys.stdout.write(core.render_report("graph-of-spaces v1", gos.to_kv()))
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        for j, piece in enumerate(gos.vertex_spaces):
            _write(os.path.join(args.out, "vertex_space_%d.cplx" % j),
                   core.serialize_complex(piece.complex))
        for j, h in enumerate(gos.edge_spaces):
            _write(os.path.join(args.out, "edge_space_%d.cplx" % j),
                   core.serialize_complex(h.complex))
        for j, (g0, g1) in enumerate(gos.attaching):
            for g in (g0, g1):
                lines = []
                for w, v in enumerate(g.vertex_map):
                    lines.append("vertex %d -> %d" % (w, v))
                Y = g.edge_space.complex
                for u, w in Y.cubes[1] if Y.dim >= 1 else ():
                    lines.append("edge %d %d -> %d %d"
                                 % (u, w, g.vertex_map[u], g.vertex_map[w]))
                _write(os.path.join(args.out, "map_%d_side%d.txt" % (j, g.side)),
                       "\n".join(lines) + "\n")
    return 0


def cmd_hyperplanes(args):
    cplx, coloring = _colored(args.file)
    comps = decomposition.hyperplanes(cplx, coloring, args.color)
    pairs = [("color", args.color), ("components", len(comps))]
    for j, h in enumerate(comps):
        pairs.append(("component.%d.cells" % j, h.complex.cell_counts()))
    sys.stdout.write(core.render_report("hyperplanes v1", pairs))
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        for j, h in enumerate(comps):
            _write(os.path.join(args.out, "hyperplane_%d.cplx" % j),
                   core.serialize_complex(h.complex))
    return 0


def cmd_rank(args):
    cplx = _load(args.file)
    mode = args.mode or ("--dim3" if cplx.dim == 3 else "--general")
    if mode == "--dim3":
        report = rank.detect_rank3(cplx, diagnostics=args.diagnostics)
    else:
        report = rank.detect_rank_general(
            cplx, length_cap=args.length_cap, diagnostics=args.diagnostics)
    sys.stdout.write(report.render())
    if args.out and report.witness_path is not None:
        _write(args.out, geodesic.serialize_path(report.witness_path))
    return report.exit_code()


def cmd_geodesic(args):
    cplx, coloring = _colored(args.file)
    v = args.from_vertex
    if not (0 <= v < cplx.vertex_count):
        raise UnknownVertex("vertex %d" % v)
    simv = geodesic.sim_v_classes(cplx, coloring, v)
    pairs = [("vertex", v), ("classes", len(simv.partition))]
    for j, part in enumerate(simv.partition):
        pairs.append(("class.%d" % j, sorted(part)))
    paths = []
    for j, part in enumerate(simv.partition):
        try:
            path = geodesic.build_all_color_geodesic(cplx, coloring, v, part)
        except FoldccError as exc:
            pairs.append(("class.%d.path" % j, "unavailable (%s)" % exc))
            continue
        paths.append(path)
        pairs.append(("class.%d.path.length" % j, len(path)))
        pairs.append(("class.%d.path.vertices" % j, path.vertices()))
    sys.stdout.write(core.render_report("geodesic-report v1", pairs))
    if args.out and paths:
        _write(args.out, geodesic.serialize_path(paths[0]))
    return 0


def _parse_generate_spec(spec, args):
    kind, _, rest = spec.partition(":")
    if kind == "torus":
        dims = tuple(int(x) for x in rest.split(","))
        cplx = generators.torus_grid(dims)
        cplx.provenance = spec
        return core.serialize_complex(cplx)
    if kind == "hemispherex":
        fields = dict(item.split("=", 1) for item in rest.split(",", 1))
        n = int(fields["n"])
        mult = tuple(int(x) for x in fields["m"].split(","))
        hx = generators.hemispherex(n, mult, allow_dim1=args.allow_dim1)
        K = hx.complex
        K.provenance = spec
        return core.serialize_simplicial(K)
    if kind == "davisX":
        if not rest.startswith("K="):
            raise ParseError("davisX needs K=<path>")
        K = core.load_simplicial(_read(rest[2:]))
        sub = generators.davis_X(K, max_generators=args.max_generators)
        sub.complex.provenance = spec
        return core.serialize_complex(sub.complex)
    if kind == "product":
        p1, _, p2 = rest.partition(",")
        cplx = generators.product(core.load_complex(_read(p1)),
                                  core.load_complex(_read(p2)))
        cplx.provenance = spec
        return core.serialize_complex(cplx)
    if kind == "graph":
        K = core.load_simplicial(_read(rest))
        cplx = generators.simplicial_graph_to_cubical(K)
        cplx.provenance = spec
        return core.serialize_complex(cplx)
    raise ParseError("unknown generator spec %r" % spec)


def cmd_generate(args):
    text = _parse_generate_spec(args.spec, args)
    if args.out:
        _write(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_info(args):
    cplx = _load(args.file)
    pairs = [
        ("vertices", cplx.vertex_count),
        ("dimension", cplx.dim),
        ("cells", cplx.cell_counts()),
        ("euler_characteristic", cplx.euler_characteristic()),
        ("connected", cplx.is_connected()),
        ("components", len(cplx.vertex_components())),
        ("maximal_cubes", len(cplx.maximal_cubes())),
    ]
    if cplx.provenance:
        pairs.append(("provenance", cplx.provenance))
    sys.stdout.write(core.render_report("info v1", pairs))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="foldcc",
        description="Foldable cubical complexes: validation, foldings, "
                    "decompositions, rank dichotomy.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check the FCC axioms")
    p.add_argument("file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("fold", help="construct a folding or a witness")
    p.add_argument("file")
    p.add_argument("--out")
    p.set_defaults(func=cmd_fold)

    p = sub.add_parser("decompose", help="graph-of-spaces for one color")
    p.add_argument("file")
    p.add_argument("--color", type=int, required=True)
    p.add_argument("--out", help="directory for space files and map tables")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("hyperplanes", help="hyperplane complex components")
    p.add_argument("file")
    p.add_argument("--color", type=int, required=True)
    p.add_argument("--out", help="directory for component files")
    p.set_defaults(func=cmd_hyperplanes)

    p = sub.add_parser("rank", help="rank dichotomy analysis")
    p.add_argument("file")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--dim3", dest="mode", action="store_const",
                      const="--dim3")
    mode.add_argument("--general", dest="mode", action="store_const",
                      const="--general")
    p.add_argument("--length-cap", type=int, default=None)
    p.add_argument("--diagnostics", action="store_true")
    p.add_argument("--out", help="file for the witness path")
    p.set_defaults(func=cmd_rank, mode=None)

    p = sub.add_parser("geodesic", help="sim_v classes and geodesics at a vertex")
    p.add_argument("file")
    p.add_argument("--from", dest="from_vertex", type=int, required=True)
    p.add_argument("--out", help="file for the first path")
    p.set_defaults(func=cmd_geodesic)

    p = sub.add_parser("generate", help="construct an example complex")
    p.add_argument("spec", help="torus:4,4 | hemispherex:n=2,m=1,1,1 | "
                                "davisX:K=<path> | product:<p>,<p> | graph:<path>")
    p.add_argument("--out")
    p.add_argument("--allow-dim1", action="store_true",
                   help="permit hemispherex n=1 (extension mode)")
    p.add_argument("--max-generators", type=int, default=16)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("info", help="cell counts and basic invariants")
    p.add_argument("file")
    p.set_defaults(func=cmd_info)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EX_USAGE
    except (ValueError, KeyError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EX_USAGE
    except ConstructionFailed as exc:
        print("error: internal: %s: %s" % (type(exc).__name__, exc),
              file=sys.stderr)
        return EX_INTERNAL
    except FoldccError as exc:
        print("error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return EX_DATAERR
    except Exception as exc:
        print("error: internal: %s: %s" % (type(exc).__name__, exc),
              file=sys.stderr)
        return EX_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
