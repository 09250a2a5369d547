"""Library-side operations of the benchmark, one process each.

    python3 foldbench/lib_worker.py generate OUTDIR NAME=SPEC ...
    python3 foldbench/lib_worker.py sweep RESULT.json FILE ...

`generate` builds complexes with foldcc.generators and writes each as
OUTDIR/NAME.cplx (cubical) or OUTDIR/NAME.scx (simplicial).  SPEC is one of
torus:A,B,..  hemispherex:N:M1,M2,..  davisX:NAME  product:NAME,NAME,
where NAME refers to an earlier item of the same command.

`sweep` runs the library pipeline over the files, one at a time, holding
only the current complex: load_complex, find_folding, validate_fcc with
that folding, detect_rank3 with assume_fcc, and on a split verdict
graph_of_spaces plus is_covering on every attaching map for every color.
A step that refuses the input, or a rank-one verdict, ends the pipeline
for it.  RESULT.json gets the outputs in foldcc's own text forms and the
seconds the pass took, from reading the first file (after foldcc is
imported) to the last result.
"""

import json
import os
import sys
import time

sys.path.insert(0, os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))


def generate(outdir, items):
    from foldcc import core, generators
    made = {}
    for item in items:
        name, _, spec = item.partition("=")
        kind, _, rest = spec.partition(":")
        if kind == "torus":
            obj = generators.torus_grid(tuple(int(x) for x in rest.split(",")))
        elif kind == "hemispherex":
            n, _, mult = rest.partition(":")
            obj = generators.hemispherex(
                int(n), tuple(int(x) for x in mult.split(",")),
                allow_dim1=int(n) == 1).complex
        elif kind == "davisX":
            obj = generators.davis_X(made[rest]).complex
        elif kind == "product":
            a, b = rest.split(",")
            obj = generators.product(made[a], made[b])
        else:
            raise SystemExit("unknown spec %r" % spec)
        made[name] = obj
        if kind == "hemispherex":
            text, ext = core.serialize_simplicial(obj), ".scx"
        else:
            text, ext = core.serialize_complex(obj), ".cplx"
        with open(os.path.join(outdir, name + ext), "w") as fh:
            fh.write(text)
    return 0


def _pipeline(text):
    from foldcc import core, decomposition, folding, geodesic, rank
    out = {}
    cplx = core.load_complex(text)
    fold = folding.find_folding(cplx)
    if isinstance(fold, folding.NotFoldable):
        out["not_foldable"] = {
            "reason": fold.reason,
            "cycle": list(fold.cycle) if fold.cycle is not None else None}
        return out
    out["folding"] = folding.serialize_folding(fold)
    report = core.validate_fcc(cplx, folding=fold)
    out["fcc"] = report.render()
    if not report.is_fcc:
        return out
    verdict = rank.detect_rank3(cplx, folding=fold, assume_fcc=True)
    out["rank"] = verdict.render()
    if verdict.witness_path is not None:
        out["witness"] = geodesic.serialize_path(verdict.witness_path)
        return out
    coloring = folding.coloring_from(fold)
    spaces = {}
    for color in range(1, coloring.n + 1):
        gos = decomposition.graph_of_spaces(cplx, coloring, color)
        spaces[color] = {
            "vertex_spaces": [p.complex.cell_counts() for p in gos.vertex_spaces],
            "edge_spaces": [h.complex.cell_counts() for h in gos.edge_spaces],
            "covering": [decomposition.is_covering(g).is_covering
                         for pair in gos.attaching for g in pair],
        }
    out["spaces"] = spaces
    return out


def sweep(result_path, files):
    # foldcc is imported before the clock starts
    import foldcc.decomposition, foldcc.geodesic, foldcc.rank  # noqa: F401
    t0 = time.perf_counter()
    results = []
    for path in files:
        with open(path, "r", encoding="ascii") as fh:
            text = fh.read()
        results.append(_pipeline(text))
    seconds = time.perf_counter() - t0
    with open(result_path, "w") as fh:
        json.dump({"seconds": seconds, "results": results}, fh)
    return 0


def main(argv):
    if argv[0] == "generate":
        return generate(argv[1], argv[2:])
    if argv[0] == "sweep":
        return sweep(argv[1], argv[2:])
    raise SystemExit("unknown command %r" % argv[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
