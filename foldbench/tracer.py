"""Per-layer tracing of foldcc from outside the program.

    python3 foldbench/tracer.py OUT.json SPAWN cli <foldcc arguments>
    python3 foldbench/tracer.py OUT.json SPAWN lib <lib_worker arguments>

runs one foldcc CLI command, or one library worker command, with the
public functions of foldcc's modules wrapped, and writes the counts and
times to OUT.json when the process ends.  SPAWN is the time.monotonic()
reading taken by the parent just before it started this process (the
clock is system wide), so `cli.startup.s` runs from spawn to the entry of
`cli.main`.

A wrapper replaces every module's binding of a function: `cli` and `rank`
import `find_folding`, `validate_fcc`, `graph_of_spaces`, `subcomplex_XT`
and others by name, and the package root re-exports many.  Times are
inclusive; a `.self` time subtracts the time spent in wrapped callees.
The hot functions `canonical_cube`, `CubicalComplex.faces` and
`distance_class` are counted, not timed.
"""

import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

TIMED = {
    "cli": ["main"],
    "core": ["load_complex", "validate_fcc", "link", "is_flag",
             "serialize_complex"],
    "folding": ["find_folding", "parallel_classes", "verify_folding"],
    "decomposition": ["graph_of_spaces", "subcomplex_XT", "hyperplanes",
                      "direction_parity", "is_covering"],
    "geodesic": ["sim_v_classes", "build_all_color_geodesic"],
    "rank": ["detect_rank3", "splitting_bipartitions"],
    "generators": ["davis_X", "product", "torus_grid"],
}
COUNTED = {"core": ["canonical_cube"], "geodesic": ["distance_class"]}

# (metric, unit, how it is read off the summed trace)
LAYER_METRICS = [
    ("cli.startup.s", "s", ("startup",)),
    ("cli.main.s", "s", ("time", "cli.main")),
    ("core.load_complex.s", "s", ("time", "core.load_complex")),
    ("core.from_maximal_cubes.s", "s", ("time", "core.from_maximal_cubes")),
    ("core.canonical_cube.calls", "calls", ("count", "core.canonical_cube")),
    ("core.canonical_cube.per_cell", "calls/cell", ("per_cell",)),
    ("core.faces.calls", "calls", ("count", "core.faces")),
    ("core.validate_fcc.s", "s", ("time", "core.validate_fcc")),
    ("core.validate_fcc.self.s", "s", ("self", "core.validate_fcc")),
    ("core.link.s", "s", ("time", "core.link")),
    ("core.is_flag.s", "s", ("time", "core.is_flag")),
    ("core.serialize_complex.s", "s", ("time", "core.serialize_complex")),
    ("folding.find_folding.s", "s", ("time", "folding.find_folding")),
    ("folding.find_folding.witness.s", "s",
     ("time", "folding.find_folding.witness")),
    ("folding.parallel_classes.s", "s", ("time", "folding.parallel_classes")),
    ("folding.verify_folding.s", "s", ("time", "folding.verify_folding")),
    ("folding.verify_folding.calls", "calls",
     ("calls", "folding.verify_folding")),
    ("decomposition.graph_of_spaces.s", "s",
     ("time", "decomposition.graph_of_spaces")),
    ("decomposition.graph_of_spaces.self.s", "s",
     ("self", "decomposition.graph_of_spaces")),
    ("decomposition.subcomplex_XT.s", "s",
     ("time", "decomposition.subcomplex_XT")),
    ("decomposition.hyperplanes.s", "s", ("time", "decomposition.hyperplanes")),
    ("decomposition.direction_parity.s", "s",
     ("time", "decomposition.direction_parity")),
    ("decomposition.is_covering.s", "s", ("time", "decomposition.is_covering")),
    ("decomposition.is_covering.calls", "calls",
     ("calls", "decomposition.is_covering")),
    ("geodesic.sim_v_classes.s", "s", ("time", "geodesic.sim_v_classes")),
    ("geodesic.sim_v_classes.calls", "calls",
     ("calls", "geodesic.sim_v_classes")),
    ("geodesic.distance_class.calls", "calls",
     ("count", "geodesic.distance_class")),
    ("geodesic.build_all_color_geodesic.s", "s",
     ("time", "geodesic.build_all_color_geodesic")),
    ("rank.detect_rank3.s", "s", ("time", "rank.detect_rank3")),
    ("rank.detect_rank3.self.s", "s", ("self", "rank.detect_rank3")),
    ("rank.splitting_bipartitions.s", "s",
     ("time", "rank.splitting_bipartitions")),
    ("generators.davis_X.s", "s", ("time", "generators.davis_X")),
    ("generators.product.s", "s", ("time", "generators.product")),
    ("generators.torus_grid.s", "s", ("time", "generators.torus_grid")),
]


class Trace:
    """Call counts, inclusive and self times, kept in memory."""

    def __init__(self):
        self.spans = {}     # name -> [calls, inclusive s, self s]
        self.counts = {}    # name -> calls
        self.stack = []     # per open span: seconds spent in wrapped callees
        self.load_canon = 0
        self.load_cells = 0
        self.cli_entry = None

    def timed(self, name, fn, classify=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            key = name
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                if classify is not None:
                    key = classify(name, result)
                return result
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                rec = spans.get(key)
                if rec is None:
                    rec = spans[key] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[0]

        return wrapper

    def counted(self, name, fn):
        cell = self.counts.setdefault(name, [0])

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def load_hook(self, fn):
        # canonical_cube calls and closure cells of each load_complex call
        canon = self.counts.setdefault("core.canonical_cube", [0])

        def wrapper(*args, **kwargs):
            before = canon[0]
            result = fn(*args, **kwargs)
            self.load_canon += canon[0] - before
            self.load_cells += sum(len(level) for level in result.cubes)
            return result

        return wrapper

    def main_hook(self, fn):
        def wrapper(*args, **kwargs):
            self.cli_entry = time.monotonic()
            return fn(*args, **kwargs)

        return wrapper

    def dump(self, spawn):
        return {
            "spans": self.spans,
            "counts": {k: v[0] for k, v in self.counts.items()},
            "load_canon": self.load_canon,
            "load_cells": self.load_cells,
            "startup": (self.cli_entry - spawn
                        if self.cli_entry is not None else 0.0),
        }


def _classify_folding(name, result):
    if type(result).__name__ == "NotFoldable":
        return name + ".witness"
    return name


def install(trace):
    """Wrap foldcc's public functions and rebind them in every module."""
    import foldcc
    from foldcc import (cli, core, decomposition, folding, generators,
                        geodesic, rank)
    modules = {"cli": cli, "core": core, "folding": folding,
               "decomposition": decomposition, "geodesic": geodesic,
               "rank": rank, "generators": generators}

    def rebind(orig, new):
        for mod in [foldcc] + list(modules.values()):
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, new)

    for modname, names in COUNTED.items():
        for fname in names:
            orig = getattr(modules[modname], fname)
            rebind(orig, trace.counted("%s.%s" % (modname, fname), orig))
    for modname, names in TIMED.items():
        for fname in names:
            orig = getattr(modules[modname], fname)
            fn = orig
            if (modname, fname) == ("core", "load_complex"):
                fn = trace.load_hook(fn)
            if (modname, fname) == ("cli", "main"):
                fn = trace.main_hook(fn)
            classify = _classify_folding if fname == "find_folding" else None
            rebind(orig, trace.timed("%s.%s" % (modname, fname), fn, classify))
    cc = core.CubicalComplex
    cc.faces = trace.counted("core.faces", cc.faces)
    orig = cc.__dict__["from_maximal_cubes"].__func__
    cc.from_maximal_cubes = classmethod(
        trace.timed("core.from_maximal_cubes", orig))


def merge(weighted):
    """Weighted sum of process traces, given as (trace, weight) pairs."""
    out = {"spans": {}, "counts": {}, "load_canon": 0, "load_cells": 0,
           "startup": 0.0}
    for d, w in weighted:
        for name, rec in d["spans"].items():
            acc = out["spans"].setdefault(name, [0, 0.0, 0.0])
            for j in range(3):
                acc[j] += rec[j] * w
        for name, calls in d["counts"].items():
            out["counts"][name] = out["counts"].get(name, 0) + calls * w
        for key in ("load_canon", "load_cells", "startup"):
            out[key] += d[key] * w
    return out


def layer_values(trace):
    """Every per-layer metric of a merged trace."""
    out = {}
    for metric, unit, (kind, *name) in LAYER_METRICS:
        if kind == "startup":
            value = trace["startup"]
        elif kind == "per_cell":
            cells = trace["load_cells"]
            value = trace["load_canon"] / cells if cells else 0.0
        elif kind == "count":
            value = trace["counts"].get(name[0], 0)
        else:
            rec = trace["spans"].get(name[0], [0, 0.0, 0.0])
            value = rec[{"calls": 0, "time": 1, "self": 2}[kind]]
        out[metric] = {"value": value, "unit": unit}
    return out


def main(argv):
    out_path, spawn, mode, rest = argv[1], float(argv[2]), argv[3], argv[4:]
    sys.path.insert(0, os.path.join(ROOT, "src"))
    trace = Trace()
    install(trace)
    try:
        if mode == "cli":
            from foldcc import cli
            code = cli.main(rest)
        else:
            import lib_worker
            code = lib_worker.main(rest)
    finally:
        with open(out_path, "w") as fh:
            json.dump(trace.dump(spawn), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv))
