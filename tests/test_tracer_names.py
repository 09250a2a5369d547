"""foldbench/tracer.py wraps foldcc functions by name; every name it lists
must still resolve, or traced benchmark runs fail on getattr."""

import importlib.util
import os

from foldcc import (cli, core, decomposition, folding, generators, geodesic,
                    rank)

TRACER = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                      "foldbench", "tracer.py")
MODULES = {"cli": cli, "core": core, "folding": folding,
           "decomposition": decomposition, "geodesic": geodesic,
           "rank": rank, "generators": generators}


def load_tracer():
    spec = importlib.util.spec_from_file_location("foldbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_resolves():
    tracer = load_tracer()
    for table in (tracer.TIMED, tracer.COUNTED):
        for modname, names in table.items():
            for name in names:
                assert callable(getattr(MODULES[modname], name)), (modname, name)
    assert callable(core.CubicalComplex.faces)
    assert callable(core.CubicalComplex.from_maximal_cubes)


def test_graph_of_spaces_calls_the_timed_layers_once(monkeypatch):
    # the tracer times subcomplex_XT, hyperplanes and direction_parity by
    # rebinding them in every module; a graph of spaces that bypassed them
    # would read 0 there
    import foldcc
    from foldcc.folding import coloring_from, find_folding
    from foldcc.generators import torus_grid
    trace = load_tracer().Trace()
    for name in ("subcomplex_XT", "hyperplanes", "direction_parity"):
        orig = getattr(decomposition, name)
        wrapped = trace.counted("decomposition." + name, orig)
        for mod in [foldcc] + list(MODULES.values()):
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    monkeypatch.setattr(mod, attr, wrapped)
    cplx = torus_grid((4, 4, 4))
    decomposition.graph_of_spaces(cplx, coloring_from(find_folding(cplx)), 2)
    assert trace.counts == {"decomposition.subcomplex_XT": [1],
                            "decomposition.hyperplanes": [1],
                            "decomposition.direction_parity": [1]}
