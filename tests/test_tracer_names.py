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
