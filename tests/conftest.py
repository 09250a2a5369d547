"""Session-scoped corpus of validated FCCs shared by the test modules.

Every entry is checked to be an FCC before it enters the corpus; entries
carry their folding and coloring so tests do not recompute them.
"""

import itertools
import time
from dataclasses import dataclass

import pytest

from foldcc.core import SimplicialComplex, validate_fcc
from foldcc.folding import Folding, coloring_from, find_folding
from foldcc.generators import (cycle_graph, davis_X, davis_Y, hemispherex,
                               product, torus_grid)


@dataclass
class CorpusEntry:
    name: str
    complex: object
    folding: Folding
    coloring: object
    dim: int
    expect: str          # "split" | "rank-one"
    build_seconds: float


def _entry(name, cplx, expect):
    t0 = time.monotonic()
    folding = find_folding(cplx)
    assert isinstance(folding, Folding), "%s must be foldable" % name
    report = validate_fcc(cplx, folding=folding)
    assert report.is_fcc, "%s failed FCC validation: %r" % (name, report)
    return CorpusEntry(name, cplx, folding, coloring_from(folding),
                       cplx.dim, expect, time.monotonic() - t0)


def _double_arc_X(m):
    return davis_X(hemispherex(1, m, allow_dim1=True).complex).complex


def _hemispherex_X(m):
    return davis_X(hemispherex(2, m).complex).complex


def _octahedra_wedge_Y():
    # two octahedra (antipodal pairs as listed) wedged at vertex 0: a
    # vertex of one and a vertex of the other are 3 edges apart
    pairs = ([(0, 1), (2, 3), (4, 5)], [(0, 6), (7, 8), (9, 10)])
    K = SimplicialComplex.from_maximal(
        11, [t for p in pairs for t in itertools.product(*p)])
    return davis_Y(K)


@pytest.fixture(scope="session")
def corpus3(hemispherex_meta):
    """At least 20 dimension-3 FCCs: tori, products, hemispherex quotients
    and the Davis complex Y(K) of two octahedra wedged at a vertex."""
    entries = []
    for dims in [(4, 4, 4), (4, 4, 6), (4, 6, 6), (6, 6, 6), (4, 4, 8),
                 (4, 6, 8), (6, 6, 8)]:
        entries.append(_entry("torus%s" % (dims,), torus_grid(dims), "split"))
    products = [
        ((1, 1), 4), ((1, 1), 6), ((1, 1), 8),
        ((2, 1), 4), ((2, 1), 6),
        ((1, 2), 4), ((1, 2), 6),
        ((2, 2), 4), ((2, 2), 6),
    ]
    for m, k in products:
        cplx = product(_double_arc_X(m), cycle_graph(k))
        entries.append(_entry("Xda%s_x_C%d" % (m, k), cplx, "split"))
    entries.append(_entry("XH(1, 1, 1)", hemispherex_meta[1].complex,
                          "rank-one"))
    for m in [(2, 1, 1), (1, 2, 1), (1, 1, 2)]:
        entries.append(_entry("XH%s" % (m,), _hemispherex_X(m), "rank-one"))
    entries.append(_entry("Y(octahedra wedge)", _octahedra_wedge_Y(),
                          "rank-one"))
    assert len(entries) >= 20
    assert all(e.dim == 3 for e in entries)
    return entries


@pytest.fixture(scope="session")
def corpus2(double_arc_meta):
    """Dimension-2 FCCs (links are graphs)."""
    entries = [
        _entry("torus(4, 4)", torus_grid((4, 4)), "split"),
        _entry("torus(4, 6)", torus_grid((4, 6)), "split"),
        _entry("Xda(1, 1)", double_arc_meta[1].complex, "rank-one"),
        _entry("Xda(2, 1)", _double_arc_X((2, 1)), "rank-one"),
        _entry("Xda(2, 2)", _double_arc_X((2, 2)), "rank-one"),
    ]
    return entries


@pytest.fixture(scope="session")
def corpus1():
    """Dimension-1 FCCs (even cycles)."""
    return [
        _entry("C4", cycle_graph(4), "rank-one"),
        _entry("C6", cycle_graph(6), "rank-one"),
    ]


@pytest.fixture(scope="session")
def corpus_all(corpus1, corpus2, corpus3):
    return corpus1 + corpus2 + corpus3


@pytest.fixture(scope="session")
def torus44(corpus2):
    return corpus2[0]


@pytest.fixture(scope="session")
def x_double_arc(corpus2):
    return corpus2[2]


@pytest.fixture(scope="session")
def x_hemispherex(corpus3):
    for e in corpus3:
        if e.name == "XH(1, 1, 1)":
            return e
    raise RuntimeError("octahedral hemispherex entry missing")


@pytest.fixture(scope="session")
def octahedra_wedge(corpus3):
    return next(e for e in corpus3 if e.name == "Y(octahedra wedge)")


@pytest.fixture(scope="session")
def double_arc_meta():
    """The double-arc hemispherex with its Davis subdivision maps."""
    hx = hemispherex(1, (1, 1), allow_dim1=True)
    return hx, davis_X(hx.complex)


@pytest.fixture(scope="session")
def hemispherex_meta():
    """The octahedral hemispherex with its Davis subdivision maps."""
    hx = hemispherex(2, (1, 1, 1))
    return hx, davis_X(hx.complex)
