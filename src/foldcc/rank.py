"""Rank dichotomy: product-splitting witnesses or closed rank-one
geodesics in the 1-skeleton.

A color bipartition (T, S) certifies that the universal cover splits as a
product when every cross pair of directions at every vertex spans a
square.  When no bipartition works, a closed rank-one geodesic is
constructed, in dimension 3 by a complete four-step procedure:

  (a) accept a splitting bipartition if one exists;
  (b) a cross-color direction pair strictly beyond pi gives a two-loop
      geodesic at once;
  (c) a vertex whose sim_v relation merges all colors feeds the inductive
      all-color builder;
  (d) otherwise, for some naming of the colors as blue/green/red, a blue
      component contains a vertex with a blue-red pair at distance pi and
      one with a blue-green pair at distance pi; a blue connector between
      them plus the red and green probe loops closes up into a geodesic
      using all three colors.

The theorem behind (d) guarantees the four steps never all fail on a
valid 3-dimensional input, so an Inconclusive verdict there is a test
alarm, not a mathematical case.

detect_rank_general replaces step (d), in any dimension, by the exact
turn-graph test geodesic.all_color_turn_cycle (linear in the turns), so
there Inconclusive means no closed all-color 1-skeleton geodesic exists.
"""

import itertools
from dataclasses import dataclass

from . import geodesic as geo
from .core import DisjointSet, render_report
from .errors import ConstructionFailed, NotDim3
from .folding import _prepare
from .geodesic import OrientedEdge


@dataclass
class RankReport:
    """Outcome of the rank analysis plus the coloring (and folding) used."""
    verdict: str                    # "split" | "rank-one" | "inconclusive"
    dimension: int
    coloring: object
    bipartition: tuple = None       # (T, S) as sorted tuples
    all_bipartitions: tuple = ()
    witness_path: object = None
    certificate: str = None         # "all-colors" | "strict-pi"
    inconclusive_reason: str = None
    simv_summary: dict = None       # partition shape -> vertex count
    covering_table: dict = None     # color -> (maps, non-covering)

    def exit_code(self):
        return {"split": 0, "rank-one": 1, "inconclusive": 2}[self.verdict]

    def to_kv(self):
        pairs = [
            ("verdict", self.verdict),
            ("dimension", self.dimension),
            ("colors", self.coloring.n),
            ("folding.class_directions", self.coloring.folding.direction_of),
        ]
        if self.bipartition is not None:
            pairs.append(("bipartition.T", self.bipartition[0]))
            pairs.append(("bipartition.S", self.bipartition[1]))
        pairs.append(("bipartitions.accepted", len(self.all_bipartitions)))
        for j, (T, S) in enumerate(self.all_bipartitions):
            pairs.append(("bipartitions.%d" % j,
                          "%s | %s" % (" ".join(map(str, T)),
                                       " ".join(map(str, S)))))
        if self.witness_path is not None:
            pairs.append(("witness.certificate", self.certificate))
            pairs.append(("witness.path.base", self.witness_path.base))
            pairs.append(("witness.path.length", len(self.witness_path)))
            pairs.append(("witness.path.vertices",
                          self.witness_path.vertices()))
        if self.inconclusive_reason is not None:
            pairs.append(("inconclusive.reason", self.inconclusive_reason))
        if self.simv_summary is not None:
            for shape in sorted(self.simv_summary):
                pairs.append(("simv.shape.%s" % "+".join(map(str, shape)),
                              self.simv_summary[shape]))
        if self.covering_table is not None:
            for color in sorted(self.covering_table):
                maps, bad = self.covering_table[color]
                pairs.append(("covering.color.%d.maps" % color, maps))
                pairs.append(("covering.color.%d.non_covering" % color, bad))
        return pairs

    def render(self):
        return render_report("rank-report v1", self.to_kv())


def _cross_pairs(cplx, coloring):
    # the splitting bipartitions, and the first strictly-beyond-pi cross
    # pair of directions in scan order, from one scan of the cross pairs
    obstructed = set()
    first_strict = None
    for v in range(cplx.vertex_count):
        nbrs, edges, masks = cplx.directions(v)
        colors = [coloring.colors[e] for e in edges]
        rows = list(masks.values())
        for ai, (ca, mask) in enumerate(zip(colors, rows)):
            for bi in range(ai + 1, len(nbrs)):
                cb = colors[bi]
                if ca == cb or mask >> bi & 1:
                    continue
                obstructed.add((ca, cb) if ca < cb else (cb, ca))
                if first_strict is None and not mask & rows[bi]:
                    first_strict = (v, nbrs[ai], nbrs[bi])
    out = []
    full = set(range(1, coloring.n + 1))
    for r in range(1, coloring.n):
        for rest in itertools.combinations(sorted(full - {1}), r - 1):
            T = {1, *rest}
            S = full - T
            if not S:
                continue
            if any((min(i, j), max(i, j)) in obstructed
                   for i in T for j in S):
                continue
            out.append((tuple(sorted(T)), tuple(sorted(S))))
    return out, first_strict


def splitting_bipartitions(cplx, coloring):
    """All color bipartitions (T, S) whose cross pairs of directions span
    squares at every vertex; each certifies a product universal cover."""
    return _cross_pairs(cplx, coloring)[0]


def verify_bipartition(cplx, coloring, T, S):
    """Independent exhaustive re-verification of a splitting witness: every
    T-colored and S-colored edge pair at a vertex spans a square, read off
    the star of each edge (`geodesic.transfer`), not off the direction
    table that `splitting_bipartitions` scans."""
    T, S = set(T), set(S)
    if T & S or T | S != set(range(1, coloring.n + 1)) or not T or not S:
        return False
    for v in range(cplx.vertex_count):
        ends = [(cplx.cubes[1][i][pos ^ 1], coloring.of_edge(i))
                for i, pos in cplx.star(v)[1]]
        for a, ca in ends:
            if ca in T:
                square = geo.transfer(cplx, OrientedEdge(v, a)).vertex_map
                if any(cb in S and b not in square for b, cb in ends):
                    return False
    return True


def _single_class_vertex(cplx, coloring):
    full = frozenset(range(1, coloring.n + 1))
    for v in range(cplx.vertex_count):
        if geo.sim_v_classes(cplx, coloring, v).partition == (full,):
            return v
    return None


def _pi_pairs_at(cplx, coloring, v, color_a, color_b):
    # direction pairs (a of color_a, b of color_b) at exactly pi, in order:
    # no square on them, and a common link neighbour
    nbrs, edges, masks = cplx.directions(v)
    rows = list(masks.values())
    colors = [coloring.colors[e] for e in edges]
    return [(nbrs[i], nbrs[j]) for i, ca in enumerate(colors) if ca == color_a
            for j, cb in enumerate(colors) if cb == color_b and i != j
            and not rows[i] >> j & 1 and rows[i] & rows[j]]


def _step_d_search(cplx, coloring):
    """The theorem-proof construction over all blue/green/red rolings."""
    colors = coloring.colors
    for blue, green, red in itertools.permutations(range(1, coloring.n + 1)):
        pieces = DisjointSet(cplx.vertex_count)
        pieces.labels([cplx.cubes[1][e] for e in coloring.edges_of_color(blue)])
        for piece in pieces.groups():
            v_candidates = []   # (v', e_b tail blue dir, e_r red dir)
            w_candidates = []   # (v'', e_b' blue dir, e_g green dir)
            for v in piece:
                br = _pi_pairs_at(cplx, coloring, v, blue, red)
                if br:
                    v_candidates.append((v, br[0]))
                bg = _pi_pairs_at(cplx, coloring, v, blue, green)
                if bg:
                    w_candidates.append((v, bg[0]))
            if not v_candidates or not w_candidates:
                continue
            for (v1, (d_b, d_r)), (v2, (d_bp, d_g)) in itertools.product(
                    v_candidates, w_candidates):
                # v1 has a blue-red pair at pi, so >= 3 blue directions
                # (the Lemma): its blue component is no circle
                x1 = geo._node(cplx, (v1, d_b))
                x2 = geo._node(cplx, (v2, d_bp))
                c = [x1, *geo._connector(cplx, colors, blue, x1, x2), x2 ^ 1]
                c1 = geo._probe(cplx, colors, geo._node(cplx, (v1, d_r)))
                c2 = geo._probe(cplx, colors, geo._node(cplx, (v2, d_g)))
                walk = c + c2 + [x ^ 1 for x in reversed(c)] + c1
                path = geo._path(cplx, walk, v1, closed=True)
                if geo.rank_one_certificate(cplx, coloring, path):
                    return path
    return None


def _simv_census(cplx, coloring):
    census = {}
    for v in range(cplx.vertex_count):
        simv = geo.sim_v_classes(cplx, coloring, v)
        shape = tuple(sorted(len(p) for p in simv.partition))
        census[shape] = census.get(shape, 0) + 1
    return census


def _covering_table(cplx, coloring):
    from .decomposition import graph_of_spaces, is_covering
    table = {}
    for color in range(1, coloring.n + 1):
        gos = graph_of_spaces(cplx, coloring, color)
        maps = 0
        bad = 0
        for g0, g1 in gos.attaching:
            for g in (g0, g1):
                maps += 1
                if not is_covering(g).is_covering:
                    bad += 1
        table[color] = (maps, bad)
    return table


def detect_rank3(cplx, folding=None, assume_fcc=False, diagnostics=False):
    """Rank dichotomy decision for a finite 3-dimensional FCC.

    Returns a SplitWitness or a certified closed rank-one geodesic; the
    four steps cannot all fail on valid input, so Inconclusive here means
    a broken invariant.
    """
    if cplx.dim != 3:
        raise NotDim3("dimension is %d" % cplx.dim)
    coloring = _prepare(cplx, folding, assume_fcc)
    report = _detect(cplx, coloring, complete=True)
    if diagnostics:
        report.simv_summary = _simv_census(cplx, coloring)
        report.covering_table = _covering_table(cplx, coloring)
    return report


def _detect(cplx, coloring, complete):
    n = coloring.n
    bips, strict = _cross_pairs(cplx, coloring)
    if bips:
        return RankReport("split", cplx.dim, coloring,
                          bipartition=bips[0], all_bipartitions=tuple(bips))
    if strict is not None:
        v, a, b = strict
        path = geo.build_strict_pi_geodesic(cplx, coloring, v, a, b)
        if not geo.strict_pi_certificate(cplx, path):
            raise ConstructionFailed("strict-pi witness fails its certificate")
        return RankReport("rank-one", cplx.dim, coloring,
                          witness_path=path, certificate="strict-pi")
    v = _single_class_vertex(cplx, coloring)
    if v is not None:
        path = geo.build_all_color_geodesic(
            cplx, coloring, v, frozenset(range(1, n + 1)))
        return RankReport("rank-one", cplx.dim, coloring,
                          witness_path=path, certificate="all-colors")
    if complete and n == 3:
        path = _step_d_search(cplx, coloring)
        reason = "theorem violation"
    else:
        path = geo.all_color_turn_cycle(cplx, coloring)
        reason = "no closed all-color 1-skeleton geodesic"
    if path is not None:
        return RankReport("rank-one", cplx.dim, coloring,
                          witness_path=path, certificate="all-colors")
    return RankReport("inconclusive", cplx.dim, coloring,
                      inconclusive_reason=reason)


def detect_rank_general(cplx, folding=None, assume_fcc=False,
                        diagnostics=False):
    """Rank analysis in any dimension: the splitting test and the two
    sufficient rank-one constructions, then the exact turn-graph test for
    a closed 1-skeleton geodesic using every color.

    Inconclusive means that no bipartition splits and no such geodesic
    exists, which cannot happen in dimension <= 3.
    """
    coloring = _prepare(cplx, folding, assume_fcc)
    report = _detect(cplx, coloring, complete=False)
    if diagnostics:
        report.simv_summary = _simv_census(cplx, coloring)
        if cplx.dim >= 2:
            report.covering_table = _covering_table(cplx, coloring)
    return report
