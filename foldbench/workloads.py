"""The benchmark's workloads: inputs, operations and output checks.

Each workload has setup() (the program builds the inputs; timed by the
caller and run `setups` times), prepare() (once, untimed: the benchmark
verifies the inputs and relabels them) and round() (one pass over the
timed operations).  Every generated complex is relabelled by a
permutation drawn from the seed before foldcc sees it; the checkers map
foldcc's outputs back to the generator's ids.
"""

import os
import shutil

import checks
from checks import require


def read(path):
    with open(path, "r", encoding="ascii") as fh:
        return fh.read()


def write(path, text):
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(text)


COLORS = 3    # every complex foldcc decides here is 3-dimensional


class Input:
    """One generated complex: its closure and folding in generator ids,
    and the permutation foldcc's copy is relabelled by."""

    def __init__(self, X, perm, corner):
        self.X = X
        self.perm = perm
        self.corner = corner
        if corner is not None:
            checks.verify_folding(self.X, corner, COLORS)
        self.inv = [0] * len(perm)
        for g, v in enumerate(perm):
            self.inv[v] = g

    def to_gen(self, v):
        return self.inv[v]

    def program_corner(self, folding_text):
        """A folding printed by foldcc, verified and moved to generator ids;
        its colors must split the edges as the benchmark's folding does.
        Returns (corners, color map benchmark -> program)."""
        printed = checks.parse_folding(folding_text, self.X.n)
        corner = [printed[self.perm[g]] for g in range(self.X.n)]
        checks.verify_folding(self.X, corner, COLORS)
        return corner, checks.color_correspondence(self.X, self.corner, corner)


class Workload:
    setups = 3    # set-ups per run; setup_s is their median

    def __init__(self, r):
        self.r = r

    def relabelled(self, dst, n, cells):
        """Write dst: the complex (n, cells) with vertex v renamed perm[v],
        for a perm drawn from the seed; returns perm."""
        perm = self.r.permutation(n)
        write(self.r.path(dst),
              checks.format_cells(n, checks.relabel_cells(cells, perm)))
        return perm

    # -- shared output checks ------------------------------------------------

    def check_rank_one(self, inp, report, path_text):
        kv = checks.parse_report(report, "rank-report v1")
        require(kv["verdict"] == "rank-one", "verdict %r" % kv["verdict"])
        require(kv["colors"] == "3" and kv["bipartitions.accepted"] == "0",
                "rank-one report lists bipartitions")
        base, closed, edges = checks.parse_path(path_text)
        require(kv["witness.path.length"] == str(len(edges)),
                "witness length differs from the path file")
        require(checks.ints(kv["witness.path.vertices"])
                == [base] + [h for _, h in edges],
                "witness vertices differ from the path file")
        g = inp.to_gen
        checks.check_closed_geodesic(
            inp.X, inp.corner, g(base), closed,
            [(g(t), g(h)) for t, h in edges], range(1, 4))

    def check_decompose_files(self, inp, op, color):
        require(op.code == 0, "decompose exited %d" % op.code)
        kv = checks.parse_report(op.out, "graph-of-spaces v1")
        require(kv["color"] == str(color), "report names color %r" % kv["color"])
        nv, ne = int(kv["base.vertices"]), int(kv["base.edges"])
        out = self.r.path("gos")
        names = set(os.listdir(out))
        want = ({"vertex_space_%d.cplx" % j for j in range(nv)}
                | {"edge_space_%d.cplx" % j for j in range(ne)}
                | {"map_%d_side%d.txt" % (j, s) for j in range(ne) for s in (0, 1)})
        require(names == want, "decompose wrote %d files, expected %d"
                % (len(names), len(want)))
        spaces = []
        for prefix, count in (("vertex_space", nv), ("edge_space", ne)):
            counts = []
            for j in range(count):
                n, cells = checks.parse_cells(
                    read(os.path.join(out, "%s_%d.cplx" % (prefix, j))))
                got = checks.Complex(n, cells).counts()
                require(checks.ints(kv["%s.%d.cells" % (prefix, j)]) == got,
                        "%s %d: report and file disagree" % (prefix, j))
                counts.append(got)
            spaces.append(counts)
        checks.check_space_counts(inp.X.counts(), *spaces)

    def check_spaces(self, inp, spaces, covering_colors):
        """Graph-of-spaces counts for every color; every attaching map of
        the colors in covering_colors is a covering."""
        require(sorted(map(int, spaces)) == list(range(1, COLORS + 1)),
                "graph of spaces missing for some color")
        for color, sp in spaces.items():
            checks.check_space_counts(inp.X.counts(), sp["vertex_spaces"],
                                      sp["edge_spaces"])
            require(len(sp["covering"]) == 2 * len(sp["edge_spaces"]),
                    "color %s: one covering answer per attaching map" % color)
            if int(color) in covering_colors:
                require(all(sp["covering"]),
                        "color %s: a product factor map is not a covering"
                        % color)


# ---------------------------------------------------------------------------

class XhRankOne(Workload):
    """X(H) of the octahedral hemispherex H with m = (1, 1, 1)."""

    # generating X(H) takes seconds, and a median over set-ups in a row
    # spreads as much as one set-up (they share the host's speed phase)
    setups = 1

    def __init__(self, r):
        super().__init__(r)
        self.color = 1 + r.rng.randrange(3)

    def setup(self):
        r = self.r
        r.cli(["generate", "hemispherex:n=2,m=1,1,1", "--out", "H.scx"])
        r.cli(["generate", "davisX:K=H.scx", "--out", "XH.gen.cplx"])

    def prepare(self):
        r = self.r
        S, simplices = checks.parse_cells(read(r.path("H.scx")),
                                          "simplicial-complex", "simplex")
        fvec = checks.f_vector(simplices)
        # the octahedron (6, 12, 8) plus three cones over 4-cycle equators
        require(S == 9 and fvec == [9, 24, 20], "H has f-vector %s" % fvec)
        edges = {e for s in simplices for e in zip(s, s[1:] + s[:1])}
        colors = checks.proper_coloring(S, edges, 3)
        require(colors is not None, "H has no proper 3-coloring")
        n, cells = checks.parse_cells(read(r.path("XH.gen.cplx")))
        X = checks.Complex(n, cells)
        require(X.counts() == checks.davis_x_counts(S, fvec),
                "X(H) has cell counts %s, the f-vector of H gives %s"
                % (X.counts(), checks.davis_x_counts(S, fvec)))
        coords = checks.davis_coordinates(X, S)
        self.inp = Input(X, self.relabelled("XH.cplx", n, cells),
                         checks.davis_folding(coords, colors))

    def round(self):
        r = self.r
        r.cli(["validate", "XH.cplx"], "validate_s", self.check_validate)
        if os.path.exists(r.path("witness.path")):
            os.remove(r.path("witness.path"))
        r.cli(["rank", "XH.cplx", "--dim3", "--out", "witness.path"],
              "verdict_s", self.check_rank)
        shutil.rmtree(r.path("gos"), ignore_errors=True)
        r.cli(["decompose", "XH.cplx", "--color", str(self.color),
               "--out", "gos"], "decompose_s",
              lambda op: self.check_decompose_files(self.inp, op, self.color))
        r.cli(["fold", "XH.cplx"], "witness_s", self.check_fold)
        r.lib(["sweep", "sweep.json", "XH.cplx"], self.check_sweep)

    def check_validate(self, op):
        require(op.code == 0, "validate exited %d" % op.code)
        checks.check_fcc_report(checks.parse_report(op.out, "fcc-report v1"), 3)

    def check_rank(self, op):
        require(op.code == 1, "rank exited %d, expected 1 (rank-one)" % op.code)
        self.check_rank_one(self.inp, op.out, read(self.r.path("witness.path")))

    def check_fold(self, op):
        require(op.code == 0, "fold exited %d" % op.code)
        self.inp.program_corner(op.out)

    def check_sweep(self, op):
        (res,) = op.result["results"]
        self.inp.program_corner(res["folding"])
        checks.check_fcc_report(checks.parse_report(res["fcc"], "fcc-report v1"), 3)
        self.check_rank_one(self.inp, res["rank"], res["witness"])
        require("spaces" not in res, "graph of spaces built after rank-one")


# ---------------------------------------------------------------------------

TORI = [(4, 4, 4), (4, 4, 6), (4, 6, 6), (6, 6, 6), (4, 4, 8), (4, 6, 8),
        (6, 6, 8)]
CYCLE = 6             # Xda(1, 1) x C_6, the input of the CLI operations


def torus_corner(dims):
    # vertex x + a*y + a*b*z; corner bit j is the parity of coordinate j
    a, b, c = dims
    return [(v % a % 2) | (v // a % b % 2) << 1 | (v // (a * b) % 2) << 2
            for v in range(a * b * c)]


class SplitSweep(Workload):
    """Tori and Xda(1, 1) x C_k products: the product branch."""

    def __init__(self, r):
        super().__init__(r)
        self.color = 1 + r.rng.randrange(3)
        self.main = "XdaC%d" % CYCLE
        self.names = ["T%d%d%d" % d for d in TORI] + [self.main]
        self.main_corner = None

    def setup(self):
        items = ["K=hemispherex:1:1,1", "Xda=davisX:K"]
        items += ["T%d%d%d=torus:%d,%d,%d" % (d + d) for d in TORI]
        items += ["C=torus:%d" % CYCLE, "%s=product:Xda,C" % self.main]
        self.r.lib(["generate", "."] + items)

    def relabelled_input(self, name, n, cells, corner):
        """The generated complex name, relabelled for foldcc."""
        perm = self.relabelled("in_%s.cplx" % name, n, cells)
        return Input(checks.Complex(n, cells), perm, corner)

    def prepare(self):
        r = self.r
        self.inputs = {}
        for dims in TORI:
            name = "T%d%d%d" % dims
            n, cells = checks.parse_cells(read(r.path(name + ".cplx")))
            inp = self.relabelled_input(name, n, cells, torus_corner(dims))
            require(inp.X.counts() == [n, 3 * n, 3 * n, n],
                    "%s has cell counts %s" % (name, inp.X.counts()))
            self.inputs[name] = inp
        S, simplices = checks.parse_cells(read(r.path("K.scx")),
                                          "simplicial-complex", "simplex")
        fvec = checks.f_vector(simplices)
        require(S == 6 and fvec == [6, 8], "double arc has f-vector %s" % fvec)
        colors = checks.proper_coloring(S, simplices, 2)
        require(colors is not None, "the double arc has no proper 2-coloring")
        n, cells = checks.parse_cells(read(r.path("Xda.cplx")))
        Xda = checks.Complex(n, cells)
        da_counts = checks.davis_x_counts(S, fvec)
        require(Xda.counts() == da_counts, "Xda(1, 1) has cell counts %s, "
                "the f-vector gives %s" % (Xda.counts(), da_counts))
        da_corner = checks.davis_folding(checks.davis_coordinates(Xda, S), colors)
        k = CYCLE
        n, cells = checks.parse_cells(read(r.path(self.main + ".cplx")))
        # vertex (v1, v2) is v1 * k + v2; the cycle gets color 3
        corner = [da_corner[v // k] | (v % k % 2) << 2 for v in range(n)]
        inp = self.relabelled_input(self.main, n, cells, corner)
        # d-cubes: (d-cube of Xda) x vertex, (d-1-cube of Xda) x edge
        da = da_counts + [0]
        want = [k * (da[d] + (da[d - 1] if d else 0)) for d in range(4)]
        require(inp.X.counts() == want, "%s has cell counts %s, expected %s"
                % (self.main, inp.X.counts(), want))
        self.inputs[self.main] = inp

    def round(self):
        r = self.r
        r.lib(["sweep", "sweep.json"]
              + ["in_%s.cplx" % name for name in self.names], self.check_sweep)
        main = "in_%s.cplx" % self.main
        r.cli(["validate", main], "validate_s", self.check_validate)
        self.main_corner = None
        r.cli(["fold", main], "witness_s", self.check_fold)
        r.cli(["rank", main, "--dim3"], "verdict_s", self.check_rank)
        shutil.rmtree(r.path("gos"), ignore_errors=True)
        r.cli(["decompose", main, "--color", str(self.color), "--out", "gos"],
              "decompose_s", lambda op: self.check_decompose_files(
                  self.inputs[self.main], op, self.color))

    def check_split(self, name, corner, mapping, claimed):
        """The claimed bipartitions are the splitting ones: 3 on a torus,
        and on a product 1, cutting off the cycle's color."""
        inp = self.inputs[name]
        found = checks.check_bipartitions(inp.X, corner, 3, claimed)
        if name.startswith("T"):
            require(len(found) == 3, "%s: %d bipartitions" % (name, len(found)))
        else:
            cyc = mapping[3]
            require(len(found) == 1 and (next(iter(found)) in
                                         ({cyc}, {1, 2, 3} - {cyc})),
                    "%s: bipartitions %s do not cut off the cycle color %d"
                    % (name, [sorted(t) for t in found], cyc))

    @staticmethod
    def claimed_bipartitions(kv):
        out = []
        for j in range(int(kv["bipartitions.accepted"])):
            T, _, _ = kv["bipartitions.%d" % j].partition(" | ")
            out.append(checks.ints(T))
        return out

    def check_validate(self, op):
        require(op.code == 0, "validate exited %d" % op.code)
        checks.check_fcc_report(checks.parse_report(op.out, "fcc-report v1"), 3)

    def check_fold(self, op):
        require(op.code == 0, "fold exited %d" % op.code)
        self.main_corner = self.inputs[self.main].program_corner(op.out)

    def check_rank(self, op):
        require(op.code == 0, "rank exited %d, expected 0 (split)" % op.code)
        kv = checks.parse_report(op.out, "rank-report v1")
        require(kv["verdict"] == "split", "verdict %r" % kv["verdict"])
        require(self.main_corner is not None,
                "no folding of the input to read the colors from")
        self.check_split(self.main, *self.main_corner,
                         self.claimed_bipartitions(kv))

    def check_sweep(self, op):
        results = op.result["results"]
        require(len(results) == len(self.names), "sweep lost an input")
        for name, res in zip(self.names, results):
            inp = self.inputs[name]
            corner, mapping = inp.program_corner(res["folding"])
            checks.check_fcc_report(
                checks.parse_report(res["fcc"], "fcc-report v1"), 3)
            kv = checks.parse_report(res["rank"], "rank-report v1")
            require(kv["verdict"] == "split", "%s: verdict %r"
                    % (name, kv["verdict"]))
            self.check_split(name, corner, mapping,
                             self.claimed_bipartitions(kv))
            factor = {1, 2, 3} if name.startswith("T") else {mapping[3]}
            self.check_spaces(inp, res["spaces"], factor)


# ---------------------------------------------------------------------------

ODD = (45, 4, 4)          # torus(k, 4, 4), k odd: not foldable
PASSES = 2                # a round runs the timed operations twice, so
                          # that a run of this short workload spans ~25 s
BOUNDARY = (6, 6, 6)      # one top cube is left out
FLAT = 64                 # torus(4, 4, 4) has 64 vertices
# three squares round a corner, with no cube: vertex 0 has directions
# 1, 2, 3 pairwise spanning squares
NON_FLAG = [(0, 1, 2, 4), (0, 1, 3, 5), (0, 2, 3, 6)]
MALFORMED = "cubical-complex v1\nvertices 4\ncube\n"


class Reject(Workload):
    """Inputs that are not FCCs, and two malformed requests."""

    def setup(self):
        self.r.lib(["generate", ".", "odd=torus:%d,%d,%d" % ODD,
                    "bnd=torus:%d,%d,%d" % BOUNDARY, "flat=torus:4,4,4"])

    def relabelled_complex(self, dst, n, cells):
        """foldcc's copy of (n, cells), as the benchmark reads it."""
        perm = self.relabelled(dst, n, cells)
        return checks.Complex(n, checks.relabel_cells(cells, perm))

    def prepare(self):
        r = self.r
        n, cells = checks.parse_cells(read(r.path("odd.cplx")))
        k = ODD[0]
        self.odd = Input(checks.Complex(n, cells),
                         self.relabelled("in_odd.cplx", n, cells), None)
        require(self.odd.X.counts() == [n, 3 * n, 3 * n, n],
                "odd torus has cell counts %s" % self.odd.X.counts())
        self.odd_coords = lambda v: (v % k, v // k % 4, v // (4 * k))
        n, cells = checks.parse_cells(read(r.path("bnd.cplx")))
        dropped = r.rng.randrange(len(cells))
        self.bnd = self.relabelled_complex(
            "in_bnd.cplx", n, cells[:dropped] + cells[dropped + 1:])
        self.nonflag = self.relabelled_complex("in_nonflag.cplx", 7, NON_FLAG)
        write(r.path("malformed.cplx"), MALFORMED)
        require(not checks.is_foldable_brute(self.nonflag, 2),
                "the non-flag complex folds onto the square")
        n, _ = checks.parse_cells(read(r.path("flat.cplx")))
        require(n == FLAT, "torus(4, 4, 4) has %d vertices" % n)

    def round(self):
        r = self.r
        for _ in range(PASSES):
            r.cli(["validate", "in_odd.cplx"], "validate_s",
                  self.check_validate_odd)
            r.cli(["rank", "in_odd.cplx", "--dim3"], "verdict_s",
                  self.check_refusal)
            r.cli(["fold", "in_odd.cplx"], "witness_s", self.check_fold)
            r.cli(["decompose", "in_odd.cplx", "--color", "1", "--out", "gos"],
                  "decompose_s", self.check_refusal)
            r.lib(["sweep", "sweep.json", "in_odd.cplx", "in_bnd.cplx",
                   "in_nonflag.cplx"], self.check_sweep)
        r.cli(["validate", "in_bnd.cplx"], check=self.check_validate_bnd)
        r.cli(["validate", "in_nonflag.cplx"], check=self.check_validate_nonflag)
        # kept failures: both crash today (traceback, exit 1)
        r.cli(["validate", "malformed.cplx"], check=self.check_refusal)
        r.cli(["geodesic", "flat.cplx", "--from", str(FLAT)],
              check=self.check_refusal)

    @staticmethod
    def check_refusal(op):
        checks.check_refusal(op.code, op.out, op.err)

    def check_parity(self, cycle):
        g = self.odd.to_gen
        checks.check_parity_cycle([g(v) for v in cycle], self.odd_coords,
                                  ODD, 0, ODD[0])

    def check_validate_odd(self, op):
        require(op.code == 1, "validate exited %d, expected 1" % op.code)
        checks.check_fcc_report(checks.parse_report(op.out, "fcc-report v1"),
                                3, foldable=False, is_fcc=False)

    def check_fold(self, op):
        require(op.code == 1, "fold exited %d, expected 1" % op.code)
        kv = checks.parse_report(op.out, "folding-report v1")
        require(kv["foldable"] == "false" and kv["reason"] == "parity",
                "fold reports %r" % kv)
        cycle = checks.ints(kv["cycle"])
        require(kv["cycle.length"] == str(len(cycle)), "cycle.length is wrong")
        self.check_parity(cycle)

    def check_bnd_report(self, kv):
        # the dropped cube's corners keep an octahedral link missing one
        # triangle, which is not flag
        checks.check_fcc_report(kv, 3, no_boundary=False, flag_links=False,
                                is_fcc=False)
        checks.check_boundary_witness(self.bnd, checks.ints(kv["witness.boundary"]))
        checks.check_flag_witness(self.bnd, int(kv["witness.flag.vertex"]),
                                  checks.ints(kv["witness.flag.directions"]))

    def check_validate_bnd(self, op):
        require(op.code == 1, "validate exited %d, expected 1" % op.code)
        self.check_bnd_report(checks.parse_report(op.out, "fcc-report v1"))

    def check_validate_nonflag(self, op):
        require(op.code == 1, "validate exited %d, expected 1" % op.code)
        kv = checks.parse_report(op.out, "fcc-report v1")
        checks.check_fcc_report(kv, 2, no_boundary=False, flag_links=False,
                                foldable=False, is_fcc=False)
        checks.check_boundary_witness(self.nonflag,
                                      checks.ints(kv["witness.boundary"]))
        checks.check_flag_witness(self.nonflag, int(kv["witness.flag.vertex"]),
                                  checks.ints(kv["witness.flag.directions"]))

    def check_sweep(self, op):
        odd, bnd, nonflag = op.result["results"]
        require(odd["not_foldable"]["reason"] == "parity",
                "odd torus: %r" % odd.get("not_foldable"))
        self.check_parity(odd["not_foldable"]["cycle"])
        checks.verify_folding(self.bnd, checks.parse_folding(
            bnd["folding"], self.bnd.n), 3)
        self.check_bnd_report(checks.parse_report(bnd["fcc"], "fcc-report v1"))
        require(nonflag["not_foldable"]["reason"] == "direction",
                "non-flag complex: %r" % nonflag.get("not_foldable"))


WORKLOADS = {"xh-rank-one": XhRankOne, "split-sweep": SplitSweep,
             "reject": Reject}
