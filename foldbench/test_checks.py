"""Tests of the benchmark's checkers on tiny hand-made inputs.

    python3 -m unittest discover -s foldbench -p 'test_*.py'

Each checker must accept a correct output and reject a tampered one.
"""

import itertools
import unittest

import checks
from checks import CheckFailed


def grid_torus(sides):
    """Maximal cubes of the grid torus with the given sides, vertex
    sum(c_j * stride_j), corners in binary order."""
    strides = [1]
    for s in sides[:-1]:
        strides.append(strides[-1] * s)
    n = strides[-1] * sides[-1]
    cells = []
    for base in itertools.product(*(range(s) for s in sides)):
        cells.append(tuple(
            sum(((base[j] + ((b >> j) & 1)) % sides[j]) * strides[j]
                for j in range(len(sides)))
            for b in range(1 << len(sides))))
    return n, cells


def torus_corner(sides, v):
    bits = 0
    for j, s in enumerate(sides):
        bits |= (v % s % 2) << j
        v //= s
    return bits


def davis_x(S, simplices):
    """X(K) for tiny K: originals keep ids 0..2^S - 1 (their coordinate
    bitstrings), face centers follow."""
    ids = {(z, 0): z for z in range(1 << S)}
    masks = sorted({sum(1 << s for s in sub) for simplex in simplices
                    for r in range(1, len(simplex) + 1)
                    for sub in itertools.combinations(simplex, r)})
    for sigma in masks:
        for z in range(1 << S):
            if z & sigma == 0:
                ids[(z, sigma)] = len(ids)
    cells = []
    for simplex in simplices:
        axes = list(simplex)
        sigma = sum(1 << s for s in axes)
        for z in range(1 << S):
            if z & sigma:
                continue
            for p_bits in range(1 << len(axes)):
                p = z | sum(1 << axes[j] for j in range(len(axes))
                            if (p_bits >> j) & 1)
                corners = []
                for b in range(1 << len(axes)):
                    free = sum(1 << axes[j] for j in range(len(axes))
                               if (b >> j) & 1)
                    corners.append(ids[(p & ~free, free)])
                cells.append(tuple(corners))
    return len(ids), cells


class ComplexTest(unittest.TestCase):
    def test_face_closure_counts(self):
        self.assertEqual(checks.Complex(4, [(0, 1, 2, 3)]).counts(), [4, 4, 1])
        self.assertEqual(checks.Complex(*grid_torus((4, 4))).counts(),
                         [16, 32, 16])
        self.assertEqual(checks.Complex(*grid_torus((3, 4, 5))).counts(),
                         [60, 180, 180, 60])

    def test_repeated_corner_is_rejected(self):
        with self.assertRaises(CheckFailed):
            checks.Complex(3, [(0, 1, 2, 2)])

    def test_f_vector(self):
        self.assertEqual(checks.f_vector([(0, 1, 2)]), [3, 3, 1])
        self.assertEqual(checks.f_vector([(0, 1), (1, 2), (0, 2)]), [3, 3])

    def test_davis_counts_of_the_octahedral_hemispherex(self):
        counts = checks.davis_x_counts(9, [9, 24, 20])
        self.assertEqual(counts, [7168, 24576, 27648, 10240])
        self.assertEqual(sum((-1) ** k * c for k, c in enumerate(counts)), 0)

    def test_davis_counts_match_a_built_complex(self):
        for S, simplices in [(2, [(0, 1)]), (3, [(0, 1), (1, 2)]),
                             (4, [(0, 1), (1, 2), (2, 3), (0, 3)])]:
            X = checks.Complex(*davis_x(S, simplices))
            self.assertEqual(X.counts(), checks.davis_x_counts(
                S, checks.f_vector(simplices)))

    def test_relabel(self):
        self.assertEqual(checks.relabel_cells([(0, 1), (1, 2)], [2, 0, 1]),
                         [(2, 0), (0, 1)])


class ParserTest(unittest.TestCase):
    def test_cells_round_trip(self):
        n, cells = grid_torus((3, 3))
        text = checks.format_cells(n, cells)
        self.assertEqual(checks.parse_cells(text), (n, cells))

    def test_report_path_folding(self):
        kv = checks.parse_report("x v1\na = 1 2\nb = true\n", "x v1")
        self.assertEqual(kv, {"a": "1 2", "b": "true"})
        with self.assertRaises(CheckFailed):
            checks.parse_report("y v1\n", "x v1")
        self.assertEqual(
            checks.parse_path("path v1\nbase 0\nclosed 1\nedge 0 1\nedge 1 0\n"),
            (0, True, [(0, 1), (1, 0)]))
        text = "folding v1\nclass 0 direction 1\nvertex 0 corner 00\nvertex 1 corner 10\n"
        self.assertEqual(checks.parse_folding(text, 2), [0, 1])


class FoldingTest(unittest.TestCase):
    def setUp(self):
        self.sides = (4, 4)
        self.X = checks.Complex(*grid_torus(self.sides))
        self.corner = [torus_corner(self.sides, v) for v in range(self.X.n)]

    def test_torus_folding_is_accepted(self):
        checks.verify_folding(self.X, self.corner, 2)

    def test_tampered_folding_is_rejected(self):
        bad = list(self.corner)
        bad[5] ^= 1
        with self.assertRaises(CheckFailed):
            checks.verify_folding(self.X, bad, 2)

    def test_color_correspondence(self):
        swapped = [((c & 1) << 1) | (c >> 1) for c in self.corner]
        self.assertEqual(
            checks.color_correspondence(self.X, self.corner, swapped),
            {1: 2, 2: 1})
        # a 4-cycle folded onto the square, and onto a single edge
        C4 = checks.Complex(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        with self.assertRaisesRegex(CheckFailed, "different color classes"):
            checks.color_correspondence(C4, [0, 1, 3, 2], [0, 1, 0, 1])

    def test_davis_folding_from_a_coloring_of_K(self):
        S, simplices = 4, [(0, 1), (1, 2), (2, 3), (0, 3)]
        X = checks.Complex(*davis_x(S, simplices))
        colors = checks.proper_coloring(S, simplices, 2)
        corner = checks.davis_folding(checks.davis_coordinates(X, S), colors)
        checks.verify_folding(X, corner, 2)
        improper = [1, 1, 2, 2]   # edge (0, 1) gets one color at both ends
        with self.assertRaises(CheckFailed):
            checks.verify_folding(X, checks.davis_folding(
                checks.davis_coordinates(X, S), improper), 2)

    def test_proper_coloring(self):
        octahedron = [(a, b) for a, b in itertools.combinations(range(6), 2)
                      if a // 2 != b // 2]
        colors = checks.proper_coloring(6, octahedron, 3)
        self.assertTrue(all(colors[a] != colors[b] for a, b in octahedron))
        k4 = list(itertools.combinations(range(4), 2))
        self.assertIsNone(checks.proper_coloring(4, k4, 3))

    def test_brute_force_foldability(self):
        self.assertTrue(checks.is_foldable_brute(
            checks.Complex(4, [(0, 1, 2, 3)]), 2))
        corner = checks.Complex(7, [(0, 1, 2, 4), (0, 1, 3, 5), (0, 2, 3, 6)])
        self.assertFalse(checks.is_foldable_brute(corner, 2))


class WitnessTest(unittest.TestCase):
    def setUp(self):
        self.sides = (4, 4)
        self.X = checks.Complex(*grid_torus(self.sides))
        self.corner = [torus_corner(self.sides, v) for v in range(self.X.n)]

    def geodesic(self, edges, colors):
        checks.check_closed_geodesic(self.X, self.corner, edges[0][0], True,
                                     edges, colors)

    def test_straight_loop_is_a_closed_geodesic(self):
        self.geodesic([(0, 1), (1, 2), (2, 3), (3, 0)], [1])

    def test_quarter_turn_is_rejected(self):
        with self.assertRaisesRegex(CheckFailed, "pi/2"):
            self.geodesic([(0, 1), (1, 5), (5, 4), (4, 0)], [1, 2])

    def test_backtrack_open_path_and_colors_are_rejected(self):
        with self.assertRaisesRegex(CheckFailed, "backtracks"):
            self.geodesic([(0, 1), (1, 0)], [1])
        with self.assertRaises(CheckFailed):
            checks.check_closed_geodesic(self.X, self.corner, 0, False,
                                         [(0, 1), (1, 2), (2, 3), (3, 0)], [1])
        with self.assertRaisesRegex(CheckFailed, "colors"):
            self.geodesic([(0, 1), (1, 2), (2, 3), (3, 0)], [1, 2])
        with self.assertRaisesRegex(CheckFailed, "not an edge"):
            self.geodesic([(0, 2), (2, 0)], [1])

    def test_bipartitions(self):
        self.assertEqual(checks.check_bipartitions(
            self.X, self.corner, 2, [[1]]), {frozenset([1])})
        with self.assertRaises(CheckFailed):
            checks.check_bipartitions(self.X, self.corner, 2, [])
        sides = (4, 4, 4)
        X3 = checks.Complex(*grid_torus(sides))
        c3 = [torus_corner(sides, v) for v in range(X3.n)]
        self.assertEqual(len(checks.check_bipartitions(
            X3, c3, 3, [[1], [2], [3]])), 3)

    def test_wrong_bipartition_is_rejected(self):
        # two squares sharing only vertex 0: directions 1 and 5 (colors 1
        # and 2) at 0 span no square
        X = checks.Complex(7, [(0, 1, 2, 3), (0, 4, 5, 6)])
        corner = [0, 1, 2, 3, 1, 2, 3]
        checks.verify_folding(X, corner, 2)
        with self.assertRaisesRegex(CheckFailed, "does not split"):
            checks.check_bipartitions(X, corner, 2, [[1]])
        self.assertEqual(checks.check_bipartitions(X, corner, 2, []), set())

    def test_parity_cycle(self):
        sides = (5, 4)

        def coords(v):
            return (v % 5, v // 5)

        checks.check_parity_cycle([0, 1, 2, 3, 4], coords, sides, 0, 5)
        checks.check_parity_cycle([0, 4, 3, 2, 1], coords, sides, 0, 5)

    def test_even_winding_cycle_is_rejected(self):
        def coords(v):
            return (v % 5, v // 5)

        sides = (5, 4)
        with self.assertRaisesRegex(CheckFailed, "even"):
            checks.check_parity_cycle([0, 5, 10, 15], coords, sides, 0, 4)
        with self.assertRaisesRegex(CheckFailed, "even"):
            checks.check_parity_cycle(list(range(5)) * 2, coords, sides, 0, 10)
        with self.assertRaisesRegex(CheckFailed, "length"):
            checks.check_parity_cycle([0, 1, 2, 3, 4], coords, sides, 0, 7)
        with self.assertRaisesRegex(CheckFailed, "not an edge"):
            checks.check_parity_cycle([0, 2, 3, 4], coords, sides, 0, 4)

    def test_boundary_and_flag_witnesses(self):
        X = checks.Complex(7, [(0, 1, 2, 4), (0, 1, 3, 5), (0, 2, 3, 6)])
        checks.check_boundary_witness(X, (1, 4))
        with self.assertRaises(CheckFailed):
            checks.check_boundary_witness(X, (0, 1))
        checks.check_flag_witness(X, 0, [1, 2, 3])
        cube = checks.Complex(8, [tuple(range(8))])
        with self.assertRaisesRegex(CheckFailed, "span a cube"):
            checks.check_flag_witness(cube, 0, [1, 2, 4])
        with self.assertRaises(CheckFailed):
            checks.check_flag_witness(X, 0, [1, 2, 5])

    def test_space_counts(self):
        X_counts = self.X.counts()
        cycle = [4, 4]
        checks.check_space_counts(X_counts, [cycle] * 4, [cycle] * 4)
        with self.assertRaises(CheckFailed):
            checks.check_space_counts(X_counts, [cycle] * 4, [cycle] * 3)

    def test_refusal(self):
        checks.check_refusal(64, "", "error: bad cube line\n")
        checks.check_refusal(65, "", "error: NotFCC: not foldable\n")
        for code, out, err in [
                (1, "", "Traceback (most recent call last):\nIndexError\n"),
                (1, "", "error: x\n"), (65, "verdict = x\n", "error: x\n"),
                (64, "", "error: x\nerror: y\n"), (64, "", "")]:
            with self.assertRaises(CheckFailed):
                checks.check_refusal(code, out, err)


if __name__ == "__main__":
    unittest.main()
