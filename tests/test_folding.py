import dataclasses
import itertools
import random
import time
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from foldcc import folding as folding_mod
from foldcc.core import (CubicalComplex, SimplicialComplex, load_complex,
                         spanning_forest_labels, validate_fcc)
from foldcc.errors import NotHomogeneous
from foldcc.folding import (Folding, NotFoldable, _cycle_basis,
                            _insert_pivot, _odd_crossing_cycle,
                            _search_directions, coloring_from, find_folding,
                            fold_simplicial, parallel_classes,
                            serialize_folding, verify_folding)
from foldcc.generators import (cycle_graph, davis_X, hemispherex, product,
                               standard_sphere, torus_grid)

from helpers import (assert_parity_witness, reference_verify_folding,
                     relabelled)


def relabel(cplx, perm):
    cubes = [tuple(perm[v] for v in cplx.cubes[k][i])
             for k, i in cplx.maximal_cubes()]
    return CubicalComplex.from_maximal_cubes(cplx.vertex_count, cubes)


class TestParallelClasses:
    def test_single_cube_has_one_class_per_axis(self):
        for n in (1, 2, 3):
            cube = CubicalComplex.from_maximal_cubes(
                1 << n, [tuple(range(1 << n))])
            assert parallel_classes(cube).class_count == n

    def test_torus_grid_classes_count(self):
        # square-opposite closure merges a grid line's parallels in the
        # transverse directions only: one class per direction and offset
        assert parallel_classes(torus_grid((4, 4))).class_count == 8
        assert parallel_classes(torus_grid((5, 4))).class_count == 9

    def test_opposite_edges_share_a_class(self):
        cplx = torus_grid((4, 6))
        pc = parallel_classes(cplx)
        eidx = {frozenset(e): i for i, e in enumerate(cplx.cubes[1])}
        for c0, c1, c2, c3 in cplx.cubes[2]:
            assert (pc.class_of[eidx[frozenset((c0, c1))]]
                    == pc.class_of[eidx[frozenset((c2, c3))]])
            assert (pc.class_of[eidx[frozenset((c0, c2))]]
                    == pc.class_of[eidx[frozenset((c1, c3))]])

    def test_class_ids_are_deterministic(self):
        cplx = torus_grid((4, 4))
        assert parallel_classes(cplx).class_of == parallel_classes(cplx).class_of

    def test_every_cube_has_k_distinct_classes(self, corpus3):
        for entry in corpus3[:3]:
            cplx = entry.complex
            pc = parallel_classes(cplx)
            for k in range(2, cplx.dim + 1):
                for cube in cplx.cubes[k]:
                    classes = {
                        pc.class_of[cplx.edge_index(cube[0], cube[1 << ax])]
                        for ax in range(k)}
                    assert len(classes) == k


class TestFindFolding:
    def test_torus_444(self):
        folding = find_folding(torus_grid((4, 4, 4)))
        assert isinstance(folding, Folding)
        assert sorted(set(folding.direction_of)) == [1, 2, 3]

    def test_odd_torus_parity_witness(self):
        result = find_folding(torus_grid((5, 4)))
        assert isinstance(result, NotFoldable)
        assert result.reason == "parity"
        assert len(result.cycle) == 5

    def test_parity_cycle_is_searched_only_when_read(self, tmp_path,
                                                     monkeypatch, capsys):
        from foldcc import cli, folding
        from foldcc.core import serialize_complex, validate_fcc

        odd = torus_grid((5, 4))
        cycle = find_folding(odd).cycle

        def no_search(cplx, edges):
            raise AssertionError("parity cycle searched")

        monkeypatch.setattr(folding, "_odd_crossing_cycle", no_search)
        report = validate_fcc(odd)
        assert not report.foldable and not report.is_fcc
        assert report.fold_witness.reason == "parity"
        f = tmp_path / "odd.cplx"
        f.write_text(serialize_complex(odd))
        assert cli.main(["validate", str(f)]) == 1
        assert "foldable = false" in capsys.readouterr().out
        monkeypatch.undo()
        result = find_folding(odd)
        assert result.cycle == cycle
        assert result.cycle is result.cycle

    def test_odd_cycle_graph_not_foldable(self):
        result = find_folding(cycle_graph(5))
        assert isinstance(result, NotFoldable)
        assert result.reason == "parity"
        assert len(result.cycle) == 5

    def test_davis_quotients_are_foldable(self):
        for K in (hemispherex(1, (1, 1), allow_dim1=True).complex,
                  hemispherex(2, (1, 1, 1)).complex):
            folding = find_folding(davis_X(K).complex)
            assert isinstance(folding, Folding)

    def test_folding_is_immutable(self):
        folding = find_folding(torus_grid((4, 4)))
        with pytest.raises(dataclasses.FrozenInstanceError):
            folding.n = 3
        with pytest.raises(dataclasses.FrozenInstanceError):
            folding.classes.class_count = 0

    def test_verification_closure_on_corpus(self, corpus_all):
        for entry in corpus_all:
            assert verify_folding(entry.complex, entry.folding)

    def test_cycle_basis_inserts_each_vector_once(self, corpus_all):
        # the reference inserts every off-tree vector, repeats included
        cases = [e.complex for e in corpus_all] + [torus_grid((5, 4, 4))]
        for cplx in cases:
            classes = parallel_classes(cplx)
            edges = cplx.cubes[1]
            weights = [1 << c for c in classes.class_of]
            label, off_tree = spanning_forest_labels(cplx, weights)
            pivots = {}
            for e in off_tree:
                u, w = edges[e]
                _insert_pivot(pivots, label[u] ^ label[w] ^ weights[e])
            assert _cycle_basis(cplx, classes) == sorted(pivots.values())

    def test_not_homogeneous_rejected(self):
        # a square with a dangling edge
        cplx = CubicalComplex.from_maximal_cubes(
            5, [(0, 1, 2, 3), (3, 4)])
        with pytest.raises(NotHomogeneous):
            find_folding(cplx)

    def test_relabelling_stability(self):
        # an automorphism-relabelled complex folds iff the original does,
        # and the color partitions agree up to a direction permutation
        cplx = torus_grid((4, 4))
        perm = {}
        for x in range(4):
            for y in range(4):
                perm[x * 4 + y] = ((x + 1) % 4) * 4 + y
        shifted = relabel(cplx, perm)
        f1, f2 = find_folding(cplx), find_folding(shifted)
        part1 = _color_edge_partition(cplx, coloring_from(f1), perm)
        part2 = _color_edge_partition(shifted, coloring_from(f2), None)
        assert part1 == part2

    def test_not_foldable_invariant_under_relabelling(self):
        cplx = torus_grid((5, 4))
        perm = {v: (v + 4) % 20 for v in range(20)}
        shifted = relabel(cplx, perm)
        assert isinstance(find_folding(shifted), NotFoldable)

    def test_serialization_shape(self):
        folding = find_folding(torus_grid((4, 4)))
        text = serialize_folding(folding)
        lines = text.strip().split("\n")
        assert lines[0] == "folding v1"
        assert sum(1 for l in lines if l.startswith("class ")) == 8
        assert sum(1 for l in lines if l.startswith("vertex ")) == 16


def _color_edge_partition(cplx, coloring, perm):
    # edge sets per color, mapped through perm, as a canonical set of sets
    out = []
    for i in range(1, coloring.n + 1):
        edges = set()
        for e in coloring.edges_of_color(i):
            u, w = cplx.cubes[1][e]
            if perm:
                u, w = perm[u], perm[w]
            edges.add(frozenset((u, w)))
        out.append(frozenset(edges))
    return frozenset(out)


class TestColoring:
    def test_single_square(self):
        coloring = coloring_from(find_folding(
            load_complex("cubical-complex v1\nvertices 4\ncube 2 0 1 2 3\n")))
        assert coloring.counts() == {1: 2, 2: 2}

    def test_torus_counts(self):
        coloring = coloring_from(find_folding(torus_grid((4, 4))))
        assert coloring.counts() == {1: 16, 2: 16}

    def test_hemispherex_quotient_has_all_colors(self):
        X = davis_X(hemispherex(2, (1, 1, 1)).complex).complex
        coloring = coloring_from(find_folding(X))
        counts = coloring.counts()
        assert set(counts) == {1, 2, 3}
        assert all(c > 0 for c in counts.values())

    def test_adjacent_square_edges_differ_opposite_agree(self, torus44):
        cplx, coloring = torus44.complex, torus44.coloring
        for c0, c1, c2, c3 in cplx.cubes[2]:
            a = coloring.of_pair(c0, c1)
            b = coloring.of_pair(c0, c2)
            assert a != b
            assert coloring.of_pair(c2, c3) == a
            assert coloring.of_pair(c1, c3) == b

    def test_every_color_nonempty_on_corpus(self, corpus_all):
        for entry in corpus_all:
            assert all(n > 0 for n in entry.coloring.counts().values())


class TestSingleVerification:
    # find_folding verifies what it builds; validate_fcc(folding=...) then
    # trusts that folding on that complex and verifies every other one

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []
        real = folding_mod.verify_folding

        def counted(cplx, folding):
            calls.append(folding)
            return real(cplx, folding)

        monkeypatch.setattr(folding_mod, "verify_folding", counted)
        return calls

    def test_built_folding_is_not_verified_again(self, calls):
        cplx = torus_grid((4, 4, 4))
        folding = find_folding(cplx)
        assert len(calls) == 1
        assert validate_fcc(cplx, folding=folding).is_fcc
        assert len(calls) == 1

    def test_hand_built_folding_is_verified(self, calls):
        cplx = torus_grid((4, 4, 4))
        built = find_folding(cplx)
        fields = [getattr(built, f.name) for f in dataclasses.fields(built)
                  if f.init]
        assert validate_fcc(cplx, folding=Folding(*fields)).is_fcc
        assert len(calls) == 2
        swapped = tuple({1: 2, 2: 1}.get(d, d) for d in built.direction_of)
        bad_corners = (built.vertex_corner[0] ^ 1,) + built.vertex_corner[1:]
        for bad in (Folding(*fields[:3], swapped, built.vertex_corner),
                    Folding(*fields[:4], bad_corners)):
            report = validate_fcc(cplx, folding=bad)
            assert not report.foldable and not report.is_fcc
        assert len(calls) == 4

    def test_corrupted_copy_is_verified(self, calls):
        cplx = torus_grid((4, 4))
        built = find_folding(cplx)
        corner = list(built.vertex_corner)
        corner[5] ^= 1
        bad = dataclasses.replace(built, vertex_corner=tuple(corner))
        report = validate_fcc(cplx, folding=bad)
        assert not report.foldable and not report.is_fcc
        assert len(calls) == 2

    def test_folding_of_another_complex_is_verified(self, calls):
        cplx, twin = torus_grid((4, 4)), torus_grid((4, 4))
        assert validate_fcc(twin, folding=find_folding(cplx)).is_fcc
        report = validate_fcc(torus_grid((4, 6)), folding=find_folding(cplx))
        assert not report.foldable and not report.is_fcc
        assert len(calls) == 4


def corrupted_foldings(entry, rng):
    """(folding, kind) pairs built from a corpus folding: relabelled
    directions and translated corners (still foldings), a flipped corner
    bit, a changed direction, and a class split in two, keeping or
    changing the direction of its second half."""
    built, n = entry.folding, entry.folding.n
    perm = rng.sample(range(n), n)
    relabel = [sum(((x >> d) & 1) << perm[d] for d in range(n))
               for x in range(1 << n)]
    yield Folding(built.complex, built.classes, n,
                  tuple(perm[d - 1] + 1 for d in built.direction_of),
                  tuple(relabel[x] for x in built.vertex_corner)), "relabel"
    mask = rng.randrange(1 << n)
    yield dataclasses.replace(built, vertex_corner=tuple(
        x ^ mask for x in built.vertex_corner)), "translate"
    corner = list(built.vertex_corner)
    corner[rng.randrange(len(corner))] ^= 1 << rng.randrange(n)
    yield dataclasses.replace(built, vertex_corner=tuple(corner)), "flip"
    if n >= 2:
        direction = list(built.direction_of)
        c = rng.randrange(len(direction))
        direction[c] = rng.choice([d for d in range(1, n + 1)
                                   if d != direction[c]])
        yield dataclasses.replace(built, direction_of=tuple(direction)), \
            "direction"
    classes = built.classes
    members = [e for e, c in enumerate(classes.class_of)
               if c == classes.class_of[-1]]
    for d in sorted({built.direction_of[-1], rng.randrange(1, n + 1)}):
        class_of = list(classes.class_of)
        for e in members[len(members) // 2:]:
            class_of[e] = classes.class_count
        split = folding_mod.ParallelClasses(
            built.complex, tuple(class_of), classes.class_count + 1)
        yield Folding(built.complex, split, n, built.direction_of + (d,),
                      built.vertex_corner), "split"


def collapsed_squares(cplx, coords, step):
    """A folding on one class per edge whose corners move one bit along
    every edge while the first two coordinates enter as x - y through the
    4-cycle of corners 0, 1, 3, 2: each xy-square's far corner lands on its
    corner 0, so opposite edges carry different bits."""
    cycle = (0, 1, 3, 2)
    corner = tuple(cycle[(x - y) % 4] | (sum(rest) % 2) * step
                   for x, y, *rest in map(coords, range(cplx.vertex_count)))
    direction = tuple((corner[u] ^ corner[w]).bit_length()
                      for u, w in cplx.cubes[1])
    classes = folding_mod.ParallelClasses(cplx, tuple(range(len(direction))),
                                          len(direction))
    return Folding(cplx, classes, max(direction), direction, corner)


class TestEdgesAndSquares:
    """verify_folding checks edges and squares only; the per-cube check it
    replaced is tests/helpers.py's reference_verify_folding."""

    def test_agrees_with_the_per_cube_check(self, corpus_all):
        rng = random.Random(14)
        verdicts = {}
        for entry in corpus_all:
            cplx = entry.complex
            assert verify_folding(cplx, entry.folding)
            assert reference_verify_folding(cplx, entry.folding)
            for bad, kind in corrupted_foldings(entry, rng):
                got = verify_folding(cplx, bad)
                assert got == reference_verify_folding(cplx, bad), kind
                verdicts.setdefault(kind, set()).add(got)
        assert verdicts["relabel"] == verdicts["translate"] == {True}
        assert verdicts["flip"] == verdicts["direction"] == {False}
        assert verdicts["split"] == {True, False}

    def test_square_check_decides_collapsed_squares(self):
        square = CubicalComplex.from_maximal_cubes(4, [(0, 1, 2, 3)])
        cases = [(square, lambda v: (v & 1, v >> 1)),
                 (torus_grid((4, 4)), lambda v: (v % 4, v // 4)),
                 (torus_grid((4, 4, 4)),
                  lambda v: (v % 4, v // 4 % 4, v // 16))]
        for cplx, coords in cases:
            bad = collapsed_squares(cplx, coords, 4)
            bits = [1 << (d - 1) for d in bad.direction_of]
            assert all(bad.vertex_corner[u] ^ bad.vertex_corner[w] == b
                       for (u, w), b in zip(cplx.cubes[1], bits))
            assert not verify_folding(cplx, bad)
            assert not reference_verify_folding(cplx, bad)

    def test_direction_above_n_is_refused(self):
        # direction 2 moved to 3, corner bits moved to match: every cube
        # still maps bijectively, but onto a 3-cube the folding lacks
        cplx = torus_grid((4, 4))
        built = find_folding(cplx)
        moved = dataclasses.replace(
            built, direction_of=tuple(3 if d == 2 else d
                                      for d in built.direction_of),
            vertex_corner=tuple((x & 1) | (x & 2) << 1
                                for x in built.vertex_corner))
        assert reference_verify_folding(cplx, moved)
        assert not verify_folding(cplx, moved)
        report = validate_fcc(cplx, folding=moved)
        assert not report.foldable and not report.is_fcc

    def test_direction_zero_is_refused_without_an_error(self):
        cplx = torus_grid((4, 4))
        built = find_folding(cplx)
        zero = dataclasses.replace(built, direction_of=(0,)
                                   + built.direction_of[1:])
        with pytest.raises(ValueError):
            reference_verify_folding(cplx, zero)
        assert not verify_folding(cplx, zero)
        report = validate_fcc(cplx, folding=zero)
        assert not report.foldable and not report.is_fcc

    def test_corner_outside_the_n_cube_is_refused(self):
        cplx = torus_grid((4, 4))
        built = find_folding(cplx)
        for outside in (tuple(x | 4 for x in built.vertex_corner),
                        (-1,) + built.vertex_corner[1:]):
            bad = dataclasses.replace(built, vertex_corner=outside)
            assert not verify_folding(cplx, bad)
            assert not validate_fcc(cplx, folding=bad).foldable
        assert reference_verify_folding(cplx, dataclasses.replace(
            built, vertex_corner=tuple(x | 4 for x in built.vertex_corner)))

    def test_tables_that_do_not_fit_are_refused_without_an_error(self):
        cplx = torus_grid((4, 4))
        built = find_folding(cplx)
        class_of, count = built.classes.class_of, built.classes.class_count
        short = built.vertex_corner[:-1]
        bad = [dataclasses.replace(built, vertex_corner=short)]
        for c in (class_of[:-1], (count,) + class_of[1:],
                  (-1,) + class_of[1:]):
            classes = folding_mod.ParallelClasses(cplx, c, count)
            bad.append(dataclasses.replace(built, classes=classes))
        for folding in bad:
            assert not verify_folding(cplx, folding)
            assert not validate_fcc(cplx, folding=folding).foldable

    def test_reads_no_cube_above_dimension_two(self, monkeypatch,
                                               x_hemispherex):
        torus = torus_grid((4, 4, 4, 4))
        built = find_folding(torus)
        real = CubicalComplex.axis_edges

        def guarded(self, k):
            if k >= 3:
                raise AssertionError("axis_edges(%d) was read" % k)
            return real(self, k)

        monkeypatch.setattr(CubicalComplex, "axis_edges", guarded)
        assert verify_folding(torus, built)
        assert verify_folding(x_hemispherex.complex, x_hemispherex.folding)


class TestFoldSimplicial:
    def test_octahedron_antipodal_coloring(self):
        colors = fold_simplicial(standard_sphere(2))
        assert sorted(set(colors)) == [1, 2, 3]
        for i in range(3):
            assert colors[2 * i] == colors[2 * i + 1]

    def test_double_arc_two_coloring(self):
        K = hemispherex(1, (1, 1), allow_dim1=True).complex
        colors = fold_simplicial(K)
        assert sorted(set(colors)) == [1, 2]
        for u, w in K.simplices[1]:
            assert colors[u] != colors[w]

    def test_five_cycle_not_foldable(self):
        K = SimplicialComplex.from_maximal(
            5, [(i, (i + 1) % 5) for i in range(5)])
        assert isinstance(fold_simplicial(K), NotFoldable)

    def test_not_homogeneous(self):
        K = SimplicialComplex.from_maximal(4, [(0, 1, 2), (2, 3)])
        with pytest.raises(NotHomogeneous):
            fold_simplicial(K)

    def test_long_cycle_folds(self):
        n = 2000
        K = SimplicialComplex.from_maximal(
            n, [(i, (i + 1) % n) for i in range(n)])
        assert fold_simplicial(K) == (1, 2) * (n // 2)
        K = SimplicialComplex.from_maximal(
            n + 1, [(i, (i + 1) % (n + 1)) for i in range(n + 1)])
        assert isinstance(fold_simplicial(K), NotFoldable)

    def test_colorings_match_the_recursive_search(self):
        corpus = [standard_sphere(1), standard_sphere(2), standard_sphere(3)]
        for n, mult in [(1, (1, 1)), (1, (2, 2)), (1, (3, 1)), (2, (1, 1, 1)),
                        (2, (2, 1, 2)), (2, (3, 1, 1)), (3, (1, 1, 1, 1))]:
            corpus.append(hemispherex(n, mult, allow_dim1=True).complex)
        corpus.append(SimplicialComplex.from_maximal(
            5, [(i, (i + 1) % 5) for i in range(5)]))
        for K in corpus:
            got = fold_simplicial(K)
            assert (None if isinstance(got, NotFoldable) else got) == \
                recursive_fold_simplicial(K)

    @settings(max_examples=200, deadline=None)
    @given(st.sets(st.tuples(st.integers(0, 7), st.integers(0, 7)).filter(
        lambda e: e[0] < e[1]), min_size=1))
    def test_graph_colorings_match_the_recursive_search(self, edges):
        used = sorted({v for e in edges for v in e})
        index = {v: i for i, v in enumerate(used)}
        K = SimplicialComplex.from_maximal(
            len(used), [(index[u], index[w]) for u, w in sorted(edges)])
        got = fold_simplicial(K)
        assert (None if isinstance(got, NotFoldable) else got) == \
            recursive_fold_simplicial(K)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 12).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.lists(st.integers(0, n - 1), min_size=1,
                                      max_size=4, unique=True),
                             min_size=1, max_size=14))))
    def test_colorings_match_the_min_scan(self, case):
        # random complexes, kept homogeneous by filling each smaller
        # simplex up to the top dimension with new vertices; unused ids
        # are dropped
        n, simplices = case
        top = max(len(s) for s in simplices)
        maximal, fresh = [], n
        for s in simplices:
            pad = tuple(range(fresh, fresh + top - len(s)))
            fresh += len(pad)
            maximal.append(tuple(s) + pad)
        index = {v: i for i, v in enumerate(sorted(set().union(*maximal)))}
        K = SimplicialComplex.from_maximal(
            len(index), [tuple(index[v] for v in s) for s in maximal])
        got = fold_simplicial(K)
        assert (None if isinstance(got, NotFoldable) else got) == \
            min_scan_fold_simplicial(K)

    def test_long_cycle_is_not_quadratic(self):
        # a min over the whole pool per vertex took 9 s at 8,000 vertices
        n = 20000
        K = SimplicialComplex.from_maximal(
            n, [(i, (i + 1) % n) for i in range(n)])
        assert fold_simplicial(K) == (1, 2) * (n // 2)

    def test_every_hemispherex_folds(self):
        for n, mult in [(1, (1, 1)), (1, (2, 2)), (2, (1, 1, 1)),
                        (2, (2, 1, 2)), (3, (1, 1, 1, 1))]:
            K = hemispherex(n, mult, allow_dim1=True).complex
            colors = fold_simplicial(K)
            assert not isinstance(colors, NotFoldable)
            for u, w in K.simplices[1]:
                assert colors[u] != colors[w]


def recursive_fold_simplicial(K):
    # The recursive backtracking fold_simplicial must reproduce: MRV with
    # lowest-id ties, lowest color first.  None when no coloring exists.
    colors = {}
    domain = {v: set(range(1, K.dim + 2)) for v in range(K.vertex_count)}
    pool = set(range(K.vertex_count))

    def solve():
        if not pool:
            return True
        v = min(pool, key=lambda x: (len(domain[x]), x))
        pool.discard(v)
        for c in sorted(domain[v]):
            removed = []
            ok = True
            colors[v] = c
            for w in K.neighbors(v):
                if w in colors:
                    if colors[w] == c:
                        ok = False
                        break
                elif c in domain[w]:
                    domain[w].discard(c)
                    removed.append(w)
                    if not domain[w]:
                        ok = False
                        break
            if ok and solve():
                return True
            del colors[v]
            for w in removed:
                domain[w].add(c)
        pool.add(v)
        return False

    if solve():
        return tuple(colors[v] for v in range(K.vertex_count))
    return None


def min_scan_fold_simplicial(K):
    # The iterative search fold_simplicial must reproduce, picking each
    # MRV vertex by a min over the whole pool.  None when no coloring
    # exists.
    colors = {}
    domain = {v: set(range(1, K.dim + 2)) for v in range(K.vertex_count)}
    pool = set(range(K.vertex_count))

    def push():
        v = min(pool, key=lambda x: (len(domain[x]), x))
        pool.discard(v)
        stack.append([v, sorted(domain[v]), 0, None])

    stack = []
    push()
    while stack:
        frame = stack[-1]
        v, cands, i, removed = frame
        if removed is not None:
            del colors[v]
            for w in removed:
                domain[w].add(cands[i - 1])
            frame[3] = None
        if i == len(cands):
            stack.pop()
            pool.add(v)
            continue
        c = cands[i]
        frame[2] = i + 1
        frame[3] = removed = []
        ok = True
        colors[v] = c
        for w in K.neighbors(v):
            if w in colors:
                if colors[w] == c:
                    ok = False
                    break
            elif c in domain[w]:
                domain[w].discard(c)
                removed.append(w)
                if not domain[w]:
                    ok = False
                    break
        if ok:
            if not pool:
                return tuple(colors[v] for v in range(K.vertex_count))
            push()
    return None


def recursive_search_directions(n, reps, conflicts, vectors):
    # The recursive backtracking _search_directions must reproduce: MRV
    # with lowest-id ties, lowest color first, every basis vector kept
    # able to reach even multiplicities.
    order_pool = set(reps)
    domain = {r: set(range(1, n + 1)) for r in reps}
    color = {}
    vec_counts = [dict.fromkeys(range(1, n + 1), 0) for _ in vectors]
    vec_left = [len(s) for s in vectors]
    in_vecs = {r: [] for r in reps}
    for vi, support in enumerate(vectors):
        for r in support:
            in_vecs[r].append(vi)

    def vec_ok(vi):
        odd = sum(1 for c in vec_counts[vi].values() if c % 2)
        return odd <= vec_left[vi]

    def solve():
        if not order_pool:
            return True
        r = min(order_pool, key=lambda x: (len(domain[x]), x))
        order_pool.discard(r)
        for c in sorted(domain[r]):
            color[r] = c
            ok = True
            for vi in in_vecs[r]:
                vec_counts[vi][c] += 1
                vec_left[vi] -= 1
            removed = []
            for vi in in_vecs[r]:
                if not vec_ok(vi):
                    ok = False
                    break
            if ok:
                for nb in conflicts.get(r, ()):
                    if nb in color or c not in domain[nb]:
                        continue
                    domain[nb].discard(c)
                    removed.append(nb)
                    if not domain[nb]:
                        ok = False
                        break
            if ok and solve():
                return True
            for nb in removed:
                domain[nb].add(c)
            for vi in in_vecs[r]:
                vec_counts[vi][c] -= 1
                vec_left[vi] += 1
            del color[r]
        order_pool.add(r)
        return False

    if solve():
        return dict(color)
    return None


@st.composite
def direction_problems(draw):
    # (n, reps, conflicts, vectors) in the shape find_folding hands over
    n = draw(st.integers(1, 4))
    reps = sorted(draw(st.sets(st.integers(0, 14), min_size=1, max_size=9)))
    pairs = draw(st.sets(st.tuples(st.sampled_from(reps),
                                   st.sampled_from(reps))))
    conflicts = {r: set() for r in reps}
    for a, b in pairs:
        if a != b:
            conflicts[a].add(b)
            conflicts[b].add(a)
    vectors = [tuple(sorted(v)) for v in draw(st.lists(
        st.sets(st.sampled_from(reps), min_size=1), max_size=4))]
    return n, reps, conflicts, vectors


class TestSearchDirections:
    @settings(max_examples=300, deadline=None)
    @given(direction_problems())
    def test_matches_the_recursive_search(self, problem):
        assert _search_directions(*problem) == \
            recursive_search_directions(*problem)

    def test_long_conflict_path_needs_no_recursion(self):
        # one stack frame per class: a path of 5,000 classes, 2 colors
        reps = list(range(5000))
        conflicts = {r: {x for x in (r - 1, r + 1) if 0 <= x < 5000}
                     for r in reps}
        got = _search_directions(2, reps, conflicts, [])
        assert [got[r] for r in reps] == [1, 2] * 2500


def reference_odd_crossing_cycle(cplx, edge_set):
    # The plain search the witness must reproduce: a BFS on the parity
    # double cover from every base vertex in order, each cut at the
    # shortest cycle found so far.
    adj = [[] for _ in range(cplx.vertex_count)]
    for e in range(cplx.n_cubes(1)):
        u, w = cplx.cubes[1][e]
        flip = 1 if e in edge_set else 0
        adj[u].append((w, flip))
        adj[w].append((u, flip))
    best = None
    for base in range(cplx.vertex_count):
        prev = {(base, 0): None}
        queue = deque([(base, 0, 0)])
        while queue:
            u, p, d = queue.popleft()
            if best is not None and d >= best[0]:
                break
            for w, flip in adj[u]:
                state = (w, p ^ flip)
                if state not in prev:
                    prev[state] = (u, p)
                    if state == (base, 1):
                        path = []
                        cur = state
                        while cur is not None:
                            path.append(cur[0])
                            cur = prev[cur]
                        path.reverse()
                        if best is None or len(path) - 1 < best[0]:
                            best = (len(path) - 1, tuple(path[:-1]))
                    else:
                        queue.append((w, p ^ flip, d + 1))
    return best[1] if best else None


def disjoint_union(parts, isolated=0):
    # the complexes side by side, vertex ids shifted, then isolated vertices
    cubes, offset = [], 0
    for cplx in parts:
        cubes.extend(tuple(v + offset for v in cplx.cubes[k][i])
                     for k, i in cplx.maximal_cubes())
        offset += cplx.vertex_count
    cubes.extend((v,) for v in range(offset, offset + isolated))
    return CubicalComplex.from_maximal_cubes(offset + isolated, cubes)


def _double_arc_X():
    return davis_X(hemispherex(1, (1, 1), allow_dim1=True).complex).complex


WITNESS_BASES = [
    cycle_graph(3), cycle_graph(6), torus_grid((3, 4)), torus_grid((5, 4)),
    torus_grid((3, 3, 4)), torus_grid((5, 4, 4)), _double_arc_X(),
    product(cycle_graph(3), cycle_graph(5)),
    disjoint_union([cycle_graph(4), torus_grid((3, 5))], isolated=2),
    disjoint_union([torus_grid((4, 4)), cycle_graph(5), cycle_graph(3)]),
]


def graph_complex(edges, isolated=0):
    # a 1-dimensional complex on the given edges after `isolated` vertices
    # that lie on no edge
    edges = [(u + isolated, w + isolated) for u, w in edges]
    return CubicalComplex.from_maximal_cubes(
        max(map(max, edges)) + 1, [(v,) for v in range(isolated)] + edges)


def _cycle_edges(k, first):
    return [(first + i, first + (i + 1) % k) for i in range(k)]


# bases whose low vertex ids lie off every shortest odd walk, when every
# edge is crossed
FALLBACK_BASES = {
    # an odd 5-cycle at the end of a path of 20 edges
    "lollipop": lambda: graph_complex(
        [(v, v + 1) for v in range(20)] + _cycle_edges(5, 20)),
    # an even 30-cycle and an odd 5-cycle sharing vertex 29
    "even cycle first": lambda: graph_complex(
        _cycle_edges(30, 0) + [(29, 30), (30, 31), (31, 32), (32, 33),
                               (33, 29)]),
    # odd girths 9, 3 and 3 in three components
    "odd girths 9, 3, 3": lambda: graph_complex(
        _cycle_edges(9, 0) + _cycle_edges(3, 9) + _cycle_edges(3, 12)),
    # two triangles after one isolated vertex: the second candidate hits
    "isolated vertex, two triangles": lambda: graph_complex(
        _cycle_edges(3, 0) + _cycle_edges(3, 3), isolated=1),
    # a 7-cycle after five isolated vertices
    "isolated vertices": lambda: graph_complex(_cycle_edges(7, 0),
                                               isolated=5),
    # a torus(4, 4) square complex, then a 5-cycle
    "torus(4, 4), then a 5-cycle": lambda: disjoint_union(
        [torus_grid((4, 4)), cycle_graph(5)]),
}


@st.composite
def crossing_sets(draw):
    # a relabelled small complex and an edge set: either random edges or
    # a union of parallel classes, the sets a parity failure hands over
    base = draw(st.sampled_from(WITNESS_BASES))
    perm = draw(st.permutations(range(base.vertex_count)))
    cplx = relabel(base, perm)
    n_edges = cplx.n_cubes(1)
    if draw(st.booleans()):
        edges = draw(st.sets(st.integers(0, n_edges - 1)))
    else:
        class_of = parallel_classes(cplx).class_of
        chosen = draw(st.sets(st.sampled_from(sorted(set(class_of)))))
        edges = {e for e in range(n_edges) if class_of[e] in chosen}
    return cplx, edges


class TestParityWitness:
    @settings(max_examples=150, deadline=None)
    @given(crossing_sets())
    def test_matches_the_search_from_every_vertex(self, case):
        cplx, edges = case
        assert _odd_crossing_cycle(cplx, edges) == \
            reference_odd_crossing_cycle(cplx, edges)

    def test_parity_failures_match_the_reference(self):
        rng = random.Random(5)
        for dims in [(5,), (3, 4), (5, 4), (3, 3, 4), (7, 4, 4)]:
            base = torus_grid(dims)
            for _ in range(3):
                result = find_folding(base)
                assert result.reason == "parity"
                assert result.cycle == reference_odd_crossing_cycle(
                    *result.crossed)
                perm = list(range(base.vertex_count))
                rng.shuffle(perm)
                base = relabel(base, perm)

    @pytest.mark.parametrize("name", sorted(FALLBACK_BASES))
    def test_low_vertices_off_every_shortest_walk(self, name):
        # vertex 0 lies on no shortest odd walk, so the scan of candidate
        # base vertices misses before it finds the base or falls back to
        # the scans from the sources
        cplx = FALLBACK_BASES[name]()
        edges = set(range(cplx.n_cubes(1)))
        cycle = _odd_crossing_cycle(cplx, edges)
        assert cycle[0] > 0
        assert cycle == reference_odd_crossing_cycle(cplx, edges)

    def test_long_candidate_scan_is_not_quadratic(self):
        # 20,000 path vertices numbered before an odd 2001-cycle: a half
        # ball from each of them would cost about 20,000 x 1,000 states
        k, tail = 2001, 20000
        cplx = graph_complex([(v, v + 1) for v in range(tail)]
                             + _cycle_edges(k, tail))
        edges = set(range(cplx.n_cubes(1)))
        start = time.process_time()
        cycle = _odd_crossing_cycle(cplx, edges)
        # 0.3 s of CPU time here; an unbounded scan took 20 s
        assert time.process_time() - start < 10
        assert cycle[0] == tail
        assert sorted(cycle) == list(range(tail, tail + k))
        assert_parity_witness(cplx, edges, cycle, k)

    @pytest.mark.parametrize("dims", [(45, 4, 4), (9, 9, 9)])
    def test_relabelled_witness_passes_the_independent_check(self, dims):
        cplx = relabelled(torus_grid(dims), random.Random(sum(dims)))
        result = find_folding(cplx)
        assert result.reason == "parity"
        shortest = min(k for k in dims if k % 2)
        assert_parity_witness(cplx, result.classes, result.cycle, shortest)

    def test_long_odd_torus(self):
        k = 201
        cycle = find_folding(torus_grid((k, 4, 4))).cycle
        assert len(cycle) == k
        # vertex id x + k*y + 4k*z: sum the signed steps along x
        steps = 0
        for u, w in zip(cycle, cycle[1:] + cycle[:1]):
            dx = (w % k - u % k) % k
            steps += {0: 0, 1: 1, k - 1: -1}[dx]
        assert (steps // k) % 2 == 1 and steps % k == 0
