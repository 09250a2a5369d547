"""Edge parallel classes, foldings onto a single n-cube, edge colorings.

The parallel classes are the finest partition of the edges closed under
"opposite sides of a square".  A folding assigns each class a direction in
1..n and each vertex a corner of the n-cube so that crossing an edge flips
exactly the coordinate of its class's direction; the induced map is then a
combinatorial folding onto the n-cube (injective on every cube).

Existence is decided exactly: classes co-occurring in a cube need distinct
directions (a proper coloring of the class conflict graph), and around
every cycle of the 1-skeleton each direction's edges must be crossed an
even number of times.  The cycle-space constraint cannot be split into an
independent per-class parity check; the crossing parities of all cycles are
reduced to a GF(2) basis over the classes and the direction search honours
that basis.
"""

import heapq
import itertools
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property

from .core import DisjointSet, spanning_forest_labels
from .errors import ConstructionFailed, NotHomogeneous


@dataclass(frozen=True)
class ParallelClasses:
    """Finest square-parallelism partition of the edges of a complex.

    Class ids are ordered by each class's minimal edge, so they are a pure
    function of the complex.
    """
    complex: object
    class_of: tuple      # edge index -> class id
    class_count: int


def parallel_classes(cplx):
    """Disjoint-set closure of "opposite in a square" over the edges."""
    n_edges = cplx.n_cubes(1)
    ds = DisjointSet(n_edges)
    # a square's faces come in opposite pairs, side 0 then side 1
    faces = cplx._faces[2] if cplx.dim >= 2 else ()
    for j in range(0, len(faces), 2):
        ds.union(faces[j], faces[j + 1])
    class_of = [0] * n_edges
    groups = ds.groups()
    for cid, members in enumerate(groups):
        for e in members:
            class_of[e] = cid
    return ParallelClasses(cplx, tuple(class_of), len(groups))


@dataclass
class NotFoldable:
    """Witness that no folding exists.

    reason "parity": `classes` is a set of parallel classes forced to share
    a direction whose union is crossed an odd number of times by `cycle`
    (a closed vertex cycle, edges between consecutive entries and back).
    The cycle is a shortest one, starting at the least vertex that lies on
    a shortest one; the search for it runs on first access.  It runs BFSs
    on the parity double cover (vertex, crossing parity): with D_s the
    distances from (s, 0), the shortest odd closed walk through v has
    length D_s(v, 0) + D_s(v, 1) for any s on that walk.  One BFS per
    component labels each vertex by the parity it is first reached with;
    every odd closed walk crosses an edge those labels do not fit, so one
    endpoint of each such edge serves as a source.  Each source BFS stops
    at the shortest length found so far, and one more BFS, from the base
    vertex, rebuilds the path.  Each BFS costs O(V + E).  On
    torus(k, 4, 4) the sources lie on one cross-section: 16 BFSs, where a
    search from every vertex would run 16k.
    reason "direction": the class conflict graph is not n-colorable;
    `detail` carries a conflicting cube or clique when one was found.
    """
    reason: str
    classes: frozenset = None
    detail: object = None
    # (complex, edge set of `classes`) for the cycle search, parity only
    crossed: tuple = field(default=None, repr=False, compare=False)

    @cached_property
    def cycle(self):
        if self.crossed is None:
            return None
        return _odd_crossing_cycle(*self.crossed)


@dataclass(frozen=True)
class Folding:
    """A folding onto the n-cube, stored per parallel class and vertex.

    Immutable: a changed copy (`dataclasses.replace`) is a new, unverified
    folding.
    """
    complex: object
    classes: ParallelClasses
    n: int
    direction_of: tuple    # class id -> direction in 1..n
    vertex_corner: tuple   # vertex -> int bitmask, bit d-1 = coordinate d
    # the complex find_folding verified this folding on, else None
    _verified_for: object = field(default=None, init=False, repr=False,
                                  compare=False)

    def corner_bits(self, v):
        return format(self.vertex_corner[v], "0%db" % self.n)[::-1]


def _cycle_basis(cplx, classes):
    # GF(2) crossing parities of a fundamental cycle basis, as int bitmasks
    # over class ids, reduced to row-echelon form.
    edges = cplx.cubes[1]
    weights = [1 << c for c in classes.class_of]
    label, off_tree = spanning_forest_labels(cplx.vertex_count, edges, weights)
    pivots = {}
    for e in off_tree:
        u, w = edges[e]
        _insert_pivot(pivots, label[u] ^ label[w] ^ weights[e])
    return sorted(pivots.values())


def _insert_pivot(pivots, vec):
    # reduce vec by the rows of a GF(2) echelon form (top bit -> row) and
    # add what is left as a new row
    while vec:
        h = vec.bit_length() - 1
        if h not in pivots:
            pivots[h] = vec
            return
        vec ^= pivots[h]


def _bits(mask):
    # set bit positions of an int, highest first
    while mask:
        c = mask.bit_length() - 1
        mask &= ~(1 << c)
        yield c


def _odd_crossing_cycle(cplx, edge_set):
    # Shortest closed vertex cycle crossing `edge_set` an odd number of
    # times: the double-cover BFS path of the least base vertex whose
    # shortest odd closed walk is shortest overall (see NotFoldable).
    adj = [[] for _ in range(cplx.vertex_count)]
    for e, (u, w) in enumerate(cplx.cubes[1]):
        flip = 1 if e in edge_set else 0
        adj[u].append((w, flip))
        adj[w].append((u, flip))
    # odd[v]: length of the shortest odd closed walk through v, as the
    # least D_s(v, 0) + D_s(v, 1) over the BFS sources s on that walk
    inf = float("inf")
    odd = [inf] * cplx.vertex_count
    best = inf

    def scan(source, bound):
        nonlocal best
        found = _cover_bfs(adj, source, bound)
        for state, (d, _) in found.items():
            if state & 1 and state - 1 in found:
                v, d = state >> 1, d + found[state - 1][0]
                odd[v] = min(odd[v], d)
                best = min(best, d)
        return found

    seen = set()
    for root in range(cplx.vertex_count):
        if root in seen:
            continue
        # label the component by the parity each vertex is first reached
        # with; an odd closed walk crosses an edge the labels do not fit,
        # so it passes through one of the sources
        label = {}
        for state in scan(root, inf):
            label.setdefault(state >> 1, state & 1)
        seen.update(label)
        sources = sorted({min(u, w) for u in label for w, flip in adj[u]
                          if label[u] ^ label[w] ^ flip})
        for source in sources:
            scan(source, best)
    if best == inf:
        return None
    base = odd.index(best)
    found = _cover_bfs(adj, base, best)
    path = []
    state = found[2 * base + 1][1]
    while state is not None:
        path.append(state >> 1)
        state = found[state][1]
    return tuple(reversed(path))


def _cover_bfs(adj, base, bound):
    # BFS on the parity double cover from (base, 0), state 2*v + parity;
    # states at depth `bound` or more are not expanded.  Returns
    # {state: (depth, BFS parent)} in discovery order, parent None at base.
    found = {2 * base: (0, None)}
    queue = deque([2 * base])
    while queue:
        state = queue.popleft()
        d = found[state][0]
        if d >= bound:
            break
        p = state & 1
        for w, flip in adj[state >> 1]:
            nxt = 2 * w + (p ^ flip)
            if nxt not in found:
                found[nxt] = (d + 1, state)
                queue.append(nxt)
    return found


def _mask_clique(mask, masks, size):
    # clique of `size` inside the bitmask of candidates, edges from `masks`
    if size <= 0:
        return True
    if size == 1:
        return mask != 0
    m = mask
    while m:
        c = (m & -m).bit_length() - 1
        m &= m - 1
        rest = mask & masks.get(c, 0) & ~((1 << (c + 1)) - 1)
        if _mask_clique(rest, masks, size - 1):
            return True
    return False


def _mrv_coloring(items, n_colors, neighbors, assign=None):
    """Proper coloring of `items` by 1..n_colors, or None.

    Backtracking on an explicit stack, one frame per colored item:
    [item, its candidate colors, next candidate, neighbours whose domain
    lost the current color].  Deterministic: MRV with lowest-id ties,
    lowest color first.  `neighbors(x)` gives the items x must differ
    from.  `assign(x, c, 1)` records x taking c and returns False when
    that rules c out; `assign(x, c, -1)` takes it back.
    """
    domain = {x: set(range(1, n_colors + 1)) for x in items}
    pool = set(domain)
    color = {}
    # lazy MRV heap: (domain size, item) is pushed whenever an item enters
    # the pool or its domain changes; an entry is live iff its item is in
    # the pool with that domain size
    heap = [(n_colors, x) for x in sorted(pool)]
    stack = []

    def push():
        while True:
            size, x = heapq.heappop(heap)
            if x in pool and len(domain[x]) == size:
                break
        pool.discard(x)
        stack.append([x, sorted(domain[x]), 0, None])

    if not pool:
        return color
    push()
    while stack:
        frame = stack[-1]
        x, cands, i, removed = frame
        if removed is not None:
            c = cands[i - 1]
            del color[x]
            if assign is not None:
                assign(x, c, -1)
            for w in removed:
                domain[w].add(c)
                heapq.heappush(heap, (len(domain[w]), w))
            frame[3] = None
        if i == len(cands):
            stack.pop()
            pool.add(x)
            heapq.heappush(heap, (len(domain[x]), x))
            continue
        c = cands[i]
        frame[2] = i + 1
        frame[3] = removed = []
        color[x] = c
        ok = assign is None or assign(x, c, 1)
        if ok:
            for w in neighbors(x):
                if w in color or c not in domain[w]:
                    continue
                domain[w].discard(c)
                removed.append(w)
                heapq.heappush(heap, (len(domain[w]), w))
                if not domain[w]:
                    ok = False
                    break
        if ok:
            if not pool:
                return color
            push()
    return None


def _search_directions(n, reps, conflicts, vectors):
    # Exact search: proper coloring of the conflict graph with colors 1..n
    # such that every GF(2) basis vector has even multiplicity of each
    # color.
    vec_counts = [dict.fromkeys(range(1, n + 1), 0) for _ in vectors]
    vec_left = [len(s) for s in vectors]
    in_vecs = {r: [] for r in reps}
    for vi, support in enumerate(vectors):
        for r in support:
            in_vecs[r].append(vi)

    def assign(r, c, sign):
        # a vector can still end even while its odd colors do not
        # outnumber its uncolored classes
        for vi in in_vecs[r]:
            vec_counts[vi][c] += sign
            vec_left[vi] -= sign
        return all(sum(k % 2 for k in vec_counts[vi].values()) <= vec_left[vi]
                   for vi in in_vecs[r])

    return _mrv_coloring(reps, n, lambda r: conflicts.get(r, ()), assign)


def find_folding(cplx):
    """Construct a folding onto the n-cube, or decide none exists.

    Requires a dimensionally homogeneous complex of dimension n >= 1.
    """
    n = cplx.dim
    if n < 1:
        raise NotHomogeneous("complex has no edges")
    lower = cplx.homogeneity_witness()
    if lower is not None:
        raise NotHomogeneous("cube %r is not a face of a top cube" % (lower,))

    classes = parallel_classes(cplx)
    class_of = classes.class_of

    # classes inside one cube must be pairwise distinct; collect conflicts
    conflict_pairs = set()
    for k in range(2, n + 1):
        table = cplx.axis_edges(k)
        for i in range(cplx.n_cubes(k)):
            axes = [class_of[e] for e in table[k * i:k * i + k]]
            if len(set(axes)) != k:
                return NotFoldable("direction", detail=cplx.cubes[k][i])
            conflict_pairs.update(
                (a, b) if a < b else (b, a)
                for a, b in itertools.combinations(axes, 2))

    basis = _cycle_basis(cplx, classes)

    # Two propagation rules force classes to share a direction before the
    # search runs.  (1) A reduced crossing-parity vector supported on two
    # classes forces them equal (each direction must be crossed evenly);
    # a singleton support is unfixable and yields an odd parity cycle.
    # (2) Two classes whose common conflict neighborhood contains an
    # (n-1)-clique are forced equal by any proper n-coloring.  Both rules
    # iterate to a fixpoint on the quotient.
    ds = DisjointSet(classes.class_count)
    find = ds.find

    def group_of(rep):
        return frozenset(c for c in range(classes.class_count)
                         if find(c) == rep)

    def project(vecs):
        pivots = {}
        for vec in vecs:
            proj = 0
            for c in _bits(vec):
                proj ^= 1 << find(c)
            _insert_pivot(pivots, proj)
        return sorted(pivots.values())

    vectors = project(basis)
    while True:
        merged = False
        for vec in vectors:
            pc = vec.bit_count()
            if pc == 1:
                rep = find(vec.bit_length() - 1)
                edges = {e for e in range(cplx.n_cubes(1))
                         if find(class_of[e]) == rep}
                return NotFoldable("parity", classes=group_of(rep),
                                   crossed=(cplx, edges))
            if pc == 2:
                lo = vec & -vec
                if ds.union(lo.bit_length() - 1, vec.bit_length() - 1):
                    merged = True
        reps = sorted({find(c) for c in range(classes.class_count)})
        conflicts = {r: set() for r in reps}
        for a, b in conflict_pairs:
            ra, rb = find(a), find(b)
            if ra == rb:
                return NotFoldable(
                    "direction", classes=group_of(ra),
                    detail="classes forced to one direction co-occur in a cube")
            conflicts[ra].add(rb)
            conflicts[rb].add(ra)
        masks = {}
        for r in reps:
            m = 0
            for x in conflicts[r]:
                m |= 1 << x
            masks[r] = m
        for i1, r1 in enumerate(reps):
            for r2 in reps[i1 + 1:]:
                if find(r1) != r1 or find(r2) != r2:
                    continue
                if (masks[r1] >> r2) & 1:
                    continue
                if _mask_clique(masks[r1] & masks[r2], masks, n - 1):
                    ds.union(r1, r2)
                    merged = True
        if not merged:
            break
        vectors = project(vectors)

    supports = [tuple(_bits(vec)) for vec in vectors]

    coloring = _search_directions(n, reps, conflicts, supports)
    if coloring is None:
        clique = _find_clique(reps, conflicts, n + 1)
        return NotFoldable("direction", detail=clique)

    direction_of = tuple(coloring[find(c)] for c in range(classes.class_count))

    # assemble vertex corners: lowest vertex of each component at corner 0
    edges = cplx.cubes[1]
    bits = [1 << (direction_of[c] - 1) for c in class_of]
    corner, off_tree = spanning_forest_labels(cplx.vertex_count, edges, bits)
    for e in off_tree:
        u, w = edges[e]
        if corner[u] ^ corner[w] != bits[e]:
            raise ConstructionFailed("direction parities inconsistent")

    folding = Folding(cplx, classes, n, direction_of, tuple(corner))
    if not verify_folding(cplx, folding):
        raise ConstructionFailed("constructed folding failed verification")
    object.__setattr__(folding, "_verified_for", cplx)
    return folding


def _find_clique(reps, conflicts, size):
    # greedy attempt at a clique of the given size; None when not found
    for r in reps:
        clique = [r]
        cands = sorted(conflicts.get(r, ()))
        for c in cands:
            if all(c in conflicts.get(x, ()) for x in clique):
                clique.append(c)
                if len(clique) == size:
                    return tuple(clique)
    return None


def verify_folding(cplx, folding):
    """Exhaustive closure check: every cube maps bijectively onto a face of
    the n-cube, corner by corner."""
    if folding.complex is not cplx and folding.complex != cplx:
        return False
    vc = folding.vertex_corner
    bit_of = [1 << (folding.direction_of[c] - 1)
              for c in folding.classes.class_of]
    for k in range(1, cplx.dim + 1):
        table = cplx.axis_edges(k)
        for i, cube in enumerate(cplx.cubes[k]):
            bits = [bit_of[e] for e in table[k * i:k * i + k]]
            if len(set(bits)) != k:
                return False
            want = [vc[cube[0]]]   # corner b: corner 0 moved along b's axes
            for bit in bits:
                want += [x ^ bit for x in want]
            if [vc[v] for v in cube] != want:
                return False
    return True


class EdgeColoring:
    """Edge colors 1..n induced by a folding: color = class direction."""

    def __init__(self, cplx, n, colors):
        self.complex = cplx
        self.n = n
        self.colors = colors

    def of_edge(self, e):
        return self.colors[e]

    def of_pair(self, u, w):
        e = self.complex.edge_index(u, w)
        if e is None:
            raise KeyError("no edge %d-%d" % (u, w))
        return self.colors[e]

    def counts(self):
        out = dict.fromkeys(range(1, self.n + 1), 0)
        for c in self.colors:
            out[c] += 1
        return out

    def edges_of_color(self, i):
        return [e for e, c in enumerate(self.colors) if c == i]


def coloring_from(folding):
    """The color partition E = E_1 u ... u E_n of the folded complex."""
    cplx = folding.complex
    colors = tuple(folding.direction_of[folding.classes.class_of[e]]
                   for e in range(cplx.n_cubes(1)))
    return EdgeColoring(cplx, folding.n, colors)


def fold_simplicial(K):
    """Proper (dim+1)-coloring of the 1-skeleton, i.e. a simplicial folding
    onto the top simplex; NotFoldable when no such coloring exists."""
    if K.dim < 0 or K.vertex_count == 0:
        raise NotHomogeneous("empty complex")
    if not K.is_dimensionally_homogeneous():
        raise NotHomogeneous("complex is not dimensionally homogeneous")
    colors = _mrv_coloring(range(K.vertex_count), K.dim + 1, K.neighbors)
    if colors is None:
        return NotFoldable("simplicial")
    return tuple(colors[v] for v in range(K.vertex_count))


def serialize_folding(folding):
    lines = ["folding v1"]
    for cid in range(folding.classes.class_count):
        lines.append("class %d direction %d" % (cid, folding.direction_of[cid]))
    for v in range(folding.complex.vertex_count):
        lines.append("vertex %d corner %s" % (v, folding.corner_bits(v)))
    return "\n".join(lines) + "\n"
