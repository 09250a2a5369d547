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
from dataclasses import dataclass, field
from functools import cached_property

from .core import DisjointSet, spanning_forest_labels, validate_fcc
from .errors import ConstructionFailed, NotFCC, NotHomogeneous


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
    # a square's faces come in opposite pairs, side 0 then side 1
    faces = cplx._faces[2] if cplx.dim >= 2 else ()
    class_of, count = DisjointSet(cplx.n_cubes(1)).labels(
        zip(faces[::2], faces[1::2]))
    return ParallelClasses(cplx, tuple(class_of), count)


@dataclass
class NotFoldable:
    """Witness that no folding exists.

    reason "parity": `classes` is a set of parallel classes forced to share
    a direction whose union is crossed an odd number of times by `cycle`
    (a closed vertex cycle, edges between consecutive entries and back).
    The cycle is a shortest one, starting at the least vertex that lies on
    a shortest one (the base), and it is the BFS parent chain from
    (base, 0) to (base, 1) on the parity double cover (vertex, crossing
    parity).  The search runs on first access.  With D_s the distances
    from (s, 0), the shortest odd closed walk through s has length
    min over v of D_s(v, 0) + D_s(v, 1), reached at a midpoint of the walk
    whose two depths are at most half its length, so a BFS "half ball"
    from s may stop at half the shortest length found so far.  One BFS of
    the graph per component labels each vertex by the parity it is first
    reached with; every odd closed walk crosses an edge those labels do
    not fit, so one endpoint of each such edge, a source, lies on it.  A
    half ball from each source gives the shortest length.  Half balls
    from vertices 0, 1, ... then look for the base; after as many misses
    as there are sources on shortest walks, full BFSs from those sources
    find it instead.  One more full BFS, from the base, gives the path.
    Each BFS costs O(V + E), so at most about twice as many BFSs run as
    there are sources.  On torus(k, 4, 4) the sources lie on one
    cross-section: 16 half balls, one candidate and one full BFS, where a
    search from every vertex would run 16k BFSs.
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
    label, off_tree = spanning_forest_labels(cplx, weights)
    # a repeated vector is in the span already: insert each one once, in
    # order of first occurrence, for the same echelon form
    pivots = {}
    for vec in dict.fromkeys(label[edges[e][0]] ^ label[edges[e][1]]
                             ^ weights[e] for e in off_tree):
        _insert_pivot(pivots, vec)
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
    # Cover state x = 2v + parity; adj[v] holds 2w + flip per neighbour w
    # in the incidence table, so the successor of x is code ^ (x & 1).
    n = cplx.vertex_count
    adj = [[2 * w + (e in edge_set) for w, e in zip(*row)]
           for row in zip(*cplx._incidence)]
    # label each vertex by the parity a BFS of its component first reaches
    # it with; an odd closed walk crosses an edge the labels do not fit,
    # so it passes through one of the sources
    label = [-1] * n
    sources = set()
    for root in range(n):
        if label[root] >= 0:
            continue
        label[root] = 0
        queue = [root]
        for u in queue:
            for code in adj[u]:
                w, lw = code >> 1, label[u] ^ (code & 1)
                if label[w] < 0:
                    label[w] = lw
                    queue.append(w)
                elif label[w] != lw:
                    sources.add(min(u, w))
    sources = sorted(sources)
    dist = [-1] * (2 * n)
    parent = [-1] * (2 * n)
    unbounded = 2 * n   # longer than any shortest walk on the cover

    def ball(source, bound, half):
        # BFS from (source, 0).  It expands no state at depth `limit` or
        # more, a half ball none at depth `limit` / 2 or more, where limit
        # is `bound` or the least D(v, 0) + D(v, 1) seen, if smaller.  A
        # shortest odd closed walk through source of length L <= bound has
        # a midpoint v with both depths at most ceil(L / 2), so a half ball
        # returns L as its least sum.  Full balls start on a shortest walk
        # of length `bound`, so no sum cuts them short.  Returns the least
        # sum and the states reached; dist and parent hold theirs until
        # the caller clears them.
        start = 2 * source
        dist[start], parent[start] = 0, -1
        queue = [start]
        least = unbounded
        limit = bound
        scale = 2 if half else 1
        for x in queue:
            d = dist[x]
            if scale * d >= limit:
                break
            d += 1
            p = x & 1
            for code in adj[x >> 1]:
                y = code ^ p
                if dist[y] < 0:
                    dist[y] = d
                    parent[y] = x
                    queue.append(y)
                    other = dist[y ^ 1]
                    if other >= 0 and d + other < least:
                        least = d + other
                        limit = min(limit, least)
        return least, queue

    def clear(queue):
        for x in queue:
            dist[x] = -1

    # best: the shortest odd closed walk through any source, that is,
    # anywhere; hits: the sources that lie on one
    best, reach = unbounded, []
    for s in sources:
        least, queue = ball(s, best, True)
        clear(queue)
        reach.append(least)
        best = min(best, least)
    if best == unbounded:
        return None
    hits = [s for s, least in zip(sources, reach) if least == best]
    # base: the least vertex on a shortest odd closed walk.  Try vertices
    # in order; after as many misses as hits, scan from every hit instead,
    # since each such walk passes through one
    base = unbounded
    for v in range(len(hits)):
        least, queue = ball(v, best, True)
        clear(queue)
        if least == best:
            base = v
            break
    else:
        for s in hits:
            _, queue = ball(s, best, False)
            for x in queue:
                if x & 1 and dist[x - 1] >= 0 \
                        and dist[x] + dist[x - 1] == best:
                    base = min(base, x >> 1)
            clear(queue)
    ball(base, best, False)
    path = []
    state = parent[2 * base + 1]
    while state >= 0:
        path.append(state >> 1)
        state = parent[state]
    return tuple(reversed(path))


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

    # classes inside one cube must be pairwise distinct; collect conflicts.
    # Squares suffice: corner 0 of a k-cube is its least corner, so it is
    # corner 0 of the square on any two of its axes, whose axis edges are
    # those two.  A repeated class in a cube repeats in such a square, and
    # every square comes before every larger cube.
    conflict_pairs = set()
    if n >= 2:
        table = cplx.axis_edges(2)
        for i in range(cplx.n_cubes(2)):
            a, b = class_of[table[2 * i]], class_of[table[2 * i + 1]]
            if a == b:
                return NotFoldable("direction", detail=cplx.cubes[2][i])
            conflict_pairs.add((a, b) if a < b else (b, a))

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
        # union(r1, r2) with r1 < r2 keeps r1 a root for its whole row
        for i1, r1 in enumerate(reps):
            if find(r1) != r1:
                continue
            for r2 in reps[i1 + 1:]:
                if find(r2) != r2 or (masks[r1] >> r2) & 1:
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

    # assemble vertex corners: lowest vertex of each component at corner 0;
    # verify_folding checks the edges off the spanning forest
    bits = [1 << (direction_of[c] - 1) for c in class_of]
    corner, _ = spanning_forest_labels(cplx, bits)

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
    """Whether each cube maps bijectively onto a face of the n-cube; False,
    never an exception, for a direction outside 1..n or a corner outside
    0..2^n-1.  It checks that each edge flips its direction's bit and each
    square's axis bits differ, its far corner flipped by both: squares join
    every edge of a cube to an axis edge and every two axes (README.md)."""
    n, vc, dirs = folding.n, folding.vertex_corner, folding.direction_of
    class_of = folding.classes.class_of
    if (folding.complex is not cplx and folding.complex != cplx
            or len(vc) != cplx.vertex_count or n < 0
            or not all(0 < d <= n for d in dirs)
            or not all(0 <= x < 1 << n for x in vc)
            or not all(0 <= c < len(dirs) for c in class_of)):
        return False
    bit = [1 << (dirs[c] - 1) for c in class_of]
    edges = cplx.cubes[1] if cplx.dim >= 1 else ()
    if len(bit) != len(edges) or any(vc[u] ^ vc[w] != b
                                     for (u, w), b in zip(edges, bit)):
        return False
    if cplx.dim < 2:
        return True
    axes = [bit[e] for e in cplx.axis_edges(2)]
    return not any(a == b or vc[x] ^ vc[y] != a ^ b for (x, _, _, y), a, b
                   in zip(cplx.cubes[2], axes[::2], axes[1::2]))


class EdgeColoring:
    """Edge colors 1..n of a folding: an edge's color is its class's
    direction.  Built only from the Folding, kept as `.folding`, whose
    corners and classes give side parities and hyperplanes directly."""

    def __init__(self, folding):
        self.folding = folding
        self.complex = folding.complex
        self.n = folding.n
        self.colors = tuple(map(folding.direction_of.__getitem__,
                                folding.classes.class_of))

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
    return EdgeColoring(folding)


def _prepare(cplx, folding, assume_fcc):
    if folding is None:
        folding = find_folding(cplx)
    if isinstance(folding, NotFoldable):
        raise NotFCC("complex is not foldable")
    if not assume_fcc:
        report = validate_fcc(cplx, folding=folding)
        if not report.is_fcc:
            raise NotFCC("validate_fcc fails: %r" % report)
    return EdgeColoring(folding)


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
