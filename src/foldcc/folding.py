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

import itertools
from dataclasses import dataclass

from .errors import ConstructionFailed, NotHomogeneous


@dataclass
class ParallelClasses:
    """Finest square-parallelism partition of the edges of a complex.

    Class ids are ordered by each class's minimal edge, so they are a pure
    function of the complex.
    """
    complex: object
    class_of: tuple      # edge index -> class id
    class_count: int

    def members(self, cid):
        return [e for e, c in enumerate(self.class_of) if c == cid]


def parallel_classes(cplx):
    """Disjoint-set closure of "opposite in a square" over the edges."""
    n_edges = cplx.n_cubes(1)
    parent = list(range(n_edges))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    eidx = {frozenset(e): i for i, e in enumerate(cplx.cubes[1])} if n_edges else {}
    if cplx.dim >= 2:
        for c0, c1, c2, c3 in cplx.cubes[2]:
            union(eidx[frozenset((c0, c1))], eidx[frozenset((c2, c3))])
            union(eidx[frozenset((c0, c2))], eidx[frozenset((c1, c3))])
    ids = {}
    class_of = []
    for e in range(n_edges):
        r = find(e)
        if r not in ids:
            ids[r] = len(ids)
        class_of.append(ids[r])
    return ParallelClasses(cplx, tuple(class_of), len(ids))


@dataclass
class NotFoldable:
    """Witness that no folding exists.

    reason "parity": `classes` is a set of parallel classes forced to share
    a direction whose union is crossed an odd number of times by `cycle`
    (a closed vertex cycle, edges between consecutive entries and back).
    reason "direction": the class conflict graph is not n-colorable;
    `detail` carries a conflicting cube or clique when one was found.
    """
    reason: str
    classes: frozenset = None
    cycle: tuple = None
    detail: object = None


@dataclass
class Folding:
    """A folding onto the n-cube, stored per parallel class and vertex."""
    complex: object
    classes: ParallelClasses
    n: int
    direction_of: tuple    # class id -> direction in 1..n
    vertex_corner: tuple   # vertex -> int bitmask, bit d-1 = coordinate d

    def corner_bits(self, v):
        return format(self.vertex_corner[v], "0%db" % self.n)[::-1]

    def parity_of(self, cid, v):
        return (self.vertex_corner[v] >> (self.direction_of[cid] - 1)) & 1


def _axis_classes(cplx, classes, k, i):
    cube = cplx.cubes[k][i]
    eidx = cplx.edge_index
    return [classes.class_of[eidx(cube[0], cube[1 << ax])] for ax in range(k)]


def _cycle_basis(cplx, classes):
    # GF(2) crossing parities of a fundamental cycle basis, as int bitmasks
    # over class ids, reduced to row-echelon form.
    n_edges = cplx.n_cubes(1)
    label = [None] * cplx.vertex_count
    adj = [[] for _ in range(cplx.vertex_count)]
    for e in range(n_edges):
        u, w = cplx.cubes[1][e]
        adj[u].append((w, e))
        adj[w].append((u, e))
    pivots = {}
    tree = set()
    for base in range(cplx.vertex_count):
        if label[base] is not None:
            continue
        label[base] = 0
        queue = [base]
        while queue:
            u = queue.pop()
            for w, e in adj[u]:
                if label[w] is None:
                    label[w] = label[u] ^ (1 << classes.class_of[e])
                    tree.add(e)
                    queue.append(w)
    for e in range(n_edges):
        if e in tree:
            continue
        u, w = cplx.cubes[1][e]
        vec = label[u] ^ label[w] ^ (1 << classes.class_of[e])
        while vec:
            h = vec.bit_length() - 1
            if h in pivots:
                vec ^= pivots[h]
            else:
                pivots[h] = vec
                break
    return sorted(pivots.values())


def _odd_crossing_cycle(cplx, edge_set):
    # Shortest closed vertex cycle crossing `edge_set` an odd number of
    # times: BFS on the parity double cover, scanning base vertices in order.
    from collections import deque

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


def _search_directions(n, reps, conflicts, vectors):
    # Exact backtracking: proper coloring of the conflict graph with colors
    # 1..n such that every GF(2) basis vector has even multiplicity of each
    # color.  Deterministic: MRV with lowest-id ties, lowest color first.
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

    # classes inside one cube must be pairwise distinct; collect conflicts
    conflict_pairs = set()
    for k in range(2, n + 1):
        for i in range(cplx.n_cubes(k)):
            axes = _axis_classes(cplx, classes, k, i)
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
    parent = list(range(classes.class_count))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def group_of(rep):
        return frozenset(c for c in range(classes.class_count)
                         if find(c) == rep)

    def project(vecs):
        pivots = {}
        for vec in vecs:
            proj = 0
            v = vec
            while v:
                c = v.bit_length() - 1
                v &= ~(1 << c)
                proj ^= 1 << find(c)
            while proj:
                h = proj.bit_length() - 1
                if h in pivots:
                    proj ^= pivots[h]
                else:
                    pivots[h] = proj
                    break
        return sorted(pivots.values())

    vectors = project(basis)
    while True:
        merged = False
        for vec in vectors:
            pc = vec.bit_count()
            if pc == 1:
                rep = find(vec.bit_length() - 1)
                group = group_of(rep)
                edges = {e for e in range(cplx.n_cubes(1))
                         if find(classes.class_of[e]) == rep}
                cycle = _odd_crossing_cycle(cplx, edges)
                return NotFoldable("parity", classes=group, cycle=cycle)
            if pc == 2:
                lo = vec & -vec
                r1 = find(lo.bit_length() - 1)
                r2 = find(vec.bit_length() - 1)
                if r1 != r2:
                    parent[max(r1, r2)] = min(r1, r2)
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
                    parent[r2] = r1
                    merged = True
        if not merged:
            break
        vectors = project(vectors)

    supports = []
    for vec in vectors:
        supp = []
        v = vec
        while v:
            c = v.bit_length() - 1
            v &= ~(1 << c)
            supp.append(c)
        supports.append(tuple(supp))

    coloring = _search_directions(n, reps, conflicts, supports)
    if coloring is None:
        clique = _find_clique(reps, conflicts, n + 1)
        return NotFoldable("direction", detail=clique)

    direction_of = tuple(coloring[find(c)] for c in range(classes.class_count))

    # assemble vertex corners: lowest vertex of each component at corner 0
    corner = [None] * cplx.vertex_count
    adj = [[] for _ in range(cplx.vertex_count)]
    for e in range(cplx.n_cubes(1)):
        u, w = cplx.cubes[1][e]
        bit = 1 << (direction_of[classes.class_of[e]] - 1)
        adj[u].append((w, bit))
        adj[w].append((u, bit))
    for base in range(cplx.vertex_count):
        if corner[base] is not None:
            continue
        corner[base] = 0
        stack = [base]
        while stack:
            u = stack.pop()
            for w, bit in adj[u]:
                if corner[w] is None:
                    corner[w] = corner[u] ^ bit
                    stack.append(w)
                elif corner[w] != corner[u] ^ bit:
                    raise ConstructionFailed("direction parities inconsistent")

    folding = Folding(cplx, classes, n, direction_of, tuple(corner))
    if not verify_folding(cplx, folding):
        raise ConstructionFailed("constructed folding failed verification")
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
    for k in range(1, cplx.dim + 1):
        for i in range(cplx.n_cubes(k)):
            cube = cplx.cubes[k][i]
            bits = []
            for ax in range(k):
                e = cplx.edge_index(cube[0], cube[1 << ax])
                if e is None:
                    return False
                bits.append(1 << (folding.direction_of[folding.classes.class_of[e]] - 1))
            if len(set(bits)) != k:
                return False
            base = vc[cube[0]]
            for b in range(1 << k):
                want = base
                for ax in range(k):
                    if (b >> ax) & 1:
                        want ^= bits[ax]
                if vc[cube[b]] != want:
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
    m = K.dim
    if m < 0 or K.vertex_count == 0:
        raise NotHomogeneous("empty complex")
    if not K.is_dimensionally_homogeneous():
        raise NotHomogeneous("complex is not dimensionally homogeneous")
    n_colors = m + 1
    colors = {}
    domain = {v: set(range(1, n_colors + 1)) for v in range(K.vertex_count)}
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
    return NotFoldable("simplicial")


def serialize_folding(folding):
    lines = ["folding v1"]
    for cid in range(folding.classes.class_count):
        lines.append("class %d direction %d" % (cid, folding.direction_of[cid]))
    for v in range(folding.complex.vertex_count):
        lines.append("vertex %d corner %s" % (v, folding.corner_bits(v)))
    return "\n".join(lines) + "\n"
