"""Independent checkers for foldcc's outputs.

Nothing here imports foldcc: the file formats are parsed afresh, face
closures, foldings and witnesses are recomputed from first principles, and
every check raises CheckFailed with a message naming what is wrong.

Cubes are corner tuples in binary-coordinate order (corner b has coordinate
j equal to bit j of b), as in the cubical-complex file format.  A folding
is given by one corner bitmask per vertex; an edge's color is 1 + the index
of the single bit its two end corners differ in.
"""

import itertools
from math import comb


class CheckFailed(Exception):
    pass


def require(cond, message):
    if not cond:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# parsers

def _content_lines(text):
    for raw in text.split("\n"):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield line


def parse_cells(text, kind="cubical-complex", word="cube"):
    """(vertex count, list of cell vertex tuples) of a complex file."""
    lines = list(_content_lines(text))
    require(lines and lines[0] == kind + " v1", "missing '%s v1' header" % kind)
    head = lines[1].split()
    require(head[0] == "vertices" and len(head) == 2, "missing vertices line")
    cells = []
    for line in lines[2:]:
        parts = line.split()
        require(parts[0] == word, "unexpected line %r" % line)
        verts = tuple(int(x) for x in parts[2:])
        k = int(parts[1])
        size = (1 << k) if word == "cube" else k + 1
        require(len(verts) == size, "cell %r has the wrong size" % line)
        cells.append(verts)
    return int(head[1]), cells


def format_cells(n, cells, kind="cubical-complex", word="cube"):
    lines = [kind + " v1", "vertices %d" % n]
    for c in cells:
        k = (len(c) - 1).bit_length() if word == "cube" else len(c) - 1
        lines.append("%s %d %s" % (word, k, " ".join(map(str, c))))
    return "\n".join(lines) + "\n"


def parse_report(text, header):
    """key -> value string of a `key = value` report with the given header."""
    lines = text.rstrip("\n").split("\n")
    require(lines[0] == header, "expected header %r, got %r" % (header, lines[0]))
    out = {}
    for line in lines[1:]:
        key, sep, value = line.partition(" = ")
        require(sep, "malformed report line %r" % line)
        out[key] = value
    return out


def ints(value):
    return [int(x) for x in value.split()]


def parse_path(text):
    """(base, closed, [(tail, head), ...]) of a path file."""
    lines = list(_content_lines(text))
    require(lines[0] == "path v1", "missing 'path v1' header")
    base = int(lines[1].split()[1])
    closed = lines[2].split()[1] == "1"
    edges = []
    for line in lines[3:]:
        parts = line.split()
        require(parts[0] == "edge" and len(parts) == 3, "bad path line %r" % line)
        edges.append((int(parts[1]), int(parts[2])))
    return base, closed, edges


def parse_folding(text, n_vertices):
    """Vertex corner bitmasks of a folding file (bit d-1 = coordinate d)."""
    corner = [None] * n_vertices
    for line in _content_lines(text):
        parts = line.split()
        if parts[0] == "vertex":
            bits = parts[3]
            corner[int(parts[1])] = sum(1 << j for j, ch in enumerate(bits)
                                        if ch == "1")
    require(None not in corner, "folding misses a vertex corner")
    return corner


# ---------------------------------------------------------------------------
# cubical complexes

_FACE_POSITIONS = {}


def _face_positions(k):
    # corner positions of every face of a k-cube, each in binary order
    if k not in _FACE_POSITIONS:
        out = []
        for free in range(1 << k):
            axes = [j for j in range(k) if (free >> j) & 1]
            for base in range(1 << k):
                if base & free:
                    continue
                face = []
                for sub in range(1 << len(axes)):
                    p = base
                    for t, j in enumerate(axes):
                        if (sub >> t) & 1:
                            p |= 1 << j
                    face.append(p)
                out.append(face)
        _FACE_POSITIONS[k] = out
    return _FACE_POSITIONS[k]


def cube_faces(cube):
    """Every face of a cube, as corner tuples in binary order."""
    for face in _face_positions((len(cube) - 1).bit_length()):
        yield tuple(cube[p] for p in face)


class Complex:
    """Face closure of a cubical complex given by its maximal cubes."""

    def __init__(self, n_vertices, maximal):
        self.n = n_vertices
        self.maximal = [tuple(c) for c in maximal]
        self.dim = max(((len(c) - 1).bit_length() for c in self.maximal),
                       default=-1)
        self.cells = [dict() for _ in range(self.dim + 1)]
        for cube in self.maximal:
            for face in cube_faces(cube):
                key = frozenset(face)
                k = (len(face) - 1).bit_length()
                level = self.cells[k]
                if key not in level:
                    require(len(key) == len(face),
                            "cube %r repeats a corner" % (cube,))
                    level[key] = tuple(face)
        for v in range(self.n):
            require(frozenset((v,)) in self.cells[0], "vertex %d is in no cube" % v)
        self.adj = [set() for _ in range(self.n)]
        if self.dim >= 1:
            for u, w in self.cells[1].values():
                self.adj[u].add(w)
                self.adj[w].add(u)
        # (v, {a, b}) for every pair of directions at v spanning a square
        self.angles = set()
        if self.dim >= 2:
            for c0, c1, c2, c3 in self.cells[2].values():
                for v, a, b in ((c0, c1, c2), (c1, c0, c3),
                                (c2, c0, c3), (c3, c1, c2)):
                    self.angles.add((v, frozenset((a, b))))

    def counts(self):
        return [len(level) for level in self.cells]

    def spans_square(self, v, a, b):
        return (v, frozenset((a, b))) in self.angles

    def top_cubes_containing(self, vset):
        """Top-dimensional cubes having the vertex set as a face."""
        vset = frozenset(vset)
        out = 0
        for cube in self.maximal:
            if (len(cube) - 1).bit_length() != self.dim or not vset <= set(cube):
                continue
            if any(frozenset(f) == vset for f in cube_faces(cube)):
                out += 1
        return out


def relabel_cells(cells, perm):
    return [tuple(perm[v] for v in c) for c in cells]


# ---------------------------------------------------------------------------
# simplicial complexes and the Davis complex X(K)

def f_vector(maximal_simplices):
    """f_0, f_1, ... of the closure of the given simplices."""
    faces = set()
    for s in maximal_simplices:
        for r in range(1, len(s) + 1):
            faces.update(itertools.combinations(sorted(s), r))
    top = max(len(s) for s in faces)
    return [sum(1 for s in faces if len(s) == r) for r in range(1, top + 1)]


def davis_x_counts(S, fvec):
    """Cell counts of X(K), the half subdivision of Y(K), from the f-vector
    of K on S vertices.

    Y(K) has f_{j-1} * 2^(S-j) j-cubes (f_{-1} = 1).  The k-cubes of X(K)
    are the pairs A <= B of faces of Y(K) with dim B - dim A = k, and a
    j-cube has C(j, k) * 2^k faces of dimension j - k.
    """
    f = [1] + list(fvec)
    y = [f[j] * (1 << (S - j)) for j in range(len(f))]
    return [sum(y[j] * comb(j, k) * (1 << k) for j in range(k, len(y)))
            for k in range(len(y))]


def proper_coloring(n_vertices, edges, n_colors):
    """A proper vertex coloring 1..n_colors by backtracking, or None."""
    nbrs = [set() for _ in range(n_vertices)]
    for u, w in edges:
        nbrs[u].add(w)
        nbrs[w].add(u)
    color = [0] * n_vertices
    order = sorted(range(n_vertices), key=lambda v: -len(nbrs[v]))

    def place(i):
        if i == len(order):
            return True
        v = order[i]
        for c in range(1, n_colors + 1):
            if all(color[w] != c for w in nbrs[v]):
                color[v] = c
                if place(i + 1):
                    return True
        color[v] = 0
        return False

    return color if place(0) else None


def davis_coordinates(X, S):
    """(z, sigma) bitmasks of every vertex of X(K), in generator ids.

    The originals of Y(K) keep their ids 0..2^S - 1, which are their
    coordinate bitstrings.  Any other vertex is the center of a face of
    Y(K); its corners are exactly the originals sharing a cube with it.
    """
    originals = [set() for _ in range(X.n)]
    for cube in X.maximal:
        low = [v for v in cube if v < (1 << S)]
        for v in cube:
            originals[v].update(low)
    coords = []
    for v in range(X.n):
        if v < (1 << S):
            coords.append((v, 0))
            continue
        corners = originals[v]
        require(corners, "vertex %d shares a cube with no original" % v)
        z = min(corners)
        sigma = 0
        for u in corners:
            sigma |= u ^ z
        require(len(corners) == 1 << bin(sigma).count("1")
                and all(u & ~sigma == z & ~sigma for u in corners),
                "vertex %d is not the center of a face of Y(K)" % v)
        coords.append((z & ~sigma, sigma))
    return coords


def davis_folding(coords, generator_color):
    """Corner bitmasks of the folding of X(K) induced by a proper coloring
    of K: bit c-1 is the parity of the generators of color c among the
    directions of the face a vertex is the center of."""
    corner = []
    for _, sigma in coords:
        bits = 0
        s = 0
        while sigma >> s:
            if (sigma >> s) & 1:
                bits ^= 1 << (generator_color[s] - 1)
            s += 1
        corner.append(bits)
    return corner


# ---------------------------------------------------------------------------
# foldings

def edge_color(corner, u, w):
    diff = corner[u] ^ corner[w]
    require(diff and diff & (diff - 1) == 0,
            "edge %d-%d does not flip exactly one coordinate" % (u, w))
    return diff.bit_length()


def verify_folding(X, corner, n):
    """Every top cube maps bijectively onto the n-cube, corner by corner."""
    require(len(corner) == X.n, "folding has %d corners for %d vertices"
            % (len(corner), X.n))
    require(all(0 <= c < (1 << n) for c in corner), "corner outside the n-cube")
    for cube in X.maximal:
        k = (len(cube) - 1).bit_length()
        base = corner[cube[0]]
        axes = [corner[cube[1 << j]] ^ base for j in range(k)]
        require(all(a and a & (a - 1) == 0 for a in axes)
                and len(set(axes)) == k,
                "cube %r: axes do not get distinct colors" % (cube,))
        for b in range(1 << k):
            want = base
            for j in range(k):
                if (b >> j) & 1:
                    want ^= axes[j]
            require(corner[cube[b]] == want,
                    "cube %r: corner %d is not folded onto its image" % (cube, b))


def color_correspondence(X, corner_a, corner_b):
    """The color bijection a -> b under which two foldings color every edge
    alike; fails when their color partitions differ."""
    mapping = {}
    for u, w in X.cells[1].values():
        ca, cb = edge_color(corner_a, u, w), edge_color(corner_b, u, w)
        require(mapping.setdefault(ca, cb) == cb,
                "the foldings split the edges into different color classes")
    require(len(set(mapping.values())) == len(mapping),
            "the foldings split the edges into different color classes")
    return mapping


def is_foldable_brute(X, n):
    """Exhaustive: does any n-coloring of the square-parallel classes give
    distinct colors along the axes of every cube?  Tiny inputs only."""
    edges = list(X.cells[1])
    index = {e: i for i, e in enumerate(edges)}
    parent = list(range(len(edges)))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    axes_of = []
    for cube in X.maximal:
        k = (len(cube) - 1).bit_length()
        axes = []
        for j in range(k):
            cls = [index[frozenset((cube[b], cube[b | 1 << j]))]
                   for b in range(1 << k) if not (b >> j) & 1]
            for c in cls[1:]:
                parent[find(c)] = find(cls[0])
            axes.append(cls[0])
        axes_of.append(axes)
    classes = sorted({find(e) for e in range(len(edges))})
    for colors in itertools.product(range(n), repeat=len(classes)):
        col = dict(zip(classes, colors))
        if all(len({col[find(a)] for a in axes}) == len(axes)
               for axes in axes_of):
            return True
    return False


# ---------------------------------------------------------------------------
# verdicts and witnesses

def check_fcc_report(kv, dimension, **expected):
    """An fcc-report with the given axiom values; unnamed axioms are true."""
    require(kv.get("dimension") == str(dimension),
            "dimension %r, expected %d" % (kv.get("dimension"), dimension))
    for key in ("connected", "dimensionally_homogeneous", "no_boundary",
                "flag_links", "foldable", "is_fcc"):
        want = "true" if expected.get(key, True) else "false"
        require(kv.get(key) == want, "%s = %r, expected %s"
                % (key, kv.get(key), want))


def check_closed_geodesic(X, corner, base, closed, edges, colors):
    """A closed edge path turning by at least pi at every junction, the
    closing one included, whose edges use exactly the given colors."""
    require(closed, "witness path is not closed")
    require(edges, "witness path is empty")
    require(edges[0][0] == base, "witness path does not start at its base")
    for (t0, h0), (t1, h1) in zip(edges, edges[1:] + edges[:1]):
        require(h0 == t1, "witness path breaks at %d -> %d" % (h0, t1))
    for t, h in edges:
        require(h in X.adj[t], "witness step %d-%d is not an edge" % (t, h))
    for (t0, v), (_, w) in zip(edges, edges[1:] + edges[:1]):
        require(t0 != w, "witness backtracks at %d" % v)
        require(not X.spans_square(v, t0, w),
                "witness turns by pi/2 at %d (%d, %d span a square)" % (v, t0, w))
    used = {edge_color(corner, t, h) for t, h in edges}
    require(used == set(colors), "witness uses colors %s, expected %s"
            % (sorted(used), sorted(colors)))


def is_splitting(X, corner, T):
    """Every direction of a color in T and every direction of a color not
    in T, at every vertex, span a square."""
    for v in range(X.n):
        ins = [a for a in X.adj[v] if edge_color(corner, v, a) in T]
        outs = [b for b in X.adj[v] if edge_color(corner, v, b) not in T]
        for a in ins:
            for b in outs:
                if not X.spans_square(v, a, b):
                    return False
    return True


def splitting_bipartitions(X, corner, n):
    """Every splitting bipartition {T, S} of the colors, T holding color 1."""
    out = []
    for r in range(1, n):
        for rest in itertools.combinations(range(2, n + 1), r - 1):
            T = frozenset((1,) + rest)
            if is_splitting(X, corner, T):
                out.append(T)
    return out


def check_bipartitions(X, corner, n, claimed):
    """The claimed bipartitions (color sets T in the folding's colors) are
    exactly the splitting ones."""
    full = frozenset(range(1, n + 1))
    norm = {T if 1 in T else full - T for T in map(frozenset, claimed)}
    require(len(norm) == len(claimed), "a bipartition is listed twice")
    for T in norm:
        require(T and T != full, "bipartition %s is not proper" % sorted(T))
        require(is_splitting(X, corner, T),
                "bipartition %s | %s does not split"
                % (sorted(T), sorted(full - T)))
    truth = set(splitting_bipartitions(X, corner, n))
    require(norm == truth, "%d bipartitions claimed, %d split"
            % (len(norm), len(truth)))
    return norm


def check_space_counts(X_counts, vertex_spaces, edge_spaces):
    """#k-cubes(X) = sum of #k-cubes of the vertex spaces + sum of
    #(k-1)-cubes of the edge spaces, for every k."""
    for k, total in enumerate(X_counts):
        got = sum(c[k] for c in vertex_spaces if k < len(c))
        got += sum(c[k - 1] for c in edge_spaces if 0 <= k - 1 < len(c))
        require(got == total, "graph of spaces has %d %d-cubes, X has %d"
                % (got, k, total))


def check_parity_cycle(cycle, coords, sides, odd_axis, length):
    """A closed walk of the given length in a grid torus, winding an odd
    number of times round the side `odd_axis`; coords maps a vertex to its
    grid coordinates."""
    require(len(cycle) == length, "cycle has length %d, expected %d"
            % (len(cycle), length))
    winding = [0] * len(sides)
    for u, w in zip(cycle, cycle[1:] + cycle[:1]):
        cu, cw = coords(u), coords(w)
        moved = [j for j in range(len(sides)) if cu[j] != cw[j]]
        require(len(moved) == 1, "cycle step %d-%d is not an edge" % (u, w))
        j = moved[0]
        step = (cw[j] - cu[j]) % sides[j]
        require(step in (1, sides[j] - 1), "cycle step %d-%d is not an edge"
                % (u, w))
        winding[j] += 1 if step == 1 else -1
    require(all(x % s == 0 for x, s in zip(winding, sides)),
            "cycle is not closed in the torus")
    require((winding[odd_axis] // sides[odd_axis]) % 2 == 1,
            "cycle winds an even number of times round side %d" % odd_axis)


def check_boundary_witness(X, face):
    """A codimension-1 cube lying in fewer than two top cubes."""
    require(len(face) == 1 << (X.dim - 1)
            and frozenset(face) in X.cells[X.dim - 1],
            "boundary witness %r is not a codimension-1 cube" % (face,))
    require(X.top_cubes_containing(face) < 2,
            "boundary witness %r lies in two top cubes" % (face,))


def check_flag_witness(X, v, dirs):
    """Directions at v pairwise spanning squares but no common cube."""
    require(len(set(dirs)) == len(dirs) >= 3, "flag witness needs 3+ directions")
    require(all(d in X.adj[v] for d in dirs), "flag witness names a non-direction")
    for a, b in itertools.combinations(dirs, 2):
        require(X.spans_square(v, a, b),
                "flag witness directions %d, %d span no square" % (a, b))
    k = len(dirs)
    spanned = k < len(X.cells) and any(
        v in cube and all(d in cube for d in dirs) for cube in X.cells[k])
    require(not spanned, "flag witness directions span a cube")


def check_refusal(code, stdout, stderr):
    """Exit 64 or 65, one `error:` line on stderr, nothing on stdout."""
    require("Traceback" not in stderr, "refusal printed a traceback")
    require(code in (64, 65), "refusal exited %d" % code)
    require(stdout == "", "refusal printed to stdout")
    lines = stderr.rstrip("\n").split("\n")
    require(len(lines) == 1 and lines[0].startswith("error: "),
            "refusal must print exactly one 'error:' line")
