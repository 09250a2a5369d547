"""Link-distance predicates and closed-geodesic constructions.

Directions at a vertex v are identified with the neighbor the oriented
edge points to.  In an all right flag link, two distinct directions are at
distance pi/2 iff they span a square, at distance exactly pi iff they are
not adjacent but share a link neighbor, and beyond pi otherwise; the
classifier below is validated against the exact path metric on
1-dimensional links by the test suite.

An edge path is a chain of oriented edges; it is a local geodesic when
every junction (including the closing one of a closed path) turns by at
least pi, i.e. the incoming-reversed and outgoing directions are neither
equal nor sides of a common square.

Every search walks nodes x = 2e + flip: edge e = (u, w) with u < w, run
from u to w when flip is 0, so x ^ 1 is the reverse run.  One rule,
`_turns`, gives the successors of a node: the directions at its head that
neither go back nor span a square with the way in, read from the direction
table of the head, only for the vertices a walk reaches.  The connectors
and probe loops of the Lemma keep to one color and filter the turns by
it; the turn-graph test takes them all.  A witness stays a list of nodes
while its pieces are chained, reversed (x -> x ^ 1, in reverse order) and
rotated, and becomes one EdgePath at the end.
"""

from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from .core import DisjointSet
from .errors import (
    ConstructionFailed,
    IsCircle,
    MismatchedBase,
    NotClosed,
    NotSingleClass,
    PreconditionFailed,
)


class DistanceClass(Enum):
    ZERO = "zero"
    QUARTER = "quarter"        # pi/2
    PI = "pi"
    MORE_THAN_PI = "more-than-pi"


class OrientedEdge(NamedTuple):
    tail: int
    head: int

    @property
    def reverse(self):
        return OrientedEdge(self.head, self.tail)


@dataclass(frozen=True)
class EdgePath:
    """A walk in the 1-skeleton, stored by oriented edges."""
    base: int
    steps: tuple
    closed: bool

    def __post_init__(self):
        at = self.base
        for s in self.steps:
            if s.tail != at:
                raise ValueError("broken step chain at %r" % (s,))
            at = s.head
        if self.closed and self.steps and at != self.base:
            raise ValueError("closed path does not return to its base")

    def __len__(self):
        return len(self.steps)

    def vertices(self):
        out = [self.base]
        out.extend(s.head for s in self.steps)
        return out

    def color_set(self, coloring):
        return {coloring.of_pair(s.tail, s.head) for s in self.steps}


def serialize_path(path):
    lines = ["path v1", "base %d" % path.base,
             "closed %d" % (1 if path.closed else 0)]
    for s in path.steps:
        lines.append("edge %d %d" % (s.tail, s.head))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# distance classification

def distance_class(cplx, v, a, b):
    """Four-way classification of the link distance between two directions.

    `a` and `b` are neighbors of `v` naming the oriented edges v->a, v->b.
    """
    nbrs, _, masks = cplx.directions(v)
    if a not in masks or b not in masks:
        raise MismatchedBase("directions must be neighbors of %d" % v)
    if a == b:
        return DistanceClass.ZERO
    if masks[a] >> nbrs.index(b) & 1:
        return DistanceClass.QUARTER
    if masks[a] & masks[b]:
        return DistanceClass.PI
    return DistanceClass.MORE_THAN_PI


def is_local_geodesic(cplx, path):
    """No backtracking and no square shortcut at any junction.

    Returns (True, None) or (False, j) where step j is the outgoing step of
    the first failing junction (j = 0 names the closing junction).
    """
    steps = path.steps
    bad = (DistanceClass.ZERO, DistanceClass.QUARTER)
    for t in range(1, len(steps)):
        if distance_class(cplx, steps[t].tail,
                          steps[t - 1].tail, steps[t].head) in bad:
            return False, t
    if path.closed and steps:
        if distance_class(cplx, path.base,
                          steps[-1].tail, steps[0].head) in bad:
            return False, 0
    return True, None


# ---------------------------------------------------------------------------
# transfer maps

@dataclass
class TransferMap:
    """Direction bijection across an edge via the squares containing it.

    The direction of e' at tail(e) (square s containing e and e') maps to
    the direction at head(e) of the side of s opposite e'.
    """
    edge: OrientedEdge
    vertex_map: dict


def transfer(cplx, e):
    """The isometry P_e -> P_{reverse(e)} on perpendicular directions."""
    v, w = e
    star = cplx.star(v)
    mapping = {}
    for i, pos in star[2] if len(star) > 2 else ():
        square = cplx.cubes[2][i]
        a, b = square[pos ^ 1], square[pos ^ 2]
        if a == w:
            mapping[b] = square[pos ^ 3]
        elif b == w:
            mapping[a] = square[pos ^ 3]
    return TransferMap(OrientedEdge(v, w), mapping)


# ---------------------------------------------------------------------------
# walks on oriented edges

def _ends(edges, x):
    # (tail, head) of node x = 2e + flip
    u, w = edges[x >> 1]
    return (w, u) if x & 1 else (u, w)


def _node(cplx, e):
    u, w = e
    return 2 * cplx.edge_index(u, w) + (u > w)


def _path(cplx, walk, base, closed):
    edges = cplx.cubes[1]
    return EdgePath(base, tuple(OrientedEdge(*_ends(edges, x)) for x in walk),
                    closed)


def _bfs_walk(first, succ, goal):
    # shortest walk (a list of nodes) from a node of `first` along succ to
    # a goal node, ties broken by queue order; None if there is none
    prev = dict.fromkeys(first)
    queue = deque(first)
    while queue:
        x = queue.popleft()
        if goal(x):
            walk = [x]
            while prev[walk[-1]] is not None:
                walk.append(prev[walk[-1]])
            return walk[::-1]
        for y in succ(x):
            if y not in prev:
                prev[y] = x
                queue.append(y)
    return None


def _turns(cplx, x):
    # the nodes leaving the head v of x, by increasing head, that neither
    # go back to its tail u nor span a square with u at v
    u, v = _ends(cplx.cubes[1], x)
    nbrs, out, masks = cplx.directions(v)
    free = ~(masks[u] | 1 << nbrs.index(u))
    return [2 * e + (v > w) for j, (w, e) in enumerate(zip(nbrs, out))
            if free >> j & 1]


def _onward(cplx, colors, color):
    # the turns of one color; two directions of one color never span a
    # square, so these are the ones that do not go back
    return lambda x: [y for y in _turns(cplx, x) if colors[y >> 1] == color]


def _is_circle(cplx, colors, color, v):
    # every vertex of v's component in one color has two edges of it
    seen, todo = {v}, [v]
    while todo:
        nbrs, out, _ = cplx.directions(todo.pop())
        same = [w for w, e in zip(nbrs, out) if colors[e] == color]
        if len(same) != 2:
            return False
        todo += [w for w in same if w not in seen]
        seen.update(same)
    return True


def _connector(cplx, colors, color, x1, x2):
    # the Lemma's connector inside one color: the shortest walk c from the
    # head of x1 to the head of x2 with x1 * c * (x2 ^ 1) non-backtracking;
    # x1 = x2 gives a probe loop.  A probe loop's search fails on a circle.
    edges = cplx.cubes[1]
    head, goal = _ends(edges, x1)[1], _ends(edges, x2)[1]
    if head == goal and x1 != x2:
        return []
    succ = _onward(cplx, colors, color)
    walk = _bfs_walk(succ(x1), succ,
                     lambda x: x != x2 and _ends(edges, x)[1] == goal)
    if walk is None:
        if _is_circle(cplx, colors, color, head):
            raise IsCircle("graph is a circle")
        raise ConstructionFailed("no connector walk exists (valence-1 vertex?)")
    return walk


def _loop_at(cplx, colors, color, v):
    # the shortest closed walk at v inside one color whose closing junction
    # does not backtrack either
    nbrs, out, _ = cplx.directions(v)
    starts = [2 * e + (v > w) for w, e in zip(nbrs, out) if colors[e] == color]
    if not starts:
        raise PreconditionFailed("no color-%d edge at vertex %d" % (color, v))
    edges, succ = cplx.cubes[1], _onward(cplx, colors, color)
    walks = [_bfs_walk([x], succ,
                       lambda y: y != x ^ 1 and _ends(edges, y)[1] == v)
             for x in starts]
    walks = [walk for walk in walks if walk is not None]
    if not walks:
        raise ConstructionFailed("no closed loop through vertex %d" % v)
    return min(walks, key=len)


def _probe(cplx, colors, x):
    # the geodesic segment x * loop * (x ^ 1) inside the color of x
    return [x, *_connector(cplx, colors, colors[x >> 1], x, x), x ^ 1]


# ---------------------------------------------------------------------------
# certificates and the sim_v relation

def rank_one_certificate(cplx, coloring, path):
    """True iff the closed path is a local geodesic whose edge colors cover
    {1..n}; such a path certifies a closed rank one geodesic."""
    if not path.closed:
        raise NotClosed("certificate needs a closed path")
    ok, _ = is_local_geodesic(cplx, path)
    if not ok:
        return False
    return path.color_set(coloring) == set(range(1, coloring.n + 1))


def strict_pi_certificate(cplx, path):
    """True iff the path is a closed local geodesic with a junction (the
    closing one included) whose two directions are strictly beyond pi;
    no flat half-plane then bounds it, whatever colors it uses."""
    steps = path.steps
    return (path.closed and is_local_geodesic(cplx, path)[0]
            and any(distance_class(cplx, s.tail, r.tail, s.head)
                    is DistanceClass.MORE_THAN_PI
                    for r, s in zip(steps[-1:] + steps[:-1], steps)))


def all_color_turn_cycle(cplx, coloring):
    """A closed local geodesic using every color, or None if none exists.

    Closed local geodesics are the closed walks of the turn graph, whose
    nodes are the oriented edges (x = 2e + flip, as above) and
    whose arcs (u->v) -> (v->w) have w != u and no square on u, w at v.
    So one uses every color iff a strongly connected component with an arc
    does.  Kosaraju's passes are iterative; reversal x -> x ^ 1 maps the
    graph onto its transpose, so pass two needs no second adjacency.  The
    witness walks from the least color-1 node of such a component to the
    nearest node of each missing color in turn, then back.
    """
    edges = cplx.cubes[1] if cplx.dim >= 1 else ()
    colors = coloring.colors

    nodes = range(2 * len(edges))
    finished, seen = [], bytearray(len(nodes))
    for root in nodes:
        stack = [root]
        while stack:
            x = stack.pop()
            if x < 0:
                finished.append(~x)
            elif not seen[x]:
                seen[x] = 1
                stack.append(~x)
                stack.extend(y for y in _turns(cplx, x) if not seen[y])
    comp, masks = [-1] * len(nodes), []
    for root in reversed(finished):
        if comp[root] < 0:
            comp[root], todo, mask = len(masks), [root], 0
            while todo:
                x = todo.pop()
                mask |= 1 << colors[x >> 1]
                for y in _turns(cplx, x ^ 1):
                    if comp[y ^ 1] < 0:
                        comp[y ^ 1] = comp[root]
                        todo.append(y ^ 1)
            masks.append(mask)
    full = (1 << (coloring.n + 1)) - 2
    start = next((x for x in nodes if colors[x >> 1] == 1
                  and masks[comp[x]] == full
                  and any(comp[y] == comp[x] for y in _turns(cplx, x))),
                 None)
    if start is None:
        return None

    def inside(x):
        return [y for y in _turns(cplx, x) if comp[y] == comp[start]]

    walk = [start]
    for k in range(2, coloring.n + 1):
        if k not in {colors[x >> 1] for x in walk}:
            walk += _bfs_walk(inside(walk[-1]), inside,
                              lambda y: colors[y >> 1] == k)
    walk += _bfs_walk(inside(walk[-1]), inside, start.__eq__)[:-1]
    path = _path(cplx, walk, _ends(edges, start)[0], closed=True)
    if not rank_one_certificate(cplx, coloring, path):
        raise ConstructionFailed("turn cycle is not a certificate")
    return path


@dataclass
class SimVClasses:
    """The equivalence generated at a vertex by pairs of directions at link
    distance >= pi, projected to colors.

    `partition` is a tuple of frozensets covering {1..n} (reflexivity is
    free: colors with no witnessed relation stay singletons).  `witnesses`
    maps a sorted color pair (i, j), including i = j, to the first
    direction pair realizing it, with the direction of color i first.
    """
    at: int
    partition: tuple
    witnesses: dict


def sim_v_classes(cplx, coloring, v):
    n = coloring.n
    ds = DisjointSet(n + 1)
    witnesses = {}
    nbrs, edges, masks = cplx.directions(v)
    colors = [coloring.colors[e] for e in edges]
    # a pair of distinct directions is at >= pi iff it spans no square
    for ai, (a, i, mask) in enumerate(zip(nbrs, colors, masks.values())):
        for bi in range(ai + 1, len(nbrs)):
            j = colors[bi]
            key = (i, j) if i <= j else (j, i)
            if key in witnesses or mask >> bi & 1:
                continue
            witnesses[key] = (a, nbrs[bi]) if i <= j else (nbrs[bi], a)
            ds.union(i, j)
    partition = tuple(frozenset(g) for g in ds.groups(range(1, n + 1)))
    return SimVClasses(v, partition, witnesses)


# ---------------------------------------------------------------------------
# closed geodesic builders

def build_all_color_geodesic(cplx, coloring, v, T):
    """Closed local geodesic through v covering every color of T.

    T must be a single equivalence class of the sim_v relation at v.  The
    construction chains probe loops through the color subgraphs following
    the inductive proof; the output is re-verified before returning.
    """
    simv = sim_v_classes(cplx, coloring, v)
    T = frozenset(T)
    if T not in simv.partition:
        raise NotSingleClass("%r is not a sim_v class at %d" % (sorted(T), v))

    # each new color ck joins the first chained color cj it is related to
    order, chain = [min(T)], []
    remaining = sorted(T - set(order))
    while remaining:
        for ck in remaining:
            cj = next((o for o in order
                       if (min(ck, o), max(ck, o)) in simv.witnesses), None)
            if cj is not None:
                break
        else:
            raise NotSingleClass("class %r is not chained at %d" % (sorted(T), v))
        order.append(ck)
        chain.append((ck, cj))
        remaining.remove(ck)

    colors, edges = coloring.colors, cplx.cubes[1]
    walk = _loop_at(cplx, colors, order[0], v)
    for ck, cj in chain:
        pair = simv.witnesses[(min(ck, cj), max(ck, cj))]
        d_j, d_k = pair if cj <= ck else (pair[1], pair[0])
        x_jp = _node(cplx, (v, d_j))
        c1 = _probe(cplx, colors, _node(cplx, (v, d_k)))
        c2 = _probe(cplx, colors, x_jp)
        # restart the walk, or its reverse, at its first step out of v
        # along color cj
        for w in (walk, [x ^ 1 for x in reversed(walk)]):
            t = next((t for t, x in enumerate(w) if colors[x >> 1] == cj
                      and _ends(edges, x)[0] == v), None)
            if t is not None:
                walk = w[t:] + w[:t]
                break
        else:
            raise ConstructionFailed(
                "path has no color-%d edge at vertex %d" % (cj, v))
        if walk[0] != x_jp:
            walk = c1 + c2 + walk + _probe(cplx, colors, walk[0]) + c2
        else:
            walk = walk + c2 + c1
    path = _path(cplx, walk, v, closed=True)

    ok, where = is_local_geodesic(cplx, path)
    if not ok:
        raise ConstructionFailed("junction check failed at step %d" % where)
    if not (T <= path.color_set(coloring)):
        raise ConstructionFailed("constructed path misses a color of %r"
                                 % sorted(T))
    return path


def build_strict_pi_geodesic(cplx, coloring, v, a, b):
    """Closed local geodesic from a cross-color direction pair strictly
    beyond pi: the two probe loops concatenate legally at v."""
    i = coloring.of_pair(v, a)
    j = coloring.of_pair(v, b)
    if i == j:
        raise PreconditionFailed("directions must have different colors")
    if distance_class(cplx, v, a, b) is not DistanceClass.MORE_THAN_PI:
        raise PreconditionFailed("directions are not strictly beyond pi")
    colors = coloring.colors
    walk = (_probe(cplx, colors, _node(cplx, (v, a)))
            + _probe(cplx, colors, _node(cplx, (v, b))))
    path = _path(cplx, walk, v, closed=True)
    ok, where = is_local_geodesic(cplx, path)
    if not ok:
        raise ConstructionFailed("junction check failed at step %d" % where)
    return path
