"""Difference-free lattice combinatorics.

Checkerboard classification of lattice points, exact maximum difference-free
subsets (cardinality and weighted), truncated brackets for the optimal
weight of a difference-free set, and the diagonal sweep that recolors an
optimal configuration inside an axis-legged triangle to a single color
without losing points.  The points and the regions come from ``geometry``:
a triangle is a two-dimensional ``SimplexSpec`` and its points are walked
by ``simplex_points``.

Each region gets one conflict graph: its points, ascending neighbor lists
and a side per point, found by one breadth-first search in index order
(no side when the graph has an odd cycle).  Every solve runs on it.  The
optimum is a minimum cut whenever the graph is bipartite, which it always
is when the difference vectors are linearly independent: every
pairwise-coprime integer set, {3/2}, {4/3, 9/8}, {2, 3/2} and the
axis-legged triangles.  By Konig-Egervary the maximum-weight conflict-free
set then weighs the total minus the maximum flow, with the weights scaled
to integer capacities, so the cut is exact; its arcs come straight from the
neighbor lists.  The flow starts from a greedy, first-fit matching.  When
a parity class is optimal, as in every axis-legged triangle, some matching
saturates the smaller color (Konig), and first-fit most often finds one,
so Dinic's phases only confirm or repair it.  Only graphs with an odd
cycle, from dependent vectors such as {2, 3, 6}, fall back to branch and
bound, the one place that builds bitmasks.

The lexicographically least maximum set, and ``verify``'s random ones, are
greedy completions in a visiting order, and each is one solve: every point
weighs 2**n plus a bit that falls with its place in the order, so the one
optimum is the greedy set.

``gamma_bracket`` solves on integer weights: over the common denominator
prod b**depth, the point u weighs prod b**(depth - u_i).  Branch and bound
and the cut then add and compare ints, one Fraction is built for the
optimum, and the tail mass is the closed-form total minus the solved
points' weight sum over that denominator.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import comb, lcm, prod
from operator import add
from typing import Optional, Sequence

from .arith import CoprimeBasis, _pair_prefix, _require_coprime, _require_work_bound
from .errors import CapError, DomainError, SweepError
from .geometry import ColorCount, LatticeConfig, Point, SimplexSpec, simplex_points

# Two non-adjacent lattice points of a triangle whose legs do NOT lie on the
# coordinate axes; they are differently colored, so the majority color
# undercounts the maximum there.  Fixed guard vector for the axis-leg
# hypothesis.
SKEW_TRIANGLE_COUNTEREXAMPLE: tuple[Point, ...] = ((1, 0), (0, 2))

DEFAULT_SEARCH_CAP = 40


@dataclass(frozen=True)
class CheckerboardSplit:
    counts: ColorCount
    white: tuple[Point, ...]
    black: tuple[Point, ...]


def point_color(p: Sequence[int]) -> str:
    return "white" if sum(p) % 2 == 0 else "black"


def checkerboard_split(config: LatticeConfig) -> CheckerboardSplit:
    """Partition the points by parity of their coordinate sum."""
    white = tuple(p for p in config.points if sum(p) % 2 == 0)
    black = tuple(p for p in config.points if sum(p) % 2 == 1)
    return CheckerboardSplit(ColorCount(len(white), len(black)), white, black)


@dataclass(frozen=True)
class IndependentSetResult:
    """Exact maximum difference-free subset: its size and a witness."""

    size: int
    witness: tuple[Point, ...]


@dataclass(frozen=True)
class GammaBracket:
    """Exact enclosure of the optimal difference-free weight.

    ``lower`` is the exact optimum over the truncated region of depth
    ``depth``; ``upper`` adds the exact tail mass of everything beyond it.
    """

    lower: Fraction
    upper: Fraction
    depth: int
    witness: tuple[Point, ...]

    @property
    def width(self) -> Fraction:
        return self.upper - self.lower


# ---------------------------------------------------------------------------
# Conflict-graph search
# ---------------------------------------------------------------------------


def _normalize_diffs(diffs) -> tuple[Point, ...]:
    if isinstance(diffs, CoprimeBasis):
        return diffs.diffs
    out = tuple(tuple(d) for d in diffs)
    for d in out:
        if all(v == 0 for v in d):
            raise DomainError("difference vectors must be nonzero")
    return out


class _ConflictGraph:
    """The conflict graph of one region: points, neighbor lists and sides.

    Two points conflict when their difference, in either direction, is one
    of the difference vectors.  ``nbrs[i]`` lists the neighbors of point i
    ascending.  ``side`` is a two-coloring found by one breadth-first search
    in index order, so the lowest-index point of each component is on side
    0; it is None when the graph has an odd cycle.  ``color`` is each
    point's checkerboard color, 0 (white) for an even coordinate sum.
    """

    __slots__ = ("points", "nbrs", "side", "color")

    def __init__(self, points: Sequence[Point], diffs: Sequence[Point]):
        if points and any(len(d) != len(points[0]) for d in diffs):
            raise DomainError(
                f"difference vectors must have the points' dimension {len(points[0])}"
            )
        index = {p: i for i, p in enumerate(points)}
        # d and -d give the same conflicts: walk one of each pair
        vectors = {max(d, tuple(-c for c in d)) for d in diffs}
        nbrs: list[list[int]] = [[] for _ in points]
        for i, p in enumerate(points):
            for d in vectors:
                j = index.get(tuple(map(add, p, d)))
                if j is not None:
                    nbrs[i].append(j)
                    nbrs[j].append(i)
        for row in nbrs:
            row.sort()
        self.points = points
        self.nbrs = nbrs
        self.side = _two_sides(nbrs)
        self.color = [sum(p) % 2 for p in points]


def _two_sides(nbrs) -> Optional[list[int]]:
    """Side 0 or 1 of each vertex, by breadth-first search in index order.

    None when the graph has an odd cycle.
    """
    side = [-1] * len(nbrs)
    for start in range(len(nbrs)):
        if side[start] >= 0:
            continue
        side[start] = 0
        queue = [start]
        for v in queue:
            other = side[v] ^ 1
            for w in nbrs[v]:
                if side[w] < 0:
                    side[w] = other
                    queue.append(w)
                elif side[w] != other:
                    return None
    return side


def _members(n: int, verts):
    """``verts`` and a membership list, or every point and None when verts is None."""
    if verts is None:
        return range(n), None
    live = [False] * n
    for v in verts:
        live[v] = True
    return verts, live


def _free_parity_class(graph: _ConflictGraph, weights, verts, live):
    """The heavier nonempty conflict-free color class of verts, white on ties.

    ``live`` marks the members of verts, or is None when verts is every
    point.  Returns (weight, indices), or (0, []) when neither class
    qualifies.
    """
    nbrs, color = graph.nbrs, graph.color
    classes: tuple[list[int], list[int]] = ([], [])
    free = [True, True]
    for v in verts:
        c = color[v]
        classes[c].append(v)
        if free[c]:
            for w in nbrs[v]:
                if color[w] == c and (live is None or live[w]):
                    free[c] = False
                    break
    best, best_class = 0, []
    for c in (0, 1):
        if classes[c] and free[c]:
            weight = sum(weights[v] for v in classes[c])
            if weight > best or not best_class:
                best, best_class = weight, classes[c]
    return best, best_class


def _max_flow(n: int, arcs, source: int, sink: int) -> tuple[int, list[bool]]:
    """Dinic's maximum flow on integer capacities, without recursion.

    ``arcs`` lists (tail, head, capacity).  Returns the flow value and,
    per node, whether the source still reaches it in the residual graph:
    the source side of the minimum cut, the same for every maximum flow.

    The phases start from a greedy flow: each path source -> u -> v ->
    sink, u in the order of the source's arcs, v in the order of u's, and
    one arc from v into the sink, carries what its arcs still hold.  On
    unit-weight conflict networks that is a first-fit matching, most often
    already maximum, so the phases that follow only confirm it or repair a
    few greedy choices.  Any starting flow gives the same value and the
    same source side.
    """
    # arc e and its residual twin e ^ 1
    out: list[list[int]] = [[] for _ in range(n)]
    head: list[int] = []
    cap: list[int] = []
    for u, v, c in arcs:
        e = len(head)
        out[u].append(e)
        out[v].append(e + 1)
        head.append(v)
        head.append(u)
        cap.append(c)
        cap.append(0)
    # one arc into the sink per tail, neither the source nor the sink: the
    # twin of an odd arc out of the sink
    into_sink: dict[int, int] = {}
    for e in out[sink]:
        if e & 1 and head[e] != source and head[e] != sink:
            into_sink.setdefault(head[e], e ^ 1)
    flow = 0
    for e1 in out[source]:
        u = head[e1]
        if not cap[e1] or u == source or u == sink:
            continue
        for e2 in out[u]:
            e3 = into_sink.get(head[e2])
            if e3 is None or not cap[e3] or not cap[e2] or head[e2] == u:
                continue
            push = cap[e3]
            if cap[e1] < push:
                push = cap[e1]
            if cap[e2] < push:
                push = cap[e2]
            cap[e1] -= push
            cap[e1 ^ 1] += push
            cap[e2] -= push
            cap[e2 ^ 1] += push
            cap[e3] -= push
            cap[e3 ^ 1] += push
            flow += push
            if not cap[e1]:
                break
    while True:
        level = [-1] * n
        level[source] = 0
        queue = [source]
        for u in queue:
            if level[sink] >= 0:  # nodes past the sink's level lead nowhere
                break
            next_level = level[u] + 1
            for e in out[u]:
                if cap[e]:
                    v = head[e]
                    if level[v] < 0:
                        level[v] = next_level
                        queue.append(v)
        if level[sink] < 0:
            return flow, [lv >= 0 for lv in level]
        # blocking flow: advance along level-increasing arcs, retreat from
        # dead ends, and after each augmentation resume at the first arc
        # it saturated
        nxt = [0] * n
        path: list[int] = []
        u = source
        while True:
            if u == sink:
                push = cap[path[0]]
                for e in path:
                    if cap[e] < push:
                        push = cap[e]
                first = -1
                for k, e in enumerate(path):
                    cap[e] -= push
                    cap[e ^ 1] += push
                    if first < 0 and not cap[e]:
                        first = k
                flow += push
                del path[first:]
                u = head[path[-1]] if path else source
                continue
            arcs_u = out[u]
            want = level[u] + 1
            for k in range(nxt[u], len(arcs_u)):
                e = arcs_u[k]
                if cap[e] and level[head[e]] == want:
                    nxt[u] = k
                    path.append(e)
                    u = head[e]
                    break
            else:
                if u == source:
                    break
                level[u] = -1
                u = head[path.pop() ^ 1]
                nxt[u] += 1


def _min_cut_optimum(graph: _ConflictGraph, weights, verts=None):
    """Maximum-weight conflict-free subset of verts in a bipartite graph, by a minimum cut.

    ``verts`` lists point indices ascending, every point when None.  The
    source feeds each side-0 vertex and each side-1 vertex drains to the
    sink, at its weight scaled by the lcm of the weight denominators;
    conflict arcs, taken from the neighbor lists, cannot be cut.  A minimum
    cut is a minimum-weight vertex cover, so the optimum scales to
    total - flow, attained by the side-0 vertices the source still reaches
    plus the side-1 vertices it does not.  Returns (weight, indices).
    """
    nbrs, side = graph.nbrs, graph.side
    n = len(nbrs)
    verts, live = _members(n, verts)
    if not verts:
        return 0, []
    scale = lcm(*(weights[v].denominator for v in verts))
    caps = [w.numerator * (scale // w.denominator) for w in weights]
    total = sum(caps[v] for v in verts)
    uncuttable = total + 1
    source, sink = n, n + 1
    arcs = []
    for v in verts:
        if side[v]:
            arcs.append((v, sink, caps[v]))
        else:
            arcs.append((source, v, caps[v]))
            arcs.extend((v, w, uncuttable) for w in nbrs[v] if live is None or live[w])
    flow, reached = _max_flow(n + 2, arcs, source, sink)
    parity_weight, parity_class = _free_parity_class(graph, weights, verts, live)
    if parity_class and parity_weight * scale == total - flow:
        return parity_weight, parity_class
    chosen = [v for v in verts if reached[v] != side[v]]
    return sum(weights[v] for v in chosen), chosen


def _iter_bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _branch_and_bound(graph: _ConflictGraph, weights, verts=None):
    """Maximum-weight conflict-free subset of verts by branch and bound.

    Vertices in descending weight order, include-branch first, on an
    explicit stack; incumbent seeded with the best conflict-free color
    class (else a greedy set), and a greedy-matching clique bound (each
    matched pair contributes only its heavier endpoint).  The search works
    on bitmasks built here from the neighbor lists.  Returns (weight,
    indices).
    """
    points, nbrs = graph.points, graph.nbrs
    verts, live = _members(len(points), verts)
    if not verts:
        return 0, []
    adj = [sum(1 << w for w in row) for row in nbrs]
    sub_mask = sum(1 << v for v in verts)
    order = sorted(verts, key=lambda i: (-weights[i], points[i]))
    best, best_class = _free_parity_class(graph, weights, verts, live)
    best_mask = sum(1 << v for v in best_class)
    if best_mask == 0:
        taken = 0
        for i in order:
            if not (adj[i] & taken):
                taken |= 1 << i
        best, best_mask = sum(weights[i] for i in _iter_bits(taken)), taken

    def bound(rem: int):
        total = 0
        r = rem
        for i in order:
            bit = 1 << i
            if not (r & bit):
                continue
            r ^= bit
            nb = adj[i] & r
            if nb:
                # pair i with its heaviest remaining neighbor; the pair is a
                # clique, so it contributes at most w[i] (order is descending)
                j = max(_iter_bits(nb), key=lambda k: weights[k])
                r ^= 1 << j
            total += weights[i]
        return total

    stack = [(sub_mask, 0, 0)]
    while stack:
        rem, current, chosen = stack.pop()
        if not rem:
            if current > best:
                best, best_mask = current, chosen
            continue
        if current + bound(rem) <= best:
            continue
        v = next(i for i in order if (rem >> i) & 1)
        bit = 1 << v
        stack.append((rem & ~bit, current, chosen))
        stack.append((rem & ~adj[v] & ~bit, current + weights[v], chosen | bit))
    return best, list(_iter_bits(best_mask))


def _solve(graph: _ConflictGraph, weights, verts=None):
    """Exact maximum-weight conflict-free subset of verts, every point when None.

    Returns (weight, indices ascending).  A bipartite graph is solved by a
    minimum cut, one with an odd cycle by branch and bound.  Both return a
    conflict-free color class when it attains the optimum (white unless
    black is strictly heavier).
    """
    if graph.side is None:
        return _branch_and_bound(graph, weights, verts)
    return _min_cut_optimum(graph, weights, verts)


def _greedy_optimum(graph: _ConflictGraph, order) -> list[int]:
    """A maximum conflict-free set, completed greedily in the given order.

    ``order`` lists every point index once.  Visit the points in that order
    and keep each iff some maximum set holds it and every point kept so
    far; the sorted order gives the lexicographically least maximum set.
    Returns the kept indices in visiting order.

    The kept set is the maximum set whose indicator vector, read in
    visiting order, is lexicographically greatest, and one solve finds it:
    the point at place r of n weighs 2**n + 2**(n - 1 - r).  Any larger set
    outweighs all the place bits together, which sum below 2**n, and among
    maximum sets the first place where two differ outweighs every later
    one.  So the optimum is unique and is the greedy set.
    """
    n = len(graph.points)
    rank = [0] * n
    weights = [0] * n
    for r, i in enumerate(order):
        rank[i] = r
        weights[i] = (1 << n) | (1 << (n - 1 - r))
    return sorted(_solve(graph, weights)[1], key=rank.__getitem__)


def _conflict_graph(config: LatticeConfig, diffs, cap: int) -> _ConflictGraph:
    """The conflict graph of a configuration within the search cap."""
    _require_work_bound("cap", cap)
    points = config.points
    if len(points) > cap:
        raise CapError(
            f"instance too large for exact search: {len(points)} points exceed cap {cap}"
        )
    return _ConflictGraph(points, _normalize_diffs(diffs))


def _max_difference_free_size(config: LatticeConfig, diffs, cap: int = DEFAULT_SEARCH_CAP) -> int:
    """Size of a maximum difference-free subset, for callers that need no witness."""
    graph = _conflict_graph(config, diffs, cap)
    return _solve(graph, [1] * len(graph.points))[0]


def max_difference_free(
    config: LatticeConfig,
    diffs,
    cap: int = DEFAULT_SEARCH_CAP,
) -> IndependentSetResult:
    """Exact maximum difference-free subset of the configured points.

    Two points conflict when their difference, in either direction, is one
    of the given vectors, which must have the points' dimension.  The
    witness is the lexicographically least optimal subset under the sorted
    point order.
    """
    graph = _conflict_graph(config, diffs, cap)
    kept = _greedy_optimum(graph, range(len(graph.points)))
    return IndependentSetResult(len(kept), tuple(graph.points[i] for i in kept))


def f_via_checkerboard(p: int, q: int, t: int) -> int:
    """Majority color count over the first t smooth integers of the pair basis."""
    _require_coprime((p, q))
    if t < 1:
        raise DomainError("t must be at least 1")
    _, _, _, lead = next(islice(_pair_prefix(p, q), t - 1, None))
    return (t + abs(lead)) // 2


# ---------------------------------------------------------------------------
# Weighted bracket
# ---------------------------------------------------------------------------


def _simplex_lattice(s: int, depth: int) -> list[Point]:
    """All u in Z_+^s with coordinate sum <= depth, in lexicographic order."""
    pts: list[Point] = []

    def rec(prefix: tuple[int, ...], budget: int):
        if len(prefix) == s - 1:
            for k in range(budget + 1):
                pts.append(prefix + (k,))
            return
        for k in range(budget + 1):
            rec(prefix + (k,), budget - k)

    rec((), depth)
    return pts


def total_weight_mass(basis: Sequence[int]) -> Fraction:
    """Sum of the geometric weights over the entire nonnegative lattice."""
    result = Fraction(1)
    for b in basis:
        result *= Fraction(b, b - 1)
    return result


def max_feasible_depth(s: int, cap: int) -> int:
    """Largest depth whose lattice simplex stays within the point cap, else -1.

    The simplex of depth d in s >= 1 dimensions has comb(d + s, s) points,
    which grows with d, so doubling brackets the depth and bisection finds
    it.
    """
    if s < 1:
        raise DomainError(f"dimension must be at least 1, got {s}")
    if cap < 1:
        return -1
    lo, hi = 0, 1  # comb(lo + s, s) <= cap < comb(hi + s, s) once doubling stops
    while comb(hi + s, s) <= cap:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if comb(mid + s, s) <= cap:
            lo = mid
        else:
            hi = mid
    return lo


def gamma_bracket(
    basis: CoprimeBasis,
    depth: int,
    cap: int = DEFAULT_SEARCH_CAP,
) -> GammaBracket:
    """Bracket the optimal difference-free weight by exact truncation.

    Lower bound: exact optimum over the region of coordinate sum <= depth.
    Upper bound: lower plus the exact tail mass beyond the region, from the
    closed form of the geometric series.
    """
    if depth < 0:
        raise DomainError("depth must be nonnegative")
    _require_work_bound("cap", cap)
    s = basis.size
    count = comb(depth + s, s)
    if count > cap:
        raise CapError(
            f"truncation region has {count} points, exceeding cap {cap}; "
            f"largest feasible depth is {max_feasible_depth(s, cap)}"
        )
    points = _simplex_lattice(s, depth)
    # integer weights over scale = prod b**depth: u weighs prod b**(depth - u_i)
    powers = [[b**k for k in range(depth + 1)] for b in basis.basis]
    scale = prod(row[depth] for row in powers)
    weights = [prod(row[depth - e] for row, e in zip(powers, p)) for p in points]
    best, chosen = _solve(_ConflictGraph(points, basis.diffs), weights)
    witness = tuple(points[i] for i in chosen)
    lower = Fraction(best, scale)
    # the truncated region is exactly the solved points
    tail = total_weight_mass(basis.basis) - Fraction(sum(weights), scale)
    return GammaBracket(lower, lower + tail, depth, witness)


def white_weight_value(values: Sequence[int]) -> Fraction:
    """Exact weight of the even-parity class over the whole lattice.

    Equals half of (product of b/(b-1)) plus half of (product of b/(b+1)):
    the even-parity part of the full geometric product.
    """
    vals = _require_coprime(values)
    all_mass = Fraction(1)
    signed_mass = Fraction(1)
    for v in vals:
        all_mass *= Fraction(v, v - 1)
        signed_mass *= Fraction(v, v + 1)
    return (all_mass + signed_mass) / 2


# ---------------------------------------------------------------------------
# Axis-legged triangles and the diagonal sweep
# ---------------------------------------------------------------------------


AXIS_DIFFS: tuple[Point, ...] = ((1, 0), (0, 1))


def _adjacent_point(pts: set[Point]) -> Optional[Point]:
    """A point of pts whose right or upper neighbor is also in pts, else None."""
    for x, y in pts:
        if (x + 1, y) in pts or (x, y + 1) in pts:
            return (x, y)
    return None


def _validate_sweep_input(triangle: SimplexSpec, pts: set[Point], cap: int) -> None:
    _require_work_bound("cap", cap)
    if len(triangle.alphas) != 2:
        raise DomainError("the sweep works on plane triangles")
    for p in pts:
        if len(p) != 2:
            raise DomainError("the sweep works on plane configurations")
        if not triangle.contains(p):
            raise DomainError(f"point {p} lies outside the triangle")
    adjacent = _adjacent_point(pts)
    if adjacent is not None:
        raise DomainError(f"points ({adjacent[0]},{adjacent[1]}) and a neighbor are both present")
    tri_pts = simplex_points(triangle, limit=cap + 1)
    if len(tri_pts) <= cap:
        opt = _max_difference_free_size(tri_pts, AXIS_DIFFS, cap)
        if len(pts) != opt:
            raise DomainError(
                f"input has {len(pts)} points but the maximum is {opt}; "
                "the sweep requires a maximum configuration"
            )
    # beyond the cap the maximality of the input is trusted


def _move(triangle: SimplexSpec, current: set[Point], group, targets, d: int, kind: str) -> None:
    """Replace group by targets in current, each target inside and not held outside group."""
    group = set(group)
    for nx, ny in targets:
        if not triangle.contains((nx, ny)):
            raise SweepError(d, f"{kind} target ({nx},{ny}) leaves the triangle")
        if (nx, ny) in current and (nx, ny) not in group:
            raise SweepError(d, f"{kind} target ({nx},{ny}) is occupied")
    current.difference_update(group)
    current.update(targets)


def monochromatize(
    triangle: SimplexSpec,
    config,
    cap: int = DEFAULT_SEARCH_CAP,
) -> LatticeConfig:
    """Recolor an optimal non-adjacent configuration to a single color.

    ``triangle`` is a two-dimensional ``SimplexSpec``; any other raises
    ``DomainError``.  ``config`` is a ``LatticeConfig`` or a list of points,
    which ``LatticeConfig.explicit`` checks (distinct, nonnegative, one
    dimension), so a repeated point is an error, not dropped.

    Sweeps diagonals x+y = d upward, keeping everything at or below the
    current diagonal one color.  Three moves, by case: a diagonal cut by the
    hypotenuse shifts its points toward the cut; a vacant spot on a full-
    width diagonal splits the shifts around it; a fully occupied diagonal
    forces the row below empty and everything under it shifts up.  Each move
    lands on vacant cells of the opposite parity, so no adjacencies appear.
    """
    if not isinstance(config, LatticeConfig):
        config = LatticeConfig.explicit(config)
    current = set(config.points)
    size = len(current)
    _validate_sweep_input(triangle, current, cap)

    # one past the largest coordinate sum of a point inside
    top = 0
    while triangle.contains((top, 0)) or triangle.contains((0, top)):
        top += 1
    for d in range(top):
        diag = sorted(p for p in current if p[0] + p[1] == d)
        below = [p for p in current if p[0] + p[1] < d]
        if not diag or not below:
            continue
        below_colors = {(x + y) % 2 for x, y in below}
        if len(below_colors) != 1:
            raise SweepError(d, "points below the diagonal are not one color")
        color_below = below_colors.pop()
        if color_below == d % 2:
            continue

        left_out = not triangle.contains((0, d))
        right_out = not triangle.contains((d, 0))
        if left_out and right_out:
            raise SweepError(d, "diagonal lies outside the triangle yet carries points")

        if left_out or right_out:
            # hypotenuse cuts the diagonal: shift its points toward the cut
            dx, dy = (-1, 0) if left_out else (0, -1)
            _move(triangle, current, diag, [(x + dx, y + dy) for x, y in diag], d, "shift")
        else:
            vacant = [x for x in range(d + 1) if (x, d - x) not in current]
            if vacant:
                # split shifts around the vacant spot: left part down, right part left
                px = vacant[0]
                targets = [(x, y - 1) if x < px else (x - 1, y) for x, y in diag]
                _move(triangle, current, diag, targets, d, "shift")
            else:
                # full diagonal: its neighbors are free, so row d-1 must be empty
                if any(p[0] + p[1] == d - 1 for p in current):
                    raise SweepError(d, "row below a full diagonal is occupied")
                _move(triangle, current, below, [(x, y + 1) for x, y in below], d, "upward")
        if len(current) != size:
            raise SweepError(d, "moves collided and lost a point")

    result = sorted(current)
    if len(result) != size:
        raise SweepError(None, "output size differs from input size")
    if any(not triangle.contains(p) for p in result):
        raise SweepError(None, "output leaves the triangle")
    if _adjacent_point(current) is not None:
        raise SweepError(None, "output contains adjacent points")
    if len({(x + y) % 2 for x, y in result}) > 1:
        raise SweepError(None, "output is not monochromatic")
    return LatticeConfig.explicit(result)
