"""Difference-free lattice combinatorics.

Exact maximum difference-free subsets (cardinality and weighted),
truncated brackets for the optimal weight of a difference-free set, and the
diagonal sweep that recolors an optimal configuration inside an
axis-legged triangle to a single color without losing points.  The points
and the regions come from ``geometry``: a triangle is a two-dimensional
``SimplexSpec``, its majority color, the sweep input's required size,
comes from ``simplex_color_counts``, and the bracket's truncation region
is the simplex of unit coefficients listed by ``simplex_points``.

Each region gets one conflict graph: its points, ascending neighbor lists
and a side per point, found by one breadth-first search in index order
(no side when the graph has an odd cycle).  The neighbors are found one
difference vector at a time: the coordinate columns are shifted by the
vector whole and the shifted points looked up in one pass, with no tuple
built per point in Python code.  Every solve runs on the graph.  The
optimum is a minimum cut whenever the graph is bipartite, which it always
is when the difference vectors are linearly independent: every
pairwise-coprime integer set, {3/2}, {4/3, 9/8}, {2, 3/2} and the
axis-legged triangles.  By Konig-Egervary the maximum-weight conflict-free
set then weighs the total minus the maximum flow of the conflict network:
the source feeds each side-0 point and each side-1 point drains to the
sink, at its weight, and each side-0 point has an uncuttable arc to each
neighbor.  The flow runs on the neighbor lists themselves: it keeps what
remains of each point's one terminal arc and the flow each conflict arc
carries, and since a conflict arc never saturates, a side-0 point always
reaches its neighbors and a side-1 point reaches back along the arcs that
carry flow.  It starts from a first-fit flow: side-0 points by index, each
pushing to its neighbors in ascending order.  When a parity class is
optimal, as in every axis-legged triangle, some matching saturates the
smaller color (Konig), and first-fit most often finds one, so one
breadth-first search confirms it.  Otherwise each search pushes along
the paths of its tree, until a search finds none.  Only graphs with an
odd cycle, from dependent vectors such as {2, 3, 6}, fall back to branch
and bound, the one place that builds bitmasks; its bound covers the
remaining points by greedy cliques, so each triangle of {2, 3, 5, 6}
counts once.

The lexicographically least maximum set, and ``verify``'s random ones, are
greedy completions in a visiting order, and each is one solve: every point
weighs 2**n plus a bit that falls with its place in the order, so the one
optimum is the greedy set.

The sweep decides membership by row lengths (``_plane_membership``):
(x, y) is inside exactly when x, y >= 0 and y is below the length of row
x, ``SimplexSpec._row_length([x])``, and each row is decided once per
membership.  The input check builds one membership, and the sweep one
for the diagonal ends, the shift targets and the output check, so each
costs one decision per row it meets, and no ``contains`` call on the
``log`` and ``dot`` routes.

``gamma_bracket`` solves on integer weights: over the common denominator
prod b**depth, the point u weighs prod b**(depth - u_i).  Branch and bound
and the cut then add and compare ints, one Fraction is built for the
optimum, and the tail mass is the closed-form total minus the solved
points' weight sum over that denominator.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, partial, reduce
from itertools import islice, repeat
from math import comb, prod
from operator import add, and_, itemgetter, mul
from typing import NamedTuple, Optional, Sequence

from .arith import (
    CoprimeBasis,
    _pair_prefix,
    _require_coprime,
    _require_stream_bound,
    _require_work_bound,
)
from .errors import CapError, DomainError, SweepError
from .geometry import LatticeConfig, Point, SimplexSpec, simplex_color_counts, simplex_points

# Two non-adjacent lattice points of a triangle whose legs do NOT lie on the
# coordinate axes; they are differently colored, so the majority color
# undercounts the maximum there.  Fixed guard vector for the axis-leg
# hypothesis.
SKEW_TRIANGLE_COUNTEREXAMPLE: tuple[Point, ...] = ((1, 0), (0, 2))

DEFAULT_SEARCH_CAP = 40


class IndependentSetResult(NamedTuple):
    """Exact maximum difference-free subset: its size and a witness."""

    size: int
    witness: tuple[Point, ...]


class GammaBracket(NamedTuple):
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
        columns = list(zip(*points))
        # d and -d give the same conflicts: walk one of each pair
        vectors = {max(d, tuple(-c for c in d)) for d in diffs}
        nbrs: list[list[int]] = [[] for _ in points]
        for d in vectors:
            # every point shifted by d at once, column by column, and looked up
            shifted = zip(*[col if k == 0 else map(add, col, repeat(k))
                            for col, k in zip(columns, d)])
            for i, j in enumerate(map(index.get, shifted)):
                if j is not None:
                    nbrs[i].append(j)
                    nbrs[j].append(i)
        for row in nbrs:
            row.sort()
        self.points = points
        self.nbrs = nbrs
        self.side = _two_sides(nbrs)
        # checkerboard color: the parity of the coordinate sum, summed column-wise
        sums = reduce(partial(map, add), columns, repeat(0, len(points)))
        self.color = list(map(and_, sums, repeat(1)))


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


def _free_parity_class(graph: _ConflictGraph, weights):
    """The heavier nonempty conflict-free color class, white on ties.

    Returns (weight, indices), or (0, []) when neither class qualifies.
    """
    nbrs, color = graph.nbrs, graph.color
    classes: tuple[list[int], list[int]] = ([], [])
    free = [True, True]
    for v, c in enumerate(color):
        classes[c].append(v)
        if free[c]:
            for w in nbrs[v]:
                if color[w] == c:
                    free[c] = False
                    break
    best, best_class = 0, []
    for c in (0, 1):
        if classes[c] and free[c]:
            weight = sum(weights[v] for v in classes[c])
            if weight > best or not best_class:
                best, best_class = weight, classes[c]
    return best, best_class


def _max_flow(graph: _ConflictGraph, weights) -> tuple[int, list[bool]]:
    """Maximum flow on the conflict network of a bipartite graph.

    The source feeds each side-0 vertex and each side-1 vertex drains to
    the sink, at its weight; each side-0 vertex has an uncuttable arc to
    each neighbor.  Exact on any capacities, without recursion.  Returns
    the flow value and, per vertex, whether the source still reaches it in
    the residual graph: the source side of the minimum cut, the same for
    every maximum flow.

    The search runs on the neighbor lists, with no arc arrays: ``res[v]``
    is what remains of v's one terminal arc, and ``carried[w][u]`` the flow
    on the conflict arc from side-0 u to side-1 w.  A conflict arc never
    saturates, so u reaches every neighbor, and w reaches u back while the
    arc carries flow.

    The flow starts first-fit: side-0 vertices by index, each pushing to
    its neighbors in ascending order the smaller of the two terminal
    remainders.  On unit weights that is a first-fit matching, most often
    already maximum.  Then each round searches breadth-first from the
    source, stopping at every side-1 vertex that still drains to the sink,
    and pushes along each tree path to such a vertex what it still holds.
    Tree paths are shortest, and a push never shortens a residual distance,
    so Edmonds and Karp's bound holds.  A vertex a push cuts off becomes
    its own parent with nothing left to push, so later paths stop there.
    The first search that meets no such vertex gives the cut.
    """
    nbrs, side = graph.nbrs, graph.side
    n = len(nbrs)
    res = list(weights)
    carried: list[dict] = [{} for _ in range(n)]
    starts = [u for u in range(n) if not side[u]]
    flow = 0
    for u in starts:
        for w in nbrs[u]:
            if not res[u]:
                break
            push = res[w] if res[w] < res[u] else res[u]
            if push:
                res[u] -= push
                res[w] -= push
                carried[w][u] = push
                flow += push
    while True:
        # each vertex the source reaches records the vertex it was reached
        # from; a side-0 vertex fed by the source records itself
        parent = [-1] * n
        queue = [u for u in starts if res[u]]
        for u in queue:
            parent[u] = u
        ends = []
        for v in queue:
            if not side[v]:
                for w in nbrs[v]:
                    if parent[w] < 0:
                        parent[w] = v
                        queue.append(w)
            elif res[v]:
                ends.append(v)
            else:
                for u, c in carried[v].items():
                    if c and parent[u] < 0:
                        parent[u] = v
                        queue.append(u)
        if not ends:
            return flow, [p >= 0 for p in parent]
        for end in ends:
            path = [end]
            while parent[path[-1]] != path[-1]:
                path.append(parent[path[-1]])
            # the path runs end, u, w, u, ..., start: each u -> w is a conflict
            # arc, and each w -> u goes back along one that carries flow
            ws, us = path[::2], path[1::2]
            start = path[-1]
            push = min(res[start], res[end], *[carried[w][u] for w, u in zip(ws[1:], us)])
            if not push:
                # an earlier push cut this path off: so are all its vertices
                for v in path:
                    parent[v] = v
                continue
            res[start] -= push
            res[end] -= push
            flow += push
            for w, u in zip(ws, us):
                carried[w][u] = carried[w].get(u, 0) + push
            for w, u in zip(ws[1:], us):
                carried[w][u] -= push
                if not carried[w][u]:
                    parent[u] = u


def _min_cut_optimum(graph: _ConflictGraph, weights):
    """Maximum-weight conflict-free subset of a bipartite graph, by a minimum cut.

    A minimum cut of the conflict network (see ``_max_flow``) is a
    minimum-weight vertex cover, so the optimum is total - flow, attained
    by the side-0 vertices the source still reaches plus the side-1
    vertices it does not.  Returns (weight, indices).
    """
    flow, reached = _max_flow(graph, weights)
    total = sum(weights)
    parity_weight, parity_class = _free_parity_class(graph, weights)
    if parity_class and parity_weight == total - flow:
        return parity_weight, parity_class
    chosen = [v for v, s in enumerate(graph.side) if reached[v] != s]
    return sum(weights[v] for v in chosen), chosen


def _iter_bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _branch_and_bound(graph: _ConflictGraph, weights):
    """Maximum-weight conflict-free subset by branch and bound.

    Vertices in descending weight order, include-branch first, on an
    explicit stack; incumbent seeded with the best conflict-free color
    class (else a greedy set), and a greedy clique-cover bound (each clique
    contributes only its heaviest point).  The search works on rank bits
    built here from the neighbor lists: bit r stands for the vertex at
    place r of the weight order, so the next vertex to branch on is the
    lowest set bit, and the bound grows a clique from it, adding in turn
    the lowest set bit adjacent to the whole clique, each no heavier than
    the first.  Any valid bound returns the same optimum, the first in
    search order.  Returns (weight, indices).
    """
    points, nbrs = graph.points, graph.nbrs
    order = sorted(range(len(points)), key=lambda i: (-weights[i], points[i]))
    rank = {v: r for r, v in enumerate(order)}
    adj = [sum(1 << rank[w] for w in nbrs[v]) for v in order]
    weight = [weights[v] for v in order]
    best, best_class = _free_parity_class(graph, weights)
    best_mask = sum(1 << rank[v] for v in best_class)
    if best_mask == 0:
        for r in range(len(order)):
            if not (adj[r] & best_mask):
                best_mask |= 1 << r
        best = sum(weight[r] for r in _iter_bits(best_mask))

    def bound(rem: int):
        total = 0
        while rem:
            low = rem & -rem
            r = low.bit_length() - 1
            rem ^= low
            nb = adj[r] & rem
            while nb:
                # grow a clique on r from the lowest common neighbors: it
                # contributes at most weight[r], its heaviest point
                low = nb & -nb
                rem ^= low
                nb &= adj[low.bit_length() - 1]
            total += weight[r]
        return total

    stack = [((1 << len(order)) - 1, 0, 0)]
    while stack:
        rem, current, chosen = stack.pop()
        if not rem:
            if current > best:
                best, best_mask = current, chosen
            continue
        if current + bound(rem) <= best:
            continue
        low = rem & -rem
        r = low.bit_length() - 1
        stack.append((rem ^ low, current, chosen))
        stack.append(((rem ^ low) & ~adj[r], current + weight[r], chosen | low))
    return best, sorted(order[r] for r in _iter_bits(best_mask))


def _solve(graph: _ConflictGraph, weights):
    """Exact maximum-weight conflict-free subset of the graph's points.

    Returns (weight, indices ascending).  A bipartite graph is solved by a
    minimum cut, one with an odd cycle by branch and bound.  Both return a
    conflict-free color class when it attains the optimum (white unless
    black is strictly heavier).
    """
    if graph.side is None:
        return _branch_and_bound(graph, weights)
    return _min_cut_optimum(graph, weights)


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
    """f(t), the majority color count over the first t smooth integers: the stream's gains."""
    _require_coprime((p, q))
    _require_stream_bound("t", t)
    return sum(map(itemgetter(3), islice(_pair_prefix(p, q), t)))


# ---------------------------------------------------------------------------
# Weighted bracket
# ---------------------------------------------------------------------------


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
    points = _unit_simplex_points(s, depth)
    # integer weights over scale = prod b**depth: u weighs prod b**(depth - u_i),
    # multiplied up column by column from each coordinate's falling powers
    falling = [[b**k for k in range(depth, -1, -1)] for b in basis.basis]
    scale = prod(row[0] for row in falling)
    factors = [map(row.__getitem__, col) for row, col in zip(falling, zip(*points))]
    weights = list(reduce(partial(map, mul), factors))
    best, chosen = _solve(_ConflictGraph(points, basis.diffs), weights)
    witness = tuple(points[i] for i in chosen)
    lower = Fraction(best, scale)
    # the truncated region is exactly the solved points
    tail = total_weight_mass(basis.basis) - Fraction(sum(weights), scale)
    return GammaBracket(lower, lower + tail, depth, witness)


@lru_cache(maxsize=64)
def _unit_simplex_points(s: int, depth: int) -> tuple[Point, ...]:
    """The points of the unit simplex x_1 + ... + x_s <= depth, x >= 0, in lex order."""
    return simplex_points(SimplexSpec.of((1,) * s, depth)).points


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


def _plane_membership(triangle: SimplexSpec):
    """Membership in a plane triangle, each row's length decided once.

    (x, y) lies inside exactly when x, y >= 0 and y is below the length of
    row x, ``SimplexSpec._row_length([x])``, which is exact on every route:
    one integer division for rational coefficients, an integer loop for
    logarithms, and the enclosures plus a bisection for the rest.  The
    lengths are kept by x, so a sweep over r rows makes at most r
    decisions, however many points it tests, and no ``contains`` call on
    the ``log`` and ``dot`` routes.
    """
    lengths: dict[int, int] = {}

    def inside(point: Point) -> bool:
        x, y = point
        if x < 0 or y < 0:
            return False
        if x not in lengths:
            lengths[x] = triangle._row_length([x])
        return y < lengths[x]

    return inside


def _validate_sweep_input(triangle: SimplexSpec, pts: set[Point], cap: int) -> None:
    """Reject what ``monochromatize`` cannot sweep, with ``DomainError`` or ``CapError``.

    Each point is checked by ``_plane_membership``, one row-length decision
    per row the points meet, and the required size, the majority color, is
    counted slab by slab without listing the triangle.
    """
    _require_work_bound("cap", cap)
    if len(triangle.alphas) != 2:
        raise DomainError("the sweep works on plane triangles")
    if len(pts) > cap:
        raise CapError(f"input has {len(pts)} points, exceeding cap {cap}")
    inside = _plane_membership(triangle)
    for p in pts:
        if len(p) != 2:
            raise DomainError("the sweep works on plane configurations")
        if not inside(p):
            raise DomainError(f"point {p} lies outside the triangle")
    adjacent = _adjacent_point(pts)
    if adjacent is not None:
        raise DomainError(f"points ({adjacent[0]},{adjacent[1]}) and a neighbor are both present")
    # the maximum is the majority color (the paper's theorem), counted
    # exactly slab by slab
    opt = simplex_color_counts(triangle).majority()
    if len(pts) != opt:
        raise DomainError(
            f"input has {len(pts)} points but the maximum is {opt}; "
            "the sweep requires a maximum configuration"
        )


def monochromatize(
    triangle: SimplexSpec,
    config,
    cap: int = DEFAULT_SEARCH_CAP,
) -> LatticeConfig:
    """Recolor an optimal non-adjacent configuration to a single color.

    ``triangle`` is a two-dimensional ``SimplexSpec``; any other raises
    ``DomainError``.  ``config`` is a ``LatticeConfig`` or a list of points,
    which ``LatticeConfig.explicit`` checks (integer, distinct, nonnegative,
    one dimension), so a repeated point is an error, not dropped.

    The input must be a maximum non-adjacent set: as many points as the
    majority checkerboard color, by the paper's theorem (``verify --suite
    theorem6`` checks it by an exact solve), and at most ``cap`` points,
    else ``CapError``.

    Sweeps diagonals x+y = d upward, keeping everything at or below the
    current diagonal one color.  Two moves, by case: a diagonal cut by the
    hypotenuse shifts its points toward the cut; a vacant spot on a full-
    width diagonal splits the shifts around it (a maximum set fills no such
    diagonal).  Each move lands on vacant cells of the opposite parity, so
    no adjacencies appear.

    The result is the whole checkerboard class of the input's lowest
    occupied diagonal: moves go only one diagonal down, onto its color, and
    a one-color non-adjacent set of the majority size is the whole class.
    """
    if not isinstance(config, LatticeConfig):
        config = LatticeConfig.explicit(config)
    current = set(config.points)
    _validate_sweep_input(triangle, current, cap)
    return _sweep(triangle, current)


def _sweep(triangle: SimplexSpec, current: set[Point]) -> LatticeConfig:
    """The diagonal sweep of ``monochromatize`` on a configuration known valid.

    ``current`` is a maximum non-adjacent set of the plane triangle's
    points, and is not changed.  The points are kept by diagonal, so each
    step reads its own diagonal and which diagonals below it are occupied.
    Membership of the diagonal ends, the shift targets and the output is
    ``_plane_membership``: one row-length decision per row met, and no
    ``contains`` call on the ``log`` and ``dot`` routes.
    """
    inside = _plane_membership(triangle)
    size = len(current)
    # one past the input's largest coordinate sum: moves only go from a
    # diagonal to the one below it, so no higher diagonal is ever read
    top = max((x + y for x, y in current), default=-1) + 1
    diagonals: list[set[Point]] = [set() for _ in range(top)]
    for x, y in current:
        diagonals[x + y].add((x, y))
    for d in range(top):
        diag = sorted(diagonals[d])
        below_colors = {s % 2 for s in range(d) if diagonals[s]}
        if not diag or not below_colors:
            continue
        if len(below_colors) != 1:
            raise SweepError(d, "points below the diagonal are not one color")
        if below_colors.pop() == d % 2:
            continue

        left_out = not inside((0, d))
        right_out = not inside((d, 0))
        if left_out and right_out:
            raise SweepError(d, "diagonal lies outside the triangle yet carries points")

        # shift toward a vacant cell px, the points left of it down and the
        # rest left; a diagonal cut by the hypotenuse shifts toward the cut
        if left_out:
            px = -1
        elif right_out:
            px = d + 1
        else:
            vacant = [x for x in range(d + 1) if (x, d - x) not in diagonals[d]]
            # No maximum set fills a diagonal d with both ends inside: then
            # {x+y <= d} is inside, d-1 and d+1 are empty, and the points
            # below lie on d-3, d-5, ...; all of d-2, d-4, ..., one more cell
            # each, would replace them by more points, still non-adjacent.
            if not vacant:
                raise SweepError(d, "a full diagonal: the input is not maximum")
            px = vacant[0]
        targets = [(x, y - 1) if x < px else (x - 1, y) for x, y in diag]
        for nx, ny in targets:
            if not inside((nx, ny)):
                raise SweepError(d, f"shift target ({nx},{ny}) leaves the triangle")
            if (nx, ny) in diagonals[d - 1]:
                raise SweepError(d, f"shift target ({nx},{ny}) is occupied")
        diagonals[d] = set()
        diagonals[d - 1].update(targets)
        if sum(map(len, diagonals)) != size:
            raise SweepError(d, "moves collided and lost a point")

    result = sorted(p for diag in diagonals for p in diag)
    if len(result) != size:
        raise SweepError(None, "output size differs from input size")
    if not all(map(inside, result)):
        raise SweepError(None, "output leaves the triangle")
    if _adjacent_point(set(result)) is not None:
        raise SweepError(None, "output contains adjacent points")
    if len({(x + y) % 2 for x, y in result}) > 1:
        raise SweepError(None, "output is not monochromatic")
    return LatticeConfig.explicit(result)
