"""Difference-free lattice combinatorics.

Checkerboard classification of lattice points, exact maximum difference-free
subsets (cardinality and weighted), truncated brackets for the optimal
weight of a difference-free set, and the diagonal sweep that recolors an
optimal configuration inside an axis-legged triangle to a single color
without losing points.  The points and the regions come from ``geometry``:
a triangle is a two-dimensional ``SimplexSpec`` and its points are walked
by ``simplex_points``.

The optimum is a minimum cut whenever the conflict graph is bipartite,
which it always is when the difference vectors are linearly independent:
every pairwise-coprime integer set, {3/2}, {4/3, 9/8}, {2, 3/2} and the
axis-legged triangles.  By Konig-Egervary the maximum-weight conflict-free
set then weighs the total minus the maximum flow, with the weights scaled
to integer capacities, so the cut is exact.  Only graphs with an odd cycle,
from dependent vectors such as {2, 3, 6}, fall back to branch and bound.

``gamma_bracket`` solves on integer weights: over the common denominator
prod b**depth, the point u weighs prod b**(depth - u_i).  Branch and bound
and the cut then add and compare ints, one Fraction is built for the
optimum, and the tail mass is the closed-form total minus the solved
points' weight sum over that denominator.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm, prod
from operator import add
from typing import Optional, Sequence

from .arith import CoprimeBasis, _require_coprime, first_smooth_entries
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
    """Exact maximum difference-free subset: size, witness, and optimality flag."""

    size: int
    witness: tuple[Point, ...]
    optimal: bool


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


def _conflict_masks(points: Sequence[Point], diffs: Sequence[Point]) -> list[int]:
    """Bit-adjacency: i ~ j iff their difference (either way) is a diff vector."""
    index = {p: i for i, p in enumerate(points)}
    adj = [0] * len(points)
    for i, p in enumerate(points):
        for d in diffs:
            j = index.get(tuple(map(add, p, d)))
            if j is not None and j != i:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return adj


def _iter_bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _mask_weight(weights, mask: int, zero):
    total = zero
    for i in _iter_bits(mask):
        total += weights[i]
    return total


def _free_parity_class(points, adj, weights, sub_mask: int, zero):
    """The heavier nonempty conflict-free parity class of sub_mask, white on ties.

    Returns (weight, mask), or (zero, 0) when neither class qualifies.
    """
    best, best_mask = zero, 0
    for parity in (0, 1):
        cm = 0
        for i in _iter_bits(sub_mask):
            if sum(points[i]) % 2 == parity:
                cm |= 1 << i
        if cm and all(not (adj[i] & cm) for i in _iter_bits(cm)):
            w = _mask_weight(weights, cm, zero)
            if w > best or best_mask == 0:
                best, best_mask = w, cm
    return best, best_mask


def _two_coloring(adj, sub_mask: int) -> Optional[dict[int, int]]:
    """Side 0 or 1 of each vertex of the graph induced by sub_mask.

    None when the graph has an odd cycle.  The lowest-index vertex of each
    component is on side 0; the dict lists vertices in discovery order.
    """
    side: dict[int, int] = {}
    for start in _iter_bits(sub_mask):
        if start in side:
            continue
        side[start] = 0
        stack = [start]
        while stack:
            v = stack.pop()
            for w in _iter_bits(adj[v] & sub_mask):
                if w not in side:
                    side[w] = side[v] ^ 1
                    stack.append(w)
                elif side[w] == side[v]:
                    return None
    return side


def _max_flow(n: int, arcs, source: int, sink: int) -> tuple[int, list[bool]]:
    """Dinic's maximum flow on integer capacities, without recursion.

    ``arcs`` lists (tail, head, capacity).  Returns the flow value and, per
    node, whether the source still reaches it in the residual graph: the
    source side of the minimum cut, the same for every maximum flow.
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
    flow = 0
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


def _min_cut_optimum(points, adj, weights, sub_mask: int, side: dict[int, int], zero):
    """Maximum-weight conflict-free subset of a bipartite sub_mask, by a minimum cut.

    The source feeds each side-0 vertex and each side-1 vertex drains to
    the sink, at its weight scaled by the lcm of the weight denominators;
    conflict arcs cannot be cut.  A minimum cut is a minimum-weight vertex
    cover, so the optimum scales to total - flow, attained by the side-0
    vertices the source still reaches plus the side-1 vertices it does not.
    """
    verts = list(side)
    local = {v: k for k, v in enumerate(verts)}
    scale = lcm(*(weights[v].denominator for v in verts))
    caps = [weights[v].numerator * (scale // weights[v].denominator) for v in verts]
    total = sum(caps)
    uncuttable = total + 1
    source, sink = len(verts), len(verts) + 1

    def arcs():
        for k, v in enumerate(verts):
            if side[v]:
                yield k, sink, caps[k]
            else:
                yield source, k, caps[k]
                for w in _iter_bits(adj[v] & sub_mask):
                    yield k, local[w], uncuttable

    flow, reached = _max_flow(len(verts) + 2, arcs(), source, sink)
    parity_weight, parity_mask = _free_parity_class(points, adj, weights, sub_mask, zero)
    if parity_mask and parity_weight * scale == total - flow:
        return parity_weight, parity_mask
    mask = 0
    for k, v in enumerate(verts):
        if reached[k] != side[v]:
            mask |= 1 << v
    return _mask_weight(weights, mask, zero), mask


def _branch_and_bound(points, adj, weights, sub_mask: int, zero):
    """Maximum-weight conflict-free subset of sub_mask by branch and bound.

    Vertices in descending weight order, include-branch first, on an
    explicit stack; incumbent seeded with the best conflict-free parity
    class (else a greedy set), and a greedy-matching clique bound (each
    matched pair contributes only its heavier endpoint).
    """
    order = sorted(_iter_bits(sub_mask), key=lambda i: (-weights[i], points[i]))
    best, best_mask = _free_parity_class(points, adj, weights, sub_mask, zero)
    if best_mask == 0:
        taken = 0
        for i in order:
            if not (adj[i] & taken):
                taken |= 1 << i
        best, best_mask = _mask_weight(weights, taken, zero), taken

    def bound(rem: int):
        total = zero
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

    stack = [(sub_mask, zero, 0)]
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
    return best, best_mask


def _solve_max_weight(points, adj, weights, sub_mask: int):
    """Exact maximum-weight conflict-free subset of the vertices in sub_mask.

    Returns (weight, mask).  A bipartite induced conflict graph is solved by
    a minimum cut, one with an odd cycle by branch and bound.  Both return a
    conflict-free parity class when it attains the optimum (white unless
    black is strictly heavier).
    """
    if not sub_mask:
        return 0, 0
    zero = 0 * weights[(sub_mask & -sub_mask).bit_length() - 1]
    side = _two_coloring(adj, sub_mask)
    if side is None:
        return _branch_and_bound(points, adj, weights, sub_mask, zero)
    return _min_cut_optimum(points, adj, weights, sub_mask, side, zero)


def _greedy_optimum(points, adj, weights, target, order):
    """An optimum of weight ``target``, completed greedily in the given order.

    ``order`` lists every point index once.  Visit them in that order and
    commit each iff the target is still reachable with it in; each test is
    one exact solve on the residue.
    The sorted order gives the lexicographically least optimum.
    """
    chosen_weight = 0
    chosen_mask = 0
    rem = (1 << len(points)) - 1
    for i in order:
        bit = 1 << i
        if not (rem & bit):
            continue
        residue = rem & ~adj[i] & ~bit
        value = chosen_weight + weights[i] + _solve_max_weight(points, adj, weights, residue)[0]
        if value == target:
            chosen_mask |= bit
            chosen_weight += weights[i]
            rem = residue
        else:
            rem &= ~bit
    return chosen_mask


def _conflict_graph(config: LatticeConfig, diffs, cap: int):
    """Points and conflict masks of a configuration within the search cap."""
    points = config.points
    if len(points) > cap:
        raise CapError(
            f"instance too large for exact search: {len(points)} points exceed cap {cap}"
        )
    if not points:
        return points, []
    return points, _conflict_masks(points, _normalize_diffs(diffs))


def _max_difference_free_size(config: LatticeConfig, diffs, cap: int = DEFAULT_SEARCH_CAP) -> int:
    """Size of a maximum difference-free subset, for callers that need no witness."""
    points, adj = _conflict_graph(config, diffs, cap)
    return _solve_max_weight(points, adj, [1] * len(points), (1 << len(points)) - 1)[0]


def max_difference_free(
    config: LatticeConfig,
    diffs,
    cap: int = DEFAULT_SEARCH_CAP,
) -> IndependentSetResult:
    """Exact maximum difference-free subset of the configured points.

    Two points conflict when their difference, in either direction, is one
    of the given vectors.  The witness is the lexicographically least
    optimal subset under the sorted point order.
    """
    points, adj = _conflict_graph(config, diffs, cap)
    weights = [1] * len(points)
    best = _solve_max_weight(points, adj, weights, (1 << len(points)) - 1)[0]
    mask = _greedy_optimum(points, adj, weights, best, range(len(points)))
    witness = tuple(points[i] for i in _iter_bits(mask))
    return IndependentSetResult(best, witness, True)


def f_via_checkerboard(p: int, q: int, t: int) -> int:
    """Majority color count over the first t smooth integers of the pair basis."""
    _require_coprime((p, q))
    if t < 1:
        raise DomainError("t must be at least 1")
    entries = first_smooth_entries((p, q), t)
    white = sum(1 for _, e in entries if sum(e) % 2 == 0)
    return max(white, t - white)


# ---------------------------------------------------------------------------
# Weighted bracket
# ---------------------------------------------------------------------------


def _simplex_lattice(s: int, depth: int) -> list[Point]:
    """All u in Z_+^s with coordinate sum <= depth."""
    pts: list[Point] = []

    def rec(prefix: tuple[int, ...], budget: int):
        if len(prefix) == s - 1:
            for k in range(budget + 1):
                pts.append(prefix + (k,))
            return
        for k in range(budget + 1):
            rec(prefix + (k,), budget - k)

    if s == 0:
        return [()]
    rec((), depth)
    return pts


def _point_weight(basis: Sequence[int], u: Point) -> Fraction:
    den = 1
    for b, e in zip(basis, u):
        den *= b ** e
    return Fraction(1, den)


def truncated_weight_mass(basis: Sequence[int], depth: int) -> Fraction:
    """Exact total weight of all points with coordinate sum <= depth."""
    layer = [Fraction(1)] + [Fraction(0)] * depth
    for b in basis:
        nxt = [Fraction(0)] * (depth + 1)
        for total, w in enumerate(layer):
            if w == 0:
                continue
            power = Fraction(1)
            for k in range(depth - total + 1):
                nxt[total + k] += w * power
                power /= b
        layer = nxt
    return sum(layer, Fraction(0))


def total_weight_mass(basis: Sequence[int]) -> Fraction:
    """Sum of the geometric weights over the entire nonnegative lattice."""
    result = Fraction(1)
    for b in basis:
        result *= Fraction(b, b - 1)
    return result


def max_feasible_depth(s: int, cap: int) -> int:
    """Largest depth whose lattice simplex stays within the point cap."""
    depth = -1
    while comb(depth + 1 + s, s) <= cap:
        depth += 1
    return depth


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
    if cap < 1:
        raise DomainError(f"cap must be at least 1, got {cap}")
    s = basis.size
    count = comb(depth + s, s)
    if count > cap:
        raise CapError(
            f"truncation region has {count} points, exceeding cap {cap}; "
            f"largest feasible depth is {max_feasible_depth(s, cap)}"
        )
    points = sorted(_simplex_lattice(s, depth))
    # integer weights over scale = prod b**depth: u weighs prod b**(depth - u_i)
    powers = [[b**k for k in range(depth + 1)] for b in basis.basis]
    scale = prod(row[depth] for row in powers)
    weights = [prod(row[depth - e] for row, e in zip(powers, p)) for p in points]
    adj = _conflict_masks(points, basis.diffs)
    best, mask = _solve_max_weight(points, adj, weights, (1 << len(points)) - 1)
    witness = tuple(sorted(points[i] for i in _iter_bits(mask)))
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
    if cap < 1:
        raise DomainError(f"cap must be at least 1, got {cap}")
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
