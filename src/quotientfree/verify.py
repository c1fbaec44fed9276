"""Seeded property suites behind the `verify` CLI subcommand.

Each suite replays a module's invariants against independent oracles with a
counter-based generator, so a (suite, seed, budget) triple is reproducible
anywhere.  Oracles here are deliberately naive: exhaustive subset search on
conflict-graph components, double-loop smooth enumeration, direct recounts.
The subset search answers every horizon N of a pair in one upward sweep,
re-searching only the component that N joins.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Callable, Iterator, NamedTuple, Optional

from .arith import CoprimeBasis, _Record, count_coprime_part, enumerate_smooth, phi
from .density import max_subset_witness, strict_gap_check
from .geometry import (
    ColorCount,
    ExactReal,
    SimplexSpec,
    _line_total,
    _tally,
    _walk,
    find_black_majority_c,
    rational_slope_profile,
    simplex_color_counts,
    simplex_points,
)
from .lattice import (
    AXIS_DIFFS,
    DEFAULT_SEARCH_CAP,
    LatticeConfig,
    SKEW_TRIANGLE_COUNTEREXAMPLE,
    _conflict_graph,
    _greedy_optimum,
    _max_difference_free_size,
    _sweep,
)
from .rng import CounterRng

# the theorem6 suite's random triangles hold at most this many lattice points
_TRIANGLE_POINTS = 30

BUDGET_TIERS = {
    "small": {
        "triangles": 50,
        "lemma2_x": 2000,
        "corollary_n": 30,
        "mono_cases": 30,
        "geometry_cases": 20,
    },
    "default": {
        "triangles": 200,
        "lemma2_x": 10000,
        "corollary_n": 60,
        "mono_cases": 100,
        "geometry_cases": 50,
    },
    "large": {
        "triangles": 400,
        "lemma2_x": 20000,
        "corollary_n": 80,
        "mono_cases": 250,
        "geometry_cases": 100,
    },
}


class CaseResult(NamedTuple):
    name: str
    passed: bool
    detail: str = ""


class SuiteReport(_Record):
    """A suite's cases, appended as they run; equal by fields, and unhashable."""

    _fields = ("suite", "seed", "budget", "cases")
    __hash__ = None

    def __init__(self, suite: str, seed: int, budget: str,
                 cases: Optional[list[CaseResult]] = None):
        self.suite = suite
        self.seed = seed
        self.budget = budget
        self.cases = [] if cases is None else cases

    @property
    def passed(self) -> int:
        return sum(1 for c in self.cases if c.passed)

    @property
    def failed(self) -> int:
        return sum(1 for c in self.cases if not c.passed)

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def first_failure(self):
        for case in self.cases:
            if not case.passed:
                return case
        return None


# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------


def exhaustive_max_quotient_free(p: int, q: int, n_max: int) -> list[int]:
    """Exhaustive maximum quotient-free subset sizes over {1..N}, N = 1..n_max.

    One upward sweep over the conflict graph (edges between k and k*p, k and
    k*q).  Adding k links it only to k/p and k/q, when those divide: its
    larger neighbours k*p and k*q are not yet present.  So k merges the
    components of those neighbours into one, and the running total loses
    their maxima and gains the new component's, found by enumerating every
    subset of it.  No smoothness structure is used.  Entry N - 1 of the
    returned list is the maximum over {1..N}.
    """
    neighbors: dict[int, list[int]] = {}
    label: dict[int, int] = {}  # vertex -> the newest vertex of its component
    members: dict[int, list[int]] = {}  # label -> the component's vertices
    best: dict[int, int] = {}  # label -> the component's maximum
    total = 0
    maxima = []
    for k in range(1, n_max + 1):
        below = [k // r for r in (p, q) if k % r == 0]
        neighbors[k] = below
        component = [k]
        for w in below:
            neighbors[w].append(k)
            old = label[w]
            if old in members:  # else merged already, through the other neighbour
                component += members.pop(old)
                total -= best.pop(old)
        for v in component:
            label[v] = k
        members[k] = component
        best[k] = _component_maximum(component, neighbors)
        total += best[k]
        maxima.append(total)
    return maxima


def _component_maximum(component: list[int], neighbors: dict[int, list[int]]) -> int:
    """The largest independent set of one component, by enumerating its subsets."""
    component = sorted(component)
    index = {v: i for i, v in enumerate(component)}
    masks = [0] * len(component)
    for v in component:
        for w in neighbors[v]:
            masks[index[v]] |= 1 << index[w]
    size = len(component)
    best = 0

    def descend(i: int, allowed: int, current: int):
        nonlocal best
        if current + (size - i) <= best:
            return
        if i == size:
            best = max(best, current)
            return
        if (allowed >> i) & 1:
            descend(i + 1, allowed & ~masks[i], current + 1)
        descend(i + 1, allowed, current)

    descend(0, (1 << size) - 1, 0)
    return best


def _random_rational_triangle(rng: CounterRng):
    """A random axis-legged triangle with 1.._TRIANGLE_POINTS lattice points.

    A draw is six integers, a = an/ad, b = bn/bd and c = cn/cd, and is
    counted in integers before any region is built: over the common
    denominator ad*bd*cd the triangle is A*x + B*y <= C, whose points
    ``geometry._line_total`` counts exactly by one floor sum.  The origin
    is always inside (c > 0), so only the cap rejects a draw.  The
    Fractions, the ``SimplexSpec`` and its points are built for the
    accepted draw alone.
    """
    while True:
        an, ad, bn, bd = (rng.randint(1, 12) for _ in range(4))
        cn, cd = rng.randint(1, 48), rng.randint(1, 4)
        if _line_total(an * bd * cd, bn * ad * cd, cn * ad * bd) <= _TRIANGLE_POINTS:
            a, b, c = Fraction(an, ad), Fraction(bn, bd), Fraction(cn, cd)
            return (a, b, c), simplex_points(SimplexSpec.of([a, b], c))


def _random_optimal_configuration(rng: CounterRng, config: LatticeConfig):
    """A random maximum non-adjacent subset of the given triangle's points.

    The greedy completion visits the points in an order shuffled by ``rng``;
    the chosen points are listed in that order.
    """
    graph = _conflict_graph(config, AXIS_DIFFS, DEFAULT_SEARCH_CAP)
    order = list(range(len(graph.points)))
    rng.shuffle(order)
    kept = _greedy_optimum(graph, order)
    return [graph.points[i] for i in kept], len(kept)


# ---------------------------------------------------------------------------
# Suites: each generates its cases from its own rng and its budget tier
# ---------------------------------------------------------------------------


_SUITES: dict[str, Callable[[CounterRng, dict], Iterator[CaseResult]]] = {}  # in run order


def _suite(name: str):
    """Enter the decorated case generator in the table as the suite ``name``."""
    def register(cases):
        _SUITES[name] = cases
        return cases
    return register


@_suite("theorem6")
def _theorem6(rng: CounterRng, tier: dict) -> Iterator[CaseResult]:
    """Exact search equals the majority color on random axis-legged triangles."""
    for i in range(tier["triangles"]):
        (a, b, c), config = _random_rational_triangle(rng)
        exact = _max_difference_free_size(config, AXIS_DIFFS)
        majority = ColorCount.of(config.points).majority()
        yield CaseResult(
            f"triangle[{i}]",
            exact == majority,
            f"a={a} b={b} c={c} "
            f"points={len(config)} exact={exact} majority={majority}",
        )
    config = LatticeConfig.explicit(SKEW_TRIANGLE_COUNTEREXAMPLE)
    exact = _max_difference_free_size(config, AXIS_DIFFS)
    majority = ColorCount.of(config.points).majority()
    yield CaseResult(
        "skew-counterexample",
        exact == 2 and majority == 1,
        f"exact={exact} majority={majority} (axis-leg hypothesis is necessary)",
    )


@_suite("lemma2")
def _lemma2(rng: CounterRng, tier: dict) -> Iterator[CaseResult]:
    """Coprime-part counts stay within 2^s of the density line, strictly."""
    x_max = tier["lemma2_x"]
    for values in ((2, 3), (2, 3, 5), (3, 4, 5)):
        # built once, so each count skips the per-element check
        basis = CoprimeBasis.from_coprime_integers(values)
        # deviations scaled by the density's denominator: |count*den - num*X|
        density = phi(basis)
        num, den = density.numerator, density.denominator
        limit = 2 ** basis.size
        worst = 0
        ok = True
        for x in range(1, x_max + 1):
            deviation = abs(count_coprime_part(basis, x) * den - num * x)
            if deviation > worst:
                worst = deviation
            if deviation >= limit * den:
                ok = False
                break
        yield CaseResult(
            f"basis={values}",
            ok,
            f"max |count - density*X| = {float(Fraction(worst, den)):.4f} < {limit} "
            f"over X<={x_max}",
        )


@_suite("corollary")
def _corollary(rng: CounterRng, tier: dict) -> Iterator[CaseResult]:
    """Class-sum counts match exhaustive search; witnesses are quotient-free."""
    n_max = tier["corollary_n"]
    for p, q in ((2, 3), (2, 5), (3, 4)):
        oracles = exhaustive_max_quotient_free(p, q, n_max)
        mismatch = None
        for n in range(1, n_max + 1):
            claimed, mask = max_subset_witness(p, q, n)
            oracle = oracles[n - 1]
            # a k <= n // r kept together with k * r would be a quotient pair
            valid = mask.count(1) == claimed and not any(
                kept and multiple
                for r in (p, q)
                for kept, multiple in zip(mask[1:], mask[r::r])
            )
            if claimed != oracle or not valid:
                mismatch = (n, claimed, oracle, valid)
                break
        yield CaseResult(
            f"pair=({p},{q})",
            mismatch is None,
            f"all N<={n_max} agree with exhaustive search"
            if mismatch is None
            else f"N={mismatch[0]}: claimed={mismatch[1]} oracle={mismatch[2]} "
            f"witness_valid={mismatch[3]}",
        )


@_suite("gap")
def _gap(rng: CounterRng, tier: dict) -> Iterator[CaseResult]:
    """The series bracket strictly exceeds the closed form for test pairs."""
    for p, q in ((2, 3), (2, 5), (3, 5)):
        result = strict_gap_check(p, q)
        detail = f"rho={result.rho}"
        if result.sigma is not None:
            detail += (
                f" series_lower={float(result.sigma.lower):.6f}"
                f" width={float(result.sigma.width):.2e}"
            )
        yield CaseResult(f"pair=({p},{q})", result.gap_proven, detail)


@_suite("monochromatize")
def _monochromatize(rng: CounterRng, tier: dict) -> Iterator[CaseResult]:
    """The diagonal sweep preserves size and validity and lands on one color."""
    pairs = ((2, 3), (2, 5), (3, 4))
    for i in range(tier["mono_cases"]):
        p, q = pairs[rng.randint(0, len(pairs) - 1)]
        n = rng.randint(1, 200)
        triangle = SimplexSpec((ExactReal.log(p), ExactReal.log(q)), ExactReal.log(n))
        chosen, target = _random_optimal_configuration(rng, simplex_points(triangle))
        # the greedy completion is a maximum configuration, so the sweep
        # needs no check of its input
        result = _sweep(triangle, set(chosen))
        out = set(result.points)
        colors = {sum(pt) % 2 for pt in out}
        ok = (
            len(out) == target
            and all(triangle.contains(pt) for pt in out)
            and len(colors) == 1
        )
        yield CaseResult(
            f"case[{i}]",
            ok,
            f"p={p} q={q} n={n} size={target} color="
            f"{'white' if colors == {0} else 'black' if colors == {1} else 'mixed'}",
        )


@_suite("geometry")
def _geometry(rng: CounterRng, tier: dict) -> Iterator[CaseResult]:
    """Simplex enumeration agrees with smooth enumeration; profiles match."""
    done = 0
    while done < tier["geometry_cases"]:
        p = rng.randint(2, 12)
        q = rng.randint(2, 12)
        if p >= q or gcd(p, q) != 1:
            continue
        n = rng.randint(1, 500)
        done += 1
        spec = SimplexSpec.of([f"ln{p}", f"ln{q}"], f"ln{n}")
        simplex = simplex_points(spec).points
        smooth = tuple(sorted(enumerate_smooth((p, q), n).exponents))
        yield CaseResult(
            f"log-mode[{done - 1}]",
            simplex == smooth,
            f"p={p} q={q} n={n} points={len(simplex)}",
        )

    profile = rational_slope_profile(1, 2, 100)
    pattern_ok = all(
        row.diff == (1 if row.c % 4 == 0 else 0) for row in profile
    )
    yield CaseResult(
        "slope-profile-(1,2)",
        pattern_ok,
        "white-black is +1 at multiples of 4 and 0 otherwise, c<=100",
    )

    for raw_alphas, expect_found in ((("ln2", "ln3"), True), (("1", "sqrt2"), True), (("1", "2"), False)):
        result = find_black_majority_c(raw_alphas)
        ok = result.found == expect_found
        if result.found:
            bound = (ExactReal.log(result.integer_bound) if result.integer_bound is not None
                     else ExactReal.of(result.threshold))
            # a second route: the region's rows, neither the walk nor the slabs
            recount = ColorCount.of(simplex_points(SimplexSpec.of(raw_alphas, bound)).points)
            ok = ok and recount == result.counts and recount.black > recount.white
        yield CaseResult(
            f"black-majority{raw_alphas}",
            ok,
            f"found={result.found} threshold={result.threshold_display} "
            f"counts={result.counts}",
        )

    for i in range(10):
        a = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        b = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        c = Fraction(rng.randint(0, 30), rng.randint(1, 3))
        # the slab count orders the alphas itself, so the other order is
        # counted by its rows
        straight = simplex_color_counts(SimplexSpec.of([a, b], c))
        total, white = _tally(_walk(SimplexSpec.of([b, a], c)._row_length, [0]))
        swapped = ColorCount(white, total - white)
        yield CaseResult(
            f"permutation[{i}]",
            straight == swapped,
            f"alphas=({a},{b}) c={c} counts={straight}",
        )


SUITES = tuple(_SUITES)


def run_suite(name: str, seed: int = 0, budget: str = "default") -> list[SuiteReport]:
    """Run one named suite, or all of them in table order, and return their reports.

    Each suite draws from its own ``CounterRng(seed)``, from counter 0.
    """
    if budget not in BUDGET_TIERS:
        raise ValueError(f"unknown budget tier: {budget}")
    if name != "all" and name not in _SUITES:
        raise ValueError(f"unknown suite: {name}")
    tier = BUDGET_TIERS[budget]
    return [SuiteReport(suite, seed, budget, list(_SUITES[suite](CounterRng(seed), tier)))
            for suite in (SUITES if name == "all" else (name,))]
