"""Seeded property suites behind the `verify` CLI subcommand.

Each suite replays a module's invariants against independent oracles with a
counter-based generator, so a (suite, seed, budget) triple is reproducible
anywhere.  Oracles here are deliberately naive: exhaustive subset search on
conflict-graph components, double-loop smooth enumeration, direct recounts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

from .arith import count_coprime_part, enumerate_smooth, phi
from .density import max_subset_count, strict_gap_check
from .geometry import (
    SimplexSpec,
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
    checkerboard_split,
    monochromatize,
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


@dataclass
class CaseResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class SuiteReport:
    suite: str
    seed: int
    budget: str
    cases: list[CaseResult] = field(default_factory=list)

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


def exhaustive_max_quotient_free(p: int, q: int, n: int) -> int:
    """Exhaustive maximum quotient-free subset size over {1..n}.

    Builds the conflict graph (edges between k and k*p, k and k*q), splits
    it into connected components, and enumerates every subset of each
    component.  No smoothness structure is used.
    """
    neighbors: dict[int, set[int]] = {k: set() for k in range(1, n + 1)}
    for k in range(1, n + 1):
        for ratio in (p, q):
            if k * ratio <= n:
                neighbors[k].add(k * ratio)
                neighbors[k * ratio].add(k)
    seen: set[int] = set()
    total = 0
    for start in range(1, n + 1):
        if start in seen:
            continue
        component = []
        stack = [start]
        seen.add(start)
        while stack:
            v = stack.pop()
            component.append(v)
            for w in neighbors[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        component.sort()
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
        total += best
    return total


def _random_rational_triangle(rng: CounterRng):
    """A random axis-legged triangle with 1.._TRIANGLE_POINTS lattice points."""
    while True:
        a = Fraction(rng.randint(1, 12), rng.randint(1, 12))
        b = Fraction(rng.randint(1, 12), rng.randint(1, 12))
        c = Fraction(rng.randint(1, 48), rng.randint(1, 4))
        pts = simplex_points(SimplexSpec.of([a, b], c), limit=_TRIANGLE_POINTS + 1).points
        if 1 <= len(pts) <= _TRIANGLE_POINTS:
            return (a, b, c), pts


def _random_optimal_configuration(rng: CounterRng, points):
    """A random maximum non-adjacent subset of the given triangle points.

    The greedy completion visits the points in an order shuffled by ``rng``;
    the chosen points are listed in that order.
    """
    graph = _conflict_graph(LatticeConfig.explicit(points), AXIS_DIFFS, DEFAULT_SEARCH_CAP)
    order = list(range(len(graph.points)))
    rng.shuffle(order)
    kept = _greedy_optimum(graph, order)
    return [graph.points[i] for i in kept], len(kept)


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------


def suite_theorem6(seed: int, budget: str) -> SuiteReport:
    """Exact search equals the majority color on random axis-legged triangles."""
    report = SuiteReport("theorem6", seed, budget)
    rng = CounterRng(seed)
    count = BUDGET_TIERS[budget]["triangles"]
    for i in range(count):
        (a, b, c), pts = _random_rational_triangle(rng)
        config = LatticeConfig.explicit(pts)
        exact = _max_difference_free_size(config, AXIS_DIFFS)
        majority = checkerboard_split(config).counts.majority()
        report.cases.append(
            CaseResult(
                f"triangle[{i}]",
                exact == majority,
                f"a={a} b={b} c={c} "
                f"points={len(pts)} exact={exact} majority={majority}",
            )
        )
    config = LatticeConfig.explicit(SKEW_TRIANGLE_COUNTEREXAMPLE)
    exact = _max_difference_free_size(config, AXIS_DIFFS)
    majority = checkerboard_split(config).counts.majority()
    report.cases.append(
        CaseResult(
            "skew-counterexample",
            exact == 2 and majority == 1,
            f"exact={exact} majority={majority} (axis-leg hypothesis is necessary)",
        )
    )
    return report


def suite_lemma2(seed: int, budget: str) -> SuiteReport:
    """Coprime-part counts stay within 2^s of the density line, strictly."""
    report = SuiteReport("lemma2", seed, budget)
    x_max = BUDGET_TIERS[budget]["lemma2_x"]
    for basis in ((2, 3), (2, 3, 5), (3, 4, 5)):
        # deviations scaled by the density's denominator: |count*den - num*X|
        density = phi(basis)
        num, den = density.numerator, density.denominator
        limit = 2 ** len(basis)
        worst = 0
        ok = True
        for x in range(1, x_max + 1):
            deviation = abs(count_coprime_part(basis, x) * den - num * x)
            if deviation > worst:
                worst = deviation
            if deviation >= limit * den:
                ok = False
                break
        report.cases.append(
            CaseResult(
                f"basis={basis}",
                ok,
                f"max |count - density*X| = {float(Fraction(worst, den)):.4f} < {limit} "
                f"over X<={x_max}",
            )
        )
    return report


def suite_corollary(seed: int, budget: str) -> SuiteReport:
    """Class-sum counts match exhaustive search; witnesses are quotient-free."""
    report = SuiteReport("corollary", seed, budget)
    n_max = BUDGET_TIERS[budget]["corollary_n"]
    for p, q in ((2, 3), (2, 5), (3, 4)):
        mismatch = None
        for n in range(1, n_max + 1):
            claimed, witness = max_subset_count(p, q, n, with_witness=True)
            oracle = exhaustive_max_quotient_free(p, q, n)
            member_set = set(witness)
            valid = len(witness) == claimed and all(
                k * r not in member_set for k in witness for r in (p, q)
            )
            if claimed != oracle or not valid:
                mismatch = (n, claimed, oracle, valid)
                break
        report.cases.append(
            CaseResult(
                f"pair=({p},{q})",
                mismatch is None,
                f"all N<={n_max} agree with exhaustive search"
                if mismatch is None
                else f"N={mismatch[0]}: claimed={mismatch[1]} oracle={mismatch[2]} "
                f"witness_valid={mismatch[3]}",
            )
        )
    return report


def suite_gap(seed: int, budget: str) -> SuiteReport:
    """The series bracket strictly exceeds the closed form for test pairs."""
    report = SuiteReport("gap", seed, budget)
    for p, q in ((2, 3), (2, 5), (3, 5)):
        result = strict_gap_check(p, q)
        detail = f"rho={result.rho}"
        if result.sigma is not None:
            detail += (
                f" series_lower={float(result.sigma.lower):.6f}"
                f" width={float(result.sigma.width):.2e}"
            )
        report.cases.append(CaseResult(f"pair=({p},{q})", result.gap_proven, detail))
    return report


def suite_monochromatize(seed: int, budget: str) -> SuiteReport:
    """The diagonal sweep preserves size and validity and lands on one color."""
    report = SuiteReport("monochromatize", seed, budget)
    rng = CounterRng(seed)
    cases = BUDGET_TIERS[budget]["mono_cases"]
    pairs = ((2, 3), (2, 5), (3, 4))
    for i in range(cases):
        p, q = pairs[rng.randint(0, len(pairs) - 1)]
        n = rng.randint(1, 200)
        triangle = SimplexSpec.of([f"ln{p}", f"ln{q}"], f"ln{n}")
        points = simplex_points(triangle).points
        chosen, target = _random_optimal_configuration(rng, points)
        result = monochromatize(triangle, chosen)
        out = set(result.points)
        colors = {sum(pt) % 2 for pt in out}
        ok = (
            len(out) == target
            and all(triangle.contains(pt) for pt in out)
            and len(colors) == 1
        )
        report.cases.append(
            CaseResult(
                f"case[{i}]",
                ok,
                f"p={p} q={q} n={n} size={target} color="
                f"{'white' if colors == {0} else 'black' if colors == {1} else 'mixed'}",
            )
        )
    return report


def suite_geometry(seed: int, budget: str) -> SuiteReport:
    """Simplex enumeration agrees with smooth enumeration; profiles match."""
    report = SuiteReport("geometry", seed, budget)
    rng = CounterRng(seed)
    cases = BUDGET_TIERS[budget]["geometry_cases"]
    done = 0
    while done < cases:
        p = rng.randint(2, 12)
        q = rng.randint(2, 12)
        if p >= q or gcd(p, q) != 1:
            continue
        n = rng.randint(1, 500)
        done += 1
        spec = SimplexSpec.of([f"ln{p}", f"ln{q}"], f"ln{n}")
        simplex = simplex_points(spec).points
        smooth = tuple(sorted(enumerate_smooth((p, q), n).exponents))
        report.cases.append(
            CaseResult(
                f"log-mode[{done - 1}]",
                simplex == smooth,
                f"p={p} q={q} n={n} points={len(simplex)}",
            )
        )

    profile = rational_slope_profile(1, 2, 100)
    pattern_ok = all(
        row.diff == (1 if row.c % 4 == 0 else 0) for row in profile
    )
    report.cases.append(
        CaseResult(
            "slope-profile-(1,2)",
            pattern_ok,
            "white-black is +1 at multiples of 4 and 0 otherwise, c<=100",
        )
    )

    for raw_alphas, expect_found in ((("ln2", "ln3"), True), (("1", "sqrt2"), True), (("1", "2"), False)):
        result = find_black_majority_c(raw_alphas)
        ok = result.found == expect_found
        if result.found:
            recount = result.counts
            ok = ok and recount.black > recount.white
        report.cases.append(
            CaseResult(
                f"black-majority{raw_alphas}",
                ok,
                f"found={result.found} threshold={result.threshold_display} "
                f"counts={result.counts}",
            )
        )

    for i in range(10):
        a = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        b = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        c = Fraction(rng.randint(0, 30), rng.randint(1, 3))
        straight = simplex_color_counts(SimplexSpec.of([a, b], c))
        swapped = simplex_color_counts(SimplexSpec.of([b, a], c))
        report.cases.append(
            CaseResult(
                f"permutation[{i}]",
                straight == swapped,
                f"alphas=({a},{b}) c={c} counts={straight}",
            )
        )
    return report


_SUITE_FUNCS = {
    "theorem6": suite_theorem6,
    "lemma2": suite_lemma2,
    "corollary": suite_corollary,
    "gap": suite_gap,
    "monochromatize": suite_monochromatize,
    "geometry": suite_geometry,
}
SUITES = tuple(_SUITE_FUNCS)


def run_suite(name: str, seed: int = 0, budget: str = "default") -> list[SuiteReport]:
    """Run one named suite, or all of them, and return their reports."""
    if budget not in BUDGET_TIERS:
        raise ValueError(f"unknown budget tier: {budget}")
    if name == "all":
        return [_SUITE_FUNCS[s](seed, budget) for s in SUITES]
    if name not in _SUITE_FUNCS:
        raise ValueError(f"unknown suite: {name}")
    return [_SUITE_FUNCS[name](seed, budget)]
