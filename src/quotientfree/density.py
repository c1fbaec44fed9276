"""Density formulas and extremal constructions for quotient-free sets.

Closed-form and bracketed values of the best achievable asymptotic density,
the certified series bracket for the best upper density of a coprime pair,
exact maximal quotient-free subsets of an initial segment, the explicit
dense construction, and the strict-gap verdict between the two densities.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import gcd
from typing import Iterable, Optional, Sequence

from mpmath.libmp import dps_to_prec, from_int, mpf_log, round_nearest

from .arith import (
    CoprimeBasis,
    RationalSet,
    as_fraction,
    coprime_part_list,
    count_coprime_part,
    derive_basis,
    enumerate_smooth,
    exact_sum,
    phi,
    smooth_stream,
    _require_coprime,
)
from .errors import BudgetError, DomainError, SelfCheckError
from .geometry import _libmp_to_fraction
from .lattice import DEFAULT_SEARCH_CAP, gamma_bracket

DEFAULT_SERIES_BUDGET = 10**6
LN_PRECISION_DIGITS = 60


@dataclass(frozen=True)
class DensityBracket:
    """Exact rational enclosure of a density quantity.

    ``method`` records how it was produced; closed forms collapse to a
    single point (lower == upper).
    """

    lower: Fraction
    upper: Fraction
    method: str
    detail: dict

    def __post_init__(self):
        if self.lower > self.upper:
            raise DomainError("bracket lower bound exceeds upper bound")

    @property
    def width(self) -> Fraction:
        return self.upper - self.lower

    def contains(self, value: Fraction) -> bool:
        return self.lower <= value <= self.upper


def rho_closed_form(values: Sequence[int]) -> Fraction:
    """Best asymptotic density for pairwise-coprime integer quotients.

    Exactly (1 + product of (a-1)/(a+1)) / 2.
    """
    vals = _require_coprime(values)
    product = Fraction(1)
    for a in vals:
        product *= Fraction(a - 1, a + 1)
    return (1 + product) / 2


def rho_general(
    a_set,
    depth: int,
    cap: int = DEFAULT_SEARCH_CAP,
) -> DensityBracket:
    """Bracket the best density of any quotient set by exact truncation.

    The coprime-part density of the derived prime basis times the bracket
    for the optimal difference-free weight.
    """
    if not isinstance(a_set, RationalSet):
        a_set = RationalSet.of(a_set)
    basis = derive_basis(a_set)
    factor = phi(basis)
    bracket = gamma_bracket(basis, depth, cap)
    lower, upper = factor * bracket.lower, factor * bracket.upper
    if a_set.is_coprime_integers():
        closed = rho_closed_form([f.numerator for f in a_set.elements])
        if not lower <= closed <= upper:
            raise SelfCheckError(
                f"bracket [{lower}, {upper}] misses the closed form {closed}"
            )
    return DensityBracket(
        lower,
        upper,
        "truncated-gamma",
        {
            "depth": depth,
            "basis": list(basis.basis),
            "witness_size": len(bracket.witness),
        },
    )


def sigma_series(
    p: int,
    q: int,
    tolerance,
    budget: int = DEFAULT_SERIES_BUDGET,
) -> DensityBracket:
    """Certified bracket for the majority-color series of a coprime pair.

    Partial sums use the exact majority color count per prefix; the lower
    tail keeps at least half of each later prefix, the upper tail allows all
    of it and closes the harmonic remainder of the smooth sequence in closed
    form.  Enumeration stops once the bracket width is within tolerance.

    Every smooth value so far divides D = p^A * q^B (A, B the largest
    exponents seen), so the partial sum and the prefix reciprocal sum are
    kept as integer multiples of 1/D; the width test is one cross-multiplied
    integer comparison per term, and Fractions are built only for the
    returned (or budget-exhausted) bracket.
    """
    _require_coprime((p, q))
    tolerance = as_fraction(tolerance)
    if tolerance <= 0:
        raise DomainError("tolerance must be positive")
    factor = Fraction((p - 1) * (q - 1), p * q)
    full_recip = 1 / factor
    f_num, f_den = factor.numerator, factor.denominator
    tol_num, tol_den = tolerance.numerator, tolerance.denominator

    def bracket() -> DensityBracket:
        # tails after the last summed prefix: at least ceil/2 of each later
        # prefix counts, at most all of it plus the harmonic remainder
        head = Fraction(partial, scale)
        tail_lower = Fraction((terms + 2) // 2, value)
        tail_upper = Fraction(terms + 1, value) + (full_recip - Fraction(recip, scale))
        return DensityBracket(
            factor * (head + tail_lower),
            factor * (head + tail_upper),
            "series-with-tail",
            {"terms": terms, "next_value": value},
        )

    gen = smooth_stream((p, q))
    value, _ = next(gen)  # 1
    scale = 1  # D, the lcm of the smooth values so far
    recip = 1  # prefix reciprocal sum times D
    partial = 0  # partial sum times D
    prev_parity = 0
    white = black = 0
    terms = 0
    while terms + 1 < budget:
        prev_share = scale // value
        value, (a, b) = next(gen)
        if scale % value:
            grow = value // gcd(scale, value)
            scale *= grow
            recip *= grow
            partial *= grow
            prev_share *= grow
        share = scale // value
        recip += share
        terms += 1
        if prev_parity == 0:
            white += 1
        else:
            black += 1
        prev_parity = (a + b) % 2
        partial += max(white, black) * (prev_share - share)
        # width = factor * (k / value + full_recip - recip / D), with k the
        # excess of the upper tail's prefix count over the lower one's
        k = terms + 1 - (terms + 2) // 2
        if tol_den * (f_num * (k * share - recip) + f_den * scale) <= tol_num * f_den * scale:
            return bracket()
    raise BudgetError(
        f"tolerance {tolerance} not reached within {budget} enumerated values",
        achieved=bracket() if terms else None,
    )


def max_subset_count(
    p: int,
    q: int,
    n: int,
    with_witness: bool = False,
):
    """Exact maximal size of a quotient-free subset of {1..n} for pair (p,q).

    Sums, over every n-free class representative, the majority color count
    of the smooth prefix that still fits under the bound.  That count
    depends on a representative only through t = #{smooth <= n/rep}, so the
    count alone is a sum over blocks of t, each weighted by the number of
    representatives in it (inclusion-exclusion): O(#smooth <= n * 2^s)
    work.  The witness cuts the sieved list of representatives into the
    same blocks (one bisection per smooth value) and scales each block by
    the values of its majority class (white on ties): O(#smooth^2) steps
    in Python plus list work proportional to the witness.  Its size is
    counted from that explicit list, independently of the block sum.
    """
    _require_coprime((p, q))
    if n < 1:
        raise DomainError("the horizon must be at least 1")
    seq = enumerate_smooth((p, q), n)
    if not with_witness:
        # reps <= n // m_t see at least t smooth values; the trailing 0 closes
        # the last block, since no rep sees more than all of them
        reps_seeing = [count_coprime_part((p, q), n // m) for m in seq.values] + [0]
        total = white = 0
        for t, exps in enumerate(seq.exponents, 1):
            white += sum(exps) % 2 == 0
            total += max(white, t - white) * (reps_seeing[t - 1] - reps_seeing[t])
        return total

    # the same blocks over an explicit list of representatives: reps in
    # (n // m_{t+1}, n // m_t] see exactly the first t smooth values
    reps = coprime_part_list((p, q), n)
    cuts = [bisect_right(reps, n // m) for m in seq.values] + [0]
    total = 0
    witness: list[int] = []
    classes: tuple[list[int], list[int]] = ([], [])  # white, black values so far
    for t, (m, exps) in enumerate(seq.entries(), 1):
        classes[sum(exps) % 2].append(m)
        block = reps[cuts[t]:cuts[t - 1]]
        if not block:
            continue
        white, black = classes
        kept = white if len(white) >= len(black) else black
        total += len(kept) * len(block)
        for m_i in kept:
            witness.extend([m_i * r for r in block])
    witness.sort()
    return total, tuple(witness)


@dataclass(frozen=True)
class DenseSetSample:
    """A horizon's worth of the explicit dense quotient-free construction.

    ``smooth_parts`` (the chosen smooth parts) and ``free_parts`` (the
    basis-free integers up to x) are the factors every member splits into.
    """

    x: int
    members: tuple[int, ...]
    counting_density: Fraction
    smooth_parts: Sequence[int] = field(repr=False, compare=False)
    free_parts: Sequence[int] = field(repr=False, compare=False)

    @cached_property
    def log_density(self) -> Optional[Fraction]:
        """Exact reciprocal sum of the members over ln x; None for x < 2.

        Computed on first read only: the sum is the costly part of the
        construction, and callers that tabulate densities themselves never
        need it.
        """
        if self.x < 2:
            return None
        recip = _grouped_reciprocal_sum(self.smooth_parts, self.free_parts, self.x)
        return recip / _ln_fraction(self.x)


def _ln_fraction(x: int, digits: int = LN_PRECISION_DIGITS) -> Fraction:
    """ln(x) as an exact dyadic rational of ~digits precision, rounded to nearest."""
    return _libmp_to_fraction(mpf_log(from_int(x), dps_to_prec(digits), round_nearest))


def construct_dense_set(
    a_set,
    x: int,
    witness_exponents: Optional[Iterable[Sequence[int]]] = None,
    depth: int = 6,
    cap: int = DEFAULT_SEARCH_CAP,
) -> DenseSetSample:
    """Members up to x of the dense construction: chosen smooth part times free part.

    For pairwise-coprime integer quotients the chosen smooth parts are the
    even-parity (white) ones over the set itself; otherwise a truncated
    optimal witness over the derived prime basis is used (or an explicit
    exponent set passed by the caller).
    """
    if not isinstance(a_set, RationalSet):
        a_set = RationalSet.of(a_set)
    if x < 1:
        raise DomainError("the horizon must be at least 1")

    if witness_exponents is not None:
        basis = derive_basis(a_set)
        chosen = {tuple(e) for e in witness_exponents}
        if any(len(e) != basis.size or any(c < 0 for c in e) for e in chosen):
            raise DomainError(
                f"witness exponent vectors must be nonnegative of length {basis.size}"
            )
    elif a_set.is_coprime_integers():
        basis = CoprimeBasis.from_coprime_integers(
            [f.numerator for f in a_set.elements]
        )
        chosen = None  # every even-parity exponent vector
    else:
        basis = derive_basis(a_set)
        chosen = set(gamma_bracket(basis, depth, cap).witness)

    seq = enumerate_smooth(basis, x)
    if chosen is None:
        smooth_parts = [v for v, e in seq.entries() if sum(e) % 2 == 0]
    else:
        smooth_parts = [v for v, e in seq.entries() if e in chosen]
    free_parts = coprime_part_list(basis, x)

    members: list[int] = []
    for m in smooth_parts:
        top = bisect_right(free_parts, x // m)
        members.extend([m * n for n in free_parts[:top]])
    members.sort()

    counting = Fraction(len(members), x)
    return DenseSetSample(x, tuple(members), counting, smooth_parts, free_parts)


def _grouped_reciprocal_sum(
    smooth_parts: Sequence[int], free_parts: Sequence[int], x: int
) -> Fraction:
    """Sum of 1/(m*n) over chosen m and free n with m*n <= x, exactly.

    Factors through prefix harmonic sums of the free parts, evaluated once
    per distinct cutoff via segment tree-sums.
    """
    cutoffs = sorted({x // m for m in smooth_parts})
    prefix: dict[int, Fraction] = {}
    running = Fraction(0)
    lo = 0
    for cut in cutoffs:
        hi = bisect_right(free_parts, cut)
        running += exact_sum(Fraction(1, n) for n in free_parts[lo:hi])
        prefix[cut] = running
        lo = hi
    return exact_sum(Fraction(1, m) * prefix[x // m] for m in smooth_parts)


@dataclass(frozen=True)
class DensityRow:
    x: int
    count: int
    counting_density: Fraction
    log_density: Optional[Fraction]


def empirical_densities(
    members: Sequence[int], checkpoints: Sequence[int]
) -> list[DensityRow]:
    """Exact counting and logarithmic densities of a sorted member list."""
    members = list(members)
    if any(a > b for a, b in zip(members, members[1:])):
        raise DomainError("members must be sorted ascending")
    checkpoints = sorted(set(checkpoints))
    if not checkpoints:
        return []
    if any(c < 1 for c in checkpoints):
        raise DomainError("checkpoints must be positive")
    if members and members[-1] > checkpoints[-1]:
        raise DomainError("members extend beyond the last checkpoint")

    rows = []
    running = Fraction(0)
    lo = 0
    for x in checkpoints:
        hi = bisect_right(members, x)
        running += exact_sum(Fraction(1, k) for k in members[lo:hi])
        lo = hi
        log_density = running / _ln_fraction(x) if x >= 2 else None
        rows.append(DensityRow(x, hi, Fraction(hi, x), log_density))
    return rows


@dataclass(frozen=True)
class GapReport:
    """Outcome of the strict comparison between the two density optima."""

    p: int
    q: int
    rho: Fraction
    sigma: Optional[DensityBracket]
    gap_proven: bool
    rounds: int


def strict_gap_check(
    p: int,
    q: int,
    budget: int = DEFAULT_SERIES_BUDGET,
    max_rounds: int = 10,
) -> GapReport:
    """Try to certify that the series value strictly exceeds the closed form.

    Tightens the series tolerance by a factor of four per round.  Budget
    exhaustion yields an inconclusive report, never a false positive.
    """
    rho = rho_closed_form([p, q])
    tolerance = Fraction(1, 16)
    sigma: Optional[DensityBracket] = None
    for round_no in range(1, max_rounds + 1):
        try:
            sigma = sigma_series(p, q, tolerance, budget)
        except BudgetError as exc:
            achieved = exc.achieved
            proven = achieved is not None and achieved.lower > rho
            return GapReport(p, q, rho, achieved, proven, round_no)
        if sigma.lower > rho:
            return GapReport(p, q, rho, sigma, True, round_no)
        tolerance /= 4
    return GapReport(p, q, rho, sigma, False, max_rounds)
