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
from itertools import accumulate, compress, islice, takewhile
from typing import Optional, Sequence

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
    _pair_prefix,
    _require_coprime,
    _require_work_bound,
)
from .errors import BudgetError, DomainError, SelfCheckError
from .geometry import _libmp_to_fraction
from .lattice import DEFAULT_SEARCH_CAP, gamma_bracket

DEFAULT_SERIES_BUDGET = 10**6
LN_PRECISION_DIGITS = 60
# K: log density brackets scale each reciprocal by 2^K and round to integers
FIXED_POINT_BITS = 96
# the strict-gap check tightens its tolerance at most this many times
_GAP_ROUNDS = 10


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

    The values and the prefix majority come from ``_pair_prefix``.  Every
    value so far divides D = p^A * q^B (A, B the largest exponents seen), so
    sums are kept as integer multiples of 1/D, and each share D/m = p^(A-a)
    * q^(B-b) is one product of two power table entries.  The partial sum
    is kept in Abel form: the shares of the values at which the prefix
    majority count grows, less maj(t) * D/m_t.  The width exceeds factor *
    k/m_t (k the excess of the upper tail's prefix count over the lower
    one's), so while that alone exceeds the tolerance, which one product
    with m_t decides, the cross-multiplied width test is skipped: it runs on
    a handful of terms per call.  Fractions are built only for the returned
    (or budget-exhausted) bracket.
    """
    _require_coprime((p, q))
    tolerance = as_fraction(tolerance)
    if tolerance <= 0:
        raise DomainError("tolerance must be positive")
    _require_work_bound("budget", budget)
    factor = Fraction((p - 1) * (q - 1), p * q)
    f_num, f_den = factor.numerator, factor.denominator
    tol_num, tol_den = tolerance.numerator, tolerance.denominator
    # factor * k / m > tolerance exactly when k * screen_k > m * screen_m
    screen_k, screen_m = f_num * tol_den, tol_num * f_den

    p_pow, q_pow = [1], [1]  # p^e for e <= A, q^e for e <= B
    big_a = big_b = 0
    scale = 1  # D
    recip = 0  # prefix reciprocal sum times D
    abel = 0  # the shares at which maj grew
    # value is m_t, t = terms + 1: the partial sum covers the first terms
    # prefixes, and m_t closes the last of them
    for terms, (value, a, b, lead) in enumerate(islice(_pair_prefix(p, q), budget)):
        if a > big_a:
            big_a = a
            p_pow.append(p_pow[-1] * p)
            scale *= p
            recip *= p
            abel *= p
        if b > big_b:
            big_b = b
            q_pow.append(q_pow[-1] * q)
            scale *= q
            recip *= q
            abel *= q
        share = p_pow[big_a - a] * q_pow[big_b - b]  # D / m_t
        recip += share
        # maj grows at t when m_t's color is then ahead; that share cancels
        # in abel - maj(t) * share, so counting m_t now leaves the sum as is
        if (lead < 0) if (a + b) & 1 else (lead > 0):
            abel += share
        k = (terms + 1) // 2  # terms + 1 - (terms + 2) // 2
        # width = factor * (k / m_t + 1 / factor - recip / D)
        if terms and k * screen_k <= value * screen_m and (
            tol_den * (f_num * (k * share - recip) + f_den * scale)
            <= tol_num * f_den * scale
        ):
            partial = abel - (terms + 1 + abs(lead)) // 2 * share  # maj(t) = (t + |lead|)/2
            return _series_bracket(factor, terms, value, partial, recip, scale)
    partial = abel - (terms + 1 + abs(lead)) // 2 * share
    raise BudgetError(
        f"tolerance {tolerance} not reached within {budget} enumerated values",
        achieved=_series_bracket(factor, terms, value, partial, recip, scale) if terms else None,
    )


def _series_bracket(
    factor: Fraction, terms: int, value: int, partial: int, recip: int, scale: int
) -> DensityBracket:
    """The series bracket after ``terms`` terms, the last smooth value ``value``.

    ``partial`` and ``recip`` are the partial sum and the prefix reciprocal
    sum times ``scale``.  After the last summed prefix, at least ceil/2 of
    each later prefix counts, at most all of it plus the harmonic remainder.
    """
    head = Fraction(partial, scale)
    tail_lower = Fraction((terms + 2) // 2, value)
    tail_upper = Fraction(terms + 1, value) + (1 / factor - Fraction(recip, scale))
    return DensityBracket(
        factor * (head + tail_lower),
        factor * (head + tail_upper),
        "series-with-tail",
        {"terms": terms, "next_value": value},
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
    count alone is a sum over blocks of t; in Abel form, the number of
    representatives up to n // m_t (inclusion-exclusion) summed over the t
    at which the majority count grows: O(#smooth <= n * 2^s) work.  The
    witness comes from a sieve by smooth parts (see ``_witness_mask``):
    about n * p/(p-1) * q/(q-1) byte writes done in C, plus O(#smooth *
    #runs) Python steps.  With a witness the count is the witness's length,
    checked against the block sum.
    """
    _require_coprime((p, q))
    if n < 1:
        raise DomainError("the horizon must be at least 1")
    prefix = list(takewhile(lambda entry: entry[0] <= n, _pair_prefix(p, q)))
    # maj grows at t exactly when the color of m_t is then strictly ahead
    total = sum(count_coprime_part((p, q), n // m) for m, a, b, lead in prefix
                if ((lead < 0) if (a + b) & 1 else (lead > 0)))
    if not with_witness:
        return total
    witness = tuple(compress(range(n + 1), _witness_mask(prefix, n)))
    if len(witness) != total:
        raise SelfCheckError(f"witness of {len(witness)} elements, block sum {total}")
    return len(witness), witness


def _witness_mask(prefix: Sequence[tuple[int, int, int, int]], n: int) -> bytearray:
    """mask[k] = 1 exactly for the k <= n in the maximal quotient-free subset.

    ``prefix`` lists ``_pair_prefix`` up to the last smooth value <= n.
    k = m_i * r, with m_i its smooth part and r free, is kept when m_i has
    the majority color of the first t(r) = #{smooth <= n // r} values (white
    on ties).  For each m_i, ascending, the sieve writes that verdict at
    every multiple m_i * r, r <= n // m_i, free or not: the last write to k
    comes from its largest smooth divisor, its smooth part, so the verdicts
    for r that are not free are all overwritten.  The r with t(r) = t fill
    (n // m_{t+1}, n // m_t], so a run of t with one majority color is one
    slice assignment per smooth value.
    """
    # runs of the majority color over t: the 0-based first t of each run
    firsts: list[int] = []
    majors: list[int] = []
    for i, (_, _, _, lead) in enumerate(prefix):
        major = int(lead < 0)
        if not majors or majors[-1] != major:
            firsts.append(i)
            majors.append(major)
    # a run's r lie above n // (the first value after the run)
    runs = list(zip([n // prefix[i][0] for i in firsts[1:]] + [0], majors))
    fills = (memoryview(bytes(n)), memoryview(b"\x01" * n))
    mask = bytearray(n + 1)
    k = 0
    for i, (m, a, b, _) in enumerate(prefix):
        if k + 1 < len(firsts) and firsts[k + 1] == i:
            k += 1
        color = (a + b) & 1
        hi = n // m
        for lo, major in runs[k:]:
            mask[m * (lo + 1):m * hi + 1:m] = fills[major == color][:hi - lo]
            hi = lo
    return mask


@dataclass(frozen=True)
class DenseSetSample:
    """A horizon's worth of the explicit dense quotient-free construction.

    Every member is a chosen smooth part times a free part (a basis-free
    integer), and a product up to x has its free part among the first
    c_m = #{free <= x // m} of them.  So the sample keeps just the two
    ascending factor lists; the member list, counts and densities are
    computed from them on first read, at any horizon up to ``x``.
    """

    x: int
    smooth_parts: tuple[int, ...] = field(repr=False)
    free_parts: tuple[int, ...] = field(repr=False)

    def _horizon(self, x: Optional[int]) -> int:
        if x is None:
            return self.x
        if not 1 <= x <= self.x:
            raise DomainError(f"the horizon must lie in [1, {self.x}]")
        return x

    def _cuts(self, x: int) -> list[int]:
        """c_m for each chosen smooth part m <= x, in the order of the parts."""
        free = self.free_parts
        return [bisect_right(free, x // m) for m in self.smooth_parts if m <= x]

    @cached_property
    def members(self) -> tuple[int, ...]:
        """Every member up to x, ascending."""
        members: list[int] = []
        for m, top in zip(self.smooth_parts, self._cuts(self.x)):
            members.extend([m * n for n in self.free_parts[:top]])
        members.sort()
        return tuple(members)

    def count(self, x: Optional[int] = None) -> int:
        """Number of members up to x (default: the horizon), the sum of the c_m."""
        return sum(self._cuts(self._horizon(x)))

    @cached_property
    def counting_density(self) -> Fraction:
        return Fraction(self.count(), self.x)

    @cached_property
    def log_density(self) -> Optional[Fraction]:
        """Exact reciprocal sum of the members over ln x; None for x < 2."""
        return self.log_density_at(self.x)

    def log_density_at(self, x: int) -> Optional[Fraction]:
        """Exact reciprocal sum of the members up to x over ln x; None for x < 2.

        The reciprocal sum is exact, and its denominator grows by about
        1.44 x bits, so this is the slow route; ``log_density_bracket``
        encloses the same value with integers of fixed size.
        """
        x = self._horizon(x)
        if x < 2:
            return None
        smooth = [m for m in self.smooth_parts if m <= x]
        return _grouped_reciprocal_sum(smooth, self.free_parts, x) / _ln_fraction(x)

    @cached_property
    def _reciprocal_prefix(self) -> list[int]:
        """P[c]: the sum of floor(2^K / n) over the first c free parts."""
        one = 1 << FIXED_POINT_BITS
        return list(accumulate((one // n for n in self.free_parts), initial=0))

    def log_density_bracket(self, x: Optional[int] = None) -> Optional[DensityBracket]:
        """Certified enclosure of ``log_density_at(x)``; None for x < 2.

        The reciprocal sum is the sum over chosen m of (1/m) H(c_m), where
        H(c) sums 1/n over the first c free parts.  Scaled by 2^K, each 1/n
        lies in [floor(2^K/n), floor(2^K/n) + 1), so 2^K H(c) lies in
        [P[c], P[c] + c], and 2^K/m lies between its floor and its ceiling.
        The products of the bounds bracket 2^2K times the sum in integers,
        and both ends are divided by the same ln x as the exact value.
        """
        x = self._horizon(x)
        if x < 2:
            return None
        one = 1 << FIXED_POINT_BITS
        prefix = self._reciprocal_prefix
        low = high = 0
        for m, c in zip(self.smooth_parts, self._cuts(x)):
            floor, rest = divmod(one, m)
            low += floor * prefix[c]
            high += (floor + (rest > 0)) * (prefix[c] + c)
        scale = _ln_fraction(x) * (one * one)
        return DensityBracket(
            low / scale, high / scale, "fixed-point-reciprocal-sum",
            {"bits": FIXED_POINT_BITS},
        )


def _ln_fraction(x: int) -> Fraction:
    """ln(x) as an exact dyadic rational of ~LN_PRECISION_DIGITS digits, rounded to nearest."""
    return _libmp_to_fraction(
        mpf_log(from_int(x), dps_to_prec(LN_PRECISION_DIGITS), round_nearest)
    )


def construct_dense_set(
    a_set,
    x: int,
    depth: int = 6,
    cap: int = DEFAULT_SEARCH_CAP,
) -> DenseSetSample:
    """The dense construction up to x: chosen smooth parts times free parts.

    For pairwise-coprime integer quotients the chosen smooth parts are the
    even-parity (white) ones over the set itself; otherwise a truncated
    optimal witness over the derived prime basis is used.
    """
    if not isinstance(a_set, RationalSet):
        a_set = RationalSet.of(a_set)
    if x < 1:
        raise DomainError("the horizon must be at least 1")

    if a_set.is_coprime_integers():
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
    return DenseSetSample(x, tuple(smooth_parts), tuple(free_parts))


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
) -> GapReport:
    """Try to certify that the series value strictly exceeds the closed form.

    Tightens the series tolerance by a factor of four per round.  Budget
    exhaustion yields an inconclusive report, never a false positive.
    """
    rho = rho_closed_form([p, q])
    _require_work_bound("budget", budget)
    tolerance = Fraction(1, 16)
    sigma: Optional[DensityBracket] = None
    for round_no in range(1, _GAP_ROUNDS + 1):
        try:
            sigma = sigma_series(p, q, tolerance, budget)
        except BudgetError as exc:
            achieved = exc.achieved
            proven = achieved is not None and achieved.lower > rho
            return GapReport(p, q, rho, achieved, proven, round_no)
        if sigma.lower > rho:
            return GapReport(p, q, rho, sigma, True, round_no)
        tolerance /= 4
    return GapReport(p, q, rho, sigma, False, _GAP_ROUNDS)
