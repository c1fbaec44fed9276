"""Density formulas and extremal constructions for quotient-free sets.

Closed-form and bracketed values of the best achievable asymptotic density,
the certified series bracket for the best upper density of a coprime pair,
exact maximal quotient-free subsets of an initial segment, the explicit
dense construction, and the strict-gap verdict between the two densities.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from functools import cache, cached_property
from itertools import accumulate, compress, groupby, islice, takewhile
from math import log2
from operator import itemgetter
from typing import NamedTuple, Optional, Sequence

from .arith import (
    CoprimeBasis,
    RationalSet,
    as_fraction,
    coprime_part_mask,
    count_coprime_part,
    derive_basis,
    enumerate_smooth,
    exact_sum,
    phi,
    _Record,
    _ln_pair,
    _pair_prefix,
    _require_coprime,
    _require_stream_bound,
    _require_work_bound,
    _signed_subset_lcms,
)
from .errors import BudgetError, DomainError, SelfCheckError
from .lattice import DEFAULT_SEARCH_CAP, gamma_bracket

DEFAULT_SERIES_BUDGET = 10**6
LN_PRECISION_DIGITS = 60
# the significant bits of LN_PRECISION_DIGITS decimal digits, as mpmath counts them
# (dps_to_prec): 203
_LN_PRECISION_BITS = round((LN_PRECISION_DIGITS + 1) * log2(10))
# floor(2^256 gamma), Euler's constant to 256 bits
_EULER_GAMMA_BITS = 256
_EULER_GAMMA = 0x93C467E37DB0C7A4D1BE3F810152CB56A1CECC3AF65CC0190C03DF34709AFFBD
# K: log density brackets scale each reciprocal by 2^K and round to integers
FIXED_POINT_BITS = 96
# Z0: harmonic numbers H(z) come from a table up to it, by Euler-Maclaurin
# above it, where the remainder 1/(240 z^8) is below 2^-K / 240
HARMONIC_TABLE_MAX = 4096
# G: the Euler-Maclaurin terms are summed at 2^(K + G) before rounding to 2^K
_HARMONIC_GUARD_BITS = 16
# the exact log density (an O(x) rational sum) raises BudgetError above this x
EXACT_LOG_DENSITY_MAX_X = 500_000
# the strict-gap check tightens its tolerance at most this many times
_GAP_ROUNDS = 10


class _BracketFields(NamedTuple):
    lower: Fraction
    upper: Fraction
    method: str
    detail: dict


class DensityBracket(_BracketFields):
    """Exact rational enclosure of a density quantity.

    ``method`` records how it was produced; closed forms collapse to a
    single point (lower == upper).  Construction checks lower <= upper.
    """

    __slots__ = ()

    def __new__(cls, lower: Fraction, upper: Fraction, method: str, detail: dict):
        if lower > upper:
            raise DomainError("bracket lower bound exceeds upper bound")
        return tuple.__new__(cls, (lower, upper, method, detail))

    @property
    def width(self) -> Fraction:
        return self.upper - self.lower

    def contains(self, value: Fraction) -> bool:
        return self.lower <= value <= self.upper


def rho_closed_form(values: Sequence[int]) -> Fraction:
    """Best asymptotic density for pairwise-coprime integer quotients.

    Exactly (1 + product of (a-1)/(a+1)) / 2, built as the one fraction
    (P(a+1) + P(a-1)) / (2 P(a+1)), P the product over the values.
    """
    up = down = 1
    for a in _require_coprime(values):
        up *= a + 1
        down *= a - 1
    return Fraction(up + down, 2 * up)


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

    The values and f's gains come from ``_pair_prefix``, which alone
    decides the majority and its ties.  Every value so far divides D = p^A
    * q^B (A, B the largest exponents seen), so sums are kept as integer
    multiples of 1/D, and each share D/m = p^(A-a) * q^(B-b) is one product
    of two power table entries.  The partial sum is kept in Abel form: the
    shares of the values at which f grows, less f(t) * D/m_t.  The width
    exceeds factor * k/m_t (k the excess of the upper tail's prefix count
    over the lower one's), so while that alone exceeds the tolerance, which
    one product with m_t decides, the cross-multiplied width test is
    skipped: it runs on a handful of terms per call.  Fractions are built only for the returned
    (or budget-exhausted) bracket, one per end.
    """
    _require_coprime((p, q))
    tolerance = as_fraction(tolerance)
    if tolerance <= 0:
        raise DomainError("tolerance must be positive")
    _require_stream_bound("budget", budget)
    factor = Fraction((p - 1) * (q - 1), p * q)
    f_num, f_den = factor.numerator, factor.denominator
    tol_num, tol_den = tolerance.numerator, tolerance.denominator
    # factor * k / m > tolerance exactly when k * screen_k > m * screen_m
    screen_k, screen_m = f_num * tol_den, tol_num * f_den

    p_pow, q_pow = [1], [1]  # p^e for e <= A, q^e for e <= B
    big_a = big_b = 0
    scale = 1  # D
    recip = 0  # prefix reciprocal sum times D
    abel = 0  # the shares at which f grew
    f = 0  # f(t), the largest quotient-free subset of the first t values
    # value is m_t, t = terms + 1: the partial sum covers the first terms
    # prefixes, and m_t closes the last of them
    for terms, (value, a, b, gain, _) in enumerate(islice(_pair_prefix(p, q), budget)):
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
        # a gain's share cancels in abel - f(t) * share, so counting m_t now
        # leaves the sum as is
        if gain:
            abel += share
            f += 1
        k = (terms + 1) // 2  # terms + 1 - (terms + 2) // 2
        # width = factor * (k / m_t + 1 / factor - recip / D)
        if terms and k * screen_k <= value * screen_m and (
            tol_den * (f_num * (k * share - recip) + f_den * scale)
            <= tol_num * f_den * scale
        ):
            partial = abel - f * share
            return _series_bracket(factor, terms, value, partial, recip, scale)
    partial = abel - f * share
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
    each later prefix counts, at most all of it plus the harmonic remainder:
    the ends are factor * (partial/D + ceil((t+1)/2)/m) and
    factor * (partial/D + (t+1)/m + 1/factor - recip/D), t = ``terms``,
    m = ``value`` and D = ``scale``.  Each is one integer over
    f_den * D * m (factor = f_num/f_den), made a ``Fraction`` once.
    """
    f_num, f_den = factor.numerator, factor.denominator
    head = partial * value
    den = f_den * scale * value
    return DensityBracket(
        Fraction(f_num * (head + (terms + 2) // 2 * scale), den),
        Fraction(f_num * (head + (terms + 1) * scale - recip * value) + den, den),
        "series-with-tail",
        {"terms": terms, "next_value": value},
    )


def max_subset_count(p: int, q: int, n: int) -> int:
    """Exact maximal size of a quotient-free subset of {1..n} for pair (p,q).

    Sums, over every n-free class representative, f(t) for the smooth
    prefix that still fits under the bound, t = #{smooth <= n/rep}.  So the
    count is a sum over blocks of t; in Abel form, the number of
    representatives up to n // m_t (inclusion-exclusion) summed over the t
    at which ``_pair_prefix``, which alone decides the majority and its
    ties, reports a gain: O(#smooth <= n * 2^s) work.  A maximal set
    itself comes from ``max_subset_witness``.
    """
    return _block_sum(p, q, n)[1]


def max_subset_witness(p: int, q: int, n: int) -> tuple[int, bytearray]:
    """(size, mask) of ``max_subset_count``'s witness: mask[k] = 1 exactly
    for the k <= n in it.

    A sieve by smooth parts (see ``_witness_mask``): about n * p/(p-1)
    * q/(q-1) + 2n byte writes done in C, plus O(#smooth + #runs) Python
    steps.  The size is the mask's number of ones, checked against the
    block sum.
    """
    prefix, total = _block_sum(p, q, n)
    mask = _witness_mask(prefix, n)
    size = mask.count(1)
    if size != total:
        raise SelfCheckError(f"witness of {size} elements, block sum {total}")
    return size, mask


def _block_sum(p: int, q: int, n: int) -> tuple[list[tuple[int, int, int, bool, bool]], int]:
    """``_pair_prefix`` up to the last smooth value <= n, and the count it gives."""
    # checked once here, so the count below skips its per-element check
    basis = CoprimeBasis.from_coprime_integers((p, q))
    if n < 1:
        raise DomainError("the horizon must be at least 1")
    prefix = list(takewhile(lambda entry: entry[0] <= n, _pair_prefix(p, q)))
    total = sum(count_coprime_part(basis, n // m) for m, _, _, gain, _ in prefix if gain)
    return prefix, total


def _witness_mask(prefix: Sequence[tuple[int, int, int, bool, bool]], n: int) -> bytearray:
    """mask[k] = 1 exactly for the k <= n in the maximal quotient-free subset.

    ``prefix`` lists ``_pair_prefix`` up to the last smooth value <= n.
    k = m_i * r, with m_i its smooth part and r free, is kept when m_i has
    the class ``kept_t`` that the stream, which alone decides the majority
    and its ties, keeps for the first t(r) = #{smooth <= n // r} values.
    So the verdict for r depends on m_i's class c alone: table c holds, at
    each r <= n, whether c is the class kept for t(r).  For each m_i,
    ascending, the sieve copies its class's table to every multiple m_i * r,
    r <= n // m_i, free or not, in one slice: the last write to k comes from
    its largest smooth divisor, its smooth part, so the verdicts for r that
    are not free are all overwritten.  The r with t(r) = t fill
    (n // m_{t+1}, n // m_t], so the tables take one slice per run of t with
    one kept class.
    """
    # kept_t = False (class 0) until a run says otherwise; r = 0 is never read
    tables = (bytearray(b"\x01") * (n + 1), bytearray(n + 1))
    lo = 0
    # the runs from the last t down, so r goes up: a run's r end at
    # n // (its least smooth value), the last entry of the reversed run
    for kept, run in groupby(reversed(prefix), key=itemgetter(4)):
        *_, (m, *_) = run
        hi = n // m + 1
        if kept:
            tables[0][lo:hi] = bytes(hi - lo)
            tables[1][lo:hi] = b"\x01" * (hi - lo)
        lo = hi
    mask = bytearray(n + 1)
    for m, a, b, _, _ in prefix:
        mask[m::m] = tables[(a + b) & 1][1:n // m + 1]
    return mask


class DenseSetSample(_Record):
    """A horizon's worth of the explicit dense quotient-free construction.

    Every member is a chosen smooth part m times a free part (an integer
    divisible by no basis element), and a product up to x has its free part
    among the c_m = #{free <= x // m} of them, an O(2^s) inclusion-exclusion
    count.  So the sample keeps just the ascending chosen smooth parts and
    the ``CoprimeBasis``; counts and log-density brackets come from them at
    any horizon up to ``x`` without listing the free parts.  The members'
    byte mask is built only for the member list and, up to its own horizon,
    for the exact log density, which sums them with ``empirical_densities``.
    """

    _fields = ("x", "smooth_parts", "basis")

    def __init__(self, x: int, smooth_parts: tuple[int, ...], basis: CoprimeBasis):
        self.x = x
        self.smooth_parts = smooth_parts
        self.basis = basis

    def __repr__(self) -> str:
        return f"DenseSetSample(x={self.x!r})"

    def _horizon(self, x: Optional[int]) -> int:
        if x is None:
            return self.x
        if not 1 <= x <= self.x:
            raise DomainError(f"the horizon must lie in [1, {self.x}]")
        return x

    def _cuts(self, x: int) -> list[int]:
        """c_m for each chosen smooth part m <= x, in the order of the parts.

        c_m = #{free <= x // m}, counted by inclusion-exclusion over the basis.
        """
        basis = self.basis
        return [count_coprime_part(basis, x // m) for m in self.smooth_parts if m <= x]

    def _mask(self, x: int) -> bytearray:
        """mask[k] = 1 exactly for the members k <= x.

        For each chosen smooth part m, ascending, the mask of the free parts
        up to x is written at the multiples of m: mask[m * r] = free[r].
        The smooth divisors of k all divide its smooth part s, so the last
        write to k comes from the largest chosen one.  That is s when s is
        chosen, and writes free[k // s] = 1; a smaller one leaves a basis
        element in k // m, which is not free.
        """
        free = coprime_part_mask(self.basis, x)
        mask = bytearray(x + 1)
        for m in self.smooth_parts:
            mask[m::m] = free[1:x // m + 1]
        return mask

    @cached_property
    def member_mask(self) -> bytearray:
        """mask[k] = 1 exactly for the members k <= x (the horizon)."""
        return self._mask(self.x)

    @cached_property
    def members(self) -> tuple[int, ...]:
        """Every member up to x, ascending."""
        return tuple(compress(range(self.x + 1), self.member_mask))

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

        ``empirical_densities`` of the masked members: the sum's denominator
        grows by about 1.44 x bits, so this is the slow route, and
        ``log_density_bracket`` encloses it with integers of fixed size.
        Above ``EXACT_LOG_DENSITY_MAX_X`` it raises ``BudgetError`` instead.
        """
        x = self._horizon(x)
        if x < 2:
            return None
        if x > EXACT_LOG_DENSITY_MAX_X:
            raise BudgetError(
                f"the exact log density at x = {x} is an O(x) rational sum; "
                f"it is computed up to x = {EXACT_LOG_DENSITY_MAX_X}"
            )
        members = compress(range(x + 1), self._mask(x))
        return empirical_densities(members, [x])[0].log_density

    def log_density_bracket(self, x: Optional[int] = None) -> Optional[DensityBracket]:
        """Certified enclosure of ``log_density_at(x)``; None for x < 2.

        The reciprocal sum is the sum over chosen m <= x of (1/m) H_free(x // m),
        where H_free(y) sums 1/n over the free n <= y.  By inclusion-exclusion
        over the basis (Lemma 2), H_free(y) is the sum over subsets S of
        sign_S H(y // d_S) / d_S, d_S the lcm of S and H the harmonic number.
        ``_harmonic_bounds`` encloses each 2^K H(z) in integers; a + term
        adds the floor of the lower end over d_S to the lower sum and the
        ceiling of the upper end to the upper sum, a - term subtracts them
        crosswise.  Then 2^K/m lies between its floor and its ceiling, the
        products of the bounds bracket 2^2K times the reciprocal sum in
        integers, and both ends are divided by the same ln x as the exact
        value.  No free part is listed: the work is O(#smooth * 2^s).
        """
        x = self._horizon(x)
        if x < 2:
            return None
        one = 1 << FIXED_POINT_BITS
        terms = _signed_subset_lcms(self.basis.basis)
        bounds: dict[int, tuple[int, int]] = {}  # z -> bounds of 2^K H(z)
        low = high = 0
        for m in self.smooth_parts:
            if m > x:
                break  # the parts ascend
            y = x // m
            free_low = free_high = 0  # bounds of 2^K H_free(y)
            for sign, d in terms:
                z = y // d
                if z not in bounds:
                    bounds[z] = _harmonic_bounds(z)
                h_low, h_high = bounds[z]
                if sign > 0:
                    free_low += h_low // d
                    free_high -= -h_high // d
                else:
                    free_low += -h_high // d
                    free_high -= h_low // d
            floor, rest = divmod(one, m)
            low += floor * free_low
            high += (floor + (rest > 0)) * free_high
        scale = _ln_fraction(x) * (one * one)
        return DensityBracket(
            low / scale, high / scale, "fixed-point-reciprocal-sum",
            {"bits": FIXED_POINT_BITS},
        )


@cache
def _harmonic_table() -> tuple[int, ...]:
    """T[z]: the sum of floor(2^K / n) over n <= z, for z <= HARMONIC_TABLE_MAX."""
    one = 1 << FIXED_POINT_BITS
    return tuple(accumulate((one // n for n in range(1, HARMONIC_TABLE_MAX + 1)), initial=0))


def _euler_gamma_bounds(bits: int) -> tuple[int, int]:
    """Floor and ceiling of 2^bits times Euler's constant gamma, for bits <= 256.

    Both are read off the pinned floor(2^256 gamma): its top bits are the
    floor, and gamma < (that floor + 1) / 2^256 puts the ceiling one above.
    """
    low = _EULER_GAMMA >> (_EULER_GAMMA_BITS - bits)
    return low, low + 1


def _harmonic_bounds(z: int) -> tuple[int, int]:
    """Integers lo <= 2^K H(z) <= hi, H(z) the z-th harmonic number, z >= 0.

    Up to ``HARMONIC_TABLE_MAX`` from the table: each 2^K/n lies in
    [floor(2^K/n), floor(2^K/n) + 1), so 2^K H(z) lies in [T[z], T[z] + z].
    Above it from ``_euler_maclaurin_bounds`` at 2^(K + G), the lower end
    floored and the upper end ceiled to 2^K.
    """
    if z <= HARMONIC_TABLE_MAX:
        head = _harmonic_table()[z]
        return head, head + z
    low, high = _euler_maclaurin_bounds(z, FIXED_POINT_BITS + _HARMONIC_GUARD_BITS)
    return low >> _HARMONIC_GUARD_BITS, -(-high >> _HARMONIC_GUARD_BITS)


def _euler_maclaurin_bounds(z: int, bits: int) -> tuple[int, int]:
    """Integers lo <= 2^bits H(z) <= hi for z >= 1, by Euler-Maclaurin.

    H(z) = ln z + gamma + 1/(2z) - 1/(12z^2) + 1/(120z^4) - 1/(252z^6) + r
    with 0 < r < 1/(240z^8), the first term left out (the series encloses
    H(z) between consecutive partial sums).  ln z (``arith._ln_pair``) and
    gamma (``_euler_gamma_bounds``) are rounded down and up and the
    rational terms floored and ceiled, all at 2^-bits, so hi - lo is a few
    units.
    """
    ln_low, ln_high = _ln_pair(z, 1 << bits)
    gamma_low, gamma_high = _euler_gamma_bounds(bits)
    z2 = z * z
    # 1/(2z) - 1/(12z^2) + 1/(120z^4) - 1/(252z^6) = num / (2520 z^6)
    num = ((1260 * z - 210) * z2 + 21) * z2 - 10
    rational_low = (num << bits) // (2520 * z2 * z2 * z2)
    # the same plus 1/(240z^8) = (2 num z^2 + 21) / (5040 z^8)
    rational_high = -(-((2 * num * z2 + 21) << bits) // (5040 * z2 * z2 * z2 * z2))
    return ln_low + gamma_low + rational_low, ln_high + gamma_high + rational_high


def _ln_fraction(x: int) -> Fraction:
    """ln(x), x >= 2, rounded to nearest at ``_LN_PRECISION_BITS`` significant bits.

    With 2^t <= ln x < 2^(t+1), read off floor(2 ln x), the result is
    round(2^s ln x) / 2^s for s = bits - 1 - t, and round(v) is
    (floor(2v) + 1) // 2, one exact floor of ``arith._ln_pair``.
    """
    shift = _LN_PRECISION_BITS + 1 - _ln_pair(x, 2)[0].bit_length()
    return Fraction((_ln_pair(x, 2 << shift)[0] + 1) >> 1, 1 << shift)


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
    # gamma_bracket's checks, made here too: the coprime route never calls it
    if depth < 0:
        raise DomainError("depth must be nonnegative")
    _require_work_bound("cap", cap)

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
    return DenseSetSample(x, tuple(smooth_parts), basis)


class DensityRow(NamedTuple):
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


class GapReport(NamedTuple):
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
    _require_stream_bound("budget", budget)
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
