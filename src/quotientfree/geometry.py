"""Lattice regions, their points, and simplex coloring in r dimensions.

The one region type is ``SimplexSpec``: the nonnegative integer points
under an exact linear constraint alpha . x <= c, whose coefficients may be
rationals, logarithms of integers, or square roots of integers, and whose
bound may be a sum of such terms.  The paper's axis-legged triangles are
its two-dimensional case: p^x q^y <= n is ln p, ln q under ln n.
``simplex_points`` is the one walk over a region.  This module also holds
the point types (``Point``, ``LatticeConfig``, ``ColorCount``), counts
checkerboard colors, scans thresholds for a black majority, and tabulates
the white-minus-black profile for integer slopes.  Comparisons are decided
exactly where the atoms allow it, by integer enclosures fixed once per
region where those suffice, and by certified interval refinement
otherwise; an undecided comparison is an error, never a guess.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, islice, pairwise
from math import ceil, floor, isqrt, lcm, prod
from operator import add, mul
from typing import Iterable, Optional, Sequence, Union

from mpmath.libmp import from_int, mpi_log, mpi_sqrt, round_ceiling, round_floor

from .arith import _ascending_walk, _require_work_bound, as_fraction, first_smooth_entries
from .errors import DomainError, PrecisionError, SelfCheckError

Point = tuple[int, ...]

# certified intervals are refined up to this many bits before giving up
PREC_CAP_BITS = 4096
DEFAULT_SCAN_BUDGET = 64
_SORT_KEY_BITS = 200
# largest denominator tried for a canonical black-majority threshold
_MAX_THRESHOLD_DEN = 512
# fractional bits of the integer enclosures that decide most memberships
_FILTER_BITS = 64
# largest trial divisor when square factors are pulled out of a radicand
_SQRT_TRIAL_LIMIT = 10_000


@dataclass(frozen=True)
class LatticeConfig:
    """A finite set of nonnegative exponent vectors.

    Points are stored sorted lexicographically; this is the fixed point
    order referenced by witness tie-breaking.
    """

    points: tuple[Point, ...]

    def __post_init__(self):
        pts = self.points
        if any(any(c < 0 for c in p) for p in pts):
            raise DomainError("all coordinates must be nonnegative")
        if len(set(pts)) != len(pts):
            raise DomainError("points must be distinct")
        if len(set(len(p) for p in pts)) > 1:
            raise DomainError("points must share one dimension")
        object.__setattr__(self, "points", tuple(sorted(pts)))

    @classmethod
    def explicit(cls, points: Iterable[Sequence[int]]) -> "LatticeConfig":
        return cls(tuple(tuple(p) for p in points))

    @classmethod
    def first_entries(cls, basis, t: int) -> "LatticeConfig":
        """Exponent vectors of the first t basis-smooth integers."""
        entries = first_smooth_entries(basis, t)
        return cls(tuple(e for _, e in entries))

    def __len__(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class ColorCount:
    """Checkerboard tallies: white = even coordinate sum, black = odd."""

    white: int
    black: int

    @property
    def total(self) -> int:
        return self.white + self.black

    def majority(self) -> int:
        return max(self.white, self.black)


def _libmp_to_fraction(raw) -> Fraction:
    """Exact Fraction from a raw libmp mpf tuple (sign, man, exp, bc)."""
    sign, man, exp, _ = raw
    if man == 0:
        return Fraction(0)
    # the mantissa may be a gmpy2 integer when mpmath runs on that backend
    value = Fraction(int(man), 1) * (Fraction(2) ** int(exp))
    return -value if sign else value


@dataclass(frozen=True)
class ExactReal:
    """A nonnegative real coefficient: rational, scale*sqrt(k), or ln(k).

    Square parts of radicands are extracted at construction: square factors
    of trial divisors up to 10**4, and a cofactor left over that is itself
    a perfect square.  So sqrt atoms with equal values compare equal
    structurally, unless a radicand has a square factor whose root exceeds
    10**4 and is not all of what is left; an exact tie between two such
    atoms is then undecided (a ``PrecisionError`` once certified intervals
    reach the fixed 4096-bit ``PREC_CAP_BITS``), never a hang.
    """

    kind: str  # "rational" | "log" | "sqrt"
    rational: Optional[Fraction] = None
    arg: Optional[int] = None
    scale: int = 1

    @classmethod
    def of(cls, value) -> "ExactReal":
        return cls("rational", rational=as_fraction(value))

    @classmethod
    def log(cls, k: int) -> "ExactReal":
        if k < 1:
            raise DomainError("logarithm argument must be a positive integer")
        if k == 1:
            return cls("rational", rational=Fraction(0))
        return cls("log", arg=k)

    @classmethod
    def sqrt(cls, k: int) -> "ExactReal":
        if k < 0:
            raise DomainError("square root argument must be nonnegative")
        if k == 0:
            return cls("rational", rational=Fraction(0))
        scale = 1
        rest = k
        d = 2
        while d <= _SQRT_TRIAL_LIMIT and d * d <= rest:
            while rest % (d * d) == 0:
                rest //= d * d
                scale *= d
            d += 1
        root = isqrt(rest)
        if root * root == rest:
            return cls("rational", rational=Fraction(scale * root))
        return cls("sqrt", arg=rest, scale=scale)

    @classmethod
    def parse(cls, text: str) -> "ExactReal":
        """Accepts '3', '3/2', 'ln2', 'ln(12)', 'sqrt2', 'sqrt(8)'."""
        text = text.strip()
        for name, make in (("ln", cls.log), ("sqrt", cls.sqrt)):
            m = re.fullmatch(name + r"\(?(\d+)\)?", text)
            if m:
                digits = m.group(1)
                try:
                    arg = int(digits)
                except ValueError as exc:  # past the interpreter's int-string limit
                    raise DomainError(
                        f"{name} argument has {len(digits)} digits, too many to convert"
                    ) from exc
                return make(arg)
        return cls.of(text)

    @property
    def is_rational(self) -> bool:
        return self.kind == "rational"

    def interval(self, prec_bits: int) -> tuple[Fraction, Fraction]:
        """Certified enclosure of the value at the given working precision."""
        if self.kind == "rational":
            return self.rational, self.rational
        arg = (from_int(self.arg, prec_bits, round_floor),
               from_int(self.arg, prec_bits, round_ceiling))
        raw_lo, raw_hi = (mpi_log if self.kind == "log" else mpi_sqrt)(arg, prec_bits)
        lo, hi = _libmp_to_fraction(raw_lo), _libmp_to_fraction(raw_hi)
        return self.scale * lo, self.scale * hi

    def sort_key(self) -> Fraction:
        lo, hi = self.interval(_SORT_KEY_BITS)
        return (lo + hi) / 2

    def __str__(self) -> str:
        if self.kind == "rational":
            return str(self.rational)
        if self.kind == "log":
            return f"ln({self.arg})"
        prefix = "" if self.scale == 1 else f"{self.scale}*"
        return f"{prefix}sqrt({self.arg})"


def _sign_of_terms(terms: Sequence[tuple[ExactReal, Fraction]], what: str) -> int:
    """Sign of a finite rational combination of exact-real atoms.

    Exact routes: all-rational; all-log with zero rational part (integer
    power comparison); a single non-square radicand (square comparison).
    Anything else refines certified intervals up to a fixed ``PREC_CAP_BITS``
    (4096) bits.
    """
    const = Fraction(0)
    logs: dict[int, Fraction] = {}
    sqrts: dict[int, Fraction] = {}
    for atom, coeff in terms:
        if coeff == 0:
            continue
        if atom.kind == "rational":
            const += coeff * atom.rational
        elif atom.kind == "log":
            logs[atom.arg] = logs.get(atom.arg, Fraction(0)) + coeff
        else:
            sqrts[atom.arg] = sqrts.get(atom.arg, Fraction(0)) + coeff * atom.scale
    logs = {k: c for k, c in logs.items() if c != 0}
    sqrts = {k: c for k, c in sqrts.items() if c != 0}

    def sign(v: Fraction) -> int:
        return (v > 0) - (v < 0)

    if not logs and not sqrts:
        return sign(const)
    if (
        logs
        and not sqrts
        and const == 0
        and all(c.denominator == 1 for c in logs.values())
    ):
        # sign of sum c*ln(k): compare the integer products on each side
        num = den = 1
        for k, c in logs.items():
            if c > 0:
                num *= k ** c.numerator
            else:
                den *= k ** (-c.numerator)
        return sign(Fraction(num - den))
    if sqrts and not logs and len(sqrts) == 1:
        ((k, c),) = sqrts.items()
        # sign of c*sqrt(k) + const; c*sqrt(k) is never a nonzero rational
        if const == 0:
            return sign(c)
        if sign(c) == sign(const):
            return sign(c)
        return sign(c * c * k - const * const) * sign(c)

    atoms = [(ExactReal("log", arg=k), c) for k, c in logs.items()]
    atoms += [(ExactReal("sqrt", arg=k), c) for k, c in sqrts.items()]
    bits = 64
    while bits <= PREC_CAP_BITS:
        lo = hi = const
        for atom, coeff in atoms:
            alo, ahi = atom.interval(bits)
            if coeff >= 0:
                lo += coeff * alo
                hi += coeff * ahi
            else:
                lo += coeff * ahi
                hi += coeff * alo
        if hi < 0:
            return -1
        if lo > 0:
            return 1
        bits *= 2
    raise PrecisionError(
        f"comparison undecided at {PREC_CAP_BITS} bits while testing {what}"
    )


@dataclass(frozen=True)
class SimplexSpec:
    """The region alpha . x <= c over nonnegative integer vectors x.

    ``c`` is an exact real or a sum of (atom, rational coefficient) terms,
    and is stored as terms.  Construction picks how ``contains`` decides,
    once: integer products when every atom is a logarithm and c's
    coefficients are whole numbers, one integer dot product when every atom
    is rational, and certified signs of the whole combination otherwise.
    The signs route first tries integer enclosures of each alpha and of c,
    scaled by 2**64 and taken once here: two integer dot products settle
    every point not within the enclosures' width of the boundary, in O(r)
    work, and only the rest (exact ties, say) refine intervals.
    """

    alphas: tuple[ExactReal, ...]
    c: Union[ExactReal, tuple[tuple[ExactReal, Fraction], ...]]
    # (route, coefficients, bound) read by ``contains``; the signs route keeps
    # its integer enclosures (or None) where the others keep coefficients
    _route: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.alphas:
            raise DomainError("at least one coefficient is required")
        _require_positive(self.alphas)
        if isinstance(self.c, ExactReal):
            terms = ((self.c, Fraction(1)),)
        else:
            terms = tuple((atom, Fraction(k)) for atom, k in self.c)
        object.__setattr__(self, "c", terms)
        used = [(atom, k) for atom, k in terms if k]
        if all(a.kind == "log" for a in self.alphas) and all(
            atom.kind == "log" and k.denominator == 1 and k > 0 for atom, k in used
        ):
            route = ("log", tuple(a.arg for a in self.alphas),
                     prod(atom.arg ** k.numerator for atom, k in used))
        elif all(a.is_rational for a in self.alphas) and all(atom.is_rational for atom, _ in used):
            bound = sum((k * atom.rational for atom, k in used), Fraction(0))
            scale = lcm(bound.denominator, *(a.rational.denominator for a in self.alphas))
            route = ("dot", tuple(a.rational.numerator * (scale // a.rational.denominator)
                                  for a in self.alphas),
                     bound.numerator * (scale // bound.denominator))
        else:
            route = ("signs", _enclosures(self.alphas, terms),
                     tuple((atom, -k) for atom, k in terms))
        object.__setattr__(self, "_route", route)

    @classmethod
    def of(cls, alphas: Iterable, c) -> "SimplexSpec":
        return cls(tuple(_as_exact(a) for a in alphas), _as_exact(c))

    def contains(self, point: Sequence[int]) -> bool:
        """Boundary-inclusive membership, decided exactly."""
        if len(point) != len(self.alphas):
            raise DomainError("point dimension mismatch")
        if min(point) < 0:
            return False
        route, coeffs, bound = self._route
        if route == "log":
            return prod(map(pow, coeffs, point)) <= bound
        if route == "dot":
            return sum(map(mul, coeffs, point)) <= bound
        if coeffs is not None:
            lo, hi, c_lo, c_hi = coeffs
            if sum(map(mul, hi, point)) <= c_lo:
                return True
            if sum(map(mul, lo, point)) > c_hi:
                return False
        terms = [(a, Fraction(x)) for a, x in zip(self.alphas, point)]
        terms += bound
        return _sign_of_terms(terms, f"membership of point {tuple(point)}") <= 0

    def _row_end(self, head: list[int]) -> int:
        """Largest z with ``head + [z]`` in the region, or -1 when there is none.

        ``head`` fixes every coordinate but the last.  Rational coefficients
        give z by one integer division and logarithms by an integer loop on
        the product; the signs route narrows z with its enclosures to one
        or two candidates and tests them with ``contains``.
        """
        route, coeffs, bound = self._route
        if route == "dot":
            room = bound - sum(map(mul, coeffs, head))
            return room // coeffs[-1] if room >= 0 else -1
        if route == "log":
            room = bound // prod(map(pow, coeffs, head))
            z, power = -1, 1
            while power <= room:
                power *= coeffs[-1]
                z += 1
            return z
        if coeffs is None:
            z = 0  # no enclosures to narrow by: walk the row up
            while self.contains(head + [z]):
                z += 1
            return z - 1
        lo, hi, c_lo, c_hi = coeffs
        # every z above `top` fails the filter, every z up to `sure` passes it
        top = (c_hi - sum(map(mul, lo, head))) // lo[-1]
        sure = max((c_lo - sum(map(mul, hi, head))) // hi[-1], -1)
        while top > sure and not self.contains(head + [top]):
            top -= 1
        return max(top, -1)


def _enclosures(alphas, c_terms):
    """Integer enclosures scaled by 2**_FILTER_BITS: (lo, hi, c_lo, c_hi).

    lo[i] <= 2**64 * alpha_i <= hi[i] and c_lo <= 2**64 * c <= c_hi.  None
    when some alpha is too small for its lower end to be positive, since
    the row ends divide by it.
    """
    def enclose(terms) -> tuple[int, int]:
        lo = hi = Fraction(0)
        for atom, k in terms:
            # enough bits that the error stays well below 2**-64 absolute
            bits = 2 * _FILTER_BITS + (0 if atom.is_rational else atom.arg.bit_length())
            alo, ahi = atom.interval(bits)
            if k >= 0:
                lo, hi = lo + k * alo, hi + k * ahi
            else:
                lo, hi = lo + k * ahi, hi + k * alo
        return floor(lo * 2**_FILTER_BITS), ceil(hi * 2**_FILTER_BITS)

    lo, hi = zip(*(enclose(((a, 1),)) for a in alphas))
    if min(lo) <= 0:
        return None
    return lo, hi, *enclose(c_terms)


def _require_positive(alphas: Sequence[ExactReal]) -> None:
    # ln 1 and sqrt 0 are rational zeros, so only rational atoms can fail
    if any(a.is_rational and a.rational <= 0 for a in alphas):
        raise DomainError("all coefficients must be positive")


def _as_exact(value) -> ExactReal:
    if isinstance(value, ExactReal):
        return value
    if isinstance(value, str):
        return ExactReal.parse(value)
    return ExactReal.of(value)


def simplex_points(spec: SimplexSpec, limit: Optional[int] = None) -> LatticeConfig:
    """All nonnegative integer points of the region, in lex order.

    The last coordinate grows until the point leaves the region; then it
    drops to zero and the coordinate before it grows, so each point is
    tested once, plus one failed test per row end.  With ``limit``, the walk
    stops once it holds ``limit`` points.
    """
    r = len(spec.alphas)
    points: list[Point] = []
    x = [0] * r
    point = tuple(x)
    inside = spec.contains(point)
    while inside and len(points) != limit:
        points.append(point)
        for i in range(r - 1, -1, -1):
            x[i] += 1
            point = tuple(x)
            inside = spec.contains(point)
            if inside:
                break
            x[i] = 0
    return LatticeConfig(tuple(points))


def simplex_color_counts(spec: SimplexSpec) -> ColorCount:
    """Checkerboard tallies of the simplex lattice points, row by row.

    A row fixes every coordinate but the last, so its points have last
    coordinates 0..L, where L is the row end, and its color split is
    closed-form.  The cost is one row-end decision per row (see
    ``SimplexSpec._row_end``), not one membership test per point; the rows
    are walked in lex order the way ``simplex_points`` walks points.
    """
    head = [0] * (len(spec.alphas) - 1)
    row_end = spec._row_end
    coords = range(len(head) - 1, -1, -1)
    parity = white = total = 0
    end = row_end(head)
    while end >= 0:
        total += end + 1
        white += (end + 2 - parity) // 2  # last coordinates of head's parity
        for i in coords:
            head[i] += 1
            end = row_end(head)
            if end >= 0:
                break
            head[i] = 0
        else:
            break
        parity = sum(head) % 2
    return ColorCount(white, total - white)


@dataclass(frozen=True)
class BlackMajoritySearch:
    """Result of scanning thresholds for a black-majority simplex."""

    found: bool
    threshold: Optional[Fraction]
    threshold_display: Optional[str]
    integer_bound: Optional[int]
    counts: Optional[ColorCount]
    candidates_tested: int


def _rational_ceil(value_terms, den: int) -> int:
    """Smallest integer num with num/den >= the combination value."""
    mid = sum((a.sort_key() * c for a, c in value_terms), Fraction(0))
    guess = ceil(mid * den)
    # settle the guess with exact comparisons in a short walk
    while _sign_of_terms(
        list(value_terms) + [(ExactReal.of(Fraction(guess, den)), Fraction(-1))],
        "ceiling search",
    ) > 0:
        guess += 1
    while guess >= 1 and _sign_of_terms(
        list(value_terms) + [(ExactReal.of(Fraction(guess - 1, den)), Fraction(-1))],
        "ceiling search",
    ) <= 0:
        guess -= 1
    return guess


def _simplest_rational_at_least(value_terms, strict_upper_terms):
    """Simplest p/q with value <= p/q < next value, by denominator sweep."""
    for den in range(1, _MAX_THRESHOLD_DEN + 1):
        num = _rational_ceil(value_terms, den)
        candidate = Fraction(num, den)
        below_next = _sign_of_terms(
            list(strict_upper_terms) + [(ExactReal.of(candidate), Fraction(-1))],
            "simplest rational search",
        ) > 0
        if below_next:
            return candidate
    return None


def find_black_majority_c(
    alphas: Iterable, budget: int = DEFAULT_SCAN_BUDGET
) -> BlackMajoritySearch:
    """Scan attained threshold values, ascending, for a black majority.

    Counts only change at attained values of the form alpha . x, so the scan
    is complete up to the budget.  The returned threshold is canonical: the
    integer bound itself when every coefficient is a logarithm of an
    integer, the attained rational for rational coefficients, and otherwise
    the simplest rational inside the black-majority window.
    """
    _require_work_bound("budget", budget)
    alpha_atoms = tuple(_as_exact(a) for a in alphas)
    if len(alpha_atoms) < 2:
        raise DomainError("at least two coefficients are required")
    # a zero coefficient would make the scan repeat one threshold forever
    _require_positive(alpha_atoms)
    for left, right in zip(alpha_atoms, alpha_atoms[1:]):
        if _sign_of_terms([(right, Fraction(1)), (left, Fraction(-1))], "coefficient ordering") < 0:
            raise DomainError("coefficients must be sorted ascending")

    all_logs = all(a.kind == "log" for a in alpha_atoms)
    all_rational = all(a.is_rational for a in alpha_atoms)
    # one candidate of lookahead: the window of a black majority ends there
    candidates = chain(islice(_attained_values(alpha_atoms), budget), [None])
    tested = 0
    for (key, terms), following in pairwise(candidates):
        tested += 1
        counts = simplex_color_counts(SimplexSpec(alpha_atoms, terms))
        if counts.black <= counts.white:
            continue
        if all_logs:
            return BlackMajoritySearch(True, None, f"ln({key})", key, counts, tested)
        if all_rational:
            threshold = key
        elif following is None:
            threshold = None
        else:
            threshold = _simplest_rational_at_least(terms, following[1])
        if threshold is None:
            display = " + ".join(f"{c}*{a}" for a, c in terms if c) or "0"
        else:
            display = str(threshold)
            # re-verify by direct recount at the canonical threshold
            recounted = simplex_color_counts(SimplexSpec(alpha_atoms, ExactReal.of(threshold)))
            if recounted != counts:
                raise SelfCheckError(
                    f"recount at the canonical threshold {threshold} gives "
                    f"{recounted}, the scan gave {counts}"
                )
        return BlackMajoritySearch(True, threshold, display, None, counts, tested)
    return BlackMajoritySearch(False, None, None, None, None, tested)


def _attained_values(alpha_atoms):
    """The distinct values alpha . x, ascending, as (key, terms), produced lazily.

    When every alpha is a logarithm, the key is the integer product of
    k_i**x_i, so values are ordered and told apart exactly.  Otherwise the
    key is the sum of x_i times the 200-bit interval midpoint of alpha_i
    (``ExactReal.sort_key``), which is exact for rational alphas.  Those
    midpoints are not certified: two distinct values closer than about
    2**-200 could swap or merge.  Each value comes with the least x
    attaining its key.
    """
    if all(a.kind == "log" for a in alpha_atoms):
        walk = _ascending_walk(1, tuple(a.arg for a in alpha_atoms), mul)
    else:
        walk = _ascending_walk(Fraction(0), tuple(a.sort_key() for a in alpha_atoms), add)
    last_key = None
    for key, x in walk:
        if key != last_key:  # keys come in order, so equal keys are adjacent
            last_key = key
            yield key, tuple(zip(alpha_atoms, map(Fraction, x)))


@dataclass(frozen=True)
class ProfileRow:
    c: int
    white: int
    black: int
    diff: int


def rational_slope_profile(a1: int, a2: int, c_max: int) -> list[ProfileRow]:
    """White-minus-black per integer threshold for integer coefficients.

    The points on the line a1*x + a2*y = j number n(j), the coefficient of
    t**j in 1/((1 - t**a1)(1 - t**a2)), and their white-minus-black balance
    d(j) is the coefficient in 1/((1 + t**a1)(1 + t**a2)).  Both follow
    three-term recurrences, and row c holds their sums over j <= c, so the
    whole profile costs O(c_max) integer steps.
    """
    if a1 < 1 or a2 < 1:
        raise DomainError("coefficients must be positive integers")
    if c_max < 1:
        raise DomainError("the horizon must be at least 1")
    n = [0] * (c_max + 1)
    d = [0] * (c_max + 1)
    total = diff = 0
    rows = []
    for j in range(c_max + 1):
        nj = dj = int(j == 0)
        for step, sign in ((a1, 1), (a2, 1), (a1 + a2, -1)):
            if j >= step:
                nj += sign * n[j - step]
                dj -= d[j - step]
        n[j], d[j] = nj, dj
        total += nj
        diff += dj
        if j:
            rows.append(ProfileRow(j, (total + diff) // 2, (total - diff) // 2, diff))
    return rows
