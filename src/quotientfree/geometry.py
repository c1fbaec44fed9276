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
exactly where the atoms allow it and by certified interval refinement
otherwise; an undecided comparison is an error, never a guess.
"""

from __future__ import annotations

import heapq
import re
from dataclasses import dataclass, field
from fractions import Fraction
from math import ceil, lcm, prod
from operator import mul
from typing import Iterable, Optional, Sequence, Union

from mpmath.libmp import from_int, mpi_log, mpi_sqrt, round_ceiling, round_floor

from .arith import as_fraction, first_smooth_entries, smooth_stream
from .errors import DomainError, PrecisionError, SelfCheckError

Point = tuple[int, ...]

DEFAULT_PREC_CAP_BITS = 4096
_SORT_KEY_BITS = 200


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

    Square parts of radicands are extracted at construction, so every sqrt
    atom has a square-free argument and atoms with equal values compare
    equal structurally.
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
        while d * d <= rest:
            while rest % (d * d) == 0:
                rest //= d * d
                scale *= d
            d += 1
        if rest == 1:
            return cls("rational", rational=Fraction(scale))
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


def _sign_of_terms(
    terms: Sequence[tuple[ExactReal, Fraction]],
    prec_cap: int,
    what: str,
) -> int:
    """Sign of a finite rational combination of exact-real atoms.

    Exact routes: all-rational; all-log with zero rational part (integer
    power comparison); a single square-free radicand (square comparison).
    Anything else refines certified intervals up to the precision cap.
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
    while bits <= prec_cap:
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
        f"comparison undecided at {prec_cap} bits while testing {what}"
    )


@dataclass(frozen=True)
class SimplexSpec:
    """The region alpha . x <= c over nonnegative integer vectors x.

    ``c`` is an exact real or a sum of (atom, rational coefficient) terms,
    and is stored as terms.  Construction picks how ``contains`` decides,
    once: integer products when every atom is a logarithm and c's
    coefficients are whole numbers, one integer dot product when every atom
    is rational, and certified signs of the whole combination otherwise.
    """

    alphas: tuple[ExactReal, ...]
    c: Union[ExactReal, tuple[tuple[ExactReal, Fraction], ...]]
    # (route, coefficients, bound) read by ``contains``
    _route: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.alphas:
            raise DomainError("at least one coefficient is required")
        for a in self.alphas:
            if a.is_rational and a.rational <= 0:
                raise DomainError("all coefficients must be positive")
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
            route = ("signs", None, tuple((atom, -k) for atom, k in terms))
        object.__setattr__(self, "_route", route)

    @classmethod
    def of(cls, alphas: Iterable, c) -> "SimplexSpec":
        return cls(tuple(_as_exact(a) for a in alphas), _as_exact(c))

    def contains(self, point: Sequence[int], prec_cap: int = DEFAULT_PREC_CAP_BITS) -> bool:
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
        terms = [(a, Fraction(x)) for a, x in zip(self.alphas, point)]
        terms += bound
        return _sign_of_terms(terms, prec_cap, f"membership of point {tuple(point)}") <= 0


def _as_exact(value) -> ExactReal:
    if isinstance(value, ExactReal):
        return value
    if isinstance(value, str):
        return ExactReal.parse(value)
    return ExactReal.of(value)


def simplex_points(
    spec: SimplexSpec,
    prec_cap: int = DEFAULT_PREC_CAP_BITS,
    limit: Optional[int] = None,
) -> LatticeConfig:
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
    inside = spec.contains(point, prec_cap)
    while inside and len(points) != limit:
        points.append(point)
        for i in range(r - 1, -1, -1):
            x[i] += 1
            point = tuple(x)
            inside = spec.contains(point, prec_cap)
            if inside:
                break
            x[i] = 0
    return LatticeConfig(tuple(points))


def simplex_color_counts(
    spec: SimplexSpec, prec_cap: int = DEFAULT_PREC_CAP_BITS
) -> ColorCount:
    """Checkerboard tallies of the simplex lattice points."""
    white = black = 0
    for p in simplex_points(spec, prec_cap).points:
        if sum(p) % 2 == 0:
            white += 1
        else:
            black += 1
    return ColorCount(white, black)


@dataclass(frozen=True)
class BlackMajoritySearch:
    """Result of scanning thresholds for a black-majority simplex."""

    found: bool
    threshold: Optional[Fraction]
    threshold_display: Optional[str]
    integer_bound: Optional[int]
    counts: Optional[ColorCount]
    candidates_tested: int


def _rational_ceil(value_terms, den: int, prec_cap: int) -> int:
    """Smallest integer num with num/den >= the combination value."""
    mid = sum((a.sort_key() * c for a, c in value_terms), Fraction(0))
    guess = ceil(mid * den)
    # settle the guess with exact comparisons in a short walk
    while _sign_of_terms(
        list(value_terms) + [(ExactReal.of(Fraction(guess, den)), Fraction(-1))],
        prec_cap,
        "ceiling search",
    ) > 0:
        guess += 1
    while guess >= 1 and _sign_of_terms(
        list(value_terms) + [(ExactReal.of(Fraction(guess - 1, den)), Fraction(-1))],
        prec_cap,
        "ceiling search",
    ) <= 0:
        guess -= 1
    return guess


def _simplest_rational_at_least(value_terms, strict_upper_terms, prec_cap: int, max_den: int = 512):
    """Simplest p/q with value <= p/q < next value, by denominator sweep."""
    for den in range(1, max_den + 1):
        num = _rational_ceil(value_terms, den, prec_cap)
        candidate = Fraction(num, den)
        below_next = _sign_of_terms(
            list(strict_upper_terms) + [(ExactReal.of(candidate), Fraction(-1))],
            prec_cap,
            "simplest rational search",
        ) > 0
        if below_next:
            return candidate
    return None


def find_black_majority_c(
    alphas: Iterable,
    budget: int = 64,
    prec_cap: int = DEFAULT_PREC_CAP_BITS,
) -> BlackMajoritySearch:
    """Scan attained threshold values, ascending, for a black majority.

    Counts only change at attained values of the form alpha . x, so the scan
    is complete up to the budget.  The returned threshold is canonical: the
    integer bound itself when every coefficient is a logarithm of an
    integer, the attained rational for rational coefficients, and otherwise
    the simplest rational inside the black-majority window.
    """
    alpha_atoms = tuple(_as_exact(a) for a in alphas)
    if len(alpha_atoms) < 2:
        raise DomainError("at least two coefficients are required")
    for left, right in zip(alpha_atoms, alpha_atoms[1:]):
        if _sign_of_terms([(right, Fraction(1)), (left, Fraction(-1))], prec_cap,
                          "coefficient ordering") < 0:
            raise DomainError("coefficients must be sorted ascending")

    if all(a.kind == "log" for a in alpha_atoms):
        ks = [a.arg for a in alpha_atoms]
        tested = 0
        previous = None
        for value, _ in smooth_stream(ks):
            if tested >= budget:
                break
            if value == previous:  # non-coprime bases can repeat a value
                continue
            previous = value
            tested += 1
            spec = SimplexSpec(alpha_atoms, ExactReal.log(value))
            counts = simplex_color_counts(spec, prec_cap)
            if counts.black > counts.white:
                return BlackMajoritySearch(
                    True, None, f"ln({value})", value, counts, tested
                )
        return BlackMajoritySearch(False, None, None, None, None, tested)

    candidates = _attained_values(alpha_atoms, budget, prec_cap)
    tested = 0
    for idx, (terms, _) in enumerate(candidates):
        tested += 1
        counts = simplex_color_counts(SimplexSpec(alpha_atoms, terms), prec_cap)
        if counts.black > counts.white:
            if all(a.is_rational for a in alpha_atoms):
                value = sum(a.rational * c for a, c in terms) or Fraction(0)
                threshold = Fraction(value)
                display = str(threshold)
            else:
                threshold = None
                if idx + 1 < len(candidates):
                    threshold = _simplest_rational_at_least(
                        terms, candidates[idx + 1][0], prec_cap
                    )
                if threshold is None:
                    display = " + ".join(
                        f"{c}*{a}" for a, c in terms if c
                    ) or "0"
                else:
                    display = str(threshold)
            # re-verify by direct recount at the canonical threshold
            if threshold is not None:
                recounted = simplex_color_counts(
                    SimplexSpec(alpha_atoms, ExactReal.of(threshold)), prec_cap
                )
                if recounted != counts:
                    raise SelfCheckError(
                        f"recount at the canonical threshold {threshold} gives "
                        f"{recounted}, the scan gave {counts}"
                    )
            return BlackMajoritySearch(True, threshold, display, None, counts, tested)
    return BlackMajoritySearch(False, None, None, None, None, tested)


def _attained_values(alpha_atoms, budget: int, prec_cap: int):
    """First ``budget`` distinct values alpha . x, ascending by certified midpoints."""
    r = len(alpha_atoms)
    keys = [a.sort_key() for a in alpha_atoms]
    start = (0,) * r
    heap: list[tuple[Fraction, Point]] = [(Fraction(0), start)]
    seen = {start}
    out = []
    out_keys: set[Fraction] = set()
    while heap and len(out) < budget:
        key, x = heapq.heappop(heap)
        if key not in out_keys:
            out_keys.add(key)
            terms = tuple((alpha_atoms[j], Fraction(x[j])) for j in range(r))
            out.append((terms, key))
        for j in range(r):
            child = x[:j] + (x[j] + 1,) + x[j + 1:]
            if child not in seen:
                seen.add(child)
                heapq.heappush(heap, (key + keys[j], child))
    return out


@dataclass(frozen=True)
class ProfileRow:
    c: int
    white: int
    black: int
    diff: int


def rational_slope_profile(a1: int, a2: int, c_max: int) -> list[ProfileRow]:
    """White-minus-black per integer threshold for integer coefficients.

    Row counting is closed-form per horizontal lattice row, so the profile
    is exact and fast for any positive integer slopes.
    """
    if a1 < 1 or a2 < 1:
        raise DomainError("coefficients must be positive integers")
    if c_max < 1:
        raise DomainError("the horizon must be at least 1")
    rows = []
    for c in range(1, c_max + 1):
        white = black = 0
        for y in range(c // a2 + 1):
            top = (c - a2 * y) // a1  # x ranges over 0..top
            evens = top // 2 + 1
            odds = top + 1 - evens
            if y % 2 == 0:
                white += evens
                black += odds
            else:
                white += odds
                black += evens
        rows.append(ProfileRow(c, white, black, white - black))
    return rows
