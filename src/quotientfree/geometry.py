"""Lattice regions, their points, and simplex coloring in r dimensions.

The one region type is ``SimplexSpec``: the nonnegative integer points
under an exact linear constraint alpha . x <= c, whose coefficients may be
rationals, logarithms of integers, or square roots of integers, and whose
bound may be a sum of such terms.  The paper's axis-legged triangles are
its two-dimensional case: p^x q^y <= n is ln p, ln q under ln n.
``simplex_points`` walks the region by rows, one row-length decision
each, and lists their points.  ``simplex_color_counts`` puts the alphas
in descending order and walks the region by slabs, the last two
coordinates left free, and counts each slab's checkerboard colors in
bulk: floor sums for rational coefficients; for logarithms, one
power-table pass per slab, or past three dimensions one lookup in a
sorted parity table that all slabs share; and floor sums on integer
enclosures for the rest.  This module also holds the point types
(``Point``, ``LatticeConfig``, ``ColorCount``), scans thresholds for a
black majority, and tabulates the white-minus-black profile for integer
slopes.  The profile and the scan of rational alphas read one
generating-function series (``_color_series``): strided running sums give
the coefficients of prod 1/(1 - t**s), points per level, and
prod 1/(1 + t**s), their white-minus-black balance.  Other alphas, and
rationals whose smallest integer step is too large for the series to pay
or whose lead lies past the series' term bound, are scanned by a walk over
the lattice points in ascending value.
Every comparison is decided exactly: by the regions' integer filters, or
by ``_sign_of_terms`` on the atoms' memoized integer enclosures, refined
near a tie, with exact integer routes for logarithm products and single
square roots.  An undecided comparison is an error, never a guess.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, chain, compress, count, islice, pairwise, repeat, takewhile
from math import ceil, floor, gcd, isqrt, lcm, prod
from operator import add, floordiv, mul, sub
from typing import Iterable, NamedTuple, Optional, Sequence, Union

from .arith import _Record, _ascending_walk, _ln_pair, _require_stream_bound, as_fraction
from .errors import DomainError, PrecisionError, SelfCheckError

Point = tuple[int, ...]

# comparisons refine the atoms' integer pairs up to the scale 2**(PREC_CAP_BITS // 2),
# then give up
PREC_CAP_BITS = 4096
DEFAULT_SCAN_BUDGET = 64
_SORT_KEY_BITS = 200
# largest denominator of a canonical black-majority threshold
_MAX_THRESHOLD_DEN = 512
# fractional bits of the integer enclosures that decide most memberships
_FILTER_BITS = 64
# largest trial divisor when square factors are pulled out of a radicand
_SQRT_TRIAL_LIMIT = 10_000
# most keys in the sorted parity table of a log count past three dimensions
_LOG_TABLE_MAX_KEYS = 1 << 16
# the cost rule of a rational black-majority scan: the color series holds about
# the smallest integer step's number of terms per candidate, so past this step
# the point walk, which pops about one point per candidate where the values are
# that sparse, is the cheaper route; up to it the series keeps dense scans,
# such as (2, 4, 8, 1001), off the walk's budget**r points
_SERIES_MAX_STEP = 8
# candidates that a rational scan's first color series reaches at least; its
# length then doubles until a lead or the budget
_SERIES_FIRST_CANDIDATES = 8
# most terms a rational scan's color series holds: a process peaks at about
# 50 MB with three steps; a scan that they leave undecided goes to the walk,
# whose heap stays small
_SERIES_MAX_TERMS = 1 << 18


class LatticeConfig(_Record):
    """A finite set of nonnegative integer exponent vectors.

    Points are stored sorted lexicographically; this is the fixed point
    order referenced by witness tie-breaking.
    """

    __slots__ = _fields = ("points",)

    def __init__(self, points: tuple[Point, ...]):
        # exactly int: a float, string or bool coordinate is not converted
        if not set(map(type, chain.from_iterable(points))) <= {int}:
            raise DomainError("coordinates must be integers")
        if min(chain.from_iterable(points), default=0) < 0:
            raise DomainError("all coordinates must be nonnegative")
        distinct = set(points)
        if len(distinct) != len(points):
            raise DomainError("points must be distinct")
        if len(set(map(len, distinct))) > 1:
            raise DomainError("points must share one dimension")
        self.points = tuple(sorted(distinct))

    @classmethod
    def explicit(cls, points: Iterable[Sequence[int]]) -> "LatticeConfig":
        return cls(tuple(tuple(p) for p in points))

    @classmethod
    def _trusted(cls, points: tuple[Point, ...]) -> "LatticeConfig":
        """A config of points already distinct, nonnegative, of one dimension and sorted.

        The points are stored as given, without the checks of construction.
        """
        config = object.__new__(cls)
        config.points = points
        return config

    def __len__(self) -> int:
        return len(self.points)


class ColorCount(NamedTuple):
    """Checkerboard tallies: white = even coordinate sum, black = odd."""

    white: int
    black: int

    @classmethod
    def of(cls, points: Iterable[Sequence[int]]) -> "ColorCount":
        """Tally the points by the parity of their coordinate sum."""
        parities = [sum(p) % 2 for p in points]
        black = sum(parities)
        return cls(len(parities) - black, black)

    @property
    def total(self) -> int:
        return self.white + self.black

    def majority(self) -> int:
        return max(self.white, self.black)


class ExactReal(_Record):
    """A nonnegative real coefficient: rational, scale*sqrt(k), or ln(k).

    Square parts of radicands are extracted at construction: square factors
    of trial divisors up to 10**4, and a cofactor left over that is itself
    a perfect square.  So sqrt atoms with equal values compare equal
    structurally, unless a radicand has a square factor whose root exceeds
    10**4 and is not all of what is left; an exact tie between two such
    atoms is then undecided (a ``PrecisionError`` once the integer pairs
    reach the scale 2**2048 that ``PREC_CAP_BITS`` sets), never a hang.

    An atom memoizes its enclosures, the floor and ceiling of a scale
    times its value (``_scaled_pair``), once per scale, computed with
    integers alone; equality, hashing and repr read only the fields.
    """

    _fields = ("kind", "rational", "arg", "scale")

    def __init__(self, kind: str, rational: Optional[Fraction] = None,
                 arg: Optional[int] = None, scale: int = 1):
        self.kind = kind  # "rational" | "log" | "sqrt"
        self.rational = rational
        self.arg = arg
        self.scale = scale

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
        """Accepts '3', '3/2', 'ln2', 'ln(12)', 'sqrt2', 'sqrt(8)'.

        Parentheses come in pairs: 'ln(2' and 'sqrt8)' are not numbers.
        """
        text = text.strip()
        for name, make in (("ln", cls.log), ("sqrt", cls.sqrt)):
            m = re.fullmatch(name + r"(?:(\d+)|\((\d+)\))", text)
            if m:
                digits = m[1] or m[2]
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
        """Certified enclosure of the value, 2**-prec_bits wide at most.

        The value itself for a rational atom, and otherwise the
        ``_scaled_pair`` at 2**prec_bits read as Fractions.
        """
        if self.kind == "rational":
            return self.rational, self.rational
        lo, hi = self._scaled_pair(1 << prec_bits)
        return Fraction(lo, 1 << prec_bits), Fraction(hi, 1 << prec_bits)

    @cached_property
    def _scaled_pairs(self) -> dict[int, tuple[int, int]]:
        """The memo of ``_scaled_pair``, by scale."""
        return {}

    def _scaled_pair(self, scale: int) -> tuple[int, int]:
        """Floor and ceiling of scale times the atom, memoized by scale (``_enclose``)."""
        pairs = self._scaled_pairs
        if scale not in pairs:
            pairs[scale] = self._enclose(scale)
        return pairs[scale]

    def _enclose(self, scale: int) -> tuple[int, int]:
        """Floor and ceiling of scale times the atom, in integers alone.

        A rational divides once; scale * s * sqrt(k) has the floor
        isqrt(k * (scale * s)**2); a logarithm sums two atanh series in
        fixed point (``arith._ln_pair``).
        """
        if self.kind == "rational":
            scaled = self.rational * scale
            return floor(scaled), ceil(scaled)
        if self.kind == "sqrt":
            square = self.arg * (scale * self.scale) ** 2
            root = isqrt(square)
            return root, root + (root * root != square)
        return _ln_pair(self.arg, scale)

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


def _sign_of_terms(terms: Iterable[tuple[ExactReal, Fraction]], what: str) -> int:
    """Sign of a finite rational combination of exact-real atoms.

    The integer pairs (``_scaled_pair``) of the terms' own atoms decide it,
    at ``_enclosure_scale`` of the atoms, where every rational atom reads an
    exact integer: each pair weighted by its coefficient over the common
    denominator, its ends swapped for a negative weight, and a sum clear of
    zero, or exact, is the sign.  A near-tie at 2**64 goes to the exact
    routes (``_exact_sign``), and then the sums run again at 2**128,
    2**256, ... up to 2**2048, half of the fixed ``PREC_CAP_BITS`` (4096)
    in bits.  Each pair is memoized on its atom, so it serves every later
    comparison on that atom.
    """
    terms = list(terms)
    unit = _enclosure_scale([atom for atom, _ in terms], 0)
    den = lcm(*(k.denominator for _, k in terms))
    weighted = [(atom, k.numerator * (den // k.denominator)) for atom, k in terms if k]
    bits = _FILTER_BITS
    while bits <= PREC_CAP_BITS // 2:
        lo = hi = 0
        for atom, k in weighted:
            a_lo, a_hi = atom._scaled_pair(unit << bits)[::1 if k > 0 else -1]
            lo += k * a_lo
            hi += k * a_hi
        if lo > 0 or hi < 0 or lo == hi:
            return (lo > 0) - (hi < 0)
        if bits == _FILTER_BITS and (sign := _exact_sign(terms)) is not None:
            return sign
        bits *= 2
    raise PrecisionError(
        f"comparison undecided at {PREC_CAP_BITS} bits while testing {what}"
    )


def _exact_sign(terms: Sequence[tuple[ExactReal, Fraction]]) -> Optional[int]:
    """The sign by an exact route, or None where none applies.

    Equal log arguments and radicands are merged first.  The routes: no
    irrational part left; all-log with zero rational part (integer power
    comparison, the coefficients scaled to coprime integers); a single
    non-square radicand (square comparison).
    """
    const = Fraction(0)
    logs: dict[int, Fraction] = {}
    sqrts: dict[int, Fraction] = {}
    for atom, coeff in terms:
        if atom.kind == "rational":
            const += coeff * atom.rational
        elif atom.kind == "log":
            logs[atom.arg] = logs.get(atom.arg, 0) + coeff
        else:
            sqrts[atom.arg] = sqrts.get(atom.arg, 0) + coeff * atom.scale
    logs = {k: c for k, c in logs.items() if c != 0}
    sqrts = {k: c for k, c in sqrts.items() if c != 0}

    def sign(v) -> int:
        return (v > 0) - (v < 0)

    if not logs and not sqrts:
        return sign(const)
    if not sqrts and const == 0:
        # sign of sum c*ln(k), the coefficients made coprime integers by one
        # positive factor: compare the integer products on each side
        scale = lcm(*(c.denominator for c in logs.values()))
        powers = [c.numerator * (scale // c.denominator) for c in logs.values()]
        common = gcd(*powers)
        num = den = 1
        for k, power in zip(logs, powers):
            if power > 0:
                num *= k ** (power // common)
            else:
                den *= k ** (-power // common)
        return sign(num - den)
    if not logs and len(sqrts) == 1:
        ((k, c),) = sqrts.items()
        # sign of c*sqrt(k) + const; c*sqrt(k) is never a nonzero rational
        if const == 0 or sign(c) == sign(const):
            return sign(c)
        return sign(c * c * k - const * const) * sign(c)
    return None


class SimplexSpec(_Record):
    """The region alpha . x <= c over nonnegative integer vectors x.

    ``c`` is an exact real or a sum of (atom, rational coefficient) terms,
    and is stored as terms.  Construction picks how ``contains`` decides,
    once: integer products when every atom is a logarithm and c's
    coefficients are whole numbers, one integer dot product when every atom
    is rational, and certified signs of the whole combination otherwise.
    The signs route first tries integer enclosures of each alpha and of c,
    scaled by 2**64 times the rational alphas' denominators, so that every
    rational alpha reads an exact integer, and a tiny one at least 2**64:
    each atom's pair at that scale, memoized, and for c their integer sums
    weighted by c's coefficients.  Two integer dot products settle every
    point not within the enclosures' width of the boundary, in O(r) work,
    and only the rest (exact ties, say) go to ``_sign_of_terms``.  Every spec,
    ``of``'s too, is built this one way.
    """

    # ``_route`` is (route, coefficients, bound), read by ``contains``; the
    # signs route keeps its integer enclosures where the others keep
    # coefficients.  Equality, hashing and repr read alphas and c only.
    __slots__ = ("alphas", "c", "_route")
    _fields = ("alphas", "c")

    def __init__(self, alphas: tuple[ExactReal, ...],
                 c: Union[ExactReal, tuple[tuple[ExactReal, Fraction], ...]]):
        if not alphas:
            raise DomainError("at least one coefficient is required")
        _require_positive(alphas)
        if isinstance(c, ExactReal):
            terms = ((c, Fraction(1)),)
        else:
            terms = tuple((atom, Fraction(k)) for atom, k in c)
        self.alphas = alphas
        self.c = terms
        used = [(atom, k) for atom, k in terms if k]
        if all(a.kind == "log" for a in alphas) and all(
            atom.kind == "log" and k.denominator == 1 and k > 0 for atom, k in used
        ):
            route = ("log", tuple(a.arg for a in alphas),
                     prod(atom.arg ** k.numerator for atom, k in used))
        elif all(a.is_rational for a in alphas) and all(atom.is_rational for atom, _ in used):
            bound = sum((k * atom.rational for atom, k in used), Fraction(0))
            scale = lcm(bound.denominator, *(a.rational.denominator for a in alphas))
            route = ("dot", tuple(a.rational.numerator * (scale // a.rational.denominator)
                                  for a in alphas),
                     bound.numerator * (scale // bound.denominator))
        else:
            # the row ends divide by lo, which is at least 2**64
            scale = _enclosure_scale(alphas)
            lo, hi = zip(*(a._scaled_pair(scale) for a in alphas))
            # k * atom lies between k times the atom's pair ends, swapped when k < 0
            c_lo = c_hi = 0
            for atom, k in terms:
                a_lo, a_hi = atom._scaled_pair(scale)[::1 if k >= 0 else -1]
                c_lo += k.numerator * a_lo // k.denominator
                c_hi -= -k.numerator * a_hi // k.denominator
            route = "signs", (lo, hi, c_lo, c_hi), tuple((atom, -k) for atom, k in terms)
        self._route = route

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
        lo, hi, c_lo, c_hi = coeffs
        if sum(map(mul, hi, point)) <= c_lo:
            return True
        if sum(map(mul, lo, point)) > c_hi:
            return False
        terms = [(a, Fraction(x)) for a, x in zip(self.alphas, point)]
        terms += bound
        return _sign_of_terms(terms, f"membership of point {tuple(point)}") <= 0

    def _row_length(self, head: list[int]) -> int:
        """Number of points ``head + [z]`` in the region, 0 when there is none.

        ``head`` fixes every coordinate but the last, and the row's points
        are z = 0..length - 1.  Rational coefficients give the length by one
        integer division and logarithms by an integer loop on the product;
        the signs route narrows the row end with its enclosures, most often
        to one or two candidates, and bisects what is left with ``contains``.
        """
        route, coeffs, bound = self._route
        if route == "dot":
            room = bound - sum(map(mul, coeffs, head))
            return room // coeffs[-1] + 1 if room >= 0 else 0
        if route == "log":
            room = bound // prod(map(pow, coeffs, head))
            length, power = 0, 1
            while power <= room:
                power *= coeffs[-1]
                length += 1
            return length
        lo, hi, c_lo, c_hi = coeffs
        # every z above `top` fails the filter, every z up to `sure` passes it;
        # the gap can be wide (an irrational alpha's width under a large c), so bisect it
        top = (c_hi - sum(map(mul, lo, head))) // lo[-1]
        sure = max((c_lo - sum(map(mul, hi, head))) // hi[-1], -1)
        while top > sure:
            mid = (sure + top + 1) // 2
            if self.contains(head + [mid]):
                sure = mid
            else:
                top = mid - 1
        return sure + 1


def _enclosure_scale(atoms: Sequence[ExactReal], bits: int = _FILTER_BITS) -> int:
    """2**bits (2**64 by default) times the lcm of the rational atoms' denominators.

    The scale of every integer enclosure of the atoms: each rational one
    reads an exact integer of at least 2**bits there, however small.
    """
    return lcm(*(a.rational.denominator for a in atoms if a.is_rational)) << bits


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


def _walk(measure, head: list[int], fixed: int = 0):
    """(head, measure(head)) for each head whose measure is nonzero, in lex order.

    ``head`` is the walk's own list, changed when the next head is drawn:
    its first ``fixed`` coordinates stay as given, and the rest start at
    zero.  The last coordinate grows until the measure reads zero (an
    empty part of the region); then it drops to zero and the coordinate
    before it grows, so each head costs one measure, plus one per empty
    head that ends a run.  Measuring rows (``SimplexSpec._row_length``)
    walks all coordinates but the last; measuring slabs walks all but the
    last two.
    """
    coords = range(len(head) - 1, fixed - 1, -1)
    value = measure(head)
    while value:
        yield head, value
        for i in coords:
            head[i] += 1
            value = measure(head)
            if value:
                break
            head[i] = 0
        else:
            return


def _tally(rows) -> tuple[int, int]:
    """(total, white) of the rows (head, length) that ``_walk`` yields.

    A row's last coordinates are 0..length - 1, so its color split is
    closed-form.
    """
    total = white = 0
    for head, length in rows:
        total += length
        white += (length + 1 - sum(head) % 2) // 2  # last coordinates of head's parity
    return total, white


def _floor_sum(n: int, m: int, a: int, b: int) -> int:
    """Sum of floor((a*i + b) / m) over i = 0..n-1, for n, a, b >= 0 and m >= 1.

    The Euclid-like reduction of the AtCoder Library's ``floor_sum``: strip
    the whole parts of a/m and b/m, then count the lattice points under
    the line with the roles of m and a swapped.  It stops once the last
    term left is zero, not once the line's end is, so the steps are
    O(log n) however long the continued fraction of a/m runs.
    """
    total = 0
    while True:
        whole_a, a = divmod(a, m)
        whole_b, b = divmod(b, m)
        total += n * (n - 1) // 2 * whole_a + n * whole_b
        end = a * n + b
        if end - a < m:  # the largest term left, floor((a*(n-1) + b)/m), is zero
            return total
        n, b = divmod(end, m)
        m, a = a, m


def _line_total(a: int, b: int, room: int) -> int:
    """Number of points a*y + b*z <= room with y, z >= 0, for positive integers a, b.

    Row y holds floor((room - a*y)/b) + 1 points; read from the last row
    up, room - a*y runs through room % a + a*i.
    """
    if room < 0:
        return 0
    rows = room // a + 1
    return _floor_sum(rows, b, a, room % a) + rows


def _line_white(a: int, b: int, room: int, parity: int) -> int:
    """White points of a*y + b*z <= room (room >= 0) behind a head of the given parity.

    Row y has u = room - a*y and E = floor(u/b).  It holds floor(E/2) + 1
    white points when parity + y is even and floor((E + 1)/2) when it is
    odd, and since floor(floor(u/b)/2) = floor(u/(2b)) those are
    floor(u/(2b)) + 1 and floor((u + b)/(2b)).  Each parity class of y is
    then one floor sum in steps of 2a.
    """
    white = 0
    rows = room // a + 1
    for first in (0, 1):
        n = (rows - first + 1) // 2  # the rows y = first, first + 2, ...
        odd = (parity + first) % 2
        low = room - a * (first + 2 * (n - 1))  # u at the last of them
        white += _floor_sum(n, 2 * b, 2 * a, low + odd * b) + n - odd * n
    return white


def _powers(base: int, bound: int) -> list[int]:
    """base**k for k = 0, 1, ... while it is at most bound (>= 1)."""
    powers = [1]
    while powers[-1] * base <= bound:
        powers.append(powers[-1] * base)
    return powers


def _slab_counter(spec: SimplexSpec):
    """The (total, white) of a slab as a function of its head.

    A slab fixes every coordinate but the last two, ``head``, and the
    function reads 0 when it holds no point.  The ``dot`` route counts a
    slab by floor sums (``_line_total``, ``_line_white``).  The ``log``
    route divides the bound by the head's product once, leaving the slab's
    room.  With two or more head coordinates it sorts, once, the keys
    2*y**i*z**j + ((i + j) mod 2) over the last two bases y, z up to the
    bound, and keeps a running count of the odd keys: a slab's total is
    then one ``bisect_right`` at 2*room + 1, and its odd points one
    lookup, O(log S) for S keys.  With fewer there are too few slabs to
    pay for a table of S keys (one in 2-D, and at r = 3 the table was no
    faster than the rows), and past ``_LOG_TABLE_MAX_KEYS`` keys, counted
    before any is made, the table would hold too much memory; then every
    row end is found by ``bisect_right`` on a power table of the last
    base.  The ``signs`` route runs the floor sums on its two integer
    enclosures of the slab: sure <= end <= top holds row by row, so equal
    totals certify every row end, and only a slab where they differ (an
    exact tie, say) is walked row by row with ``_row_length``.
    """
    route, coeffs, bound = spec._route
    if route == "dot":
        *rest, a, b = coeffs

        def dot_slab(head):
            room = bound - sum(map(mul, rest, head))
            return room >= 0 and (_line_total(a, b, room), _line_white(a, b, room, sum(head) % 2))

        return dot_slab
    if route == "log":
        *rest, y_base, z_base = coeffs
        y_powers, z_powers = _powers(y_base, bound), _powers(z_base, bound)
        if len(rest) >= 2 and sum(
                map(bisect_right, repeat(z_powers), map(bound.__floordiv__, y_powers))
        ) <= _LOG_TABLE_MAX_KEYS:
            # one table for every slab: the keys 2*y**i*z**j + (i + j) % 2 of
            # the whole bound, sorted, and how many of the first k are odd
            keys = sorted(2 * y * z + (i + j) % 2
                          for i, y in enumerate(y_powers)
                          for j, z in enumerate(takewhile((bound // y).__ge__, z_powers)))
            odd = list(accumulate(map((1).__and__, keys), initial=0))

            def table_slab(head):
                # the slab's points are the keys up to 2*room + 1
                total = bisect_right(keys, 2 * (bound // prod(map(pow, rest, head))) + 1)
                return total and (total, odd[total] if sum(head) % 2 else total - odd[total])

            return table_slab
        even_z, odd_z = z_powers[::2], z_powers[1::2]

        def log_slab(head):
            room = bound // prod(map(pow, rest, head))
            # what is left of the bound in each row y: room // y_base**y
            rooms = list(map(room.__floordiv__, takewhile(room.__ge__, y_powers)))
            total = sum(map(bisect_right, repeat(z_powers), rooms))
            # white z are even in the rows of the head's parity, odd in the others
            parity = sum(head) % 2
            white = (sum(map(bisect_right, repeat(even_z), rooms[parity::2]))
                     + sum(map(bisect_right, repeat(odd_z), rooms[1 - parity::2])))
            return total and (total, white)

        return log_slab
    lo, hi, c_lo, c_hi = coeffs
    *lo_rest, lo_y, lo_z = lo
    *hi_rest, hi_y, hi_z = hi

    def signs_slab(head):
        top = _line_total(lo_y, lo_z, c_hi - sum(map(mul, lo_rest, head)))
        if not top:
            return 0
        room = c_lo - sum(map(mul, hi_rest, head))
        if _line_total(hi_y, hi_z, room) == top:
            return top, _line_white(hi_y, hi_z, room, sum(head) % 2)
        # some row end lies between the enclosures: decide the slab's rows
        tally = _tally(_walk(spec._row_length, [*head, 0], len(head)))
        return tally[0] and tally

    return signs_slab


def simplex_points(spec: SimplexSpec, limit: Optional[int] = None) -> LatticeConfig:
    """All nonnegative integer points of the region, in lex order.

    The points are read off the rows that ``_walk`` draws: one row-length
    decision per row, not one membership test per point.  With ``limit``,
    the listing stops once it holds ``limit`` points, the last row cut
    short before it is built.
    """
    points: list[Point] = []
    for head, length in _walk(spec._row_length, [0] * (len(spec.alphas) - 1)):
        if limit is not None and limit - len(points) <= length:
            points += [(*head, z) for z in range(limit - len(points))]
            break
        points += [(*head, z) for z in range(length)]
    # distinct, nonnegative and in lex order by construction
    return LatticeConfig._trusted(tuple(points))


def _descending(spec: SimplexSpec) -> SimplexSpec:
    """The spec with its alphas in descending order, smallest last.

    The order is read off the route's own integers: the logarithms'
    arguments, the dot coefficients, or the upper enclosures.  Ties keep
    their order, and a spec already in order is returned as it is; a
    rebuilt one reuses its atoms' memoized enclosures.
    """
    route, coeffs, _ = spec._route
    keys = coeffs[1] if route == "signs" else coeffs
    order = sorted(range(len(keys)), key=keys.__getitem__, reverse=True)
    if order == list(range(len(keys))):
        return spec
    return SimplexSpec(tuple(map(spec.alphas.__getitem__, order)), spec.c)


def simplex_color_counts(spec: SimplexSpec) -> ColorCount:
    """Checkerboard tallies of the simplex lattice points, slab by slab.

    The color is the parity of the coordinate sum, so the order of the
    alphas leaves the counts as they are, and the count takes them in
    descending order (``_descending``), the smallest last.  A slab fixes
    every coordinate but the last two, and ``_walk`` draws the slabs that
    hold a point, so only the first r - 2 coordinates, those of the
    largest alphas, are walked.  Each slab is counted in bulk by its route
    (``_slab_counter``): floor sums in O(log) steps for rational
    coefficients, one power-table pass or, past three dimensions, one
    table lookup for logarithms, and floor sums on the integer enclosures
    for the rest, with the slab's rows decided one by one only where the
    enclosures disagree.  One dimension counts by rows instead, one
    row-length decision for its one row.
    """
    r = len(spec.alphas)
    if r == 1:
        total, white = _tally(_walk(spec._row_length, []))
    else:
        total = white = 0
        for _, (slab_total, slab_white) in _walk(_slab_counter(_descending(spec)), [0] * (r - 2)):
            total += slab_total
            white += slab_white
    return ColorCount(white, total - white)


class BlackMajoritySearch(NamedTuple):
    """Result of scanning thresholds for a black-majority simplex."""

    found: bool
    threshold: Optional[Fraction]
    threshold_display: Optional[str]
    integer_bound: Optional[int]
    counts: Optional[ColorCount]
    candidates_tested: int


def _simplest(lo: Fraction, hi: Optional[Fraction], lo_closed: bool, hi_closed: bool) -> Fraction:
    """The fraction of least denominator, then least numerator, from lo to hi.

    0 <= lo <= hi, and hi None is no upper end.  The Stern-Brocot descent
    (Graham, Knuth and Patashnik, Concrete Mathematics, 4.5): take the
    first integer t at or past lo; if it lies before hi, it is the answer.
    Otherwise lo and hi share their whole part n, and the answer is n + 1/y
    for the simplest y between 1/(hi - n) and 1/(lo - n), whose ends and
    their closedness swap.  p0/q0 and p1/q1 are the last two convergents.
    """
    p0, q0, p1, q1 = 0, 1, 1, 0
    while True:
        n = floor(lo)
        t = n if n == lo and lo_closed else n + 1
        if t == n or hi is None or t < hi or t == hi and hi_closed:
            return Fraction(t * p1 + p0, t * q1 + q0)
        lo, hi = 1 / (hi - n), None if lo == n else 1 / (lo - n)
        lo_closed, hi_closed = hi_closed, lo_closed
        p0, q0, p1, q1 = p1, q1, n * p1 + p0, n * q1 + q0


def _simplest_rational_at_least(alpha_atoms, x, following) -> Optional[Fraction]:
    """The fraction of least denominator in [alpha . x, alpha . following).

    None when that denominator exceeds ``_MAX_THRESHOLD_DEN``.  The alphas'
    integer pairs at ``_enclosure_scale`` give an inner interval
    [x . hi, following . lo), inside the window, and an outer one
    [x . lo, following . hi), which holds it.  Between two fractions of one
    denominator q >= 2 lies one of a smaller denominator, so each interval
    has one fraction of least denominator.  The outer's (``_simplest``) is
    then the window's once it lies in the inner; if its denominator
    exceeds the cap, so does the window's.  Otherwise the scale is
    multiplied by 2**64 and the pairs are read again.  This ends: an end
    whose vector has an irrational coordinate is irrational, and one whose
    vector has none reads its exact value from the pairs.  Past 2**2048,
    half of ``PREC_CAP_BITS`` in bits, it raises ``PrecisionError``.
    """
    bits = _FILTER_BITS
    while bits <= PREC_CAP_BITS // 2:
        scale = _enclosure_scale(alpha_atoms, bits)
        lo, hi = zip(*(a._scaled_pair(scale) for a in alpha_atoms))
        simplest = _simplest(Fraction(sum(map(mul, x, lo)), scale),
                             Fraction(sum(map(mul, following, hi)), scale), True, False)
        if simplest.denominator > _MAX_THRESHOLD_DEN:
            return None
        if sum(map(mul, x, hi)) <= simplest * scale < sum(map(mul, following, lo)):
            return simplest
        bits += _FILTER_BITS
    raise PrecisionError(
        f"comparison undecided at {PREC_CAP_BITS} bits while testing the threshold window"
    )


def find_black_majority_c(
    alphas: Iterable, budget: int = DEFAULT_SCAN_BUDGET
) -> BlackMajoritySearch:
    """Scan attained threshold values, ascending, for a black majority.

    Counts only change at attained values of the form alpha . x, so the scan
    is complete up to the budget.  Two routes find the candidates and their
    counts, and neither builds a region per candidate.  Rational alphas,
    scaled to coprime integer steps, go to their generating functions
    (``_series_lead``): the candidates are the levels with a point, and a
    running sum of the color series is each one's white-minus-black
    balance.  That costs about budget times the smallest step in series
    terms, so a smallest step past ``_SERIES_MAX_STEP`` (sparse values such
    as 100000, 100001) goes to the walk instead, and so does a scan that
    ``_SERIES_MAX_TERMS`` terms leave undecided, which the series would
    otherwise hold in memory all at once.  Logarithms, mixed alphas and
    those rationals take the walk of ``_attained_values``, which decides
    the order of its values exactly, so a candidate's counts are the tally
    that the walk yields with the next value.  The returned
    threshold is canonical: the integer bound itself when every coefficient
    is a logarithm of an integer, the attained rational for rational
    coefficients, and otherwise the fraction of least denominator in the
    black-majority window, which a Stern-Brocot descent finds on the alphas'
    integer pairs (``_simplest_rational_at_least``) with no
    ``_sign_of_terms`` call.  ``simplex_color_counts`` recounts the region
    at a canonical threshold as a second route; it shares the scan's alpha
    atoms, so each alpha is enclosed once per scan.
    """
    _require_stream_bound("budget", budget)
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
    if all_rational:
        # alpha . x = (steps . x) * common / den, for coprime integer steps
        den = lcm(*(a.rational.denominator for a in alpha_atoms))
        steps = [a.rational.numerator * (den // a.rational.denominator) for a in alpha_atoms]
        common = gcd(*steps)
        steps = [s // common for s in steps]
        lead = _series_lead(steps, budget) if steps[0] <= _SERIES_MAX_STEP else False
        if lead is None:
            return BlackMajoritySearch(False, None, None, None, None, budget)
        if lead:
            tested, level, counts = lead
            threshold = Fraction(level * common, den)
            _recount(alpha_atoms, ExactReal.of(threshold), str(threshold), counts)
            return BlackMajoritySearch(True, threshold, str(threshold), None, counts, tested)

    # one value of lookahead: its tally counts the region up to this value,
    # and the window of a black majority ends there
    values = pairwise(islice(_attained_values(alpha_atoms), budget + 1))
    for tested, ((key, x, _), (_, following, tally)) in enumerate(values, 1):
        counts = ColorCount(*tally)
        if counts.black <= counts.white:
            continue
        if all_logs:
            threshold, bound, display = None, ExactReal.log(key), f"ln({key})"
        else:
            if all_rational:
                threshold = key
            elif tested < budget:
                threshold = _simplest_rational_at_least(alpha_atoms, x, following)
            else:  # the window's end lies past the budget
                threshold = None
            bound = None if threshold is None else ExactReal.of(threshold)
            display = (" + ".join(f"{c}*{a}" for a, c in zip(alpha_atoms, x) if c) or "0"
                       if threshold is None else str(threshold))
        if bound is not None:
            _recount(alpha_atoms, bound, display, counts)
        integer_bound = key if all_logs else None
        return BlackMajoritySearch(True, threshold, display, integer_bound, counts, tested)
    return BlackMajoritySearch(False, None, None, None, None, budget)


def _recount(alpha_atoms, bound: ExactReal, display: str, counts: ColorCount) -> None:
    """Re-verify a scan's counts by direct recount at its canonical threshold.

    ``simplex_color_counts`` counts the region under ``bound``, the alphas
    descending as the count takes them, and a count that differs from the
    scan's raises ``SelfCheckError``.
    """
    recounted = simplex_color_counts(SimplexSpec(alpha_atoms[::-1], bound))
    if recounted != counts:
        raise SelfCheckError(
            f"recount at the canonical threshold {display} gives "
            f"{recounted}, the scan gave {counts}"
        )


def _color_series(steps: Sequence[int], length: int) -> tuple[list[int], list[int]]:
    """The first ``length`` coefficients of prod 1/(1 - t**s) and prod 1/(1 + t**s).

    Over the positive integer steps s: the coefficient n(j) of t**j in the
    first is the number of points x >= 0 with steps . x = j, and d(j) in
    the second is their white-minus-black balance, since each point adds
    (-1)**(x_1 + ... + x_r) (Stanley, Enumerative Combinatorics I, 4.4).
    Each factor is one ``_divide_series`` pass.
    """
    n = [1] + [0] * (length - 1)
    d = n.copy()
    for s in steps:
        _divide_series(n, s, False)
        _divide_series(d, s, True)
    return n, d


def _series_lead(steps: Sequence[int],
                 budget: int) -> Union[tuple[int, int, ColorCount], None, bool]:
    """(candidates tested, level, counts) of the first black majority, None, or False.

    The candidates are the levels j with a point, n(j) > 0 (``_color_series``),
    ascending, and the region up to level j holds the running sums of n and
    d, d's sum being white minus black.  d(j) is nonzero only at a level
    with a point, so the running balance first turns negative at a
    candidate.  The levels 0, s, 2s, ... of the smallest step s all hold a
    point, so the budget-th candidate lies at or below (budget - 1) * s;
    the series starts long enough for ``_SERIES_FIRST_CANDIDATES`` of them
    and doubles up to that length, so an early lead stays cheap.  None when
    the first budget candidates hold no black majority, and False when
    ``_SERIES_MAX_TERMS`` terms decide neither way.
    """
    step = min(steps)
    full = (budget - 1) * step + 1
    length = min(full, _SERIES_FIRST_CANDIDATES * step + 1, _SERIES_MAX_TERMS)
    while True:
        n, d = _color_series(steps, length)
        balance = list(accumulate(d))
        lead = next(compress(count(), map((0).__gt__, balance)), None)
        if lead is None:
            if length - n.count(0) >= budget:
                return None
            if length == _SERIES_MAX_TERMS:
                return False
        else:
            tested = lead + 1 - n[:lead + 1].count(0)
            if tested > budget:
                return None
            total = sum(n[:lead + 1])
            white = (total + balance[lead]) // 2
            return tested, lead, ColorCount(white, total - white)
        length = min(2 * length, full, _SERIES_MAX_TERMS)


def _attained_values(alpha_atoms):
    """The distinct values alpha . x, ascending, as (key, x, tally), lazily.

    The walk runs on integers.  When every alpha is a logarithm, the key is
    the integer product of k_i**x_i, so values are ordered and told apart
    exactly.  Otherwise it is the sum of x_i times the 200-bit interval
    midpoint of alpha_i (``ExactReal.sort_key``), walked as an integer
    multiple of 1/L, L the lcm of the midpoints' denominators, and yielded
    as a Fraction.  For rational alphas that key is the value itself.  For
    the rest it only orders the walk, and each step is decided exactly by
    ``_sign_of_terms``, on the alphas' integer pairs at the ``SimplexSpec``
    scale first: alpha . (x - previous x) > 0 starts a new value, 0 merges
    x into the current one (3*ln 2 and ln 8, say), and < 0 raises
    ``PrecisionError``.  Each value comes with the first x popped for it
    and the (white, black) tally of every vector popped before it, which
    counts the region up to the previous value.  Only steps between popped
    vectors are checked: a vector not yet popped can hold a smaller value
    only within the midpoints' error, about 2**-200 per unit of x.
    """
    if all(a.kind == "log" for a in alpha_atoms):
        scale, walk = None, _ascending_walk(1, tuple(a.arg for a in alpha_atoms), mul)
    else:
        keys = [a.sort_key() for a in alpha_atoms]
        scale = lcm(*(k.denominator for k in keys))
        steps = tuple(k.numerator * (scale // k.denominator) for k in keys)
        walk = _ascending_walk(0, steps, add)
    # logarithms' and rationals' keys are the values themselves
    mixed = scale is not None and not all(a.is_rational for a in alpha_atoms)
    tally = [0, 0]  # white (even coordinate sum), black
    last_key = last_x = None
    for key, x in walk:
        if not mixed or last_x is None:
            new = key != last_key  # keys come in order, so equal keys are adjacent
        else:
            sign = _sign_of_terms(zip(alpha_atoms, map(sub, x, last_x)), "threshold order")
            if sign < 0:
                raise PrecisionError(
                    f"threshold order: the walk's midpoint keys put {x} after {last_x}, "
                    "whose value is larger"
                )
            new = sign > 0
        if new:
            yield (key if scale is None else Fraction(key, scale)), x, tuple(tally)
        last_key, last_x = key, x
        tally[sum(x) % 2] += 1


class ProfileRow(NamedTuple):
    """One threshold c of ``rational_slope_profile``, with diff = white - black."""

    c: int
    white: int
    black: int
    diff: int


def _divide_series(series: list[int], step: int, plus: bool) -> None:
    """Multiply a truncated power series in place by 1/(1 - t**step), or 1/(1 + t**step).

    1/(1 - t**step) makes each residue class mod step its running sums,
    and 1/(1 + t**step) is (1 - t**step)/(1 - t**(2*step)): a difference
    of the series with its shift by step, then running sums mod 2*step.
    """
    if plus:
        series[step:] = map(sub, series[step:], series[:-step])
        step *= 2
    for r in range(min(step, len(series))):
        series[r::step] = accumulate(series[r::step])


def _slope_columns(a1: int, a2: int, c_max: int) -> tuple[list[int], list[int], list[int]]:
    """White, black and white-minus-black per integer threshold c = 1..c_max, as columns.

    The points on the line a1*x + a2*y = j and their white-minus-black
    balance are the coefficients of t**j in 1/((1 - t**a1)(1 - t**a2)) and
    1/((1 + t**a1)(1 + t**a2)) (``_color_series``), and threshold c holds
    their running sums up to c, so the whole profile costs O(c_max) integer
    steps with no Python-level step per c.  ``slope-profile`` prints these
    columns without a record per row.
    """
    if a1 < 1 or a2 < 1:
        raise DomainError("coefficients must be positive integers")
    if c_max < 1:
        raise DomainError("the horizon must be at least 1")
    n, d = _color_series((a1, a2), c_max + 1)
    totals = list(accumulate(n))[1:]
    diffs = list(accumulate(d))[1:]
    whites = list(map(floordiv, map(add, totals, diffs), repeat(2)))
    blacks = list(map(sub, totals, whites))
    return whites, blacks, diffs


def rational_slope_profile(a1: int, a2: int, c_max: int) -> list[ProfileRow]:
    """White-minus-black per integer threshold for integer coefficients.

    The rows are ``NamedTuple``s (c, white, black, diff), c = 1..c_max,
    read off the columns of ``_slope_columns``.
    """
    return list(map(ProfileRow, count(1), *_slope_columns(a1, a2, c_max)))
