"""Exact integer and rational foundations.

Pairwise-coprime bases for sets of forbidden quotients, smooth-number
enumeration, counting of integers coprime to a basis, and integer
enclosures of logarithms.  Every membership and ordering decision here is
made in exact integer arithmetic; floating point never decides anything.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, compress
from math import gcd, lcm
from operator import itemgetter, mul
from sys import maxsize
from typing import Iterable, Iterator, NamedTuple, Sequence, Union

from .errors import BudgetError, DomainError

RationalLike = Union[int, str, Fraction]
Vector = tuple[int, ...]


def as_fraction(value: RationalLike) -> Fraction:
    """Parse an int, Fraction, or 'p/q' string into an exact Fraction."""
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise DomainError(f"not a rational number: {value!r}") from exc


def _require_work_bound(name: str, value: int) -> None:
    """Reject a budget, cap or round limit below 1."""
    if value < 1:
        raise DomainError(f"{name} must be at least 1, got {value}")


def _require_stream_bound(name: str, value: int) -> None:
    """Also reject a term count that ``islice`` cannot take with one lookahead."""
    _require_work_bound(name, value)
    if value >= maxsize:
        raise BudgetError(f"{name} = {value} is past the limit of {maxsize - 1}")


def exact_sum(fractions: Iterable[Fraction]) -> Fraction:
    """Sum fractions by pairwise (tree) reduction.

    Keeps intermediate denominators near the lcm of the inputs instead of
    their product, which is what makes 10^5-term harmonic sums feasible.
    """
    items = list(fractions)
    if not items:
        return Fraction(0)
    while len(items) > 1:
        paired = [items[i] + items[i + 1] for i in range(0, len(items) - 1, 2)]
        if len(items) % 2:
            paired.append(items[-1])
        items = paired
    return items[0]


def _factor(n: int) -> dict[int, int]:
    """Trial-division prime factorization; inputs are desk-scale."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _require_coprime(values: Iterable[int]) -> tuple[int, ...]:
    """The values as a tuple, once checked to be a nonempty, strictly
    increasing sequence of pairwise-coprime integers greater than 1."""
    vals = tuple(values)
    if not vals:
        raise DomainError("the set must be nonempty")
    for v in vals:
        if not isinstance(v, int) or v <= 1:
            raise DomainError(f"elements must be integers greater than 1, got {v}")
    if any(x >= y for x, y in zip(vals, vals[1:])):
        raise DomainError(f"elements must be strictly increasing, got {vals}")
    for a, b in combinations(vals, 2):
        if gcd(a, b) != 1:
            raise DomainError(f"elements not pairwise coprime: gcd({a},{b}) > 1")
    return vals


class _Record:
    """Equality, hashing and repr by the fields named in ``_fields``.

    The base of the records that are plain classes rather than NamedTuples:
    those that keep cached properties, do work at construction, or have a
    length that is not their number of fields.  As with a frozen dataclass,
    a record equals only a record of its own class with equal fields.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({shown})"


class RationalSet(NamedTuple):
    """A finite set of forbidden quotients, stored as reduced fractions.

    Elements are positive, distinct, and never 1 (a set containing 1 could
    not avoid the quotient x/x in any interesting sense).
    """

    elements: tuple[Fraction, ...]

    @classmethod
    def of(cls, items: Iterable[RationalLike]) -> "RationalSet":
        elems = []
        for item in items:
            f = as_fraction(item)
            if f <= 0:
                raise DomainError(f"quotients must be positive, got {f}")
            if f == 1:
                raise DomainError("the quotient 1 is not allowed")
            elems.append(f)
        if not elems:
            raise DomainError("the quotient set must be nonempty")
        if len(set(elems)) != len(elems):
            raise DomainError("quotients must be distinct")
        return cls(tuple(sorted(elems)))

    def is_coprime_integers(self) -> bool:
        """True when all elements are integers > 1 and pairwise coprime."""
        ints = [f for f in self.elements if f.denominator == 1]
        if len(ints) != len(self.elements):
            return False
        vals = [f.numerator for f in ints]
        return all(gcd(a, b) == 1 for a, b in combinations(vals, 2))


class _BasisFields(NamedTuple):
    basis: tuple[int, ...]
    diffs: tuple[Vector, ...]


class CoprimeBasis(_BasisFields):
    """Pairwise-coprime basis plus the exponent vectors of the quotients.

    ``basis`` is strictly increasing with entries > 1 and pairwise coprime;
    ``diffs`` holds one integer exponent vector per quotient, never zero.
    Both are checked at construction.
    """

    __slots__ = ()

    def __new__(cls, basis: tuple[int, ...], diffs: tuple[Vector, ...]) -> "CoprimeBasis":
        _require_coprime(basis)
        for vec in diffs:
            if len(vec) != len(basis):
                raise DomainError("difference vector length must match basis size")
            if all(v == 0 for v in vec):
                raise DomainError("difference vectors must be nonzero")
        return tuple.__new__(cls, (basis, diffs))

    @classmethod
    def from_coprime_integers(cls, values: Sequence[int]) -> "CoprimeBasis":
        """Basis equal to the integer set itself, one unit vector per element."""
        vals = tuple(values)
        s = len(vals)
        units = tuple(tuple(1 if j == i else 0 for j in range(s)) for i in range(s))
        return cls(vals, units)

    @property
    def size(self) -> int:
        return len(self.basis)


def derive_basis(a_set: RationalSet) -> CoprimeBasis:
    """Factor every quotient over the primes of its numerator and denominator.

    Always returns the prime basis, ascending, so the result is canonical.
    """
    primes: set[int] = set()
    for f in a_set.elements:
        primes.update(_factor(f.numerator))
        primes.update(_factor(f.denominator))
    basis = tuple(sorted(primes))
    index = {p: i for i, p in enumerate(basis)}
    diffs = []
    for f in a_set.elements:
        vec = [0] * len(basis)
        for p, e in _factor(f.numerator).items():
            vec[index[p]] += e
        for p, e in _factor(f.denominator).items():
            vec[index[p]] -= e
        diffs.append(tuple(vec))
    return CoprimeBasis(basis, tuple(diffs))


def _basis_ints(basis) -> tuple[int, ...]:
    """The basis as a tuple of integers, each at least 2.

    Common factors are allowed; a unit, zero or negative element is not,
    since its powers never grow.
    """
    if isinstance(basis, CoprimeBasis):
        return basis.basis
    b = tuple(basis)
    for v in b:
        if not isinstance(v, int) or v < 2:
            raise DomainError(f"basis elements must be integers greater than 1, got {v!r}")
    return b


class SmoothSequence(_Record):
    """All basis-smooth integers up to a bound, ascending, with exponents."""

    __slots__ = _fields = ("values", "exponents")

    def __init__(self, values: tuple[int, ...], exponents: tuple[Vector, ...]):
        self.values = values
        self.exponents = exponents

    def __len__(self) -> int:
        return len(self.values)

    def entries(self) -> Iterator[tuple[int, Vector]]:
        return zip(self.values, self.exponents)


def _ascending_walk(start, steps, combine) -> Iterator[tuple]:
    """Yield (key, exponents) over every exponent vector, ascending by that pair.

    The origin has key ``start``; raising coordinate j maps a key k to
    ``combine(k, steps[j])``, which must exceed k.  Vectors are merged
    through a heap in which each vector has one parent: the vector less one
    in its last nonzero coordinate.  So a popped vector pushes only the
    children that raise a coordinate at or after that one, each vector is
    pushed exactly once, and no seen-set is kept.  Heap items carry that
    coordinate third; it is never compared, since the (key, exponents)
    pairs are distinct.
    """
    s = len(steps)
    heap: list[tuple] = [(start, (0,) * s, 0)]
    while heap:
        key, exps, low = heapq.heappop(heap)
        yield key, exps
        for j in range(low, s):
            child = exps[:j] + (exps[j] + 1,) + exps[j + 1:]
            heapq.heappush(heap, (combine(key, steps[j]), child, j))


def smooth_stream(basis) -> Iterator[tuple[int, Vector]]:
    """Yield (value, exponents) of basis-smooth integers in ascending order.

    Equal values (a basis with common factors) come out in exponent order.
    """
    yield from _ascending_walk(1, _basis_ints(basis), mul)


@lru_cache(maxsize=8)
def _exponent_labels(size: int) -> tuple[tuple[Vector, ...], tuple[str, ...], tuple[str, ...]]:
    """Three labels of each exponent k < size: (k,), "k" and ", k"."""
    digits = tuple(map(str, range(size)))
    return tuple((k,) for k in range(size)), digits, tuple(", " + d for d in digits)


def _nested_products(b: tuple[int, ...], bound: int, start, first, later) -> tuple[tuple, tuple]:
    """(values, labels) of the b-smooth integers <= bound, ascending.

    The integer with exponents (k_1, ..., k_s) is labelled ``start +
    first[k_1] + later[k_2] + ... + later[k_s]``; every k has 2^k <= bound,
    so tables of ``bound.bit_length()`` entries are enough.  Built by
    nested products, one basis element at a time, which lists the exponent
    vectors in lexicographic order; one stable sort by value then gives the
    order of ``smooth_stream``, equal values in exponent order.
    """
    if bound < 1:
        raise DomainError("bound must be at least 1")
    entries, tail = [(1, start)], first
    for bj in b:
        grown = []
        for value, label in entries:
            k = 0
            while value <= bound:
                grown.append((value, label + tail[k]))
                value *= bj
                k += 1
        entries, tail = grown, later
    entries.sort(key=itemgetter(0))
    values, labels = zip(*entries)
    return values, labels


def enumerate_smooth(basis, bound: int) -> SmoothSequence:
    """All basis-smooth integers <= bound with their exponent vectors."""
    b = _basis_ints(basis)
    singletons = _exponent_labels(int(bound).bit_length())[0]
    return SmoothSequence(*_nested_products(b, bound, (), singletons, singletons))


def smooth_exponent_rows(basis, bound: int) -> tuple[tuple[int, ...], tuple[str, ...]]:
    """``enumerate_smooth``'s values, and each exponent vector as decimal text.

    Row i is ``", ".join(map(str, exponents[i]))``, grown label by label in
    the same walk, so no exponent tuple is built.
    """
    b = _basis_ints(basis)
    _, digits, later = _exponent_labels(int(bound).bit_length())
    return _nested_products(b, bound, "", digits, later)


def _pair_prefix(p: int, q: int) -> Iterator[tuple[int, int, int, bool, bool]]:
    """Yield (m_t, a, b, gain_t, kept_t) for t = 1, 2, ... for a coprime pair p < q.

    m_t = p^a * q^b is the t-th {p, q}-smooth integer.  By the paper's
    theorem, f(t), the largest quotient-free subset of the first t values,
    is the larger of the two exponent-sum parity classes among them.
    ``gain_t`` is f(t) - f(t-1), so True exactly when m_t's class is then
    strictly ahead, and ``kept_t`` is True when a maximum set of the first
    t keeps the black (odd a + b) class, white on ties.  Only this stream
    decides the majority and its ties; consumers read the two flags.

    A two-pointer merge: every value above 1 is p or q times an earlier
    one, and only the window above the lagging pointer is kept.
    """
    # window[i] * p and window[j] * q are the next candidates, j <= i since
    # p < q; an entry (m, a, b) is m = p^a * q^b
    window = [(1, 0, 0)]
    i = j = 0
    next_p, next_q = p, q
    value, a, b, lead, gain = 1, 0, 0, 1, True  # lead: white less black count
    while True:
        yield value, a, b, gain, lead < 0
        if next_p < next_q:
            value = next_p
            _, a, b = window[i]
            a += 1
            window.append((value, a, b))
            i += 1
            next_p = window[i][0] * p
        else:
            value = next_q
            _, a, b = window[j]
            b += 1
            window.append((value, a, b))
            if next_p == value:
                i += 1
                next_p = window[i][0] * p
            j += 1
            next_q = window[j][0] * q
            # no pointer reads below j again: drop those values once they
            # are half the list, so it stays near the merge window
            if 2 * j > len(window):
                del window[:j]
                i -= j
                j = 0
        if (a + b) & 1:
            lead -= 1
            gain = lead < 0
        else:
            lead += 1
            gain = lead > 0


@lru_cache(maxsize=64)
def _signed_subset_lcms(b: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """(sign, lcm) over every subset of the basis: the inclusion-exclusion terms.

    The integers up to x divisible by every element of a subset are the
    multiples of its lcm, which is the product only for coprime elements.
    """
    return tuple(
        (-1 if k % 2 else 1, lcm(*combo))
        for k in range(len(b) + 1)
        for combo in combinations(b, k)
    )


def count_coprime_part(basis, x: int) -> int:
    """|{n <= x : no basis element divides n}| by inclusion-exclusion."""
    if x < 1:
        raise DomainError("bound must be at least 1")
    # the basis is checked before the cache sees it: (2, 3.0) hashes and
    # compares equal to (2, 3); a plain loop costs less than a generator sum
    total = 0
    for sign, d in _signed_subset_lcms(_basis_ints(basis)):
        total += sign * (x // d)
    return total


def coprime_part_mask(basis, x: int) -> bytearray:
    """mask[n] = 1 exactly for the n <= x divisible by no basis element (a sieve).

    The mask has x + 1 bytes (one for x < 1), and mask[0] = 0.
    """
    basis = _basis_ints(basis)
    x = max(x, 0)
    mask = bytearray([1]) * (x + 1)
    mask[0] = 0
    for b in basis:
        mask[::b] = bytes(x // b + 1)  # every multiple of b
    return mask


def coprime_part_list(basis, x: int) -> list[int]:
    """Ascending list of n <= x divisible by no basis element."""
    return list(compress(range(x + 1), coprime_part_mask(basis, x)))


def phi(basis) -> Fraction:
    """The density of the integers divisible by no basis element.

    The sum of sign/lcm over the inclusion-exclusion terms: the product of
    (1 - 1/b) over the basis when its elements are pairwise coprime.
    """
    return sum(Fraction(sign, d) for sign, d in _signed_subset_lcms(_basis_ints(basis)))


# bits a logarithm is summed to past those of the scale and of e: the error
# count takes under 16 of them up to the scale 2**4096, and the rest make a
# floor in doubt, and so a retry, rare
_LN_GUARD_BITS = 40


def _atanh_sum(p: int, q: int, bits: int) -> tuple[int, int]:
    """(S, E) with |S - 2**bits * atanh(p/q)| <= E, for integers 0 <= p/q <= 1/3.

    S sums floor(T_j / (2j + 1)) over the fixed-point powers T_0 =
    floor(2**bits * p/q), T_(j+1) = floor(T_j * p**2/q**2), until T_j is 0.
    Each floor loses less than 1, and the factor y**2 <= 1/9, y = p/q,
    damps what the powers lost before, so T_j lies within 1/(1 - y**2)
    <= 9/8 of 2**bits * y**(2j+1), and each term within 9/8 + 1 < 3 of its
    own.  Once T_J is 0, the terms left sum to less than (9/8)**2 < 2.  So
    E = 3 * (the number of terms summed) + 2.
    """
    power = (p << bits) // q
    p2, q2 = p * p, q * q
    total = terms = 0
    while power:
        total += power // (2 * terms + 1)
        power = power * p2 // q2
        terms += 1
    return total, 3 * terms + 2


@lru_cache(maxsize=64)
def _half_ln2(bits: int) -> tuple[int, int]:
    """``_atanh_sum`` of 1/3, half of ln 2, memoized by bits."""
    return _atanh_sum(1, 3, bits)


def _ln_pair(k: int, scale: int) -> tuple[int, int]:
    """Floor and ceiling of scale * ln(k), for integers k >= 1 and scale >= 1.

    With k = 2**e * m, m in (2/3, 4/3], ln k = e * ln 2 + 2 * atanh(y) with
    y = (k - 2**e)/(k + 2**e), |y| <= 1/5, and ln 2 = 2 * atanh(1/3)
    (Brent and Zimmermann, Modern Computer Arithmetic, ch. 4).  Both
    series are summed in fixed point (``_atanh_sum``), so L lies within E
    units of 2**B * ln k.  When scale * (L - E) and scale * (L + E) share
    their floor at 2**-B, that is the floor of scale * ln k, and the
    ceiling is one more, since ln k is irrational for k >= 2; otherwise B
    grows by 64 bits and the sums run again.
    """
    if k == 1:
        return 0, 0
    # 2**(e + 1) < 3k < 2**(e + 2), so m = k / 2**e lies in (2/3, 4/3)
    e = (3 * k).bit_length() - 2
    p, q = k - (1 << e), k + (1 << e)
    bits = scale.bit_length() + e.bit_length() + _LN_GUARD_BITS
    while True:
        half_ln2, ln2_error = _half_ln2(bits)
        atanh, atanh_error = _atanh_sum(abs(p), q, bits)
        value = 2 * (e * half_ln2 + (atanh if p >= 0 else -atanh))
        error = 2 * (e * ln2_error + atanh_error)
        low = scale * (value - error) >> bits
        if low == scale * (value + error) >> bits:
            return low, low + 1
        bits += 64
