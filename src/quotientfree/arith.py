"""Exact integer and rational foundations.

Pairwise-coprime bases for sets of forbidden quotients, smooth-number
enumeration, and counting of integers coprime to a basis.  Every membership
and ordering decision here is made in exact integer arithmetic; floating
point never decides anything.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, compress, islice
from math import gcd, lcm
from operator import itemgetter, mul
from typing import Iterable, Iterator, Sequence, Union

from .errors import DomainError

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


@dataclass(frozen=True)
class RationalSet:
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


@dataclass(frozen=True)
class CoprimeBasis:
    """Pairwise-coprime basis plus the exponent vectors of the quotients.

    ``basis`` is strictly increasing with entries > 1 and pairwise coprime;
    ``diffs`` holds one integer exponent vector per quotient, never zero.
    """

    basis: tuple[int, ...]
    diffs: tuple[Vector, ...]

    def __post_init__(self):
        _require_coprime(self.basis)
        for vec in self.diffs:
            if len(vec) != len(self.basis):
                raise DomainError("difference vector length must match basis size")
            if all(v == 0 for v in vec):
                raise DomainError("difference vectors must be nonzero")

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


@dataclass(frozen=True)
class SmoothSequence:
    """All basis-smooth integers up to a bound, ascending, with exponents."""

    values: tuple[int, ...]
    exponents: tuple[Vector, ...]

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


def enumerate_smooth(basis, bound: int) -> SmoothSequence:
    """All basis-smooth integers <= bound with their exponent vectors.

    Built by nested products, one basis element at a time, which lists the
    exponent vectors in lexicographic order; one stable sort by value then
    gives the order of ``smooth_stream``, equal values in exponent order.
    """
    if bound < 1:
        raise DomainError("bound must be at least 1")
    b = _basis_ints(basis)
    entries: list[tuple[int, Vector]] = [(1, ())]
    for bj in b:
        grown = []
        for value, exps in entries:
            k = 0
            while value <= bound:
                grown.append((value, exps + (k,)))
                value *= bj
                k += 1
        entries = grown
    entries.sort(key=itemgetter(0))
    values, exponents = zip(*entries)
    return SmoothSequence(values, exponents)


def first_smooth_entries(basis, count: int) -> list[tuple[int, Vector]]:
    """The first ``count`` basis-smooth integers in ascending order."""
    if count < 1:
        raise DomainError("count must be at least 1")
    return list(islice(smooth_stream(basis), count))


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
    return sum(sign * (x // d) for sign, d in _signed_subset_lcms(_basis_ints(basis)))


def coprime_part_list(basis, x: int) -> list[int]:
    """Ascending list of n <= x divisible by no basis element (a bytearray sieve)."""
    basis = _basis_ints(basis)
    if x < 1:
        return []
    mask = bytearray([1]) * (x + 1)
    mask[0] = 0
    for b in basis:
        mask[::b] = bytes(x // b + 1)  # every multiple of b
    return list(compress(range(x + 1), mask))


def phi(basis) -> Fraction:
    """The density of the integers divisible by no basis element.

    The sum of sign/lcm over the inclusion-exclusion terms: the product of
    (1 - 1/b) over the basis when its elements are pairwise coprime.
    """
    return sum(Fraction(sign, d) for sign, d in _signed_subset_lcms(_basis_ints(basis)))

