import math
from fractions import Fraction
from itertools import islice, takewhile

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st

from quotientfree import (
    CoprimeBasis,
    DomainError,
    RationalSet,
    coprime_part_list,
    coprime_part_mask,
    count_coprime_part,
    derive_basis,
    enumerate_smooth,
    f_via_checkerboard,
    max_subset_count,
    phi,
    rho_closed_form,
    sigma_series,
    smooth_exponent_rows,
    smooth_stream,
    white_weight_value,
)

from quotientfree import arith
from quotientfree.arith import _atanh_sum, _ln_pair, _pair_prefix

from helpers import naive_smooth, naive_smooth_stream, seen_set_smooth_stream


class TestDeriveBasis:
    def test_integers_factor_to_unit_vectors(self):
        basis = derive_basis(RationalSet.of([2, 3]))
        assert basis.basis == (2, 3)
        assert basis.diffs == ((1, 0), (0, 1))

    def test_fraction(self):
        basis = derive_basis(RationalSet.of(["3/2"]))
        assert basis.basis == (2, 3)
        assert basis.diffs == ((-1, 1),)

    def test_mixed_set(self):
        basis = derive_basis(RationalSet.of(["4/9", 6]))
        assert basis.basis == (2, 3)
        assert basis.diffs == ((2, -2), (1, 1))

    def test_rejects_one(self):
        with pytest.raises(DomainError):
            RationalSet.of([1, 2])

    def test_rejects_empty(self):
        with pytest.raises(DomainError):
            RationalSet.of([])

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            RationalSet.of([-2])

    def test_rejects_duplicates(self):
        with pytest.raises(DomainError):
            RationalSet.of([2, "2/1"])

    def test_reconstructs_elements(self):
        a_set = RationalSet.of(["8/15", "9/4", 7])
        basis = derive_basis(a_set)
        for element, vec in zip(a_set.elements, basis.diffs):
            value = Fraction(1)
            for b, e in zip(basis.basis, vec):
                value *= Fraction(b) ** e
            assert value == element


class TestEnumerateSmooth:
    def test_pair_basis(self):
        seq = enumerate_smooth((2, 3), 12)
        assert seq.values == (1, 2, 3, 4, 6, 8, 9, 12)
        assert seq.exponents[0] == (0, 0)
        assert seq.exponents[-1] == (2, 1)

    def test_single_basis(self):
        assert enumerate_smooth((2,), 10).values == (1, 2, 4, 8)

    def test_bound_one(self):
        seq = enumerate_smooth((2, 3), 1)
        assert seq.values == (1,)
        assert seq.exponents == ((0, 0),)

    def test_rejects_bound_zero(self):
        with pytest.raises(DomainError):
            enumerate_smooth((2, 3), 0)

    @pytest.mark.parametrize("basis", [(2, 3), (2, 3, 5), (3, 4, 5)])
    def test_matches_naive_oracle(self, basis):
        seq = enumerate_smooth(basis, 10**4)
        values, exps = naive_smooth(basis, 10**4)
        assert list(seq.values) == values
        assert list(seq.exponents) == exps

    def test_values_reconstruct_from_exponents(self):
        seq = enumerate_smooth((2, 3, 5), 500)
        for v, e in seq.entries():
            assert v == 2 ** e[0] * 3 ** e[1] * 5 ** e[2]


# 1 to 5 basis elements, repeats and common factors allowed: on (2, 4) or
# (6, 10, 15) values repeat, and ties come out in exponent order
SMOOTH_BASES = st.one_of(
    st.sampled_from([(2, 4), (4, 9), (6, 10, 15), (2, 3, 5, 7, 11), (2, 2)]),
    st.lists(st.integers(2, 40), min_size=1, max_size=5).map(tuple),
)


class TestSmoothStream:
    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(basis=SMOOTH_BASES, count=st.integers(1, 3000))
    @example(basis=(2, 4), count=3000)
    @example(basis=(6, 10, 15), count=3000)
    def test_prefix_matches_seen_set_heap(self, basis, count):
        assert list(islice(smooth_stream(basis), count)) == \
            list(islice(seen_set_smooth_stream(basis), count))

    def test_repeated_values_in_exponent_order(self):
        assert list(islice(smooth_stream((2, 4)), 6)) == [
            (1, (0, 0)), (2, (1, 0)), (4, (0, 1)), (4, (2, 0)), (8, (1, 1)), (8, (3, 0))]

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(basis=SMOOTH_BASES, bound=st.integers(1, 10**5))
    @example(basis=(2, 3), bound=1)
    @example(basis=(4, 9), bound=10**5)
    @example(basis=(6, 10, 15), bound=10**5)
    def test_bounded_matches_seen_set_heap_prefix(self, basis, bound):
        expected = list(takewhile(lambda e: e[0] <= bound, seen_set_smooth_stream(basis)))
        seq = enumerate_smooth(basis, bound)
        assert list(seq.entries()) == expected


# a basis with its largest bound: 2^1200 for one element, less for more,
# so that a bound keeps its enumeration small
@st.composite
def _rows_cases(draw):
    basis = draw(SMOOTH_BASES)
    bits = {1: 1200, 2: 120, 3: 40, 4: 30, 5: 24}[len(basis)]
    return basis, draw(st.integers(1, 2**bits))


class TestSmoothExponentRows:
    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(case=_rows_cases())
    @example(case=((2,), 2**1200))
    @example(case=((3,), 3**1000))  # exponents above 999
    @example(case=((2, 4), 2**120))
    @example(case=((2, 2), 2**120))
    @example(case=((2, 3, 5, 7, 11), 1))
    def test_rows_are_the_joined_exponents(self, case):
        basis, bound = case
        seq = enumerate_smooth(basis, bound)
        values, rows = smooth_exponent_rows(basis, bound)
        assert values == seq.values
        assert rows == tuple(", ".join(map(str, e)) for e in seq.exponents)

    def test_example(self):
        assert smooth_exponent_rows((2, 3), 9) == (
            (1, 2, 3, 4, 6, 8, 9), ("0, 0", "1, 0", "0, 1", "2, 0", "1, 1", "3, 0", "0, 2"))
        assert smooth_exponent_rows((), 8) == ((1,), ("",))

    def test_rejects_bound_zero(self):
        with pytest.raises(DomainError, match="bound must be at least 1"):
            smooth_exponent_rows((2, 3), 0)


class TestPairPrefix:
    # the pairs that perfbench/workloads.py schedules
    @pytest.mark.parametrize("p,q", [(2, 3), (2, 5), (3, 4), (3, 5), (2, 7), (5, 7)])
    def test_matches_a_naive_tally(self, p, q):
        f = white = black = 0
        pairs = zip(_pair_prefix(p, q), naive_smooth_stream((p, q)))
        for (value, a, b, gain, kept), (expected, exps) in islice(pairs, 2000):
            assert (value, (a, b)) == (expected, exps)
            if (a + b) % 2:
                black += 1
            else:
                white += 1
            f += gain
            assert f == max(white, black)
            # black is kept only while it is strictly ahead
            assert kept is (black > white)


# a unit, zero or negative element: the smooth walks never ended on these,
# (-2,) gave negative values and (0,) divided by zero
DEGENERATE_BASES = [(1,), (0,), (-1,), (2, 1), (-2,), (True,), (2, 3.0), (2, "3")]


class TestDegenerateBases:
    @pytest.mark.parametrize("basis", DEGENERATE_BASES)
    @pytest.mark.parametrize("call", [
        lambda b: enumerate_smooth(b, 10),
        lambda b: smooth_exponent_rows(b, 10),
        lambda b: next(smooth_stream(b)),
        lambda b: count_coprime_part(b, 10),
        lambda b: coprime_part_list(b, 10),
        lambda b: coprime_part_mask(b, 10),
        lambda b: phi(b),
    ], ids=["enumerate_smooth", "smooth_exponent_rows", "smooth_stream", "count_coprime_part",
            "coprime_part_list", "coprime_part_mask", "phi"])
    def test_rejected(self, basis, call):
        with pytest.raises(DomainError, match="basis elements must be integers greater than 1"):
            call(basis)

    def test_common_factors_keep_their_results(self):
        assert enumerate_smooth((2, 2), 4).exponents == (
            (0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0))
        assert list(islice(smooth_stream((2, 4)), 4)) == [
            (1, (0, 0)), (2, (1, 0)), (4, (0, 1)), (4, (2, 0))]
        assert count_coprime_part((2, 2), 10) == 5
        assert coprime_part_list((2, 4), 10) == [1, 3, 5, 7, 9]
        assert phi((2, 2)) == Fraction(1, 2)

    def test_the_empty_basis_keeps_its_results(self):
        seq = enumerate_smooth((), 8)
        assert (seq.values, seq.exponents) == ((1,), ((),))
        assert list(smooth_stream(())) == [(1, ())]
        assert count_coprime_part((), 10) == 10
        assert phi(()) == 1


class TestCountCoprimePart:
    def test_example(self):
        assert count_coprime_part((2, 3), 12) == 4

    def test_odd_numbers(self):
        assert count_coprime_part((2,), 10) == 5

    def test_x_one(self):
        assert count_coprime_part((2, 3), 1) == 1

    # a list basis, too: the per-basis inclusion-exclusion terms are cached
    def test_a_bound_below_one_is_refused(self):
        with pytest.raises(DomainError, match="^bound must be at least 1$"):
            count_coprime_part((2, 3), 0)

    @pytest.mark.parametrize("basis", [(2, 3), (2, 3, 5), (3, 4, 5), [2, 5, 7]])
    def test_matches_sieve(self, basis):
        for x in (1, 7, 50, 360, 1001):
            sieved = sum(1 for n in range(1, x + 1) if all(n % b for b in basis))
            assert count_coprime_part(basis, x) == sieved

    def test_a_cached_basis_still_rejects_its_look_alikes(self):
        # (2, 3.0) and [2, 3.0] hash and compare equal to (2, 3), and (True,)
        # to (1,): the basis is checked before the term cache is asked
        assert count_coprime_part((2, 3), 100) == 33
        for basis in [(2, 3.0), [2, 3.0], (True,)]:
            with pytest.raises(DomainError, match="basis elements must be integers greater than 1"):
                count_coprime_part(basis, 100)
        assert count_coprime_part([2, 3], 100) == 33
        assert count_coprime_part(CoprimeBasis.from_coprime_integers([2, 3]), 100) == 33

    def test_common_factor_example(self):
        # 1, 3, 5, 7: the multiples of 2 and of 4 overlap in those of 4
        assert count_coprime_part((2, 4), 8) == 4

    @pytest.mark.parametrize("basis", [(2, 4), (6, 10), (4, 6, 9)])
    def test_common_factor_bases_match_the_sieve(self, basis):
        for x in range(1, 2001):
            assert count_coprime_part(basis, x) == len(coprime_part_list(basis, x)), x

    @pytest.mark.parametrize("basis", [(2, 3), (2, 3, 5), (3, 4, 5)])
    def test_density_deviation_strictly_below_power(self, basis):
        density = phi(basis)
        limit = 2 ** len(basis)
        for x in range(1, 10**4 + 1):
            assert abs(count_coprime_part(basis, x) - density * x) < limit


class TestCoprimePartList:
    def test_example(self):
        assert coprime_part_list((2, 3), 12) == [1, 5, 7, 11]
        assert coprime_part_mask((2, 3), 12) == bytearray(
            [0, 1, 0, 0, 0, 1, 0, 1, 0, 0, 0, 1, 0])
        assert coprime_part_mask((2, 3), 0) == coprime_part_mask((2, 3), -5) == bytearray(1)

    # (4, 6) is not coprime: the sieve must still strike multiples of each
    @pytest.mark.parametrize("basis", [(2,), (2, 3), (3, 4), (2, 3, 5, 7), (4, 6)])
    def test_matches_direct_remainders(self, basis):
        full = [n for n in range(1, 2001) if all(n % b for b in basis)]
        for x in range(-1, 2001):
            assert coprime_part_list(basis, x) == [n for n in full if n <= x], x

    # the empty basis divides nothing, so it keeps 1..x, never 0
    @pytest.mark.parametrize("basis", [(), (2,), (2, 3), (2, 4), (6, 10, 15)])
    def test_length_is_the_count(self, basis):
        for x in range(1, 201):
            assert len(coprime_part_list(basis, x)) == count_coprime_part(basis, x), x


class TestPhi:
    def test_values(self):
        assert phi((2, 3)) == Fraction(1, 3)
        assert phi((2,)) == Fraction(1, 2)
        assert phi((2, 3, 5)) == Fraction(4, 15)

    @pytest.mark.parametrize("basis", [(2, 4), (6, 10), (4, 6, 9)])
    def test_common_factor_bases(self, basis):
        # divisibility by the basis repeats with period lcm(basis), so the
        # density is the share of one period that the sieve keeps
        period = math.lcm(*basis)
        assert phi(basis) == Fraction(len(coprime_part_list(basis, period)), period)
        assert phi((2, 4)) == Fraction(1, 2)


class TestCoprimeBasisValidation:
    def test_rejects_non_coprime(self):
        with pytest.raises(DomainError):
            CoprimeBasis.from_coprime_integers([2, 4])

    def test_rejects_unsorted(self):
        with pytest.raises(DomainError):
            CoprimeBasis.from_coprime_integers([3, 2])

    def test_rejects_zero_diff_vector(self):
        with pytest.raises(DomainError):
            CoprimeBasis((2, 3), ((0, 0),))


SET_CHECKS = [
    CoprimeBasis.from_coprime_integers,
    rho_closed_form,
    white_weight_value,
]
PAIR_CHECKS = [
    lambda p, q: f_via_checkerboard(p, q, 5),
    lambda p, q: max_subset_count(p, q, 10),
    lambda p, q: sigma_series(p, q, "1/10"),
]
BAD_PAIRS = [
    ((1, 3), "integers greater than 1"),
    ((3, 2), "strictly increasing"),
    ((2, 2), "strictly increasing"),
    ((2, 4), "not pairwise coprime: gcd\\(2,4\\) > 1"),
]


class TestOneCoprimeValidator:
    # every caller that needs a pairwise-coprime set rejects a bad one with
    # the same message
    @pytest.mark.parametrize("values,message", BAD_PAIRS + [
        ((), "nonempty"),
        ((2, 3, 9), "not pairwise coprime: gcd\\(3,9\\) > 1"),
        ((2, Fraction(3)), "integers greater than 1"),
    ])
    @pytest.mark.parametrize("check", SET_CHECKS)
    def test_sets(self, check, values, message):
        with pytest.raises(DomainError, match=message):
            check(list(values))

    @pytest.mark.parametrize("values,message", BAD_PAIRS)
    @pytest.mark.parametrize("check", PAIR_CHECKS)
    def test_pairs(self, check, values, message):
        with pytest.raises(DomainError, match=message):
            check(*values)


class TestLnPair:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(k=st.one_of(st.integers(1, 300), st.integers(2, 10**40)),
           scale=st.one_of(st.integers(1, 2**80), st.integers(0, 2100).map(lambda b: 1 << b)))
    @example(k=10**400 + 1, scale=1 << 4096)
    @example(k=2**61 - 1, scale=3 << 64)
    @example(k=7**90, scale=1)
    def test_is_the_floor_and_the_ceiling(self, k, scale):
        # mpmath at the bits of scale and k and 64 more pins the floor
        with mpmath.workprec(scale.bit_length() + k.bit_length() + 64):
            floor = int(mpmath.floor(mpmath.log(k) * scale))
        assert _ln_pair(k, scale) == (floor, floor + (k > 1))

    def test_a_floor_in_doubt_is_summed_again_wider(self, monkeypatch):
        # with no guard bits every floor is in doubt at the first width, so
        # each pair is summed again 64 bits wider, and still exact
        monkeypatch.setattr(arith, "_LN_GUARD_BITS", 0)
        widths = []

        def spy(p, q, bits):
            widths.append(bits)
            return _atanh_sum(p, q, bits)

        monkeypatch.setattr(arith, "_atanh_sum", spy)
        arith._half_ln2.cache_clear()
        try:
            for k in (2, 3, 5, 7, 10, 12, 100, 255, 256, 1000, 10**6, 2**61 - 1):
                for scale in (1, 3, 2**10, 10**9, 2**64, 3 << 64, 10**30):
                    widths.clear()
                    with mpmath.workprec(scale.bit_length() + k.bit_length() + 64):
                        floor = int(mpmath.floor(mpmath.log(k) * scale))
                    assert _ln_pair(k, scale) == (floor, floor + 1)
                    assert len(set(widths)) >= 2, (k, scale)
        finally:
            arith._half_ln2.cache_clear()

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(p=st.integers(0, 10**12), extra=st.integers(1, 10**30), bits=st.integers(0, 600))
    @example(p=1, extra=0, bits=400)  # ln 2 = 2 * atanh(1/3)
    @example(p=1, extra=2, bits=400)  # |y| <= 1/5 after the reduction
    def test_the_error_count_bounds_the_series(self, p, extra, bits):
        # |S - 2**bits * atanh(p/q)| <= E for every p/q up to 1/3
        q = 3 * p + extra
        total, error = _atanh_sum(p, q, bits)
        with mpmath.workprec(bits + 128):
            assert abs(total - mpmath.atanh(mpmath.mpf(p) / q) * 2**bits) <= error
