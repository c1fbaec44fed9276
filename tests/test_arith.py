import math
from fractions import Fraction
from itertools import islice, takewhile

import pytest
from hypothesis import example, given, settings, strategies as st

from quotientfree import (
    CoprimeBasis,
    DomainError,
    RationalSet,
    coprime_part_list,
    count_coprime_part,
    derive_basis,
    enumerate_smooth,
    f_via_checkerboard,
    first_smooth_entries,
    max_subset_count,
    phi,
    rho_closed_form,
    sigma_series,
    smooth_stream,
    white_weight_value,
)

from helpers import naive_smooth, seen_set_smooth_stream


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


# a unit, zero or negative element: the smooth walks never ended on these,
# (-2,) gave negative values and (0,) divided by zero
DEGENERATE_BASES = [(1,), (0,), (-1,), (2, 1), (-2,), (True,), (2, 3.0), (2, "3")]


class TestDegenerateBases:
    @pytest.mark.parametrize("basis", DEGENERATE_BASES)
    @pytest.mark.parametrize("call", [
        lambda b: enumerate_smooth(b, 10),
        lambda b: next(smooth_stream(b)),
        lambda b: first_smooth_entries(b, 3),
        lambda b: count_coprime_part(b, 10),
        lambda b: coprime_part_list(b, 10),
        lambda b: phi(b),
    ], ids=["enumerate_smooth", "smooth_stream", "first_smooth_entries",
            "count_coprime_part", "coprime_part_list", "phi"])
    def test_rejected(self, basis, call):
        with pytest.raises(DomainError, match="basis elements must be integers greater than 1"):
            call(basis)

    def test_common_factors_keep_their_results(self):
        assert enumerate_smooth((2, 2), 4).exponents == (
            (0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0))
        assert first_smooth_entries((2, 4), 4) == [
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
    @pytest.mark.parametrize("basis", [(2, 3), (2, 3, 5), (3, 4, 5), [2, 5, 7]])
    def test_matches_sieve(self, basis):
        for x in (1, 7, 50, 360, 1001):
            sieved = sum(1 for n in range(1, x + 1) if all(n % b for b in basis))
            assert count_coprime_part(basis, x) == sieved

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
