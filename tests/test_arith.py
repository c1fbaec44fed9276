import math
from fractions import Fraction

import pytest

from quotientfree import (
    CoprimeBasis,
    DomainError,
    InsufficientEnumerationError,
    RationalSet,
    coprime_part_list,
    count_coprime_part,
    derive_basis,
    enumerate_smooth,
    factor_decompose,
    harmonic_coprime_sum,
    phi,
    smooth_index,
)
from quotientfree.rng import CounterRng

from helpers import naive_smooth


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


class TestSmoothIndex:
    def test_fractional_argument(self):
        seq = enumerate_smooth((2, 3), 20)
        assert smooth_index(seq, Fraction(12, 5)) == 2

    def test_one(self):
        seq = enumerate_smooth((2, 3), 20)
        assert smooth_index(seq, 1) == 1

    def test_twelve(self):
        seq = enumerate_smooth((2, 3), 20)
        assert smooth_index(seq, 12) == 8

    def test_below_one_rejected(self):
        seq = enumerate_smooth((2, 3), 20)
        with pytest.raises(DomainError):
            smooth_index(seq, Fraction(1, 2))

    def test_insufficient_enumeration(self):
        seq = enumerate_smooth((2, 3), 20)
        with pytest.raises(InsufficientEnumerationError):
            smooth_index(seq, 25)

    def test_bracketing_property_random(self):
        seq = enumerate_smooth((2, 3), 3000)
        rng = CounterRng(7)
        for _ in range(1000):
            u = Fraction(rng.randint(1, 2000 * 7), rng.randint(1, 7))
            if u < 1 or u > 2000:
                continue
            t = smooth_index(seq, u)
            assert seq.values[t - 1] <= u
            assert t == len(seq.values) or seq.values[t] > u


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


class TestPhi:
    def test_values(self):
        assert phi((2, 3)) == Fraction(1, 3)
        assert phi((2,)) == Fraction(1, 2)
        assert phi((2, 3, 5)) == Fraction(4, 15)


class TestHarmonicCoprimeSum:
    def test_example(self):
        # 1 + 1/5 + 1/7 + 1/11
        assert harmonic_coprime_sum((2, 3), 12) == Fraction(552, 385)

    def test_small(self):
        assert harmonic_coprime_sum((2,), 3) == Fraction(4, 3)

    def test_x_one(self):
        assert harmonic_coprime_sum((2, 3), 1) == 1

    def test_logarithmic_growth_has_bounded_spread(self):
        # deviations from the density line stay inside a window of width 1
        density = phi((2, 3))
        deviations = []
        for exp in range(1, 6):
            x = 10**exp
            value = harmonic_coprime_sum((2, 3), x)
            deviations.append(float(value) - float(density) * math.log(x))
        assert max(deviations) - min(deviations) < 1.0


class TestFactorDecompose:
    def test_example(self):
        f = factor_decompose(40, (2, 3))
        assert (f.m, f.n) == (8, 5)

    def test_free_input(self):
        f = factor_decompose(7, (2, 3))
        assert (f.m, f.n) == (1, 7)

    def test_smooth_input(self):
        f = factor_decompose(36, (2, 3))
        assert (f.m, f.n) == (36, 1)

    def test_recomposition_everywhere(self):
        basis = (2, 3)
        for k in range(1, 10**4 + 1):
            f = factor_decompose(k, basis)
            assert f.m * f.n == k
            assert all(f.n % b for b in basis)
            again = factor_decompose(f.m * f.n, basis)
            assert (again.m, again.n) == (f.m, f.n)

    def test_rejects_zero(self):
        with pytest.raises(DomainError):
            factor_decompose(0, (2, 3))


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
