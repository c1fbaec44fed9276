import math
import time
import tracemalloc
from bisect import bisect_right
from fractions import Fraction
from itertools import compress, islice, takewhile

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st

from quotientfree import (
    BudgetError,
    CoprimeBasis,
    DomainError,
    SelfCheckError,
    construct_dense_set,
    coprime_part_list,
    empirical_densities,
    enumerate_smooth,
    exact_sum,
    gamma_bracket,
    max_subset_count,
    max_subset_witness,
    phi,
    rho_closed_form,
    rho_general,
    sigma_series,
    strict_gap_check,
    white_weight_value,
)
from quotientfree import density
from quotientfree.cli import dec12
from quotientfree.density import DEFAULT_SERIES_BUDGET, LN_PRECISION_DIGITS, _ln_fraction
from quotientfree.rng import CounterRng
from quotientfree.verify import exhaustive_max_quotient_free

from helpers import (
    context_ln,
    extend_then_sort_members,
    naive_max_subset_counts,
    naive_max_subset_witness,
    naive_sigma_brackets,
    naive_sigma_series,
    per_run_witness_mask,
    quotient_free_violations,
    truncated_weight_mass,
)

BENCH_PAIRS = [(2, 3), (2, 5), (3, 4), (3, 5), (2, 7), (5, 7)]
# the bench pairs and three coprime pairs of prime powers
SIEVE_PAIRS = BENCH_PAIRS + [(2, 9), (4, 9), (3, 8)]


def witness_tuple(p, q, n):
    """``max_subset_witness`` as (size, the members in ascending order)."""
    count, mask = max_subset_witness(p, q, n)
    return count, tuple(compress(range(n + 1), mask))


class TestRhoClosedForm:
    def test_values(self):
        assert rho_closed_form([2, 3]) == Fraction(7, 12)
        assert rho_closed_form([2]) == Fraction(2, 3)
        assert rho_closed_form([2, 3, 5]) == Fraction(5, 9)

    def test_rejects_non_coprime(self):
        with pytest.raises(DomainError, match="not pairwise coprime"):
            rho_closed_form([2, 4])

    def test_rejects_unsorted(self):
        with pytest.raises(DomainError):
            rho_closed_form([3, 2])

    def test_rejects_units(self):
        with pytest.raises(DomainError):
            rho_closed_form([1, 2])

    def test_formula_identity_on_random_sets(self):
        # the closed form IS the product formula, assembled independently
        rng = CounterRng(17)
        found = 0
        while found < 10:
            vals = sorted({rng.randint(2, 40) for _ in range(rng.randint(1, 4))})
            if any(
                math.gcd(a, b) != 1 for i, a in enumerate(vals) for b in vals[i + 1:]
            ):
                continue
            found += 1
            product = Fraction(1)
            for a in vals:
                product *= Fraction(a - 1, a + 1)
            assert rho_closed_form(vals) == (1 + product) / 2

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(vals=st.lists(st.integers(2, 10**6), min_size=1, max_size=4, unique=True).map(sorted)
           .filter(lambda v: all(math.gcd(a, b) == 1 for i, a in enumerate(v) for b in v[i + 1:])))
    def test_one_fraction_equals_the_fraction_product(self, vals):
        product = Fraction(1)
        for a in vals:
            product *= Fraction(a - 1, a + 1)
        assert rho_closed_form(vals) == (1 + product) / 2


class TestRhoGeneral:
    def test_pair_bracket_contains_closed_form(self):
        target = Fraction(7, 12)
        for depth in range(4, 13):
            bracket = rho_general([2, 3], depth, cap=600)
            assert bracket.contains(target)

    def test_trivial_depth_zero(self):
        bracket = rho_general([2], 0)
        assert bracket.lower == Fraction(1, 2)
        assert bracket.upper == 1

    def test_fraction_set(self):
        bracket = rho_general(["3/2"], 6)
        assert 0 < bracket.lower <= bracket.upper
        # width is exactly the scaled tail mass of the truncation
        basis = phi((2, 3))
        from quotientfree.lattice import total_weight_mass

        tail = total_weight_mass((2, 3)) - truncated_weight_mass((2, 3), 6)
        assert bracket.width == basis * tail

    def test_bracket_shrinks_with_depth(self):
        widths = [rho_general([2, 3], depth, cap=600).width for depth in (2, 4, 6, 8)]
        assert all(a > b for a, b in zip(widths, widths[1:]))

    def test_basis_independence(self):
        # prime basis and self basis must both enclose the closed form
        target = rho_closed_form([3, 4])
        prime_side = rho_general([3, 4], 10, cap=600)
        self_basis = CoprimeBasis.from_coprime_integers([3, 4])
        gamma = gamma_bracket(self_basis, 10, cap=600)
        factor = phi(self_basis)
        assert prime_side.contains(target)
        assert factor * gamma.lower <= target <= factor * gamma.upper


def assert_same_sigma_outcome(pair, tol, budget):
    """sigma_series and the per-term Fraction loop return the same bracket,
    or raise the same BudgetError with the same achieved bracket."""
    try:
        expected = naive_sigma_series(*pair, tol, budget)
    except BudgetError as exc:
        with pytest.raises(BudgetError) as got:
            sigma_series(*pair, tol, budget)
        assert str(got.value) == str(exc)
        assert got.value.achieved == exc.achieved
        return
    got = sigma_series(*pair, tol, budget)
    assert (got.lower, got.upper, got.method, got.detail) == (
        expected.lower,
        expected.upper,
        expected.method,
        expected.detail,
    ), (pair, tol, budget)


class TestSigmaSeries:
    def test_hand_checkable_partial_sum(self):
        # prefix of the series through the 21st smooth value (108), before
        # the density factor; frozen from the enumerated parity table
        seq = enumerate_smooth((2, 3), 128)
        assert seq.values[20] == 108 and seq.values[21] == 128
        partial = Fraction(0)
        white = black = 0
        for t in range(21):
            if sum(seq.exponents[t]) % 2 == 0:
                white += 1
            else:
                black += 1
            partial += max(white, black) * (
                Fraction(1, seq.values[t]) - Fraction(1, seq.values[t + 1])
            )
        assert partial == Fraction(17831, 10368)
        assert abs(float(partial) - 1.7198) < 5e-4

    def test_certified_bracket_above_closed_form(self):
        bracket = sigma_series(2, 3, Fraction(1, 10**4))
        assert bracket.width <= Fraction(1, 10**4)
        assert bracket.lower > Fraction(7, 12)

    def test_loose_tolerance_lower_bound(self):
        for p, q in ((2, 3), (3, 5), (4, 9)):
            bracket = sigma_series(p, q, 1)
            factor = Fraction((p - 1) * (q - 1), p * q)
            assert bracket.lower >= factor * (1 - Fraction(1, p))

    def test_budget_error_carries_achieved_bracket(self):
        with pytest.raises(BudgetError) as info:
            sigma_series(2, 3, Fraction(1, 10**9), budget=30)
        achieved = info.value.achieved
        assert achieved is not None
        assert achieved.lower <= achieved.upper

    def test_rejects_non_coprime(self):
        with pytest.raises(DomainError):
            sigma_series(2, 4, Fraction(1, 100))

    @pytest.mark.parametrize("pair", BENCH_PAIRS)
    def test_matches_per_term_fraction_loop(self, pair):
        p, q = pair
        tolerances = [Fraction(1, 10**k) for k in range(1, 46, 4)]
        tolerances.append(Fraction(3, 7 * 10**20))
        # a width met exactly, at the 40th term
        tolerances.append(list(islice(naive_sigma_brackets(p, q), 40))[-1].width)
        # the naive loop stops at the first bracket within tolerance; walk it
        # once, from the loosest tolerance to the tightest
        brackets = naive_sigma_brackets(p, q)
        expected = next(brackets)
        for tol in sorted(tolerances, reverse=True):
            while expected.width > tol:
                expected = next(brackets)
            got = sigma_series(p, q, tol)
            assert (got.lower, got.upper, got.method, got.detail) == (
                expected.lower,
                expected.upper,
                expected.method,
                expected.detail,
            ), (pair, tol)

    @pytest.mark.parametrize("pair", BENCH_PAIRS)
    @pytest.mark.parametrize("budget", [1, 2, 30])
    def test_budget_error_matches_per_term_fraction_loop(self, pair, budget):
        p, q = pair
        tol = Fraction(1, 10**30)
        with pytest.raises(BudgetError) as got:
            sigma_series(p, q, tol, budget)
        with pytest.raises(BudgetError) as expected:
            naive_sigma_series(p, q, tol, budget)
        assert got.value.achieved == expected.value.achieved
        assert str(got.value) == str(expected.value)
        if budget == 1:
            assert got.value.achieved is None

    def test_bracket_tightens_with_tolerance(self):
        loose = sigma_series(2, 5, Fraction(1, 100))
        tight = sigma_series(2, 5, Fraction(1, 10**5))
        assert tight.width < loose.width
        assert loose.lower <= tight.lower
        assert tight.upper <= loose.upper

    @pytest.mark.parametrize("pair", [(4, 9), (7, 11), (2, 9)])
    def test_matches_per_term_fraction_loop_off_the_bench(self, pair):
        for k in (1, 3, 8, 15, 24):
            tol = Fraction(1, 10**k)
            assert_same_sigma_outcome(pair, tol, DEFAULT_SERIES_BUDGET)

    @pytest.mark.parametrize("pair", BENCH_PAIRS + [(4, 9), (7, 11), (2, 9)])
    @pytest.mark.parametrize("tol", [Fraction(1, 64), Fraction(1, 10**12), Fraction(2, 3 * 10**20)])
    def test_budget_at_the_stop_term(self, pair, tol):
        # a budget of the stop's term count leaves the last term out, one
        # more reaches it
        stop = naive_sigma_series(*pair, tol).detail["terms"]
        with pytest.raises(BudgetError):
            sigma_series(*pair, tol, stop)
        assert_same_sigma_outcome(pair, tol, stop)
        assert_same_sigma_outcome(pair, tol, stop + 1)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(
        pair=st.tuples(st.integers(2, 30), st.integers(2, 30)).filter(
            lambda t: t[0] < t[1] and math.gcd(*t) == 1
        ),
        tol=st.fractions(Fraction(1, 10**12), 1).filter(lambda f: f > 0),
        budget=st.integers(1, 200),
    )
    def test_matches_per_term_fraction_loop_property(self, pair, tol, budget):
        assert_same_sigma_outcome(pair, tol, budget)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        factor=st.fractions(Fraction(1, 10**6), 1).filter(lambda f: f > 0),
        terms=st.integers(0, 10**6),
        value=st.integers(1, 10**30),
        partial=st.integers(0, 10**40),
        recip=st.integers(0, 10**32),
        scale=st.integers(1, 10**30),
    )
    def test_integer_ends_equal_the_fraction_formulas(
        self, factor, terms, value, partial, recip, scale
    ):
        head = Fraction(partial, scale)
        lower = factor * (head + Fraction((terms + 2) // 2, value))
        upper = factor * (head + Fraction(terms + 1, value) + 1 / factor - Fraction(recip, scale))
        if lower > upper:  # a recip past 1/factor: no bracket, as with Fractions
            with pytest.raises(DomainError):
                density._series_bracket(factor, terms, value, partial, recip, scale)
            return
        bracket = density._series_bracket(factor, terms, value, partial, recip, scale)
        assert (bracket.lower, bracket.upper) == (lower, upper)
        assert bracket.detail == {"terms": terms, "next_value": value}

    def test_memory_stays_at_the_merge_window(self):
        # about 38,000 terms: a list of every value would take megabytes
        tracemalloc.start()
        try:
            sigma_series(2, 3, Fraction(1, 10**100))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 512 * 1024


class TestMaxSubsetCount:
    def test_twelve(self):
        count, witness = witness_tuple(2, 3, 12)
        assert count == 7
        assert witness == (1, 4, 5, 6, 7, 9, 11)

    def test_one(self):
        assert max_subset_count(2, 3, 1) == 1

    def test_three(self):
        assert max_subset_count(2, 3, 3) == 2

    @pytest.mark.parametrize("pair", [(2, 3), (2, 5), (3, 4)])
    def test_matches_exhaustive_search(self, pair):
        p, q = pair
        oracles = exhaustive_max_quotient_free(p, q, 60)
        for n in range(1, 61):
            claimed, witness = witness_tuple(p, q, n)
            assert claimed == oracles[n - 1], (pair, n)
            assert len(witness) == claimed
            assert not quotient_free_violations(witness, [p, q])

    def test_the_block_sum_counts_over_a_checked_basis(self, monkeypatch):
        # the pair is checked once, not once per count
        bases = []
        count = density.count_coprime_part
        monkeypatch.setattr(density, "count_coprime_part",
                            lambda basis, x: bases.append(basis) or count(basis, x))
        assert max_subset_count(2, 3, 1000) == naive_max_subset_counts(2, 3, 1000)[1000]
        assert bases and all(b == CoprimeBasis.from_coprime_integers((2, 3)) for b in bases)

    @pytest.mark.parametrize("pair", BENCH_PAIRS)
    def test_block_sum_matches_class_by_class_counts(self, pair):
        p, q = pair
        expected = naive_max_subset_counts(p, q, 2999)
        for n in range(1, 3000):
            assert max_subset_count(p, q, n) == expected[n], (pair, n)

    @pytest.mark.parametrize("pair", BENCH_PAIRS)
    def test_block_sum_matches_witness_route(self, pair):
        p, q = pair
        for n in range(1, 500):
            claimed, witness = witness_tuple(p, q, n)
            assert max_subset_count(p, q, n) == claimed == len(witness), (pair, n)

    @settings(max_examples=12, deadline=None, derandomize=True, database=None)
    @given(pair=st.sampled_from(BENCH_PAIRS), n=st.integers(1, 2 * 10**5))
    @example(pair=(2, 3), n=2 * 10**5)
    def test_block_sum_matches_witness_route_sampled(self, pair, n):
        p, q = pair
        claimed, witness = witness_tuple(p, q, n)
        assert max_subset_count(p, q, n) == claimed == len(witness)

    @pytest.mark.parametrize("pair", BENCH_PAIRS)
    def test_witness_matches_per_representative_loop(self, pair):
        p, q = pair
        for n in range(1, 1500):
            assert witness_tuple(p, q, n) == naive_max_subset_witness(p, q, n), (pair, n)

    @settings(max_examples=12, deadline=None, derandomize=True, database=None)
    @given(pair=st.sampled_from(BENCH_PAIRS), n=st.integers(1, 2 * 10**5))
    @example(pair=(2, 3), n=2 * 10**5)
    def test_witness_matches_per_representative_loop_sampled(self, pair, n):
        p, q = pair
        assert witness_tuple(p, q, n) == naive_max_subset_witness(p, q, n)

    def test_witness_length_is_checked_against_the_block_sum(self, monkeypatch):
        # the count returned with a witness is the witness's length; a block
        # sum that disagrees with it is a failed self-check
        counts = density.count_coprime_part
        monkeypatch.setattr(density, "count_coprime_part", lambda basis, x: counts(basis, x) + 1)
        with pytest.raises(SelfCheckError, match="^witness of 61 elements, block sum 72$"):
            witness_tuple(2, 3, 100)

    @pytest.mark.parametrize("pair", BENCH_PAIRS)
    def test_mask_marks_the_witness(self, pair):
        p, q = pair
        for n in (1, 2, 12, 999, 1000, 1001, 12345):
            count, mask = max_subset_witness(p, q, n)
            assert len(mask) == n + 1 and set(mask) <= {0, 1}, (pair, n)
            assert count == sum(mask), (pair, n)
            assert tuple(k for k in range(n + 1) if mask[k]) == \
                naive_max_subset_witness(p, q, n)[1], (pair, n)

    def test_mask_is_checked_against_the_block_sum(self, monkeypatch):
        counts = density.count_coprime_part
        monkeypatch.setattr(density, "count_coprime_part", lambda basis, x: counts(basis, x) - 1)
        with pytest.raises(SelfCheckError, match="^witness of 61 elements, block sum 50$"):
            max_subset_witness(2, 3, 100)

    @pytest.mark.parametrize("pair", SIEVE_PAIRS)
    def test_sieve_matches_the_per_run_sieve(self, pair):
        prefix = list(takewhile(lambda entry: entry[0] <= 3000, density._pair_prefix(*pair)))
        values = [entry[0] for entry in prefix]
        for n in range(1, 3001):
            head = prefix[:bisect_right(values, n)]
            assert density._witness_mask(head, n) == per_run_witness_mask(head, n), (pair, n)

    @settings(max_examples=12, deadline=None, derandomize=True, database=None)
    @given(pair=st.sampled_from(SIEVE_PAIRS), n=st.integers(1, 2 * 10**5))
    @example(pair=(2, 3), n=2 * 10**5)
    @example(pair=(4, 9), n=12345)
    def test_sieve_matches_the_per_run_sieve_sampled(self, pair, n):
        prefix, total = density._block_sum(*pair, n)
        count, mask = max_subset_witness(*pair, n)
        assert mask == per_run_witness_mask(prefix, n)
        assert count == total == mask.count(1)

    def test_block_sum_at_astronomical_horizon(self):
        n = 10**30
        start = time.perf_counter()
        count = max_subset_count(2, 3, n)
        assert time.perf_counter() - start < 1.0
        assert 6 * n // 10 <= count <= 62 * n // 100

    def test_rejects_bad_input(self):
        with pytest.raises(DomainError):
            max_subset_count(2, 3, 0)
        with pytest.raises(DomainError):
            max_subset_count(3, 3, 10)


class TestConstructDenseSet:
    def test_pair_at_twelve(self):
        sample = construct_dense_set([2, 3], 12)
        assert sample.members == (1, 4, 5, 6, 7, 9, 11)
        assert sample.counting_density == Fraction(7, 12)

    def test_single_at_twelve(self):
        sample = construct_dense_set([2], 12)
        assert sample.members == (1, 3, 4, 5, 7, 9, 11, 12)
        assert sample.counting_density == Fraction(2, 3)

    def test_horizon_one(self):
        sample = construct_dense_set([2, 3], 1)
        assert sample.members == (1,)
        assert sample.counting_density == 1
        assert sample.log_density is None

    def test_members_are_quotient_free_exhaustively(self):
        sample = construct_dense_set([2, 3], 10**4)
        assert not quotient_free_violations(sample.members, [2, 3])

    def test_fraction_set_members_are_quotient_free(self):
        sample = construct_dense_set(["3/2"], 300, depth=7)
        assert not quotient_free_violations(sample.members, [Fraction(3, 2)])
        assert sample.members[0] == 1

    def test_witness_growth_envelope(self):
        sample = construct_dense_set([2, 3], 10**5)
        target = Fraction(7, 12)
        for x in (10**3, 10**4, 10**5):
            count = sum(1 for k in sample.members if k <= x)
            deviation = abs(Fraction(count, x) - target)
            envelope = 3 * math.log(x) ** 2 / x + 0.005
            assert float(deviation) < envelope, x


BRACKET_SETS = [("2", "3"), ("2",), ("3/2",), ("4/3",)]
MEMBER_SETS = [("2", "3"), ("3/2",), ("4/3",), ("2", "3", "5")]


class TestMemberSieve:
    @pytest.mark.parametrize("a_set", MEMBER_SETS)
    def test_matches_extend_then_sort_at_every_horizon(self, a_set):
        # one set of chosen smooth parts up to 2000 at every horizon x <= 2000,
        # so most horizons see chosen parts above x
        top = construct_dense_set(list(a_set), 2000)
        free_parts = coprime_part_list(top.basis, 2000)
        for x in range(1, 2001):
            sample = density.DenseSetSample(x, top.smooth_parts, top.basis)
            expected = extend_then_sort_members(x, top.smooth_parts, free_parts)
            assert sample.members == expected, (a_set, x)
            assert sample.count() == len(expected), (a_set, x)

    @pytest.mark.parametrize("a_set", MEMBER_SETS)
    def test_a_fresh_construction_agrees(self, a_set):
        for x in (1, 2, 12, 999, 1000, 1001, 2000):
            sample = construct_dense_set(list(a_set), x)
            assert sample.members == extend_then_sort_members(
                x, sample.smooth_parts, coprime_part_list(sample.basis, x)), (a_set, x)



class TestLazySample:
    def test_members_are_built_on_first_read(self):
        sample = construct_dense_set([2, 3], 1000)
        assert sample.count() == 580
        assert sample.counting_density == Fraction(29, 50)
        assert "members" not in sample.__dict__
        assert len(sample.members) == 580

    @pytest.mark.parametrize("a_set", BRACKET_SETS)
    def test_counts_and_exact_logs_match_the_member_list(self, a_set):
        sample = construct_dense_set(list(a_set), 5000)
        checkpoints = [1, 2, 3, 10, 99, 1000, 4999, 5000]
        for row in empirical_densities(sample.members, checkpoints):
            assert sample.count(row.x) == row.count
            assert sample.log_density_at(row.x) == row.log_density
        assert sample.log_density == sample.log_density_at(5000)

    def test_sub_horizons_match_a_fresh_construction(self):
        sample = construct_dense_set(["3/2"], 2000)
        for x in (1, 2, 77, 1999):
            fresh = construct_dense_set(["3/2"], x)
            assert sample.count(x) == fresh.count() == len(fresh.members)
            assert sample.log_density_at(x) == fresh.log_density
            assert sample.log_density_bracket(x) == fresh.log_density_bracket()

    def test_an_exact_sub_horizon_lists_only_its_own_free_parts(self):
        # a sample at 10^12 answers the exact route at 1000 without a mask
        # of 10^12 bytes
        sample = construct_dense_set([2, 3], 10**12)
        assert sample.log_density_at(1000) == construct_dense_set([2, 3], 1000).log_density
        assert "member_mask" not in sample.__dict__

    @pytest.mark.parametrize("x", [0, 1001])
    def test_rejects_horizons_outside_the_sample(self, x):
        sample = construct_dense_set([2, 3], 1000)
        for read in (sample.count, sample.log_density_at, sample.log_density_bracket):
            with pytest.raises(DomainError):
                read(x)


class TestLogDensityBracket:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(a_set=st.sampled_from(BRACKET_SETS), x=st.integers(1, 3000))
    @example(a_set=("2", "3"), x=1)
    @example(a_set=("2",), x=2)
    def test_contains_the_exact_log_density(self, a_set, x):
        sample = construct_dense_set(list(a_set), x)
        bracket = sample.log_density_bracket()
        if x < 2:
            assert bracket is None and sample.log_density is None
            return
        assert bracket.contains(sample.log_density)
        assert bracket.width < Fraction(1, 2**80)

    def test_contains_the_exact_log_density_at_two_hundred_thousand(self):
        sample = construct_dense_set([2, 3], 2 * 10**5)
        bracket = sample.log_density_bracket()
        assert bracket.method == "fixed-point-reciprocal-sum"
        assert bracket.contains(sample.log_density)
        assert 0 < bracket.width < Fraction(1, 10**24)
        assert dec12(bracket.lower) == dec12(bracket.upper) == dec12(sample.log_density)
        assert dec12(sample.log_density) == "0.622854425031"

    # Euler-Maclaurin brackets H(z) above the table's last entry, so these
    # horizons give cuts on both sides of it; {2,3,5}'s eight
    # inclusion-exclusion terms include - terms of one and of three elements
    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(a_set=st.sampled_from(BRACKET_SETS + [("2", "3", "5")]),
           x=st.integers(density.HARMONIC_TABLE_MAX + 1, 20_000))
    @example(a_set=("2", "3", "5"), x=density.HARMONIC_TABLE_MAX + 1)
    @example(a_set=("2", "3", "5"), x=20_000)
    @example(a_set=("2", "3"), x=20_000)
    def test_contains_the_exact_log_density_above_the_table(self, a_set, x):
        sample = construct_dense_set(list(a_set), x)
        bracket = sample.log_density_bracket()
        assert bracket.method == "fixed-point-reciprocal-sum"
        assert bracket.contains(sample.log_density)
        assert bracket.width < Fraction(1, 2**80)

    def test_the_exact_route_refuses_a_horizon_above_its_bound(self):
        x = density.EXACT_LOG_DENSITY_MAX_X + 1
        sample = construct_dense_set([2, 3], x)
        for read in (lambda: sample.log_density, lambda: sample.log_density_at(x)):
            with pytest.raises(BudgetError, match=r"an O\(x\) rational sum") as info:
                read()
            assert info.value.achieved is None
        assert "member_mask" not in sample.__dict__
        assert sample.log_density_bracket().width < Fraction(1, 2**80)

    def test_lists_no_free_part(self):
        sample = construct_dense_set(["2", "3", "5"], 10**15)
        bracket = sample.log_density_bracket()
        assert 0 < bracket.width < Fraction(1, 2**80)
        # 10^15 = 2^15 5^15 has an even exponent sum, so it is a member
        assert sample.count(10**15 - 1) + 1 == sample.count()
        for name in ("member_mask", "members"):
            assert name not in sample.__dict__


def _exact_harmonic(z):
    return exact_sum(Fraction(1, n) for n in range(1, z + 1))


def _encloses(low, high, value, bits):
    """low <= 2^bits * value <= high for a Fraction value, in integers."""
    scaled = value.numerator << bits
    return low * value.denominator <= scaled <= high * value.denominator


class TestHarmonicBounds:
    Z0 = density.HARMONIC_TABLE_MAX
    K = density.FIXED_POINT_BITS

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(z=st.integers(1, 3 * density.HARMONIC_TABLE_MAX),
           bits=st.integers(density.FIXED_POINT_BITS - 32, density.FIXED_POINT_BITS + 40))
    @example(z=1, bits=96)
    @example(z=density.HARMONIC_TABLE_MAX - 1, bits=112)
    @example(z=density.HARMONIC_TABLE_MAX, bits=112)
    @example(z=density.HARMONIC_TABLE_MAX + 1, bits=112)
    @example(z=3 * density.HARMONIC_TABLE_MAX, bits=112)
    def test_encloses_the_exact_harmonic_number(self, z, bits):
        value = _exact_harmonic(z)
        low, high = density._harmonic_bounds(z)
        assert _encloses(low, high, value, self.K)
        assert high - low <= (z if z <= self.Z0 else 2)
        # the series alone, at any scale and also where the table answers:
        # its remainder 1/(240 z^8) is wide there, but still encloses
        low, high = density._euler_maclaurin_bounds(z, bits)
        assert _encloses(low, high, value, bits)
        assert high - low <= 10 + (1 << bits) // (240 * z**8)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(z=st.integers(3 * density.HARMONIC_TABLE_MAX, 10**18))
    @example(z=10**18)
    @example(z=2**59 + 1)
    def test_encloses_mpmath_harmonic_up_to_ten_to_the_eighteen(self, z):
        low, high = density._harmonic_bounds(z)
        assert high - low <= 2
        with mpmath.workdps(60):
            scaled = mpmath.harmonic(z) * 2**self.K
            assert low <= scaled <= high, z

    def test_the_table_is_built_once(self):
        assert density._harmonic_table() is density._harmonic_table()
        assert len(density._harmonic_table()) == self.Z0 + 1


class TestEulerGamma:
    def test_the_pinned_constant_is_mpmath_s(self):
        with mpmath.workprec(400):
            assert density._EULER_GAMMA == int(mpmath.floor(mpmath.euler * 2**256))

    @pytest.mark.parametrize("bits", [0, 1, 64, 96, 112, 136, 256])
    def test_bounds_are_the_floor_and_the_ceiling(self, bits):
        with mpmath.workprec(400):
            floor = int(mpmath.floor(mpmath.euler * 2**bits))
        assert density._euler_gamma_bounds(bits) == (floor, floor + 1)


class TestEmpiricalDensities:
    def test_full_interval(self):
        rows = empirical_densities(list(range(1, 101)), [10, 100])
        assert rows[0].counting_density == 1
        assert rows[1].counting_density == 1

    def test_empty_set(self):
        rows = empirical_densities([], [10])
        assert rows[0].count == 0
        assert rows[0].counting_density == 0

    def test_single_base_converges(self):
        sample = construct_dense_set([2], 10**4)
        rows = empirical_densities(sample.members, [10**4])
        assert abs(float(rows[0].counting_density) - 2 / 3) < 0.01

    def test_density_chain_gap_at_ten_thousand(self):
        sample = construct_dense_set([2, 3], 10**4)
        rows = empirical_densities(sample.members, [10**4])
        gap = abs(float(rows[0].counting_density) - float(rows[0].log_density))
        assert gap <= 0.1

    def test_rejects_unsorted(self):
        with pytest.raises(DomainError):
            empirical_densities([3, 1], [10])

    def test_rejects_members_beyond_horizon(self):
        with pytest.raises(DomainError):
            empirical_densities([1, 50], [10])


class TestSeriesIdentityWindow:
    def test_partial_sums_agree_with_weighted_optimum(self):
        # the white-class increment series telescopes to the optimal weight,
        # so at T=50 its enclosure must contain it; scaling by the coprime
        # density then encloses the closed-form density as well
        seq = enumerate_smooth((2, 3), 10**5)
        assert len(seq) >= 52
        partial = Fraction(0)
        f0 = 0
        for t in range(50):
            if sum(seq.exponents[t]) % 2 == 0:
                f0 += 1
            partial += f0 * (
                Fraction(1, seq.values[t]) - Fraction(1, seq.values[t + 1])
            )
        m51 = seq.values[50]
        # harmonic tail of the smooth sequence, in closed form minus prefix
        total = Fraction(3)  # product of b/(b-1) for 2 and 3
        prefix = sum((Fraction(1, v) for v in seq.values[:51]), Fraction(0))
        window_low = partial + Fraction(f0, m51)
        window_high = partial + Fraction(51, m51) + (total - prefix)
        gamma = white_weight_value([2, 3])
        assert gamma == Fraction(7, 4)
        assert window_low <= gamma <= window_high
        factor = phi((2, 3))
        assert factor * window_low <= Fraction(7, 12) <= factor * window_high


class TestStrictGapCheck:
    @pytest.mark.parametrize("pair", [(2, 3), (2, 5), (3, 5)])
    def test_gap_proven(self, pair):
        report = strict_gap_check(*pair)
        assert report.gap_proven
        assert report.rho == rho_closed_form(list(pair))
        assert report.sigma.lower > report.rho

    def test_budget_exhaustion_is_inconclusive_not_false(self):
        report = strict_gap_check(2, 3, budget=3)
        assert not report.gap_proven

    def test_report_rho_values(self):
        assert strict_gap_check(2, 5).rho == Fraction(11, 18)
        assert strict_gap_check(3, 5).rho == Fraction(2, 3)


class TestLnFraction:
    def test_matches_the_context_route(self):
        # past 2^203, x has more bits than the 203-bit working precision, so
        # it must be converted exactly, as the context route converts it
        xs = list(range(2, 5000)) + [2**203 - 1, 2**203 + 1, 3**200, 10**100 + 7, 7**400 + 2]
        for x in xs:
            assert _ln_fraction(x) == context_ln(x, LN_PRECISION_DIGITS), x
