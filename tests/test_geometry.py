from fractions import Fraction

import pytest

from quotientfree import (
    DomainError,
    ExactReal,
    PrecisionError,
    SimplexSpec,
    enumerate_smooth,
    find_black_majority_c,
    rational_slope_profile,
    simplex_color_counts,
    simplex_points,
)
from quotientfree.rng import CounterRng
from quotientfree.verify import run_suite

from helpers import context_interval


class TestExactReal:
    def test_parse_forms(self):
        assert ExactReal.parse("3/2").rational == Fraction(3, 2)
        assert ExactReal.parse("ln2").arg == 2
        assert ExactReal.parse("ln(12)").arg == 12
        assert ExactReal.parse("sqrt2").arg == 2

    def test_sqrt_square_extraction(self):
        atom = ExactReal.sqrt(8)
        assert (atom.arg, atom.scale) == (2, 2)
        assert ExactReal.sqrt(9).rational == 3
        assert ExactReal.sqrt(0).rational == 0

    def test_log_of_one_is_rational_zero(self):
        assert ExactReal.log(1).rational == 0

    def test_interval_encloses_value(self):
        import math

        for atom, value in (
            (ExactReal.log(2), math.log(2)),
            (ExactReal.sqrt(2), math.sqrt(2)),
            (ExactReal.sqrt(8), math.sqrt(8)),
        ):
            lo, hi = atom.interval(64)
            assert float(lo) <= value <= float(hi)
            assert float(hi - lo) < 1e-15


class TestSimplexPoints:
    def test_rational_two_dim(self):
        config = simplex_points(SimplexSpec.of([1, 2], 4))
        assert len(config.points) == 9

    def test_log_mode_matches_smooth_enumeration(self):
        config = simplex_points(SimplexSpec.of(["ln2", "ln3"], "ln12"))
        smooth = tuple(sorted(enumerate_smooth((2, 3), 12).exponents))
        assert config.points == smooth

    def test_small_bound_gives_origin_only(self):
        config = simplex_points(SimplexSpec.of([1, 2], "1/2"))
        assert config.points == ((0, 0),)

    def test_three_dims(self):
        config = simplex_points(SimplexSpec.of([1, 1, 1], 2))
        assert len(config.points) == 10  # compositions of <=2 into 3 parts

    def test_log_mode_random_agreement(self):
        from math import gcd

        rng = CounterRng(29)
        done = 0
        while done < 50:
            p = rng.randint(2, 12)
            q = rng.randint(2, 12)
            if p >= q or gcd(p, q) != 1:
                continue
            n = rng.randint(1, 500)
            done += 1
            config = simplex_points(SimplexSpec.of([f"ln{p}", f"ln{q}"], f"ln{n}"))
            smooth = tuple(sorted(enumerate_smooth((p, q), n).exponents))
            assert config.points == smooth, (p, q, n)

    def test_rejects_nonpositive_alpha(self):
        with pytest.raises(DomainError):
            SimplexSpec.of([0, 2], 4)

    def test_boundary_inclusive(self):
        config = simplex_points(SimplexSpec.of([1, 2], 2))
        assert (2, 0) in config.points
        assert (0, 1) in config.points


class TestSimplexColorCounts:
    def test_white_majority_at_four(self):
        counts = simplex_color_counts(SimplexSpec.of([1, 2], 4))
        assert (counts.white, counts.black) == (5, 4)

    def test_balanced_at_five(self):
        counts = simplex_color_counts(SimplexSpec.of([1, 2], 5))
        assert (counts.white, counts.black) == (6, 6)

    def test_irrational_coefficient(self):
        counts = simplex_color_counts(SimplexSpec.of([1, "sqrt2"], "3/2"))
        assert (counts.white, counts.black) == (1, 2)

    def test_permutation_invariance(self):
        rng = CounterRng(31)
        for _ in range(20):
            a = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            b = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            c = Fraction(rng.randint(0, 30), rng.randint(1, 3))
            assert simplex_color_counts(
                SimplexSpec.of([a, b], c)
            ) == simplex_color_counts(SimplexSpec.of([b, a], c))

    def test_point_count_monotone_in_bound(self):
        previous = 0
        for c in range(0, 20):
            counts = simplex_color_counts(SimplexSpec.of([1, 2], c))
            assert counts.total >= previous
            previous = counts.total

    def test_layer_balance_accounts_for_count_changes(self):
        # the white-black difference moves exactly by the balance of the
        # points picked up at each integer threshold
        for c in range(1, 30):
            before = simplex_color_counts(SimplexSpec.of([1, 2], c - 1))
            after = simplex_color_counts(SimplexSpec.of([1, 2], c))
            new_white = new_black = 0
            for x in range(c + 1):
                if (c - x) % 2 == 0:
                    y = (c - x) // 2
                    if (x + y) % 2 == 0:
                        new_white += 1
                    else:
                        new_black += 1
            assert after.white - before.white == new_white
            assert after.black - before.black == new_black


class TestFindBlackMajority:
    def test_log_pair_finds_three(self):
        result = find_black_majority_c(["ln2", "ln3"])
        assert result.found
        assert result.integer_bound == 3
        assert (result.counts.white, result.counts.black) == (1, 2)

    def test_sqrt_pair_finds_three_halves(self):
        result = find_black_majority_c([1, "sqrt2"])
        assert result.found
        assert result.threshold == Fraction(3, 2)
        assert (result.counts.white, result.counts.black) == (1, 2)

    def test_rational_slope_finds_nothing(self):
        result = find_black_majority_c([1, 2])
        assert not result.found
        assert result.candidates_tested == 64

    def test_found_result_reverifies(self):
        result = find_black_majority_c([1, "sqrt2"])
        counts = simplex_color_counts(SimplexSpec.of([1, "sqrt2"], result.threshold))
        assert counts.black > counts.white
        assert counts == result.counts

    def test_rejects_single_coefficient(self):
        with pytest.raises(DomainError):
            find_black_majority_c([2])

    def test_rejects_descending(self):
        with pytest.raises(DomainError):
            find_black_majority_c([2, 1])


class TestRationalSlopeProfile:
    def test_unit_double_slope_small(self):
        rows = rational_slope_profile(1, 2, 8)
        assert [(r.c, r.diff) for r in rows] == [
            (1, 0), (2, 0), (3, 0), (4, 1), (5, 0), (6, 0), (7, 0), (8, 1),
        ]

    def test_trivial(self):
        rows = rational_slope_profile(1, 2, 1)
        assert rows[0].diff == 0

    def test_full_pattern_to_one_hundred(self):
        for row in rational_slope_profile(1, 2, 100):
            expected = 1 if row.c % 4 == 0 else 0
            assert row.diff == expected, row

    def test_counts_match_enumeration(self):
        for c in (1, 5, 12, 17):
            row = rational_slope_profile(1, 2, c)[-1]
            counts = simplex_color_counts(SimplexSpec.of([1, 2], c))
            assert (row.white, row.black) == (counts.white, counts.black)

    def test_other_slopes(self):
        for a1, a2 in ((1, 3), (2, 3), (3, 4)):
            for c in (4, 9, 20):
                row = rational_slope_profile(a1, a2, c)[-1]
                counts = simplex_color_counts(SimplexSpec.of([a1, a2], c))
                assert (row.white, row.black) == (counts.white, counts.black)

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            rational_slope_profile(0, 2, 5)


class TestPrecisionHandling:
    def test_undecidable_at_tiny_precision_cap(self):
        # two distinct radicands force the interval route, and a cap below
        # the starting precision leaves the comparison undecided
        spec = SimplexSpec.of(["sqrt2", "sqrt3"], 4)
        assert spec.contains((1, 1))  # decidable at the default cap
        with pytest.raises(PrecisionError, match="membership"):
            spec.contains((1, 1), prec_cap=1)

    def test_exact_equality_on_boundary_via_sqrt(self):
        # 2*sqrt(2) <= sqrt(8) is an exact tie after square extraction
        spec = SimplexSpec.of([1, "sqrt2"], "sqrt8")
        assert spec.contains((0, 2))
        assert not spec.contains((0, 3))

    def test_exact_equality_on_boundary_via_logs(self):
        spec = SimplexSpec.of(["ln2", "ln3"], "ln6")
        assert spec.contains((1, 1))
        assert not spec.contains((2, 1))


# arguments wider than some of the working precisions below (53 to 1329
# bits), where converting the argument itself rounds outward
BIG_ARGS = [10**12 + 39, 2**61 - 1, 3**40, 7**90, 10**400 + 1]


class TestNoMpmathGlobalState:
    @pytest.mark.parametrize("prec", [53, 64, 200, 256, 1024])
    def test_interval_matches_the_context_route(self, prec):
        for k in list(range(2, 300)) + BIG_ARGS:
            for kind in ("log", "sqrt"):
                assert ExactReal(kind, arg=k).interval(prec) == context_interval(kind, k, prec)

    def test_interval_matches_the_context_route_at_the_cap(self):
        for k in list(range(2, 40)) + BIG_ARGS:
            for kind in ("log", "sqrt"):
                assert ExactReal(kind, arg=k).interval(4096) == context_interval(kind, k, 4096)

    def test_suites_leave_the_precisions_alone(self):
        import mpmath

        iv_prec, mp_prec = mpmath.iv.prec, mpmath.mp.prec
        try:
            # odd settings, so a route that read them would show up as a failure
            mpmath.iv.prec, mpmath.mp.prec = 17, 23
            reports = run_suite("all", budget="small")
            assert (mpmath.iv.prec, mpmath.mp.prec) == (17, 23)
        finally:
            mpmath.iv.prec, mpmath.mp.prec = iv_prec, mp_prec
        assert all(r.passed == len(r.cases) for r in reports)
