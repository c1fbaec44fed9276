import hashlib
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

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
import quotientfree.geometry as geometry
from quotientfree.cli import main
from quotientfree.rng import CounterRng
from quotientfree.verify import run_suite

from helpers import (
    context_interval,
    double_loop_slope_profile,
    eager_black_majority,
    tallied_color_counts,
)


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


# (alphas, c) for each membership route in one to four dimensions, with
# empty regions and bounds that some points meet exactly
ROW_SUM_SPECS = [
    # log route
    (["ln2"], "ln100"),
    (["ln2", "ln3"], "ln1000"),
    (["ln2", "ln3"], "ln6"),
    (["ln3", "ln2", "ln5"], "ln5000"),
    (["ln2", "ln3", "ln5", "ln7"], "ln100000"),
    # dot route
    ([3], 10),
    ([1, 2], 4),
    ([1, 2], "1/2"),
    ([1, 2], -1),
    (["1/2", "2/3", "3/4"], 5),
    ([1, 1, 1, 1], 6),
    # signs route
    (["sqrt2"], "sqrt50"),
    ([1, "sqrt2"], "sqrt8"),
    ([1, "sqrt2"], "3/2"),
    (["sqrt2", 1], "-1/2"),
    (["1/2", "sqrt5"], 20),
    ([1, "sqrt2", "sqrt3"], "15/2"),
    (["ln2", "ln3", "sqrt2"], 6),
    (["sqrt2", "sqrt3", "sqrt5", "sqrt7"], 9),
    (["sqrt2", "sqrt3"], "ln1000"),
    # an alpha below 2**-64: no enclosure filter, rows are walked up
    (["1/100000000000000000000000", "sqrt2"], "3/100000000000000000000000"),
]


class TestRowSums:
    @pytest.mark.parametrize("alphas,c", ROW_SUM_SPECS)
    def test_counts_match_the_point_tally(self, alphas, c):
        spec = SimplexSpec.of(alphas, c)
        assert simplex_color_counts(spec) == tallied_color_counts(spec)

    def test_attained_bounds_match_the_point_tally(self):
        # black-majority candidates: c = alpha . x, so x lies on the boundary
        alphas = tuple(ExactReal.parse(a) for a in ("1", "sqrt2", "sqrt3"))
        for x in ((2, 1, 1), (0, 3, 0), (1, 0, 2), (4, 2, 1)):
            spec = SimplexSpec(alphas, tuple(zip(alphas, map(Fraction, x))))
            assert spec.contains(x)
            assert simplex_color_counts(spec) == tallied_color_counts(spec), x

    @pytest.mark.parametrize("shift", [Fraction(-1, 10**25), Fraction(1, 10**25)])
    def test_bounds_within_the_enclosure_width(self, shift):
        # c = 1 + sqrt(2) + shift: the filter cannot place (1, 1), which is
        # inside exactly when shift >= 0
        alphas = (ExactReal.of(1), ExactReal.sqrt(2))
        spec = SimplexSpec(alphas, ((ExactReal.of(1 + shift), Fraction(1)),
                                    (alphas[1], Fraction(1))))
        assert spec.contains((1, 1)) == (shift >= 0)
        assert simplex_color_counts(spec) == tallied_color_counts(spec)

    def test_filter_falls_back_only_on_ties(self, monkeypatch):
        calls = []
        sign_of_terms = geometry._sign_of_terms

        def counting(terms, what):
            calls.append(what)
            return sign_of_terms(terms, what)

        monkeypatch.setattr(geometry, "_sign_of_terms", counting)
        spec = SimplexSpec.of([1, "sqrt2"], "sqrt8")
        assert spec.contains((2, 0)) and not spec.contains((3, 0)) and not spec.contains((0, 3))
        assert calls == []
        assert spec.contains((0, 2))  # 2*sqrt(2) == sqrt(8)
        assert calls == ["membership of point (0, 2)"]


# the bench's black-majority families at its six scales, and the verify inputs
_SCALES = ((1, 1), (1, 2), (2, 3), (3, 2), (5, 7), (4, 5))
BLACK_MAJORITY_FAMILIES = [
    family
    for index, (num, den) in enumerate(_SCALES)
    for m in (index + 1,)
    for family in (
        tuple(f"{j * num}/{den}" for j in (1, 2, 3)),
        tuple(f"{j * num}/{den}" for j in (2, 3)),
        (str(m), f"sqrt{2 * m * m}"),
        (f"sqrt{2 * m * m}", f"sqrt{3 * m * m}"),
        (f"ln{2 ** m}", f"ln{3 ** m}"),
        (f"ln{2 ** m}", f"ln{3 ** m}", f"ln{5 ** m}"),
    )
] + [("ln2", "ln3"), ("1", "sqrt2"), ("1", "2")]


# coefficient atoms: rationals, logarithms with common factors, square roots
_RATIONAL_ATOMS = st.builds("{}/{}".format, st.integers(1, 9), st.integers(1, 9))
_LOG_ATOMS = st.integers(2, 30).map("ln{}".format)
_SQRT_ATOMS = st.integers(2, 50).map("sqrt{}".format)
_ALPHA_LISTS = st.one_of(
    *(st.lists(atoms, min_size=2, max_size=3)
      for atoms in (_RATIONAL_ATOMS, _LOG_ATOMS, _SQRT_ATOMS,
                    st.one_of(_RATIONAL_ATOMS, _LOG_ATOMS, _SQRT_ATOMS)))
)


class TestFindBlackMajority:
    @pytest.mark.parametrize("alphas", BLACK_MAJORITY_FAMILIES)
    def test_lazy_scan_matches_the_eager_one(self, alphas):
        assert find_black_majority_c(alphas) == eager_black_majority(alphas)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(_ALPHA_LISTS, st.integers(1, 100))
    def test_lazy_scan_matches_the_eager_one_on_random_alphas(self, texts, budget):
        alphas = sorted(map(ExactReal.parse, texts), key=ExactReal.sort_key)
        assert (find_black_majority_c(alphas, budget)
                == eager_black_majority(alphas, budget))

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

    def test_cli_output_digest(self, capsys):
        # every family, plus logarithms with common factors, at three budgets
        digest = hashlib.sha256()
        for alphas in BLACK_MAJORITY_FAMILIES + [("ln2", "ln4"), ("ln2", "ln4", "ln8")]:
            for budget in (5, 64, 200):
                code = main(["black-majority", "--alphas", ",".join(alphas),
                             "--budget", str(budget), "--json"])
                digest.update(f"{code}\n{capsys.readouterr().out}".encode())
        assert digest.hexdigest() == (
            "fd47f3bbbe2fabd95d96994e20f630e7422c4606f07e00bd7657e6cade19bf6f")

    @pytest.mark.parametrize("alphas", [["ln1", "ln2"], [0, 1], ["sqrt0", "sqrt2"]])
    def test_rejects_a_zero_coefficient(self, alphas):
        # ln 1, 0 and sqrt 0 are rational zeros: the scan would repeat one
        # threshold forever
        with pytest.raises(DomainError, match="all coefficients must be positive"):
            find_black_majority_c(alphas)


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

    def test_recurrence_matches_the_double_loop(self):
        for a1 in range(1, 8):
            for a2 in range(1, 8):
                rows = [(r.c, r.white, r.black, r.diff)
                        for r in rational_slope_profile(a1, a2, 300)]
                assert rows == double_loop_slope_profile(a1, a2, 300), (a1, a2)


class TestPrecisionHandling:
    def test_undecidable_tie_at_the_fixed_cap(self):
        # 200280098 = 2 * 10007**2 and 10007 is past the trial divisors, so
        # sqrt(200280098) keeps its radicand, and the exact tie with
        # 10007 * sqrt(2) stays undecided at every precision up to the cap
        spec = SimplexSpec.of([1, "sqrt2"], "sqrt200280098")
        with pytest.raises(PrecisionError, match="membership"):
            spec.contains((0, 10007))

    def test_exact_equality_on_boundary_via_sqrt(self):
        # 2*sqrt(2) <= sqrt(8) is an exact tie after square extraction
        spec = SimplexSpec.of([1, "sqrt2"], "sqrt8")
        assert spec.contains((0, 2))
        assert not spec.contains((0, 3))

    def test_sqrt_radicand_past_the_trial_divisors(self):
        # 10**20 + 39 keeps its form; a square cofactor is still pulled out
        atom = ExactReal.sqrt(10**20 + 39)
        assert (atom.kind, atom.arg, atom.scale) == ("sqrt", 10**20 + 39, 1)
        assert ExactReal.sqrt(4 * 1000003**2).rational == 2 * 1000003
        atom = ExactReal.sqrt(3 * 1000003**2)  # root of the square factor > 10**4
        assert (atom.arg, atom.scale) == (3 * 1000003**2, 1)

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
