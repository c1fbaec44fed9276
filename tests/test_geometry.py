import hashlib
import json
import math
import re
import time
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from quotientfree import (
    ColorCount,
    DomainError,
    ExactReal,
    PrecisionError,
    SelfCheckError,
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
    interval_sign,
    swept_simplest,
    swept_threshold,
    tallied_color_counts,
    walked_points,
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

    @pytest.mark.parametrize("atom,text", [
        (ExactReal.of(Fraction(3, 2)), "3/2"),
        (ExactReal.log(5), "ln(5)"),
        (ExactReal.sqrt(2), "sqrt(2)"),
        (ExactReal.sqrt(8), "2*sqrt(2)"),
    ], ids=["rational", "log", "sqrt", "scaled-sqrt"])
    def test_str_forms(self, atom, text):
        assert str(atom) == text

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


# one to three dimensions on each route: integer division, the integer
# product loop, and the certified signs, at 2**64 and at a tiny alpha's scale
ROW_WALK_SPECS = [
    (["3/2"], "7"),
    (["1", "2"], "4"),
    (["1/2", "1", "3/2"], "3"),
    (["ln2"], "ln100"),
    (["ln2", "ln3"], "ln100"),
    (["ln2", "ln3", "ln5"], "ln60"),
    (["sqrt2"], "5"),
    (["1", "sqrt2"], "4"),
    (["1", "sqrt2", "sqrt3"], "3"),
    (["sqrt2", "sqrt3"], "sqrt8"),  # a point on the boundary: (2, 0)
    # an alpha below 2**-64 raises the enclosures' scale until it reads at
    # least 2**64: five rows of one point, then one row of five
    ([Fraction(1, 2**70), "sqrt2"], Fraction(1, 2**68)),
    (["sqrt2", Fraction(1, 2**70)], Fraction(1, 2**68)),
    (["1", "2"], "-1"),  # no points
]


class TestSimplexPoints:
    def test_rational_two_dim(self):
        config = simplex_points(SimplexSpec.of([1, 2], 4))
        assert len(config.points) == 9

    def test_contains_checks_the_dimension_and_the_sign(self):
        spec = SimplexSpec.of([1, 2], 3)
        with pytest.raises(DomainError, match="^point dimension mismatch$"):
            spec.contains((1,))
        assert spec.contains((-1, 0)) is False

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

    @pytest.mark.parametrize("alphas,c", ROW_WALK_SPECS)
    def test_rows_match_the_point_walk(self, alphas, c):
        spec = SimplexSpec.of(alphas, c)
        full = walked_points(spec)
        # every cut: none, 0, 1, mid-row, at each row end, and past the size
        for limit in [None, *range(len(full) + 3)]:
            assert simplex_points(spec, limit).points == walked_points(spec, limit), limit

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_points_come_distinct_and_sorted(self, data):
        # simplex_points builds its config without the checks of
        # construction, so its points must already be what they would give
        kind = data.draw(st.sampled_from(["rational", "log", "sqrt"]))
        dim = data.draw(st.integers(1, 3))
        if kind == "rational":
            alphas = data.draw(st.lists(
                st.builds(Fraction, st.integers(1, 9), st.integers(1, 3)),
                min_size=dim, max_size=dim))
            c = data.draw(st.builds(Fraction, st.integers(0, 12), st.integers(1, 3)))
        elif kind == "log":
            alphas = [f"ln{k}" for k in data.draw(
                st.lists(st.integers(2, 12), min_size=dim, max_size=dim))]
            c = f"ln{data.draw(st.integers(1, 500))}"
        else:
            alphas = [f"sqrt{k}" for k in data.draw(
                st.lists(st.integers(1, 12), min_size=dim, max_size=dim))]
            c = data.draw(st.integers(0, 8))
        spec = SimplexSpec.of(alphas, c)
        limit = data.draw(st.one_of(st.none(), st.integers(0, 60)))
        points = simplex_points(spec, limit).points
        assert points == tuple(sorted(set(points)))
        assert all(min(p) >= 0 and len(p) == dim for p in points)

    def test_a_filterless_row_takes_logarithmically_many_tests(self, monkeypatch):
        # an alpha below 2**-64 is enclosed at a scale that lifts it to
        # 2**64, and the one row of 10**6 + 1 points is counted from it
        calls = []
        contains = SimplexSpec.contains

        def counted(spec, point):
            calls.append(tuple(point))
            return contains(spec, point)

        monkeypatch.setattr(SimplexSpec, "contains", counted)
        spec = SimplexSpec.of(["sqrt2", Fraction(1, 2**70)], Fraction(10**6, 2**70))
        lo, _, _, _ = spec._route[1]
        assert min(lo) >= 2**64
        assert simplex_color_counts(spec) == ColorCount(500_001, 500_000)
        assert len(calls) <= 2 * (10**6).bit_length() + 4

    def test_a_wide_row_end_gap_takes_logarithmically_many_tests(self, monkeypatch):
        # sqrt2 is enclosed one unit wide at 2**64, so under c = 10**30 the
        # enclosures place the end of the row of about 7 * 10**29 points only
        # within some 2.7 * 10**10, which is bisected
        calls = []
        contains = SimplexSpec.contains

        def counted(spec, point):
            calls.append(tuple(point))
            return contains(spec, point)

        monkeypatch.setattr(SimplexSpec, "contains", counted)
        spec = SimplexSpec.of(["sqrt2"], 10**30)
        lo, hi, c_lo, c_hi = spec._route[1]
        assert c_hi // lo[-1] - c_lo // hi[-1] > 2**16
        # z <= 10**30 / sqrt2, whose floor is isqrt(10**60 // 2)
        total = math.isqrt(10**60 // 2) + 1
        assert simplex_color_counts(spec) == ColorCount((total + 1) // 2, total // 2)
        assert len(calls) <= 2 * (10**30).bit_length() + 4

    def test_rows_need_no_membership_test(self, monkeypatch):
        def refuse(self, point):
            raise AssertionError(f"membership of {point} was tested")

        monkeypatch.setattr(SimplexSpec, "contains", refuse)
        config = simplex_points(SimplexSpec.of(["ln2", "ln3"], f"ln{10**10}"))
        smooth = tuple(sorted(enumerate_smooth((2, 3), 10**10).exponents))
        assert config.points == smooth
        config = simplex_points(SimplexSpec.of(["1/3", "1/2"], "7"))
        assert config.points == tuple(
            (x, y) for x in range(22) for y in range(15) if 2 * x + 3 * y <= 42
        )


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
    # an alpha below 2**-64: enclosures at the scale that lifts it to 2**64
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

    @pytest.mark.parametrize("c_terms", [
        (("5", 1), ("sqrt2", -1)),
        (("ln5", Fraction(7, 3)), ("sqrt3", Fraction(-1, 2)), ("1/7", 1)),
        (("sqrt3", 2), ("ln7", 0), ("1", 1)),
    ], ids=["5-sqrt2", "mixed-signs", "zero-coefficient"])
    def test_box_brackets_c_whatever_the_signs(self, c_terms):
        # c's box sums k times its atoms' integer pairs, the ends swapped
        # when k < 0; mpmath's 512-bit enclosure of c must lie inside it
        alphas = (ExactReal.of(1), ExactReal.sqrt(2))
        terms = tuple((ExactReal.parse(text), Fraction(k)) for text, k in c_terms)
        spec = SimplexSpec(alphas, terms)
        _, _, c_lo, c_hi = spec._route[1]
        lo = hi = Fraction(0)
        for atom, k in terms:
            a_lo, a_hi = ((atom.rational, atom.rational) if atom.is_rational
                          else context_interval(atom.kind, atom.arg, 512))
            lo += k * (a_lo if k >= 0 else a_hi)
            hi += k * (a_hi if k >= 0 else a_lo)
        assert c_lo <= lo * 2**64 and hi * 2**64 <= c_hi
        for point in ((x, y) for x in range(6) for y in range(6)):
            signed = list(zip(alphas, map(Fraction, point))) + [(a, -k) for a, k in terms]
            assert spec.contains(point) == (geometry._sign_of_terms(signed, "grid") <= 0)

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


# tiny alphas 1/(k * 2**e), dyadic and not: a power-of-two scale would leave
# 1/(3 * 2**e) one unit wide
TINY_DENOMINATORS = [(1, 70), (1, 1000), (1, 10**4), (3, 100), (3, 1000), (3, 10**4)]


class TestTinyAlphas:
    """Rational alphas below 2**-64 against exact counts built on isqrt.

    The enclosures are scaled by 2**64 times the rational alphas'
    denominators, so a tiny alpha reads an exact integer of at least 2**64,
    dyadic or not, and each region is counted by floor sums, not point by
    point.
    """

    @pytest.mark.parametrize("k,e", TINY_DENOMINATORS)
    def test_sqrt2_and_a_tiny_alpha(self, k, e):
        den = k * 2**e
        # at c = 2, row 0 holds z <= 2 * den; row 1 holds z <= (2 - sqrt2) * den,
        # and sqrt2 * den is irrational, so its floor is isqrt(2 * den**2)
        row1 = 2 * den - math.isqrt(2 * den * den)
        first = ColorCount(den + 1, den)
        spec = SimplexSpec.of(["sqrt2", Fraction(1, den)], 2)
        lo, hi, _, _ = spec._route[1]
        assert lo[-1] == hi[-1] >= 2**64
        assert simplex_color_counts(spec) == ColorCount(
            first.white + row1 // 2, first.black + row1 - row1 // 2)
        assert simplex_points(spec, 3).points == ((0, 0), (0, 1), (0, 2))

    @pytest.mark.parametrize("k,e", TINY_DENOMINATORS)
    def test_one_sqrt2_and_a_tiny_alpha(self, k, e):
        den = k * 2**e
        # row (x, y) with x + y*sqrt2 <= 3 holds (3 - x) * den - isqrt(2 y**2 den**2)
        # points, plus one where y = 0; its z alternate in color from x + y's
        rows = [(x, y) for x in range(4) for y in range(3) if 2 * y * y <= (3 - x) ** 2]
        white = black = 0
        for x, y in rows:
            length = (3 - x) * den - math.isqrt(2 * y * y * den * den) + (y == 0)
            even = (length + 1 - (x + y) % 2) // 2
            white += even
            black += length - even
        spec = SimplexSpec.of(["1", "sqrt2", Fraction(1, den)], 3)
        assert simplex_color_counts(spec) == ColorCount(white, black)

    @pytest.mark.parametrize("k,e", TINY_DENOMINATORS)
    def test_one_tiny_alpha_under_an_irrational_c(self, k, e):
        den = k * 2**e
        # z <= sqrt2 * den, whose floor is isqrt(2 * den**2)
        spec = SimplexSpec.of([Fraction(1, den)], "sqrt2")
        total = math.isqrt(2 * den * den) + 1
        counts = ColorCount((total + 1) // 2, total // 2)
        assert simplex_color_counts(spec) == counts


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


# rational atoms p/q with p <= 12 and q <= 5; a list may repeat one
_SMALL_RATIONALS = st.builds(Fraction, st.integers(1, 12), st.integers(1, 5))
# (1, 2), (1, 4) and (1, 2, 4) times a rational: families whose black
# majority never comes, so the scan runs its whole budget
_NEVER_LEADING = st.builds(lambda q, shape: [q * k for k in shape],
                           st.builds(Fraction, st.integers(1, 3), st.integers(1, 5)),
                           st.sampled_from([(1, 2), (1, 4), (1, 2, 4)]))


# scans that find their black majority at the budget-th candidate, whose
# lookahead value lies past the budget; one short of the budget, the color
# series of (2, 5) still reaches the lead, at level 6, its fifth candidate
_FOUND_AT_THE_BUDGET = [(("ln2", "ln3"), 3), (("1", "3"), 4), (("1", "sqrt2"), 3),
                        (("2", "5"), 5)]


def _count_filter_enclosures(monkeypatch) -> list:
    """The atoms whose integer filter pair is computed, as they come.

    Each pair is one ``ExactReal._enclose`` call at the filter scale
    2**64, and those calls are what this lists.
    """
    enclosed = []
    enclose = ExactReal._enclose

    def counted(atom, scale):
        if scale == 1 << geometry._FILTER_BITS:
            enclosed.append(atom)
        return enclose(atom, scale)

    monkeypatch.setattr(ExactReal, "_enclose", counted)
    return enclosed


class TestFilterMemo:
    def test_an_atom_is_enclosed_once_across_specs(self, monkeypatch):
        enclosed = _count_filter_enclosures(monkeypatch)
        alphas = (ExactReal.of(1), ExactReal.sqrt(2))
        c = ExactReal.log(10)
        first = SimplexSpec(alphas, c)
        assert enclosed == [*alphas, c]
        second = SimplexSpec(alphas, tuple(zip(alphas, map(Fraction, (2, 1)))))
        assert second.contains((1, 1)) and not first.contains((1, 2))
        assert enclosed == [*alphas, c]

    def test_an_atom_is_enclosed_once_per_scale(self, monkeypatch):
        # 1/3 raises the scale to 3 * 2**64, and 1 leaves it at 2**64
        scales = []
        enclose = ExactReal._enclose

        def counted(atom, scale):
            if atom is root:
                scales.append(scale)
            return enclose(atom, scale)

        monkeypatch.setattr(ExactReal, "_enclose", counted)
        third, one, root = ExactReal.of(Fraction(1, 3)), ExactReal.of(1), ExactReal.sqrt(2)
        for c in (1, 2):
            spec = SimplexSpec((third, root), ExactReal.of(c))
            assert spec._route[1][0][0] == 1 << 64  # 1/3 is exact
        assert scales == [3 << 64]
        SimplexSpec((one, root), ExactReal.of(1))
        assert scales == [3 << 64, 1 << 64]
        assert set(root._scaled_pairs) == {3 << 64, 1 << 64}

    def test_a_tiny_non_dyadic_alpha_beside_sqrt2_is_counted_by_floor_sums(self, monkeypatch):
        # 1/(3 * 2**40) read at 2**64 alone is one unit wide, which left every
        # one of its 3.3 * 10**12 rows to be walked; with the 3 in the scale it
        # is exact, and the one slab is counted by floor sums
        rows = []
        row_length = SimplexSpec._row_length

        def counted(spec, head):
            rows.append(tuple(head))
            assert len(rows) <= 64, "the slab is walked row by row"
            return row_length(spec, head)

        monkeypatch.setattr(SimplexSpec, "_row_length", counted)
        spec = SimplexSpec.of(["1/3298534883328", "sqrt2"], 1)
        assert simplex_color_counts(spec) == ColorCount(1649267441665, 1649267441664)

    @pytest.mark.parametrize("text", ["3/2", "ln10", "sqrt8", "sqrt(100000000000000000039)"])
    def test_a_filled_memo_leaves_equality_hash_and_repr_alone(self, text):
        used = ExactReal.parse(text)
        SimplexSpec((ExactReal.sqrt(3), used), used)
        assert "_scaled_pairs" in vars(used)
        fresh = ExactReal.parse(text)
        assert "_scaled_pairs" not in vars(fresh)
        assert used == fresh and hash(used) == hash(fresh) and repr(used) == repr(fresh)


# a point of the region (or just past it) lies on c's boundary: alpha . x
# shifted by one of these, far inside the enclosures' 2**-64 width
_BOUNDARY_SHIFTS = (Fraction(0), Fraction(-1, 10**25), Fraction(1, 10**25))
# the largest c (or, for logarithms, N in c = ln N) drawn per dimension,
# so that every region holds at most a few thousand points
_DOT_BOUNDS = {1: 40, 2: 30, 3: 12, 4: 7}
_LOG_BOUNDS = {1: 10**6, 2: 10**5, 3: 10**4, 4: 3000}


@st.composite
def _slab_regions(draw):
    """(alphas, c) of a 1- to 4-D region on the dot, log or signs route.

    c is drawn outright, or put through a drawn point x so that x lies on
    the boundary: c = alpha . x exactly on the dot and log routes (N the
    smooth number prod k_i**x_i), and alpha . x plus a tiny shift on the
    signs route, where the two enclosures then disagree on x's slab.
    """
    route = draw(st.sampled_from(["dot", "log", "signs"]))
    dim = draw(st.integers(1, 4))
    on_boundary = draw(st.booleans())
    x = draw(st.lists(st.integers(0, 3), min_size=dim, max_size=dim))
    if route == "dot":
        alphas = tuple(ExactReal.of(f) for f in draw(st.lists(
            st.builds(Fraction, st.integers(1, 9), st.integers(1, 3)),
            min_size=dim, max_size=dim)))
        if on_boundary:
            bound = sum(a.rational * k for a, k in zip(alphas, x))
        else:
            bound = Fraction(draw(st.integers(-1, 3 * _DOT_BOUNDS[dim])), 3)
        return alphas, ExactReal.of(bound)
    if route == "log":
        args = draw(st.lists(st.integers(2, 12), min_size=dim, max_size=dim))
        if on_boundary:
            n = 1
            for k, e in zip(args, x):
                n *= k**e
        else:
            n = draw(st.integers(1, _LOG_BOUNDS[dim]))
        return tuple(map(ExactReal.log, args)), ExactReal.log(n)
    texts = draw(st.lists(st.one_of(_RATIONAL_ATOMS, _LOG_ATOMS, _SQRT_ATOMS),
                          min_size=dim, max_size=dim))
    texts[draw(st.integers(0, dim - 1))] = draw(_SQRT_ATOMS)  # off the other routes
    alphas = tuple(map(ExactReal.parse, texts))
    if on_boundary:
        shift = draw(st.sampled_from(_BOUNDARY_SHIFTS))
        c = tuple(zip(alphas, map(Fraction, x))) + ((ExactReal.of(shift), Fraction(1)),)
    else:
        c = ExactReal.of(Fraction(draw(st.integers(-1, 4 * _DOT_BOUNDS[dim])), 4))
    return alphas, c


def _parsed(alphas, c):
    return tuple(map(ExactReal.parse, alphas)), ExactReal.parse(c)


class TestSlabCounts:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(region=_slab_regions())
    # forced ties: an integer c with alpha 1, c = ln N for a smooth N, and
    # a signs region whose bound meets the point (5, 0) exactly
    @example(region=_parsed(["1", "2", "3"], "6"))
    @example(region=_parsed(["1", "1"], "9"))
    @example(region=_parsed(["ln2", "ln3"], "ln72"))
    @example(region=_parsed(["ln3", "ln2", "ln5"], "ln(3600)"))
    @example(region=_parsed(["1", "sqrt2"], "5"))
    def test_slabs_match_the_point_tally(self, region):
        spec = SimplexSpec(*region)
        assert simplex_color_counts(spec) == tallied_color_counts(spec)

    @pytest.mark.parametrize("shift", _BOUNDARY_SHIFTS)
    def test_a_tie_decides_its_slab_by_rows(self, shift, monkeypatch):
        # c = 3 + 4*sqrt(2) + shift puts (3, 4) within the enclosures' width
        # of the boundary: that slab's rows are decided one by one
        rows = []
        row_length = SimplexSpec._row_length
        monkeypatch.setattr(SimplexSpec, "_row_length",
                            lambda spec, head: rows.append(tuple(head)) or row_length(spec, head))
        alphas = (ExactReal.of(1), ExactReal.sqrt(2))
        spec = SimplexSpec(alphas, ((alphas[0], Fraction(3)), (alphas[1], Fraction(4)),
                                    (ExactReal.of(shift), Fraction(1))))
        assert simplex_color_counts(spec) == tallied_color_counts(spec)
        # the count puts sqrt(2) first, and the fallback walks the slab's rows
        # y = 0, 1, 2, ... to its first empty one: 7*sqrt(2) > 3 + 4*sqrt(2)
        assert rows == [(y,) for y in range(8)]

    @pytest.mark.parametrize("basis, n", [((2, 3, 5, 7), 10**15), ((2, 3, 5, 7, 11), 10**12)])
    @pytest.mark.parametrize("reverse", [False, True])
    def test_many_slab_log_counts_match_the_smooth_tally(self, basis, n, reverse):
        # two or more head coordinates: every slab reads the one parity table
        exponents = enumerate_smooth(basis, n).exponents
        black = sum(sum(x) % 2 for x in exponents)
        spec = SimplexSpec.of([f"ln{p}" for p in sorted(basis, reverse=reverse)], f"ln{n}")
        assert simplex_color_counts(spec) == ColorCount(len(exponents) - black, black)

    def test_a_log_table_past_the_cap_gives_way_to_the_row_pass(self, monkeypatch):
        # the table's keys are the 3**i * 2**j up to the bound, the last two
        # bases of the descending alphas; one key past the cap, the slabs are
        # counted by the row pass instead, to the same counts
        n = 10**15
        spec = SimplexSpec.of(["ln7", "ln5", "ln3", "ln2"], f"ln{n}")
        keys = sum(1 for i in range(32) for j in range(50) if 3**i * 2**j <= n)
        exponents = enumerate_smooth((2, 3, 5, 7), n).exponents
        black = sum(sum(x) % 2 for x in exponents)
        expected = ColorCount(len(exponents) - black, black)
        assert keys < geometry._LOG_TABLE_MAX_KEYS
        for cap, route in ((keys, "table_slab"), (keys - 1, "log_slab")):
            monkeypatch.setattr(geometry, "_LOG_TABLE_MAX_KEYS", cap)
            assert geometry._slab_counter(spec).__name__ == route
            assert simplex_color_counts(spec) == expected

    def test_a_tiny_alpha_listed_first_is_walked_last(self):
        # the count puts sqrt(2) first and the tiny alpha last: two slabs,
        # x = 0 and 1, where the order given would walk some 6.6 * 10**12
        k = 3298534883328
        counts = simplex_color_counts(SimplexSpec.of([f"1/{k}", "1", "sqrt2"], 2))
        # the rows (x, y) hold z = 0..floor(k * (2 - y - sqrt(2)*x))
        rows = {(0, 0): 2 * k + 1, (0, 1): k + 1, (0, 2): 1, (1, 0): 2 * k - math.isqrt(2 * k * k)}
        white = sum((length + 1 - sum(head) % 2) // 2 for head, length in rows.items())
        assert counts == ColorCount(white, sum(rows.values()) - white)

    def test_a_tie_free_signs_region_needs_no_membership_test(self, monkeypatch):
        def refuse(self, point):
            raise AssertionError(f"membership of {point} was tested")

        spec = SimplexSpec.of(["1", "sqrt2", "sqrt3"], Fraction(39, 2))
        expected = tallied_color_counts(spec)
        monkeypatch.setattr(SimplexSpec, "contains", refuse)
        assert simplex_color_counts(spec) == expected

    def test_three_unit_alphas_at_ten_to_the_fifth(self):
        # 10**5 + 1 slabs, one per x: the triangles y + z <= k, k = n - x
        n = 10**5
        counts = simplex_color_counts(SimplexSpec.of([1, 1, 1], n))
        assert counts.total == math.comb(n + 3, 3)
        # a triangle of size k has (k//2 + 1)**2 points with y + z even
        # among its (k + 1)(k + 2)/2, and an odd x swaps the two colors
        assert counts.white - counts.black == sum(
            (-1) ** (n - k) * (2 * (k // 2 + 1) ** 2 - (k + 1) * (k + 2) // 2)
            for k in range(n + 1))

    def test_floor_sum_matches_the_term_by_term_sum(self):
        rng = CounterRng(7)
        for _ in range(500):
            n, m = rng.randint(0, 40), rng.randint(1, 10**rng.randint(1, 22))
            a, b = rng.randint(0, 10**rng.randint(1, 22)), rng.randint(0, 10**rng.randint(1, 22))
            assert geometry._floor_sum(n, m, a, b) == sum((a * i + b) // m for i in range(n))


class TestFindBlackMajority:
    @pytest.mark.parametrize("alphas, budget", [
        *(pytest.param(alphas, 64, id=f"alphas{i}")
          for i, alphas in enumerate(BLACK_MAJORITY_FAMILIES)),
        *(pytest.param(alphas, budget, id=f"{','.join(alphas)}-at-{budget}")
          for alphas, budget in _FOUND_AT_THE_BUDGET),
        # 3*ln 2 = ln 8 exactly, though their midpoints differ
        pytest.param(("ln2", "sqrt2", "ln8"), 64, id="ln2,sqrt2,ln8-tie"),
    ])
    def test_lazy_scan_matches_the_eager_one(self, alphas, budget):
        assert find_black_majority_c(alphas, budget) == eager_black_majority(alphas, budget)

    @pytest.mark.parametrize("alphas, budget", _FOUND_AT_THE_BUDGET)
    def test_found_at_the_budget(self, alphas, budget):
        result = find_black_majority_c(alphas, budget)
        assert (result.found, result.candidates_tested) == (True, budget)
        assert not find_black_majority_c(alphas, budget - 1).found

    def test_window_past_the_budget_has_no_threshold(self):
        # the window of a black majority ends at the next value, which the
        # budget does not reach, so the attained value is shown as it is
        result = find_black_majority_c([1, "sqrt2"], 3)
        assert result.threshold is None
        assert result.threshold_display == "1*sqrt(2)"

    @pytest.mark.parametrize("alphas, calls", [
        (("ln2", "ln3"), 1),
        (("1", "3"), 1),
        (("1", "2"), 0),
        (("1", "sqrt2"), 1),
        (("sqrt2", "sqrt3"), 1),
    ])
    def test_every_scan_counts_from_the_walk(self, alphas, calls, monkeypatch):
        # the counts come from the walk's tally or the color series, so the
        # only region counted is the recount at a found threshold
        regions = []
        counts = geometry.simplex_color_counts

        def counted(spec):
            regions.append(spec)
            return counts(spec)

        monkeypatch.setattr(geometry, "simplex_color_counts", counted)
        find_black_majority_c(alphas, 64)
        assert len(regions) == calls

    def test_mixed_scans_enclose_each_alpha_once(self, monkeypatch):
        # the walk's steps and the recount's region read one memoized pair
        # per alpha; the recount's bound, 3/2, is enclosed too
        enclosed = _count_filter_enclosures(monkeypatch)
        assert find_black_majority_c(["1", "sqrt2"]).threshold == Fraction(3, 2)
        assert sorted(map(str, enclosed)) == ["1", "3/2", "sqrt(2)"]

    def test_exactly_equal_values_are_one_threshold(self):
        # 3*ln 2 = ln 8: the window of the black majority is [ln 8, ln 2 + sqrt 2)
        result = find_black_majority_c(["ln2", "sqrt2", "ln8"], 64)
        assert (result.threshold, result.threshold_display) == (Fraction(21, 10), "21/10")
        assert (result.counts.white, result.counts.black) == (2, 4)
        assert result.candidates_tested == 5

    def test_swapped_midpoints_raise(self, monkeypatch):
        # keys that put sqrt 2 below 1 make the walk step down from sqrt 2 to 1
        sort_key = ExactReal.sort_key
        monkeypatch.setattr(ExactReal, "sort_key", lambda atom: (
            Fraction(3, 2) if atom == ExactReal.of(1) else sort_key(atom)))
        with pytest.raises(PrecisionError, match="^threshold order"):
            find_black_majority_c(["1", "sqrt2"])

    @pytest.mark.parametrize("alphas, threshold", [
        (("ln2", "ln3"), "ln(3)"),
        (("1", "3"), "3"),
        (("1", "sqrt2"), "3/2"),
    ])
    def test_every_route_recounts_its_threshold(self, alphas, threshold, monkeypatch):
        counts = geometry.simplex_color_counts

        def off_by_one(spec):  # the recount is the only region the scan counts
            found = counts(spec)
            return ColorCount(found.white + 1, found.black)

        monkeypatch.setattr(geometry, "simplex_color_counts", off_by_one)
        with pytest.raises(SelfCheckError, match="^recount at the canonical threshold "
                           + re.escape(threshold) + " gives"):
            find_black_majority_c(alphas)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(_ALPHA_LISTS, st.integers(1, 100))
    def test_lazy_scan_matches_the_eager_one_on_random_alphas(self, texts, budget):
        alphas = sorted(map(ExactReal.parse, texts), key=ExactReal.sort_key)
        assert (find_black_majority_c(alphas, budget)
                == eager_black_majority(alphas, budget))

    @settings(derandomize=True, max_examples=150, deadline=None, database=None)
    @given(st.one_of(st.lists(_SMALL_RATIONALS, min_size=2, max_size=4).map(sorted),
                     _NEVER_LEADING),
           st.integers(1, 300))
    @example([Fraction(1, 2), Fraction(1)], 100)  # never found: steps (1, 2)
    @example([Fraction(3), Fraction(6), Fraction(12)], 40)  # never found: steps (1, 2, 4)
    @example([Fraction(2, 3), Fraction(2), Fraction(10, 3)], 60)  # found: steps (1, 3, 5)
    @example([Fraction(12, 5), Fraction(12, 5)], 300)  # equal alphas
    @example([Fraction(12, 5), Fraction(11, 4)], 40)  # steps (48, 55): the walk
    def test_rational_scans_match_the_eager_one(self, atoms, budget):
        # the eager scan pops every point up to the budget-th value and
        # recounts each candidate point by point; the points up to
        # (budget - 1) * alpha_1, where the budget-th value lies at the
        # latest, bound its work
        assume(simplex_color_counts(SimplexSpec.of(atoms, (budget - 1) * atoms[0])).total
               <= 3000)
        alphas = [str(a) for a in atoms]
        assert find_black_majority_c(alphas, budget) == eager_black_majority(alphas, budget)

    @pytest.mark.parametrize("alphas, series", [
        (("8", "9"), True),
        (("8/3", "3"), True),  # the steps of 8/3 and 3 are 8 and 9
        (("2/17", "1"), True),  # steps (2, 17)
        (("9", "10"), False),
        (("17", "18"), False),
        (("1000", "1001"), False),
        (("100000", "100001"), False),
        (("1", "2"), True),
    ])
    def test_the_cost_rule_sends_sparse_steps_to_the_walk(self, alphas, series, monkeypatch):
        calls = []
        color_series = geometry._color_series
        monkeypatch.setattr(geometry, "_color_series",
                            lambda steps, length: calls.append(steps) or color_series(steps, length))
        assert find_black_majority_c(alphas) == eager_black_majority(alphas)
        assert bool(calls) == series

    @pytest.mark.parametrize("alphas", [("1000", "1001"), ("100000", "100001")])
    def test_sparse_steps_answer_in_milliseconds(self, alphas):
        # the series would hold 8 * 100000 terms before its first lead
        start = time.perf_counter()
        result = find_black_majority_c(alphas)
        elapsed = time.perf_counter() - start
        assert result == eager_black_majority(alphas)
        assert (result.threshold, result.counts, result.candidates_tested) == (
            Fraction(alphas[1]), ColorCount(1, 2), 3)
        assert elapsed < 0.1, elapsed

    @pytest.mark.parametrize("alphas, budget, bound", [
        (("1", "2049"), 3000, 1024),  # the lead lies at level 2049
        (("1", "2", "4"), 60, 32),  # never found
    ])
    def test_a_scan_past_the_term_bound_goes_to_the_walk(self, alphas, budget, bound,
                                                          monkeypatch):
        expected = find_black_majority_c(alphas, budget)
        lengths, walks = [], []
        color_series, attained_values = geometry._color_series, geometry._attained_values
        monkeypatch.setattr(geometry, "_SERIES_MAX_TERMS", bound)
        monkeypatch.setattr(geometry, "_color_series",
                            lambda steps, length: lengths.append(length)
                            or color_series(steps, length))
        monkeypatch.setattr(geometry, "_attained_values",
                            lambda atoms: walks.append(atoms) or attained_values(atoms))
        assert find_black_majority_c(alphas, budget) == expected
        assert (max(lengths), len(walks)) == (bound, 1)

    def test_an_early_lead_takes_no_walk_under_any_budget(self, monkeypatch):
        monkeypatch.setattr(geometry, "_attained_values", None)
        result = find_black_majority_c(["1", "3"], 10**9)
        assert (result.threshold, result.counts, result.candidates_tested) == (
            3, ColorCount(2, 3), 4)

    def test_a_dense_never_found_scan_takes_no_walk(self, capsys):
        # about budget**3 / 48 points lie below the budget-th value of
        # (1, 2, 4), which the walk would pop one by one
        start = time.perf_counter()
        code = main(["black-majority", "--alphas", "1,2,4", "--budget", "1600", "--json"])
        elapsed = time.perf_counter() - start
        result = json.loads(capsys.readouterr().out)["result"]
        assert code == 0
        assert (result["found"], result["candidates_tested"]) == (False, 1600)
        assert elapsed < 1.0, elapsed

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


def _outcome(sign_of_terms, terms):
    """The sign, or "undecided" where the comparison raises ``PrecisionError``."""
    try:
        return sign_of_terms(terms, "test")
    except PrecisionError:
        return "undecided"


def _count_enclosures(monkeypatch) -> list:
    """The scales of the ``ExactReal._enclose`` calls, as they come."""
    calls = []
    enclose = ExactReal._enclose

    def counted(atom, scale):
        calls.append(scale)
        return enclose(atom, scale)

    monkeypatch.setattr(ExactReal, "_enclose", counted)
    return calls


class TestSignOfTerms:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.tuples(st.one_of(_RATIONAL_ATOMS, _LOG_ATOMS, _SQRT_ATOMS),
                              st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))),
                    min_size=1, max_size=5))
    # exact ties: equal log products, a radicand's square part, and a
    # rational that no power of two scales to an integer
    @example([("ln2", Fraction(3)), ("ln8", Fraction(-1))])
    @example([("sqrt2", Fraction(2)), ("sqrt8", Fraction(-1))])
    @example([("1/3", Fraction(3)), ("1/1", Fraction(-1))])
    @example([("ln2", Fraction(2)), ("sqrt8", Fraction(1)), ("ln4", Fraction(-1)),
              ("sqrt2", Fraction(-2))])
    # near ties: sqrt(2**130 + 1) - 2**65, about 2**-66, sums to [0, 1] at
    # 2**64; sqrt 2 + 2 and its negation reach the one-radicand route with a
    # rational part of the same sign
    @example([(f"sqrt{2**130 + 1}", Fraction(1)), (str(2**65), Fraction(-1))])
    @example([("sqrt2", Fraction(2**70 + 1)), ("sqrt8", Fraction(-2**69)), ("2", Fraction(1))])
    @example([("sqrt2", Fraction(-2**70 - 1)), ("sqrt8", Fraction(2**69)), ("2", Fraction(-1))])
    def test_agrees_with_the_interval_oracle(self, texts):
        terms = [(ExactReal.parse(text), k) for text, k in texts]
        assert _outcome(geometry._sign_of_terms, terms) == _outcome(interval_sign, terms)

    def test_a_second_call_computes_no_interval(self, monkeypatch):
        # ln 3 + sqrt 2 against a rational within 10**-33 of it: undecided at
        # 2**64, decided at 2**128, and every pair is memoized on its atom
        calls = _count_enclosures(monkeypatch)
        ln3, root2 = ExactReal.log(3), ExactReal.sqrt(2)
        lo, _ = context_interval("log", 3, 400)
        r_lo, _ = context_interval("sqrt", 2, 400)
        near = ExactReal.of(Fraction(round((lo + r_lo) * 10**33), 10**33))
        terms = [(ln3, Fraction(1)), (root2, Fraction(1)), (near, Fraction(-1))]
        sign = geometry._sign_of_terms(terms, "test")
        assert sign == interval_sign(terms, "test") != 0
        assert max(calls) >= 1 << 128
        made = len(calls)
        assert geometry._sign_of_terms(terms, "test") == sign
        assert len(calls) == made

    @pytest.mark.parametrize("texts, sign", [
        ((("ln2", Fraction(1, 2)), ("ln4", Fraction(-1, 4))), 0),
        ((("ln8", Fraction(1, 3)), ("ln2", Fraction(-1))), 0),
        ((("ln2", Fraction(1, 1000003)), ("ln4", Fraction(-1, 2000006))), 0),
        ((("ln2", Fraction(1, 2)), ("ln4", Fraction(-1, 3))), -1),
    ])
    def test_fractional_log_coefficients_take_the_exact_route(self, texts, sign):
        # an exact zero with fractional log coefficients is decided by integer
        # powers, the coefficients scaled to coprime integers, not refined to the cap
        terms = [(ExactReal.parse(text), k) for text, k in texts]
        assert geometry._sign_of_terms(terms, "test") == sign
        assert geometry._exact_sign(terms) == sign

    def test_the_cap_raises(self):
        # 10007 is past the trial divisors, so this exact tie keeps two radicands
        terms = [(ExactReal.sqrt(200280098), Fraction(1)), (ExactReal.sqrt(2), Fraction(-10007))]
        with pytest.raises(PrecisionError,
                           match="^comparison undecided at 4096 bits while testing tie$"):
            geometry._sign_of_terms(terms, "tie")


class TestThresholdWindows:
    @settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @given(lo=st.one_of(st.builds(Fraction, st.integers(0, 10**6), st.integers(1, 10**4)),
                        st.integers(0, 50).map(Fraction)),
           width=st.one_of(st.builds(Fraction, st.integers(1, 50), st.integers(1, 4000)),
                           st.integers(1, 3).map(Fraction)))
    @example(lo=Fraction(0), width=Fraction(1, 3))
    @example(lo=Fraction(3), width=Fraction(1))  # integer ends
    @example(lo=Fraction(5, 2), width=Fraction(1, 2))  # an integer upper end
    @example(lo=Fraction(1, 3), width=Fraction(1, 1000))  # narrower than 1/512
    def test_simplest_matches_the_denominator_sweep(self, lo, width):
        # a half-open window of width at least 1/4000 holds a fraction of
        # denominator at most 4000, so the sweep always finds one
        hi = lo + width
        assert geometry._simplest(lo, hi, True, False) == swept_simplest(lo, hi, 4000)

    def test_a_lower_end_that_reads_an_integer_is_refined(self):
        # 2**64 * sqrt(2**126 + 1) lies just below 2**127 + 1: the outer
        # window starts at 2**63 exactly, and 2**128 tells it apart
        one, root = ExactReal.of(1), ExactReal.sqrt(2**126 + 1)
        assert geometry._simplest_rational_at_least((one, root), (0, 1), (1, 1)) == 2**63 + 1
        assert root._scaled_pair(1 << 64)[0] == 2**127
        assert set(root._scaled_pairs) == {1 << 64, 1 << 128}

    @pytest.mark.parametrize("tiny, expected", [(100003, Fraction(577, 408)), (1000003, None)])
    def test_windows_above_sqrt2(self, tiny, expected):
        # [sqrt 2, sqrt 2 + 1/tiny): 577/408 lies 2.1 * 10**-6 above sqrt 2, and
        # the next fraction that close has denominator 2378
        alphas = (ExactReal.of(Fraction(1, tiny)), ExactReal.sqrt(2))
        assert geometry._simplest_rational_at_least(alphas, (0, 1), (1, 1)) == expected
        assert swept_threshold(tuple(zip(alphas, map(Fraction, (0, 1)))),
                               tuple(zip(alphas, map(Fraction, (1, 1)))),
                               alphas[1].sort_key()) == expected

    @pytest.mark.parametrize("alphas", [("1", "sqrt2"), ("sqrt2", "sqrt3"),
                                        ("ln2", "sqrt2", "ln8"), ("1/2", "ln3", "sqrt5")])
    def test_a_found_mixed_scan_compares_only_the_order(self, alphas, monkeypatch):
        # the threshold comes from the alphas' pairs, with no comparison of its own
        calls = set()
        sign_of_terms = geometry._sign_of_terms
        monkeypatch.setattr(geometry, "_sign_of_terms",
                            lambda terms, what: calls.add(what) or sign_of_terms(terms, what))
        result = find_black_majority_c(alphas, 64)
        assert result.found and result.threshold is not None
        assert calls == {"coefficient ordering", "threshold order"}


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

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(a1=st.integers(1, 12), a2=st.integers(1, 12), c_max=st.integers(1, 200))
    def test_every_row_matches_the_slab_count(self, a1, a2, c_max):
        # two routes: the recurrences, and floor sums over the triangle
        for row in rational_slope_profile(a1, a2, c_max):
            counts = simplex_color_counts(SimplexSpec.of([a1, a2], row.c))
            assert (row.white, row.black) == (counts.white, counts.black), row

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            rational_slope_profile(0, 2, 5)

    def test_recurrence_matches_the_double_loop(self):
        for a1 in range(1, 8):
            for a2 in range(1, 8):
                rows = rational_slope_profile(a1, a2, 300)
                assert rows == double_loop_slope_profile(a1, a2, 300), (a1, a2)

    def test_the_cli_columns_are_the_rows(self):
        rows = double_loop_slope_profile(2, 3, 50)
        assert list(zip(range(1, 51), *geometry._slope_columns(2, 3, 50))) == rows

    def test_the_cli_builds_no_row_record(self, monkeypatch, capsys):
        def refuse(*row):
            raise AssertionError("a ProfileRow was built")

        monkeypatch.setattr(geometry, "ProfileRow", refuse)
        for fmt in ([], ["--csv"], ["--json"]):
            assert main(["slope-profile", "--a1", "2", "--a2", "3", "--cmax", "40", *fmt]) == 0
        assert capsys.readouterr().out.count("\n") == 40 + 41 + 1

    # sha256 of slope-profile's stdout in text, CSV and JSON, pinned before
    # the CLI read the profile's columns
    @pytest.mark.parametrize("a1, a2, c_max, digests", [
        (1, 2, 100, ("ad5927541b775dc22aafe2eda798e7cbb079afc94b691f4627a46f8339ba2fa7",
                     "67614a7249194a9800979596b33bc20fbd1c72afb000d402e53154f2077ed447",
                     "99230622f61f1d6cb667d793d33ccc45015f1892f6d437432f4c947496b86e4a")),
        (2, 3, 700, ("1219d169028d822c93aed72e6c04476fe4eb4caaf8faee3608fc5d3f92b82bb8",
                     "c752c90b24c3eda85f270bea00b8223362e84d6c30d8d9d3e869816f8a097955",
                     "17e40f1b7a2a31ccd6abc90d471f7b9fa234ca26a8c47f191ba587afebb2b783")),
        (3, 5, 1, ("70378e5139093017a245a7554288e8024e156f26276f3b6120a86c386034dc5b",
                   "d45b8ffbd76af0beca104a3ab29cafb58184aec49eb8843a461ff4b71938c1ee",
                   "33801aa03da910c094953a1b6879031b552b2caa6748b96f7364b476a700d04b")),
        (4, 4, 33, ("a646f5ff295a8f415d3840602cf8eda17f391047763755690516284fbc0ac175",
                    "d287053416b344257edcc9de61e954346a415994b8f5384c448cbfbdad9276fd",
                    "fa9e54268a0b7021217504a78d0463d37915dd11deaad1e7bbda13f47fdc446d")),
    ])
    def test_cli_output_digests(self, a1, a2, c_max, digests, capsys):
        argv = ["slope-profile", "--a1", str(a1), "--a2", str(a2), "--cmax", str(c_max)]
        for fmt, digest in zip(([], ["--csv"], ["--json"]), digests):
            assert main(argv + fmt) == 0
            assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest, fmt

    @pytest.mark.parametrize("a1, a2", [(1, 2), (3, 5), (4, 4), (7, 2)])
    @pytest.mark.parametrize("c_max", [1, 7, 1000])
    def test_cli_bytes_match_the_double_loop(self, a1, a2, c_max, capsys):
        rows = double_loop_slope_profile(a1, a2, c_max)
        params = {"a1": a1, "a2": a2, "cmax": c_max}
        expected = {
            "text": "".join(f"c={c} white={w} black={b} diff={d}\n" for c, w, b, d in rows),
            "csv": "c,white,black,diff\n" + "".join(f"{c},{w},{b},{d}\n" for c, w, b, d in rows),
            "json": json.dumps({
                "params": params,
                "provenance": "integer-slope-parity-profile",
                "result": [{"c": c, "white": w, "black": b, "diff": d} for c, w, b, d in rows],
            }, sort_keys=True) + "\n",
        }
        argv = ["slope-profile", "--a1", str(a1), "--a2", str(a2), "--cmax", str(c_max)]
        for fmt, text in expected.items():
            assert main(argv + ([] if fmt == "text" else [f"--{fmt}"])) == 0
            assert capsys.readouterr().out == text, fmt


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


def _assert_encloses_the_context_route(kind, k, prec):
    """The in-house interval at prec is one unit of 2**-prec wide and holds mpmath's.

    mpmath's precision counts significant bits, so it gets k's bits on top,
    which leaves its interval at least 2**64 times narrower than a unit.
    """
    lo, hi = ExactReal(kind, arg=k).interval(prec)
    context_lo, context_hi = context_interval(kind, k, prec + k.bit_length() + 64)
    assert lo <= context_lo and context_hi <= hi, (kind, k, prec)
    assert (hi - lo) * 2**prec <= 1, (kind, k, prec)


class TestNoMpmathGlobalState:
    @pytest.mark.parametrize("prec", [53, 64, 200, 256, 1024])
    def test_interval_matches_the_context_route(self, prec):
        for k in list(range(2, 300)) + BIG_ARGS:
            for kind in ("log", "sqrt"):
                _assert_encloses_the_context_route(kind, k, prec)

    def test_interval_matches_the_context_route_at_the_cap(self):
        for k in list(range(2, 40)) + BIG_ARGS:
            for kind in ("log", "sqrt"):
                _assert_encloses_the_context_route(kind, k, 4096)

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
