import hashlib
import json
from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import given, settings, strategies as st

from quotientfree import (
    AXIS_DIFFS,
    ColorCount,
    LatticeConfig,
    SimplexSpec,
    lattice,
    max_difference_free,
    max_subset_count,
    max_subset_witness,
    simplex_points,
    verify,
)
from quotientfree.arith import CoprimeBasis, count_coprime_part, phi
from quotientfree.geometry import _line_total
from quotientfree.lattice import _conflict_graph, _greedy_optimum
from quotientfree.rng import CounterRng
from quotientfree.verify import (
    BUDGET_TIERS,
    SUITES,
    _random_optimal_configuration,
    _random_rational_triangle,
    exhaustive_max_quotient_free,
    run_suite,
)

from helpers import (
    brute_force_all_optima,
    brute_force_max_difference_free,
    naive_max_subset_counts,
)


def case_digest(name, seed, budget):
    (report,) = run_suite(name, seed, budget)
    rows = [[c.name, c.passed, c.detail] for c in report.cases]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


# every case (name, passed, detail) of the seeded suites, pinned so that a
# change to how random optimal configurations are drawn cannot go unseen
PINNED = {
    ("monochromatize", "small", 0): "daf6a48fb066e1e83111132a477d01bb130d8cd2086483c926525c0fac5367f1",
    ("monochromatize", "small", 1): "d8aad918e07b2361009cd3584fa987dead2a0b0740a28fe21889f8074cd5bb3a",
    ("monochromatize", "small", 2): "e238056df9ee79d1d8675066639a8215a429327252ce8d3684e6ec51a18fd04a",
    ("monochromatize", "small", 3): "46216660c3274b20317473691dc3d62644f6ec4f4bbfa22383c25c54bb6f468d",
    ("monochromatize", "small", 4): "9d18434c7ddf9c117776e49b8f52747ea0c8f671700155acbb450eb837e265aa",
    ("monochromatize", "default", 0): "19dd739025b66f75927262d3fdf94318938ed67f069d0cd59e7573e2f56d09a3",
    ("monochromatize", "default", 1): "85ea0ae32b94924b1fb897d3e4574c5db123a4ed974ec140e0e444eb08749cb2",
    ("monochromatize", "default", 2): "8d7d35c2c68028f73acf08f6936c81501716b269ef5f41dc42b106754a3edfbe",
    ("monochromatize", "default", 3): "f221416093932103e1b27d73ec0719aa12ccaea80079dbce417352a0f1800173",
    ("monochromatize", "default", 4): "37f8dc37a5122966ffc2e26fb2ed12af9dd1248f5be3ef6abb1a447cd257aec3",
    ("theorem6", "small", 0): "8f76c972a2c8cdda2a392cf3665797cce9aebd5aa94c94bb535e71b552b332c1",
    ("theorem6", "small", 1): "b480a13f7460e97262d8b0651761f89d244c7e033ee9c185f8e69e686eaf44ee",
    ("theorem6", "small", 2): "f1a998dc08176d78c0bb0f4c650194af6e41151ce8bfae735aaceda5588e4178",
    ("geometry", "small", 0): "a36735a7eb20d70f749ace12ed30efe27cfff547f4048f154ce88b5834ca2ff7",
    ("geometry", "small", 1): "42f9686111407f7723c9688884852b1a94d63212bc91d6a79b62da126ddab5df",
    ("geometry", "small", 2): "d702624a0caa852860ddc1991660e5de056d9542f445026a42543867e0ae0629",
    # the gap suite draws nothing at random, so every seed gives one digest
    ("gap", "small", 0): "9bbccb355d1328fd2e2adc98601c42b6e79526ab7a08b33d9224667d10093e45",
    ("gap", "small", 1): "9bbccb355d1328fd2e2adc98601c42b6e79526ab7a08b33d9224667d10093e45",
    ("gap", "small", 2): "9bbccb355d1328fd2e2adc98601c42b6e79526ab7a08b33d9224667d10093e45",
}


class TestPinnedSuites:
    @pytest.mark.parametrize("name,budget,seed", sorted(PINNED))
    def test_cases_match_the_pinned_digest(self, name, budget, seed):
        assert case_digest(name, seed, budget) == PINNED[name, budget, seed]

    def test_random_optimal_configurations_are_pinned(self):
        # the configurations themselves, in the order they were drawn
        drawn = []
        for seed in range(3):
            rng = CounterRng(seed)
            for _ in range(10):
                _, config = _random_rational_triangle(rng)
                chosen, target = _random_optimal_configuration(rng, config)
                drawn.append([[list(p) for p in chosen], target])
        digest = hashlib.sha256(json.dumps(drawn).encode()).hexdigest()
        assert digest == "a2750dfa31669716104c09e98c7b1380cb84739d4d52d0d5b544a8c6dce468f6"

    def test_suite_names_and_order(self):
        assert SUITES == ("theorem6", "lemma2", "corollary", "gap", "monochromatize", "geometry")

    @pytest.mark.parametrize("seed", range(3))
    def test_all_runs_each_suite_on_its_own_stream(self, seed):
        # each suite draws from CounterRng(seed) from counter 0, whatever ran before it
        assert run_suite("all", seed, "small") == [
            report for name in SUITES for report in run_suite(name, seed, "small")]

    def test_an_unknown_tier_is_refused(self):
        with pytest.raises(ValueError, match="^unknown budget tier: huge$"):
            run_suite("theorem6", 0, "huge")

    def test_an_unknown_suite_is_refused(self):
        with pytest.raises(ValueError, match="^unknown suite: nope$"):
            run_suite("nope", 0, "small")

    def test_an_empty_range_is_refused(self):
        with pytest.raises(ValueError, match="^empty range$"):
            CounterRng(0).randint(2, 1)


class TestMonochromatizeSuite:
    @pytest.mark.parametrize("seed", range(3))
    def test_one_solve_per_case(self, seed, monkeypatch):
        # the suite's configurations are maximum by construction, so the
        # sweep is not asked to solve the triangle again
        calls = []
        solve = lattice._solve

        def counted(*args):
            calls.append(args)
            return solve(*args)

        monkeypatch.setattr(lattice, "_solve", counted)
        (report,) = run_suite("monochromatize", seed, "small")
        assert report.ok
        assert len(calls) == len(report.cases) == BUDGET_TIERS["small"]["mono_cases"]


# the lemma2 suite draws nothing at random, so every seed gives one digest
LEMMA2_PINNED = {
    ("small", 0): "d71a91057d5a423571d5f4bd6cacb760d5c53fa6cd3fa382846f0f6523e9fae8",
    ("small", 1): "d71a91057d5a423571d5f4bd6cacb760d5c53fa6cd3fa382846f0f6523e9fae8",
    ("small", 2): "d71a91057d5a423571d5f4bd6cacb760d5c53fa6cd3fa382846f0f6523e9fae8",
    ("default", 0): "ba96394ed97b89bd33e91bf329b74778d7a5c65cfcf4743a14c6a1b71693585d",
    ("default", 1): "ba96394ed97b89bd33e91bf329b74778d7a5c65cfcf4743a14c6a1b71693585d",
    ("default", 2): "ba96394ed97b89bd33e91bf329b74778d7a5c65cfcf4743a14c6a1b71693585d",
}


class TestLemma2Suite:
    @pytest.mark.parametrize("budget,seed", sorted(LEMMA2_PINNED))
    def test_cases_match_the_pinned_digest(self, budget, seed):
        assert case_digest("lemma2", seed, budget) == LEMMA2_PINNED[budget, seed]

    def test_a_count_off_by_two_to_the_s_fails_the_case(self, monkeypatch):
        basis, bad_x = (2, 3), 777
        density = phi(basis)

        def off_count(b, x):
            count = count_coprime_part(b, x)
            # the suite passes a CoprimeBasis, checked once per basis
            if b.basis == basis and x == bad_x:
                # away from the density line, so the deviation reaches 2^s
                return count + 4 if count >= density * x else count - 4
            return count

        monkeypatch.setattr(verify, "count_coprime_part", off_count)
        (report,) = run_suite("lemma2", 0, "small")
        coprime = CoprimeBasis.from_coprime_integers(basis)
        worst = max(abs(off_count(coprime, x) - density * x) for x in range(1, bad_x + 1))
        assert worst >= 4
        case = report.cases[0]
        assert (case.name, case.passed) == ("basis=(2, 3)", False)
        assert case.detail == f"max |count - density*X| = {float(worst):.4f} < 4 over X<=2000"
        assert all(c.passed for c in report.cases[1:])

def _conflict_free(chosen):
    held = set(chosen)
    return all(
        tuple(a + b for a, b in zip(p, d)) not in held for p in held for d in AXIS_DIFFS
    )


class TestGreedyCompletion:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_any_order_completes_an_optimum(self, seed, data):
        _, config = _random_rational_triangle(CounterRng(seed))
        graph = _conflict_graph(config, AXIS_DIFFS, 40)
        points = graph.points
        order = data.draw(st.permutations(range(len(points))))
        chosen = [points[i] for i in _greedy_optimum(graph, order)]
        assert _conflict_free(chosen)
        assert len(chosen) == brute_force_max_difference_free(points, AXIS_DIFFS)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_random_optimal_configuration_is_optimal(self, seed):
        rng = CounterRng(seed)
        _, config = _random_rational_triangle(rng)
        chosen, target = _random_optimal_configuration(rng, config)
        pts = config.points
        assert set(chosen) <= set(pts)
        assert _conflict_free(chosen)
        assert len(chosen) == target == brute_force_max_difference_free(pts, AXIS_DIFFS)

    def test_sorted_order_gives_the_lex_least_witness(self):
        rng = CounterRng(31)
        for case in range(40):
            diffs = AXIS_DIFFS if case % 2 else ((1, 0), (0, 1), (1, 1))
            pts = {(rng.randint(0, 3), rng.randint(0, 3)) for _ in range(rng.randint(2, 10))}
            config = LatticeConfig.explicit(pts)
            graph = _conflict_graph(config, diffs, 40)
            points = graph.points
            witness = tuple(points[i] for i in sorted(_greedy_optimum(graph, range(len(points)))))
            assert witness == max_difference_free(config, diffs).witness
            assert witness == min(brute_force_all_optima(pts, diffs))


class TestTriangleDraw:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(an=st.integers(1, 12), ad=st.integers(1, 12), bn=st.integers(1, 12),
           bd=st.integers(1, 12), cn=st.integers(1, 48), cd=st.integers(1, 4))
    def test_integer_count_matches_the_listed_points(self, an, ad, bn, bd, cn, cd):
        # the suite's draw ranges; past the cap only "more than 30" matters
        a, b, c = Fraction(an, ad), Fraction(bn, bd), Fraction(cn, cd)
        listed = len(simplex_points(SimplexSpec.of([a, b], c), limit=31))
        counted = _line_total(an * bd * cd, bn * ad * cd, cn * ad * bd)
        assert min(counted, 31) == listed

    def test_theorem6_builds_one_region_per_triangle_case(self, monkeypatch):
        built = []
        init = SimplexSpec.__init__

        def counted(self, *args):
            built.append(args)
            init(self, *args)

        monkeypatch.setattr(SimplexSpec, "__init__", counted)
        for seed in range(3):
            built.clear()
            (report,) = run_suite("theorem6", seed, "small")
            triangles = [c for c in report.cases if c.name.startswith("triangle[")]
            assert len(triangles) == BUDGET_TIERS["small"]["triangles"]
            assert len(built) == len(triangles)


# the corollary suite draws nothing at random either
COROLLARY_PINNED = {
    ("small", 0): "04932d9b23d3fadf70d5885d9125d88ef8c53c470ab16b58d776711a6e8aa7c1",
    ("small", 1): "04932d9b23d3fadf70d5885d9125d88ef8c53c470ab16b58d776711a6e8aa7c1",
    ("small", 2): "04932d9b23d3fadf70d5885d9125d88ef8c53c470ab16b58d776711a6e8aa7c1",
    ("default", 0): "727276012dea2f4c9384696fe3128d0f90873f3e6121fcb427b6f87b26c90a73",
    ("default", 1): "727276012dea2f4c9384696fe3128d0f90873f3e6121fcb427b6f87b26c90a73",
    ("default", 2): "727276012dea2f4c9384696fe3128d0f90873f3e6121fcb427b6f87b26c90a73",
    ("large", 0): "9c269a6c1b1051378c41302de1e3349a074b1041e77c1ab8768c42d5ae37ec4f",
    ("large", 1): "9c269a6c1b1051378c41302de1e3349a074b1041e77c1ab8768c42d5ae37ec4f",
    ("large", 2): "9c269a6c1b1051378c41302de1e3349a074b1041e77c1ab8768c42d5ae37ec4f",
}

SWEEP_PAIRS = [(2, 3), (2, 5), (3, 4), (3, 5)]


def brute_force_maxima(p, q, n_max):
    """Largest quotient-free subset of {1..N} for N = 1..n_max, over all 2^n_max subsets.

    A subset is a bitmask, bit k - 1 for k.  Taken with its largest element
    k, it is quotient-free exactly when the rest is and holds neither k/p
    nor k/q; and k is the least N whose range holds it.
    """
    below = [0] * (n_max + 1)
    for k in range(1, n_max + 1):
        for r in (p, q):
            if k % r == 0:
                below[k] |= 1 << (k // r - 1)
    free = bytearray(1 << n_max)
    free[0] = 1
    best = [0] * (n_max + 1)  # best[k]: the largest free subset with top element k
    for mask in range(1, 1 << n_max):
        k = mask.bit_length()
        rest = mask ^ (1 << (k - 1))
        if free[rest] and not rest & below[k]:
            free[mask] = 1
            best[k] = max(best[k], mask.bit_count())
    return list(accumulate(best[1:], max))


class TestCorollarySuite:
    @pytest.mark.parametrize("budget,seed", sorted(COROLLARY_PINNED))
    def test_cases_match_the_pinned_digest(self, budget, seed):
        assert case_digest("corollary", seed, budget) == COROLLARY_PINNED[budget, seed]

    def test_one_oracle_sweep_per_pair(self, monkeypatch):
        calls = []
        sweep = verify.exhaustive_max_quotient_free

        def counted(p, q, n_max):
            calls.append((p, q, n_max))
            return sweep(p, q, n_max)

        monkeypatch.setattr(verify, "exhaustive_max_quotient_free", counted)
        assert run_suite("corollary", 0, "small")[0].ok
        assert calls == [(2, 3, 30), (2, 5, 30), (3, 4, 30)]

    def test_a_count_off_by_one_fails_only_its_pair(self, monkeypatch):
        pair, bad_n = (2, 5), 17
        true_count = max_subset_count(*pair, bad_n)

        def off_count(p, q, n):
            count, mask = max_subset_witness(p, q, n)
            if (p, q) == pair and n == bad_n:
                count += 1
            return count, mask

        monkeypatch.setattr(verify, "max_subset_witness", off_count)
        (report,) = run_suite("corollary", 0, "small")
        assert [(c.name, c.passed) for c in report.cases] == [
            ("pair=(2,3)", True), ("pair=(2,5)", False), ("pair=(3,4)", True)]
        assert report.cases[1].detail == (
            f"N={bad_n}: claimed={true_count + 1} oracle={true_count} witness_valid=False")
        assert report.cases[0].detail == "all N<=30 agree with exhaustive search"

    def test_a_witness_with_a_quotient_pair_fails_only_its_pair(self, monkeypatch):
        # the right size, but one member traded for the double of another
        pair, bad_n = (2, 3), 20

        def paired(p, q, n):
            count, mask = max_subset_witness(p, q, n)
            if (p, q) == pair and n == bad_n:
                mask = bytearray(mask)
                k = next(k for k in range(1, n // 2 + 1) if mask[k] and not mask[2 * k])
                dropped = max(j for j in range(1, n + 1) if mask[j] and j != k)
                mask[dropped], mask[2 * k] = 0, 1
            return count, mask

        monkeypatch.setattr(verify, "max_subset_witness", paired)
        (report,) = run_suite("corollary", 0, "small")
        assert [(c.name, c.passed) for c in report.cases] == [
            ("pair=(2,3)", False), ("pair=(2,5)", True), ("pair=(3,4)", True)]
        count = max_subset_count(*pair, bad_n)
        assert report.cases[0].detail == (
            f"N={bad_n}: claimed={count} oracle={count} witness_valid=False")


class TestGeometrySuite:
    def test_a_black_majority_count_off_by_one_fails_only_its_case(self, monkeypatch):
        # the case recounts the found threshold by rows, so it does not
        # re-read the scan's own numbers
        scan = verify.find_black_majority_c

        def off_count(alphas):
            result = scan(alphas)
            if tuple(alphas) == ("1", "sqrt2"):
                white, black = result.counts.white, result.counts.black
                return result._replace(counts=ColorCount(white, black + 1))
            return result

        monkeypatch.setattr(verify, "find_black_majority_c", off_count)
        (report,) = run_suite("geometry", 0, "small")
        assert [(c.name, c.passed) for c in report.cases if c.name.startswith("black")] == [
            ("black-majority('ln2', 'ln3')", True),
            ("black-majority('1', 'sqrt2')", False),
            ("black-majority('1', '2')", True),
        ]


class TestExhaustiveSweep:
    @pytest.mark.parametrize("pair", SWEEP_PAIRS)
    def test_matches_every_subset_up_to_sixteen(self, pair):
        assert exhaustive_max_quotient_free(*pair, 16) == brute_force_maxima(*pair, 16)

    @pytest.mark.parametrize("pair", SWEEP_PAIRS)
    def test_matches_class_by_class_counts(self, pair):
        # naive_max_subset_counts is indexed by N from 0
        assert exhaustive_max_quotient_free(*pair, 300) == naive_max_subset_counts(*pair, 300)[1:]
