"""Acceptance gate: one test per criterion, at the stated tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion.  Criterion 8's logarithmic clause is expected to fail at its
stated tolerance; see the module's test for the numeric analysis.
"""

import time
from fractions import Fraction

import pytest

from quotientfree import (
    ColorCount,
    LatticeConfig,
    construct_dense_set,
    empirical_densities,
    enumerate_smooth,
    find_black_majority_c,
    max_difference_free,
    max_subset_count,
    phi,
    rational_slope_profile,
    rho_closed_form,
    rho_general,
    sigma_series,
    white_weight_value,
)
from quotientfree.arith import count_coprime_part
from quotientfree.lattice import AXIS_DIFFS, SKEW_TRIANGLE_COUNTEREXAMPLE
from quotientfree.verify import exhaustive_max_quotient_free, run_suite


def report(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_closed_forms_and_brackets():
    start = time.perf_counter()
    cases = {(2,): Fraction(2, 3), (2, 3): Fraction(7, 12), (2, 3, 5): Fraction(5, 9)}
    for values, expected in cases.items():
        closed = rho_closed_form(list(values))
        assert closed == expected
        bracket = rho_general(list(values), 12, cap=600)
        assert bracket.contains(closed)
        assert bracket.width < Fraction(1, 1000)
        assert phi(values) * white_weight_value(list(values)) == closed
    elapsed = time.perf_counter() - start
    ok = elapsed < 1.0
    report(1, ok, f"closed forms = brackets (depth 12, width < 1e-3) in {elapsed:.2f}s")
    assert ok, f"runtime {elapsed:.2f}s exceeds 1s"


def test_criterion_2_subset_counts_match_exhaustive_search():
    start = time.perf_counter()
    assert max_subset_count(2, 3, 12) == 7
    oracles = exhaustive_max_quotient_free(2, 3, 60)
    for n in range(1, 61):
        assert max_subset_count(2, 3, n) == oracles[n - 1], n
    elapsed = time.perf_counter() - start
    ok = elapsed < 30.0
    report(2, ok, f"all N <= 60 agree with exhaustive search in {elapsed:.2f}s")
    assert ok, f"runtime {elapsed:.2f}s exceeds 30s"


def test_criterion_3_triangle_equivalence_suite():
    start = time.perf_counter()
    (suite,) = run_suite("theorem6", 0, "default")
    assert suite.failed == 0
    assert len(suite.cases) == 201  # 200 triangles plus the skew guard
    config = LatticeConfig.explicit(SKEW_TRIANGLE_COUNTEREXAMPLE)
    assert max_difference_free(config, AXIS_DIFFS).size == 2
    assert ColorCount.of(config.points).majority() == 1
    elapsed = time.perf_counter() - start
    ok = elapsed < 10.0
    report(3, ok, f"200 seeded triangles + skew guard (2 > 1) in {elapsed:.2f}s")
    assert ok, f"runtime {elapsed:.2f}s exceeds 10s"


def test_criterion_4_strict_gap_with_certified_series():
    # hand-auditable prefix: series through the 21st smooth value, 108
    seq = enumerate_smooth((2, 3), 128)
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
    assert seq.values[20] == 108
    assert abs(float(partial) - 1.7198) < 5e-4

    details = []
    for p, q in ((2, 3), (2, 5), (3, 5)):
        start = time.perf_counter()
        bracket = sigma_series(p, q, Fraction(1, 10**4))
        elapsed = time.perf_counter() - start
        closed = rho_closed_form([p, q])
        assert bracket.width < Fraction(1, 10**4), (p, q)
        assert bracket.lower > closed, (p, q)
        assert elapsed < 30.0, (p, q, elapsed)
        details.append(f"({p},{q}) in {elapsed:.3f}s")
    report(4, True, "series lower bound beats the closed form: " + ", ".join(details))


def test_criterion_5_integer_slope_profile():
    start = time.perf_counter()
    for row in rational_slope_profile(1, 2, 100):
        expected = 1 if row.c % 4 == 0 else 0
        assert row.diff == expected, row
    elapsed = time.perf_counter() - start
    ok = elapsed < 1.0
    report(5, ok, f"white-black is +1 at 4k and 0 elsewhere, c <= 100, in {elapsed:.2f}s")
    assert ok, f"runtime {elapsed:.2f}s exceeds 1s"


def test_criterion_6_black_majority_searches():
    logs = find_black_majority_c(["ln2", "ln3"])
    assert logs.found and logs.integer_bound == 3
    assert (logs.counts.white, logs.counts.black) == (1, 2)

    mixed = find_black_majority_c([1, "sqrt2"])
    assert mixed.found and mixed.threshold == Fraction(3, 2)
    assert (mixed.counts.white, mixed.counts.black) == (1, 2)

    rational = find_black_majority_c([1, 2])
    assert not rational.found
    report(6, True, "log pair -> n=3, sqrt pair -> c=3/2, integer slope -> none found")


def test_criterion_7_coprime_count_sweep():
    start = time.perf_counter()
    violations = 0
    for basis in ((2, 3), (2, 3, 5)):
        density = phi(basis)
        limit = 2 ** len(basis)
        for x in range(1, 10**4 + 1):
            if abs(count_coprime_part(basis, x) - density * x) >= limit:
                violations += 1
    elapsed = time.perf_counter() - start
    ok = violations == 0 and elapsed < 5.0
    report(7, ok, f"zero violations over both bases, X <= 1e4, in {elapsed:.2f}s")
    assert violations == 0
    assert elapsed < 5.0, f"runtime {elapsed:.2f}s exceeds 5s"


def test_criterion_8_density_convergence_counting():
    start = time.perf_counter()
    sample = construct_dense_set([2, 3], 10**5)
    rows = empirical_densities(sample.members, [10**3, 10**5])
    target = Fraction(7, 12)
    dev_small = abs(rows[0].counting_density - target)
    dev_large = abs(rows[1].counting_density - target)
    assert float(dev_large) < 0.01
    assert dev_large < dev_small
    elapsed = time.perf_counter() - start
    ok = elapsed < 60.0
    report(
        8,
        ok,
        f"counting deviation {float(dev_large):.2e} at 1e5 < 0.01 and < {float(dev_small):.2e} "
        f"at 1e3, in {elapsed:.2f}s (log clause reported separately)",
    )
    assert ok, f"runtime {elapsed:.2f}s exceeds 60s"


@pytest.mark.xfail(
    strict=True,
    reason=(
        "stated tolerance is unattainable at X = 1e5: the ratio of the exact "
        "reciprocal sum to ln X carries an intrinsic offset of about 0.48/ln X "
        "(0.042 at 1e5, measured 0.6252 vs 7/12 = 0.5833), so |log - 7/12| < 0.02 "
        "would need X >= e^24; see the decisions ledger"
    ),
)
def test_criterion_8_density_convergence_logarithmic():
    sample = construct_dense_set([2, 3], 10**5)
    deviation = abs(float(sample.log_density) - 7 / 12)
    report(8, deviation < 0.02, f"log-density deviation at 1e5 is {deviation:.4f}")
    assert deviation < 0.02


def test_criterion_9_monochromatize_suite():
    start = time.perf_counter()
    (suite,) = run_suite("monochromatize", 0, "default")
    assert len(suite.cases) == 100
    assert suite.failed == 0
    elapsed = time.perf_counter() - start
    report(9, True, f"100/100 seeded configurations recolored soundly in {elapsed:.2f}s")
