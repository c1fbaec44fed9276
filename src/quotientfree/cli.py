"""Command-line front end.

One subcommand per library operation, JSON/CSV/text output, reproducible
verification suites.  Exit codes: 0 success, 1 usage (or stdout closed
early by its reader), 2 domain error, 3 budget or precision error,
4 verification-suite or self-check failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import cache

from . import verify as verify_mod
from .arith import RationalSet, as_fraction, enumerate_smooth
from .density import (
    construct_dense_set,
    empirical_densities,
    max_subset_count,
    rho_closed_form,
    rho_general,
    sigma_series,
    strict_gap_check,
)
from .errors import BudgetError, DomainError, PrecisionError, SelfCheckError
from .geometry import (
    ExactReal,
    SimplexSpec,
    find_black_majority_c,
    rational_slope_profile,
    simplex_points,
)
from .lattice import (
    checkerboard_split,
    f_via_checkerboard,
    gamma_bracket,
    monochromatize,
    point_color,
)
from .arith import CoprimeBasis, derive_basis

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_BUDGET = 3
EXIT_SUITE_FAILED = 4


class _Parser(argparse.ArgumentParser):
    """argparse variant that exits 1 (not 2) on usage problems."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def frac_str(value: Fraction) -> str:
    return str(Fraction(value))


def dec12(value: Fraction) -> str:
    """12-significant-digit decimal rendering for plotting columns."""
    with localcontext() as ctx:
        ctx.prec = 12
        return str(Decimal(value.numerator) / Decimal(value.denominator))


def _parse_rational_list(text: str) -> list[Fraction]:
    items = [part for part in text.split(",") if part.strip()]
    if not items:
        raise DomainError("expected a comma-separated list of rationals")
    return [as_fraction(part.strip()) for part in items]


def _parse_int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise DomainError(f"expected a comma-separated list of integers: {text!r}") from exc


def _coprime_int_values(text: str) -> list[int]:
    values = _parse_rational_list(text)
    out = []
    for v in values:
        if v.denominator != 1:
            raise DomainError(f"expected integers, got {v}")
        out.append(v.numerator)
    return out


def _bracket_json(bracket) -> dict:
    return {
        "lower": frac_str(bracket.lower),
        "upper": frac_str(bracket.upper),
        "width": frac_str(bracket.width),
        "method": bracket.method,
        "detail": bracket.detail,
    }


def _emit(args, params: dict, result, provenance: str, text_lines) -> None:
    """Print the JSON payload, or the text lines (any iterable, read only here)."""
    if args.format == "json":
        payload = {"params": params, "result": result, "provenance": provenance}
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _emit_csv(header, rows) -> None:
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


@cache
def build_parser() -> _Parser:
    """The CLI's parser, built once per process and shared by every ``main`` call."""
    parser = _Parser(prog="quotientfree", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, metavar="subcommand")

    def add(name: str, help_text: str):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", dest="format", action="store_const", const="json",
                       default="text", help="emit a single JSON object")
        p.add_argument("--csv", dest="format", action="store_const", const="csv",
                       help="emit CSV (table subcommands only)")
        p.add_argument("--exact", action="store_true",
                       help="print exact rationals only in text mode")
        p.add_argument("--seed", type=int, default=0)
        return p

    p = add("rho", "closed-form best density for pairwise-coprime integers")
    p.add_argument("--a", required=True, help="comma-separated integers, e.g. 2,3")

    p = add("rho-general", "bracket the best density of any quotient set")
    p.add_argument("--a", required=True, help="comma-separated rationals, e.g. 3/2")
    p.add_argument("--depth", type=int, default=6)
    p.add_argument("--cap", type=int, default=40)

    p = add("sigma", "certified series bracket for a coprime pair")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--tol", default="1/10000")
    p.add_argument("--budget", type=int, default=10**6)

    p = add("gap", "prove the strict gap between the two density optima")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--budget", type=int, default=10**6)

    p = add("max-subset", "exact maximal quotient-free subset count of {1..N}")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--witness", action="store_true")

    p = add("dense-set", "members of the dense construction up to a horizon")
    p.add_argument("--a", required=True)
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--depth", type=int, default=6)
    p.add_argument("--cap", type=int, default=40)
    p.add_argument("--members", action="store_true",
                   help="include the member list in text mode")

    p = add("densities", "density table of the dense construction at checkpoints")
    p.add_argument("--a", required=True)
    p.add_argument("--checkpoints", required=True, help="e.g. 1000,10000,100000")
    p.add_argument("--depth", type=int, default=6)
    p.add_argument("--cap", type=int, default=40)

    p = add("enumerate", "smooth integers of a basis up to a bound")
    p.add_argument("--a", required=True, help="basis integers, e.g. 2,3")
    p.add_argument("--bound", type=int, required=True)

    p = add("f", "majority color count over the first t smooth integers")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--t", type=int, required=True)

    p = add("gamma", "bracket the optimal difference-free weight")
    p.add_argument("--a", required=True, help="comma-separated rationals")
    p.add_argument("--depth", type=int, default=6)
    p.add_argument("--cap", type=int, default=40)

    p = add("monochromatize", "recolor an optimal triangle configuration")
    p.add_argument("--p", type=int)
    p.add_argument("--q", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--ta", help="rational coefficient a")
    p.add_argument("--tb", help="rational coefficient b")
    p.add_argument("--tc", help="rational bound c")
    p.add_argument("--points", required=True,
                   help='JSON array of coordinate pairs, e.g. "[[0,0],[2,1]]"')
    p.add_argument("--cap", type=int, default=40)

    p = add("simplex", "lattice points and colors under alpha . x <= c")
    p.add_argument("--alphas", required=True,
                   help="comma-separated coefficients, e.g. 1,2 or ln2,ln3 or 1,sqrt2")
    p.add_argument("--c", required=True, help="bound, e.g. 4 or ln12 or 3/2")
    p.add_argument("--counts-only", action="store_true")

    p = add("black-majority", "scan thresholds for a black-majority simplex")
    p.add_argument("--alphas", required=True)
    p.add_argument("--budget", type=int, default=64)

    p = add("slope-profile", "white-minus-black per integer threshold")
    p.add_argument("--a1", type=int, required=True)
    p.add_argument("--a2", type=int, required=True)
    p.add_argument("--cmax", type=int, required=True)

    p = add("verify", "run a seeded property suite")
    p.add_argument("--suite", required=True,
                   choices=list(verify_mod.SUITES) + ["all"])
    p.add_argument("--budget", choices=sorted(verify_mod.BUDGET_TIERS),
                   help="work tier (default: $QUOTIENTFREE_BUDGET, else 'default')")

    return parser


def _parse_alphas(text: str):
    return [part.strip() for part in text.split(",") if part.strip()]


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_rho(args) -> int:
    values = _coprime_int_values(args.a)
    result = rho_closed_form(values)
    _emit(
        args,
        {"a": [str(v) for v in values]},
        frac_str(result),
        "pairwise-coprime-closed-form",
        [f"rho = {frac_str(result)}" + ("" if args.exact else f" = {dec12(result)}")],
    )
    return EXIT_OK


def _cmd_rho_general(args) -> int:
    a_set = RationalSet.of(_parse_rational_list(args.a))
    bracket = rho_general(a_set, args.depth, args.cap)
    lines = [
        f"lower = {frac_str(bracket.lower)}",
        f"upper = {frac_str(bracket.upper)}",
        f"width = {frac_str(bracket.width)}"
        + ("" if args.exact else f" = {dec12(bracket.width)}"),
    ]
    _emit(
        args,
        {"a": [frac_str(f) for f in a_set.elements], "depth": args.depth, "cap": args.cap},
        _bracket_json(bracket),
        "phi-times-gamma-bracket",
        lines,
    )
    return EXIT_OK


def _cmd_sigma(args) -> int:
    bracket = sigma_series(args.p, args.q, as_fraction(args.tol), args.budget)
    _emit(
        args,
        {"p": args.p, "q": args.q, "tol": str(args.tol), "budget": args.budget},
        _bracket_json(bracket),
        "majority-color-series-bracket",
        [
            f"lower = {frac_str(bracket.lower)}"
            + ("" if args.exact else f" = {dec12(bracket.lower)}"),
            f"upper = {frac_str(bracket.upper)}"
            + ("" if args.exact else f" = {dec12(bracket.upper)}"),
            f"terms = {bracket.detail['terms']}",
        ],
    )
    return EXIT_OK


def _cmd_gap(args) -> int:
    report = strict_gap_check(args.p, args.q, args.budget)
    result = {
        "rho": frac_str(report.rho),
        "sigma": None
        if report.sigma is None
        else {"lower": frac_str(report.sigma.lower), "upper": frac_str(report.sigma.upper)},
        "gap_proven": report.gap_proven,
        "rounds": report.rounds,
    }
    lines = [f"rho = {frac_str(report.rho)}"]
    if report.sigma is not None:
        lines.append(
            f"sigma in [{dec12(report.sigma.lower)}, {dec12(report.sigma.upper)}]"
            if not args.exact
            else f"sigma in [{frac_str(report.sigma.lower)}, {frac_str(report.sigma.upper)}]"
        )
    lines.append(f"gap proven: {report.gap_proven}")
    _emit(args, {"p": args.p, "q": args.q, "budget": args.budget}, result,
          "series-lower-versus-closed-form", lines)
    return EXIT_OK


def _cmd_max_subset(args) -> int:
    if args.witness:
        count, witness = max_subset_count(args.p, args.q, args.n, with_witness=True)
        result = {"count": count, "witness": list(witness)}
    else:
        result = {"count": max_subset_count(args.p, args.q, args.n)}
    _emit(args, {"p": args.p, "q": args.q, "n": args.n}, result,
          "coprime-class-majority-sum", (f"{key} = {value}" for key, value in result.items()))
    return EXIT_OK


def _cmd_dense_set(args) -> int:
    a_set = RationalSet.of(_parse_rational_list(args.a))
    sample = construct_dense_set(a_set, args.x, depth=args.depth, cap=args.cap)
    result = {
        "x": sample.x,
        "count": len(sample.members),
        "counting_density": frac_str(sample.counting_density),
        "counting_density_dec": dec12(sample.counting_density),
        "log_density_dec": None
        if sample.log_density is None
        else dec12(sample.log_density),
        "members": list(sample.members),
    }
    lines = [
        f"x = {sample.x}",
        f"count = {len(sample.members)}",
        f"counting density = {frac_str(sample.counting_density)}"
        + ("" if args.exact else f" = {dec12(sample.counting_density)}"),
    ]
    if sample.log_density is not None:
        lines.append(f"log density ~ {dec12(sample.log_density)}")
    if args.members:
        lines.append(f"members = {list(sample.members)}")
    _emit(
        args,
        {"a": [frac_str(f) for f in a_set.elements], "x": args.x, "depth": args.depth},
        result,
        "smooth-times-free-construction",
        lines,
    )
    return EXIT_OK


def _cmd_densities(args) -> int:
    a_set = RationalSet.of(_parse_rational_list(args.a))
    checkpoints = _parse_int_list(args.checkpoints)
    if not checkpoints:
        raise DomainError("at least one checkpoint is required")
    sample = construct_dense_set(a_set, max(checkpoints), depth=args.depth, cap=args.cap)
    rows = empirical_densities(sample.members, checkpoints)
    table = [
        (
            row.x,
            row.count,
            frac_str(row.counting_density),
            dec12(row.counting_density),
            "" if row.log_density is None else dec12(row.log_density),
        )
        for row in rows
    ]
    if args.format == "csv":
        # count_density is exact; the _dec12 column and log_density (a ratio
        # against a 60-digit ln X) are 12-significant-digit decimals
        _emit_csv(("X", "count", "count_density", "count_density_dec12", "log_density"),
                  table)
        return EXIT_OK
    result = [
        {
            "x": row.x,
            "count": row.count,
            "counting_density": frac_str(row.counting_density),
            "counting_density_dec": dec12(row.counting_density),
            "log_density_dec": None if row.log_density is None else dec12(row.log_density),
        }
        for row in rows
    ]
    _emit(
        args,
        {"a": [frac_str(f) for f in a_set.elements], "checkpoints": checkpoints},
        result,
        "counting-and-log-density-table",
        [f"X={r[0]} count={r[1]} density={r[2]} ({r[3]}) log={r[4]}" for r in table],
    )
    return EXIT_OK


def _cmd_enumerate(args) -> int:
    basis = CoprimeBasis.from_coprime_integers(sorted(_coprime_int_values(args.a)))
    seq = enumerate_smooth(basis, args.bound)
    if args.format == "csv":
        _emit_csv(("value", "exponents"),
                  [(v, " ".join(map(str, e))) for v, e in seq.entries()])
        return EXIT_OK
    result = {"values": list(seq.values), "exponents": [list(e) for e in seq.exponents]}
    _emit(
        args,
        {"basis": list(basis.basis), "bound": args.bound},
        result,
        "smooth-enumeration",
        (f"{v} {list(e)}" for v, e in seq.entries()),
    )
    return EXIT_OK


def _cmd_f(args) -> int:
    value = f_via_checkerboard(args.p, args.q, args.t)
    _emit(args, {"p": args.p, "q": args.q, "t": args.t}, value,
          "checkerboard-majority", [f"f = {value}"])
    return EXIT_OK


def _cmd_gamma(args) -> int:
    a_set = RationalSet.of(_parse_rational_list(args.a))
    basis = derive_basis(a_set)
    bracket = gamma_bracket(basis, args.depth, args.cap)
    result = {
        "lower": frac_str(bracket.lower),
        "upper": frac_str(bracket.upper),
        "depth": bracket.depth,
        "witness": [list(p) for p in bracket.witness],
    }
    _emit(
        args,
        {"a": [frac_str(f) for f in a_set.elements], "depth": args.depth, "cap": args.cap},
        result,
        "truncated-weighted-search",
        [
            f"lower = {frac_str(bracket.lower)}",
            f"upper = {frac_str(bracket.upper)}",
            f"witness size = {len(bracket.witness)}",
        ],
    )
    return EXIT_OK


def _cmd_monochromatize(args) -> int:
    if args.p is not None or args.q is not None or args.n is not None:
        if None in (args.p, args.q, args.n):
            raise DomainError("integer mode needs --p, --q and --n together")
        if not (1 < args.p < args.q):
            raise DomainError(f"need 1 < p < q, got p={args.p}, q={args.q}")
        if args.n < 1:
            raise DomainError("bound must be at least 1")
        triangle = SimplexSpec(
            (ExactReal.log(args.p), ExactReal.log(args.q)), ExactReal.log(args.n)
        )
        params = {"p": args.p, "q": args.q, "n": args.n}
    else:
        if None in (args.ta, args.tb, args.tc):
            raise DomainError("rational mode needs --ta, --tb and --tc together")
        triangle = SimplexSpec.of(
            [as_fraction(args.ta), as_fraction(args.tb)], as_fraction(args.tc)
        )
        params = {"a": args.ta, "b": args.tb, "c": args.tc}
    try:
        raw = json.loads(args.points)
        points = [tuple(int(c) for c in p) for p in raw]
    except (ValueError, TypeError) as exc:
        raise DomainError(f"could not parse --points: {exc}") from exc
    result_config = monochromatize(triangle, points, cap=args.cap)
    color = point_color(result_config.points[0]) if result_config.points else "white"
    result = {"points": [list(p) for p in result_config.points], "color": color}
    _emit(
        args,
        {**params, "points": [list(p) for p in points]},
        result,
        "diagonal-sweep",
        [f"points = {[list(p) for p in result_config.points]}", f"color = {color}"],
    )
    return EXIT_OK


def _cmd_simplex(args) -> int:
    spec = SimplexSpec.of(_parse_alphas(args.alphas), args.c)
    config = simplex_points(spec)
    split = checkerboard_split(config)
    result = {
        "white": split.counts.white,
        "black": split.counts.black,
    }
    if not args.counts_only:
        result["points"] = [list(p) for p in config.points]
    lines = [f"points = {len(config.points)}",
             f"white = {split.counts.white}", f"black = {split.counts.black}"]
    _emit(args, {"alphas": _parse_alphas(args.alphas), "c": args.c}, result,
          "simplex-lattice-enumeration", lines)
    return EXIT_OK


def _cmd_black_majority(args) -> int:
    search = find_black_majority_c(_parse_alphas(args.alphas), budget=args.budget)
    result = {
        "found": search.found,
        "c": search.threshold_display,
        "n": search.integer_bound,
        "white": None if search.counts is None else search.counts.white,
        "black": None if search.counts is None else search.counts.black,
        "candidates_tested": search.candidates_tested,
    }
    if search.found:
        lines = [
            f"c = {search.threshold_display}",
            f"white = {search.counts.white}, black = {search.counts.black}",
        ]
    else:
        lines = [f"none found within budget ({search.candidates_tested} thresholds tested)"]
    _emit(args, {"alphas": _parse_alphas(args.alphas), "budget": args.budget}, result,
          "ascending-threshold-scan", lines)
    return EXIT_OK


def _cmd_slope_profile(args) -> int:
    rows = rational_slope_profile(args.a1, args.a2, args.cmax)
    if args.format == "csv":
        _emit_csv(("c", "white", "black", "diff"),
                  [(r.c, r.white, r.black, r.diff) for r in rows])
        return EXIT_OK
    result = [{"c": r.c, "white": r.white, "black": r.black, "diff": r.diff} for r in rows]
    _emit(
        args,
        {"a1": args.a1, "a2": args.a2, "cmax": args.cmax},
        result,
        "integer-slope-parity-profile",
        [f"c={r.c} white={r.white} black={r.black} diff={r.diff}" for r in rows],
    )
    return EXIT_OK


def _cmd_verify(args) -> int:
    # the environment is read per call, so in-process callers may change it
    budget = args.budget or os.environ.get("QUOTIENTFREE_BUDGET") or "default"
    if budget not in verify_mod.BUDGET_TIERS:
        print(f"error: unknown budget tier {budget!r} in QUOTIENTFREE_BUDGET "
              f"(choose from {', '.join(sorted(verify_mod.BUDGET_TIERS))})",
              file=sys.stderr)
        return EXIT_USAGE
    reports = verify_mod.run_suite(args.suite, seed=args.seed, budget=budget)
    all_ok = all(r.ok for r in reports)
    if args.format == "json":
        result = []
        for r in reports:
            failure = r.first_failure()
            result.append(
                {
                    "suite": r.suite,
                    "passed": r.passed,
                    "failed": r.failed,
                    "first_failure": None
                    if failure is None
                    else {"case": failure.name, "detail": failure.detail},
                }
            )
        payload = {
            "params": {"suite": args.suite, "seed": args.seed, "budget": budget},
            "result": result,
            "provenance": "seeded-property-suite",
        }
        print(json.dumps(payload, sort_keys=True))
    else:
        for r in reports:
            print(f"suite {r.suite}: {r.passed}/{len(r.cases)} passed "
                  f"(seed={r.seed}, budget={r.budget})")
            failure = r.first_failure()
            if failure is not None:
                print(f"  FIRST FAILURE {failure.name}: {failure.detail}")
    return EXIT_OK if all_ok else EXIT_SUITE_FAILED


_HANDLERS = {
    "rho": _cmd_rho,
    "rho-general": _cmd_rho_general,
    "sigma": _cmd_sigma,
    "gap": _cmd_gap,
    "max-subset": _cmd_max_subset,
    "dense-set": _cmd_dense_set,
    "densities": _cmd_densities,
    "enumerate": _cmd_enumerate,
    "f": _cmd_f,
    "gamma": _cmd_gamma,
    "monochromatize": _cmd_monochromatize,
    "simplex": _cmd_simplex,
    "black-majority": _cmd_black_majority,
    "slope-profile": _cmd_slope_profile,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    try:
        code = _run(argv)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early (say `| head`): stop quietly, and
        # point stdout at os.devnull so the flush at exit cannot fail again
        try:
            fd = sys.stdout.fileno()
        except (AttributeError, OSError, ValueError):
            return EXIT_USAGE
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, fd)
        os.close(devnull)
        return EXIT_USAGE
    return code


def _run(argv) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return _HANDLERS[args.command](args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except (BudgetError, PrecisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, BudgetError) and exc.achieved is not None:
            achieved = exc.achieved
            print(
                f"achieved bracket: [{achieved.lower}, {achieved.upper}]",
                file=sys.stderr,
            )
        return EXIT_BUDGET
    except SelfCheckError as exc:
        print(f"error: self-check failed: {exc}", file=sys.stderr)
        return EXIT_SUITE_FAILED


if __name__ == "__main__":
    sys.exit(main())
