"""Command-line front end.

One subcommand per library operation, JSON/CSV/text output, reproducible
verification suites.  Exit codes: 0 success, 1 usage (or stdout closed
early by its reader), 2 domain error, 3 budget, precision or memory
error, 4 verification-suite or self-check failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from decimal import MAX_EMAX, MIN_EMIN, ROUND_HALF_EVEN, Context
from fractions import Fraction
from functools import cache
from itertools import compress
from typing import Callable, Collection, Iterable, NamedTuple, Optional

from . import verify as verify_mod
from .arith import CoprimeBasis, RationalSet, as_fraction, derive_basis, smooth_exponent_rows
from .density import (
    DEFAULT_SERIES_BUDGET,
    DensityBracket,
    construct_dense_set,
    max_subset_count,
    max_subset_witness,
    rho_closed_form,
    rho_general,
    sigma_series,
    strict_gap_check,
)
from .errors import BudgetError, DomainError, PrecisionError, SelfCheckError
from .geometry import (
    DEFAULT_SCAN_BUDGET,
    ColorCount,
    ExactReal,
    SimplexSpec,
    _slope_columns,
    find_black_majority_c,
    simplex_color_counts,
    simplex_points,
)
from .lattice import (
    DEFAULT_SEARCH_CAP,
    f_via_checkerboard,
    gamma_bracket,
    monochromatize,
)

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


# dec12's own context, so no thread's decimal context is read
_DEC12 = Context(prec=12, rounding=ROUND_HALF_EVEN, Emin=MIN_EMIN, Emax=MAX_EMAX, traps=[])


def dec12(value: Fraction) -> str:
    """12-significant-digit decimal rendering for plotting columns.

    The string a 12-digit ``Decimal`` division rounding half-even gives,
    exponent included: an exact quotient keeps the exponent closest to 0
    that its digits allow (1/4 prints 0.25, 3/1 prints 3), an inexact one
    has 12 digits.
    """
    return str(_DEC12.divide(value.numerator, value.denominator))


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
    for v in values:
        if v.denominator != 1:
            raise DomainError(f"expected integers, got {v}")
    return [v.numerator for v in values]


def _parse_alphas(text: str) -> list[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


def _parse_points(text: str) -> list[list[int]]:
    try:
        raw = json.loads(text)
    except ValueError as exc:
        raise DomainError(f"could not parse --points: {exc}") from exc
    # JSON integers only: a float, string or bool coordinate is not converted
    if not isinstance(raw, list) or not all(
        isinstance(p, list) and all(type(c) is int for c in p) for p in raw
    ):
        raise DomainError("--points must be a JSON array of arrays of integers")
    return raw


def _bracket_json(bracket) -> dict:
    return {
        "lower": str(bracket.lower),
        "upper": str(bracket.upper),
        "width": str(bracket.width),
        "method": bracket.method,
        "detail": bracket.detail,
    }


def _log_dec(bracket: Optional[DensityBracket], exact: Callable[[], Fraction]) -> Optional[str]:
    """``dec12`` of a log density from its certified bracket; None without one.

    When both ends print the same 12 digits and the decimal they name lies
    outside the bracket, the value inside prints the same: it rounds to
    that decimal and is not equal to it, so its quotient is inexact and
    keeps all 12 digits.  Otherwise (a bracket across a rounding boundary,
    or around a short decimal such as 1/4, whose exact quotient would print
    trimmed) ``exact()`` is computed and printed; the dense set's exact
    route raises ``BudgetError`` (exit 3) above its horizon bound.
    """
    if bracket is None:
        return None
    text = dec12(bracket.lower)
    if text == dec12(bracket.upper) and not bracket.contains(Fraction(text)):
        return text
    return dec12(exact())


def _with_dec(args, value: Fraction) -> str:
    """The exact rational, followed by its 12-digit decimal unless --exact."""
    return str(value) + ("" if args.exact else f" = {dec12(value)}")


_DIGITS = tuple(map(str, range(1000)))  # "0" to "999"
_SUFFIX3 = tuple(f"{n:03d}" for n in range(1000))  # "000" to "999"


class _Rendered:
    """A list whose JSON text is built without ``json.dumps``.

    ``str`` gives the text that ``json.dumps`` gives for the list; ``_emit``
    splices it into the JSON output.
    """

    __slots__ = ()


class _MaskList(_Rendered):
    """The ascending k with mask[k] = 1 for a 0/1 byte mask, as one list.

    Its text, "[a, b, ...]", is also what ``str`` gives for the list of
    those k, and is built without an int per member: the k in block B
    (1000B <= k < 1000B + 1000) are str(B) before a three-digit suffix, and
    block 0 takes its numbers whole from a table.
    """

    __slots__ = ("mask",)

    def __init__(self, mask):
        self.mask = mask

    def __str__(self) -> str:
        mask, parts = self.mask, []
        for start in range(0, len(mask), 1000):
            block = mask[start:start + 1000]
            if 1 in block:
                head = str(start // 1000) if start else ""
                parts.append(head + (", " + head).join(
                    compress(_SUFFIX3 if start else _DIGITS, block)))
        return "[" + ", ".join(parts) + "]"


class _RowList(_Rendered):
    """A nonempty list of integer lists from rows of text, "a, b, ..." for [a, b, ...]."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        self.rows = rows

    def __str__(self) -> str:
        return "[[" + "], [".join(self.rows) + "]]"


# ---------------------------------------------------------------------------
# The subcommand table
# ---------------------------------------------------------------------------


class _Output(NamedTuple):
    """A subcommand's answer in each output mode.  Every subcommand gives
    ``lines`` (text) as a generator, so JSON and CSV runs format no text
    line; ``rows`` (CSV, table subcommands only) may be one too, read only
    when printed; ``result`` may be a function of no arguments, called only
    in JSON mode."""

    params: dict
    result: object
    lines: Iterable[str]
    header: tuple[str, ...] = ()
    rows: Iterable[tuple] = ()
    code: int = EXIT_OK


class _Command(NamedTuple):
    help: str
    provenance: str
    arguments: tuple[tuple[tuple[str, ...], dict], ...]
    compute: Callable[[argparse.Namespace], _Output]


_COMMANDS: dict[str, _Command] = {}  # the table: one row per subcommand


def _command(name: str, help_text: str, provenance: str, *arguments):
    """Enter the decorated compute function in the table as the row ``name``."""
    def register(compute):
        _COMMANDS[name] = _Command(help_text, provenance, arguments, compute)
        return compute
    return register


def _arg(*flags: str, **options):
    """One argument: its flags, and its argparse options with ``dest`` filled
    in by argparse's rule (the first long flag without "--", "-" turned into
    "_"), so the parser and the flag table read the same dest."""
    if "dest" not in options:
        options["dest"] = next(f for f in flags if f.startswith("--"))[2:].replace("-", "_")
    return flags, options


_JSON = _arg("--json", dest="format", action="store_const", const="json", default="text",
             help="emit a single JSON object")

_CSV = _arg("--csv", dest="format", action="store_const", const="csv", help="emit CSV")
_EXACT = _arg("--exact", action="store_true", help="print exact rationals only in text mode")
_RATIONALS = _arg("--a", required=True, help="comma-separated rationals, e.g. 3/2")
_P = _arg("--p", type=int, required=True)
_Q = _arg("--q", type=int, required=True)
_DEPTH = _arg("--depth", type=int, default=6)
_CAP = _arg("--cap", type=int, default=DEFAULT_SEARCH_CAP)
_SERIES_BUDGET = _arg("--budget", type=int, default=DEFAULT_SERIES_BUDGET)


@_command("rho", "closed-form best density for pairwise-coprime integers",
          "pairwise-coprime-closed-form",
          _arg("--a", required=True, help="comma-separated integers, e.g. 2,3"), _EXACT)
def _rho(args) -> _Output:
    values = _coprime_int_values(args.a)
    result = rho_closed_form(values)
    return _Output({"a": [str(v) for v in values]}, str(result),
                   (f"rho = {_with_dec(args, rho)}" for rho in (result,)))


@_command("rho-general", "bracket the best density of any quotient set",
          "phi-times-gamma-bracket", _RATIONALS, _DEPTH, _CAP, _EXACT)
def _rho_general(args) -> _Output:
    a_set = RationalSet.of(_parse_rational_list(args.a))
    bracket = rho_general(a_set, args.depth, args.cap)

    def lines():
        yield f"lower = {bracket.lower}"
        yield f"upper = {bracket.upper}"
        yield f"width = {_with_dec(args, bracket.width)}"

    return _Output(
        {"a": [str(f) for f in a_set.elements], "depth": args.depth, "cap": args.cap},
        _bracket_json(bracket),
        lines(),
    )


@_command("sigma", "certified series bracket for a coprime pair",
          "majority-color-series-bracket",
          _P, _Q, _arg("--tol", default="1/10000"), _SERIES_BUDGET, _EXACT)
def _sigma(args) -> _Output:
    bracket = sigma_series(args.p, args.q, as_fraction(args.tol), args.budget)

    def lines():
        yield f"lower = {_with_dec(args, bracket.lower)}"
        yield f"upper = {_with_dec(args, bracket.upper)}"
        yield f"terms = {bracket.detail['terms']}"

    return _Output(
        {"p": args.p, "q": args.q, "tol": str(args.tol), "budget": args.budget},
        _bracket_json(bracket),
        lines(),
    )


@_command("gap", "prove the strict gap between the two density optima",
          "series-lower-versus-closed-form",
          _P, _Q, _SERIES_BUDGET, _EXACT)
def _gap(args) -> _Output:
    report = strict_gap_check(args.p, args.q, args.budget)
    result = {
        "rho": str(report.rho),
        "sigma": None
        if report.sigma is None
        else {"lower": str(report.sigma.lower), "upper": str(report.sigma.upper)},
        "gap_proven": report.gap_proven,
        "rounds": report.rounds,
    }

    def lines():
        yield f"rho = {result['rho']}"
        if report.sigma is not None:
            show = str if args.exact else dec12
            yield f"sigma in [{show(report.sigma.lower)}, {show(report.sigma.upper)}]"
        yield f"gap proven: {report.gap_proven}"

    return _Output({"p": args.p, "q": args.q, "budget": args.budget}, result, lines())


@_command("max-subset", "exact maximal quotient-free subset count of {1..N}",
          "coprime-class-majority-sum",
          _P, _Q, _arg("--n", type=int, required=True), _arg("--witness", action="store_true"))
def _max_subset(args) -> _Output:
    if args.witness:
        count, mask = max_subset_witness(args.p, args.q, args.n)
        result = {"count": count, "witness": _MaskList(mask)}
    else:
        result = {"count": max_subset_count(args.p, args.q, args.n)}
    return _Output({"p": args.p, "q": args.q, "n": args.n}, result,
                   (f"{key} = {value}" for key, value in result.items()))


@_command("dense-set", "members of the dense construction up to a horizon",
          "smooth-times-free-construction",
          _RATIONALS, _arg("--x", type=int, required=True), _DEPTH, _CAP,
          _arg("--members", action="store_true", help="include the member list in text mode"),
          _EXACT)
def _dense_set(args) -> _Output:
    a_set = RationalSet.of(_parse_rational_list(args.a))
    sample = construct_dense_set(a_set, args.x, depth=args.depth, cap=args.cap)
    count = sample.count()
    log_dec = _log_dec(sample.log_density_bracket(), lambda: sample.log_density)

    # each mode reads only its own output, so the member mask is built for
    # JSON and for text with --members alone
    def result() -> dict:
        return {
            "x": sample.x,
            "count": count,
            "counting_density": str(sample.counting_density),
            "counting_density_dec": dec12(sample.counting_density),
            "log_density_dec": log_dec,
            "members": _MaskList(sample.member_mask),
        }

    def lines():
        # the member line is rendered before the first line is printed, so a
        # mask too large to allocate leaves stdout empty
        members = f"members = {_MaskList(sample.member_mask)}" if args.members else None
        yield f"x = {sample.x}"
        yield f"count = {count}"
        yield f"counting density = {_with_dec(args, sample.counting_density)}"
        if log_dec is not None:
            yield f"log density ~ {log_dec}"
        if members is not None:
            yield members

    return _Output({"a": [str(f) for f in a_set.elements], "x": args.x,
                    "depth": args.depth}, result, lines())


@_command("densities", "density table of the dense construction at checkpoints",
          "counting-and-log-density-table",
          _RATIONALS, _arg("--checkpoints", required=True, help="e.g. 1000,10000,100000"),
          _DEPTH, _CAP, _CSV)
def _densities(args) -> _Output:
    a_set = RationalSet.of(_parse_rational_list(args.a))
    checkpoints = _parse_int_list(args.checkpoints)
    if not checkpoints:
        raise DomainError("at least one checkpoint is required")
    # a bad checkpoint is rejected before the sample is built
    if min(checkpoints) < 1:
        raise DomainError("checkpoints must be positive")
    # one sample at the last checkpoint answers every row from its smooth
    # parts and basis by inclusion-exclusion: no O(X) list is built, so X
    # may reach 10^18; only a bracket across a rounding boundary falls back
    # to the exact sum, which raises BudgetError above its bound
    sample = construct_dense_set(a_set, max(checkpoints), depth=args.depth, cap=args.cap)
    table = []
    for x in sorted(set(checkpoints)):
        count = sample.count(x)
        density = Fraction(count, x)
        log_dec = _log_dec(sample.log_density_bracket(x), lambda: sample.log_density_at(x))
        table.append((x, count, str(density), dec12(density), log_dec or ""))
    keys = ("x", "count", "counting_density", "counting_density_dec", "log_density_dec")
    # JSON has null where the CSV's log_density column is empty
    result = [dict(zip(keys, (*row[:4], row[4] or None))) for row in table]
    return _Output(
        {"a": [str(f) for f in a_set.elements], "checkpoints": checkpoints},
        result,
        (f"X={r[0]} count={r[1]} density={r[2]} ({r[3]}) log={r[4]}" for r in table),
        # count_density is exact; the _dec12 column and log_density (a ratio
        # against a 60-digit ln X) are 12-significant-digit decimals
        ("X", "count", "count_density", "count_density_dec12", "log_density"),
        table,
    )


@_command("enumerate", "smooth integers of a basis up to a bound", "smooth-enumeration",
          _arg("--a", required=True, help="basis integers, e.g. 2,3"),
          _arg("--bound", type=int, required=True), _CSV)
def _enumerate(args) -> _Output:
    basis = CoprimeBasis.from_coprime_integers(sorted(_coprime_int_values(args.a)))
    values, rows = smooth_exponent_rows(basis, args.bound)
    return _Output(
        {"basis": list(basis.basis), "bound": args.bound},
        {"values": values, "exponents": _RowList(rows)},
        (f"{v} [{row}]" for v, row in zip(values, rows)),
        ("value", "exponents"),
        ((v, row.replace(", ", " ")) for v, row in zip(values, rows)),
    )


@_command("f", "majority color count over the first t smooth integers",
          "checkerboard-majority", _P, _Q, _arg("--t", type=int, required=True))
def _f(args) -> _Output:
    value = f_via_checkerboard(args.p, args.q, args.t)
    return _Output({"p": args.p, "q": args.q, "t": args.t}, value, (f"f = {f}" for f in (value,)))


@_command("gamma", "bracket the optimal difference-free weight", "truncated-weighted-search",
          _RATIONALS, _DEPTH, _CAP)
def _gamma(args) -> _Output:
    a_set = RationalSet.of(_parse_rational_list(args.a))
    bracket = gamma_bracket(derive_basis(a_set), args.depth, args.cap)
    result = {
        "lower": str(bracket.lower),
        "upper": str(bracket.upper),
        "depth": bracket.depth,
        "witness": [list(p) for p in bracket.witness],
    }

    def lines():
        yield f"lower = {result['lower']}"
        yield f"upper = {result['upper']}"
        yield f"witness size = {len(bracket.witness)}"

    return _Output(
        {"a": [str(f) for f in a_set.elements], "depth": args.depth, "cap": args.cap},
        result,
        lines(),
    )


@_command("monochromatize", "recolor an optimal triangle configuration", "diagonal-sweep",
          _arg("--p", type=int), _arg("--q", type=int), _arg("--n", type=int),
          _arg("--ta", help="rational coefficient a"), _arg("--tb", help="rational coefficient b"),
          _arg("--tc", help="rational bound c"),
          _arg("--points", required=True,
               help='JSON array of coordinate pairs, e.g. "[[0,0],[2,1]]"'),
          _CAP)
def _monochromatize(args) -> _Output:
    integer_mode = (args.p, args.q, args.n)
    rational_mode = (args.ta, args.tb, args.tc)
    if integer_mode != (None, None, None):
        if rational_mode != (None, None, None):
            raise DomainError("give --p, --q, --n or --ta, --tb, --tc, not both")
        if None in integer_mode:
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
        if None in rational_mode:
            raise DomainError("rational mode needs --ta, --tb and --tc together")
        triangle = SimplexSpec.of(
            [as_fraction(args.ta), as_fraction(args.tb)], as_fraction(args.tc)
        )
        params = {"a": args.ta, "b": args.tb, "c": args.tc}
    points = _parse_points(args.points)
    recolored = [list(p) for p in monochromatize(triangle, points, cap=args.cap).points]
    color = "black" if ColorCount.of(recolored).black else "white"

    def lines():
        yield f"points = {recolored}"
        yield f"color = {color}"

    return _Output({**params, "points": points}, {"points": recolored, "color": color}, lines())


@_command("simplex", "lattice points and colors under alpha . x <= c",
          "simplex-lattice-enumeration",
          _arg("--alphas", required=True,
               help="comma-separated coefficients, e.g. 1,2 or ln2,ln3 or 1,sqrt2"),
          _arg("--c", required=True, help="bound, e.g. 4 or ln12 or 3/2"),
          _arg("--counts-only", action="store_true",
               help="print only the white and black counts, not the points"))
def _simplex(args) -> _Output:
    alphas = _parse_alphas(args.alphas)
    spec = SimplexSpec.of(alphas, args.c)
    if args.counts_only:
        counts, listing = simplex_color_counts(spec), {}
    else:
        config = simplex_points(spec)
        counts = ColorCount.of(config.points)
        listing = {"points": [list(p) for p in config.points]}

    def lines():
        yield f"points = {counts.total}"
        yield f"white = {counts.white}"
        yield f"black = {counts.black}"

    return _Output({"alphas": alphas, "c": args.c},
                   {"white": counts.white, "black": counts.black, **listing}, lines())


@_command("black-majority", "scan thresholds for a black-majority simplex",
          "ascending-threshold-scan",
          _arg("--alphas", required=True),
          _arg("--budget", type=int, default=DEFAULT_SCAN_BUDGET))
def _black_majority(args) -> _Output:
    alphas = _parse_alphas(args.alphas)
    search = find_black_majority_c(alphas, budget=args.budget)
    result = {
        "found": search.found,
        "c": search.threshold_display,
        "n": search.integer_bound,
        "white": None if search.counts is None else search.counts.white,
        "black": None if search.counts is None else search.counts.black,
        "candidates_tested": search.candidates_tested,
    }

    def lines():
        if search.found:
            yield f"c = {search.threshold_display}"
            yield f"white = {search.counts.white}, black = {search.counts.black}"
        else:
            yield f"none found within budget ({search.candidates_tested} thresholds tested)"

    return _Output({"alphas": alphas, "budget": args.budget}, result, lines())


@_command("slope-profile", "white-minus-black per integer threshold",
          "integer-slope-parity-profile",
          _arg("--a1", type=int, required=True), _arg("--a2", type=int, required=True),
          _arg("--cmax", type=int, required=True), _CSV)
def _slope_profile(args) -> _Output:
    columns = (range(1, args.cmax + 1), *_slope_columns(args.a1, args.a2, args.cmax))
    return _Output(
        {"a1": args.a1, "a2": args.a2, "cmax": args.cmax},
        lambda: [{"c": c, "white": w, "black": b, "diff": d} for c, w, b, d in zip(*columns)],
        map("c={} white={} black={} diff={}".format, *columns),
        ("c", "white", "black", "diff"),
        zip(*columns),
    )


@_command("verify", "run a seeded property suite", "seeded-property-suite",
          _arg("--suite", required=True, choices=list(verify_mod.SUITES) + ["all"]),
          _arg("--budget", choices=sorted(verify_mod.BUDGET_TIERS),
               help="work tier (default: $QUOTIENTFREE_BUDGET, else 'default')"),
          _arg("--seed", type=int, default=0))
def _verify(args) -> _Output:
    # the environment is read per call, so in-process callers may change it
    budget = args.budget or os.environ.get("QUOTIENTFREE_BUDGET") or "default"
    if budget not in verify_mod.BUDGET_TIERS:
        raise argparse.ArgumentError(
            None, f"unknown budget tier {budget!r} in QUOTIENTFREE_BUDGET "
                  f"(choose from {', '.join(sorted(verify_mod.BUDGET_TIERS))})")
    reports = verify_mod.run_suite(args.suite, seed=args.seed, budget=budget)
    failures = [r.first_failure() for r in reports]
    result = [{"suite": r.suite, "passed": r.passed, "failed": r.failed,
               "first_failure": None if failure is None
               else {"case": failure.name, "detail": failure.detail}}
              for r, failure in zip(reports, failures)]

    def lines():
        for r, failure in zip(reports, failures):
            yield (f"suite {r.suite}: {r.passed}/{len(r.cases)} passed "
                   f"(seed={r.seed}, budget={r.budget})")
            if failure is not None:
                yield f"  FIRST FAILURE {failure.name}: {failure.detail}"

    return _Output({"suite": args.suite, "seed": args.seed, "budget": budget}, result, lines(),
                   code=EXIT_OK if all(r.ok for r in reports) else EXIT_SUITE_FAILED)


@cache
def build_parser() -> _Parser:
    """The CLI's parser, built once per process from the subcommand table."""
    parser = _Parser(prog="quotientfree", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, metavar="subcommand")
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for flags, options in (_JSON, *command.arguments):
            p.add_argument(*flags, **options)
    return parser


_VALUED = object()  # the const of a flag that takes the next token as its value


class _Flag(NamedTuple):
    dest: str
    const: object  # what the flag stores, or _VALUED
    type: Optional[Callable[[str], object]]
    choices: Optional[Collection]


class _Grammar(NamedTuple):
    """A subcommand's well-formed argv: its exact flags, the namespace's
    defaults and the dests that must be given."""

    flags: dict[str, _Flag]
    defaults: dict[str, object]
    required: frozenset[str]


def _grammar(arguments) -> _Grammar:
    """A subcommand's flag table, read from the options argparse is given."""
    flags, defaults, required = {}, {}, set()
    for names, options in (_JSON, *arguments):
        action, dest, kind = options.get("action", "store"), options["dest"], options.get("type")
        const = {"store": _VALUED, "store_true": True,
                 "store_const": options.get("const")}[action]
        default = options.get("default", False if action == "store_true" else None)
        defaults.setdefault(dest, default)  # a shared dest keeps its first default
        if options.get("required"):
            required.add(dest)
        for name in names:
            flags[name] = _Flag(dest, const, kind, options.get("choices"))
    return _Grammar(flags, defaults, frozenset(required))


_GRAMMARS = {name: _grammar(command.arguments) for name, command in _COMMANDS.items()}


def _read(grammar: _Grammar, tokens: Iterable[str]) -> Optional[dict]:
    """The namespace values of a well-formed argv tail; None for any other."""
    values, given = dict(grammar.defaults), set()
    tokens = iter(tokens)
    for token in tokens:
        flag = grammar.flags.get(token)
        if flag is None or flag.dest in given:
            return None
        given.add(flag.dest)
        if flag.const is not _VALUED:
            values[flag.dest] = flag.const
            continue
        value = next(tokens, None)
        if value is None or value.startswith("-"):
            return None
        if flag.type is not None:
            try:
                value = flag.type(value)
            except (TypeError, ValueError, argparse.ArgumentTypeError):
                return None
        if flag.choices is not None and value not in flag.choices:
            return None
        values[flag.dest] = value
    return values if grammar.required <= given else None


def _parse(argv) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``, read from the flag table when
    argv is well formed.

    Well formed means: argv[0] names a subcommand; each later token is one
    of its exact flags, each dest given once; a valued flag is followed by a
    value that does not start with "-", that its ``type`` converts and its
    ``choices`` hold; and every required flag is given.  argparse would give
    such an argv the same namespace, so the parser is not built.  Anything
    else (``-h``, an abbreviation, ``--flag=value``, ``--``, an unknown
    flag, a missing or dash-led value) goes to argparse, so every help text
    and usage message keeps its bytes and exit code.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    grammar = _GRAMMARS.get(argv[0]) if argv else None
    values = None if grammar is None else _read(grammar, argv[1:])
    if values is None:
        return build_parser().parse_args(argv)
    return argparse.Namespace(command=argv[0], **values)


def _emit(fmt: str, provenance: str, out: _Output) -> None:
    """Print a subcommand's output as JSON, CSV (table subcommands) or text lines."""
    if fmt == "json":
        result = out.result() if callable(out.result) else out.result
        # a rendered list goes in as the placeholder "\0<key>", which no
        # argv can carry, and its text is spliced in for the placeholder's JSON
        lists = {key: value for key, value in result.items()
                 if isinstance(value, _Rendered)} if isinstance(result, dict) else {}
        if lists:
            result = {**result, **{key: "\0" + key for key in lists}}
        payload = {"params": out.params, "result": result, "provenance": provenance}
        text = json.dumps(payload, sort_keys=True)
        for key, value in lists.items():
            placeholder = json.dumps("\0" + key)
            found = text.count(placeholder)
            if found != 1:
                raise SelfCheckError(f"placeholder {placeholder} found {found} times in the JSON")
            text = text.replace(placeholder, str(value))
        print(text)
    elif fmt == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(out.header)
        writer.writerows(out.rows)
    else:
        for line in out.lines:
            print(line)


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
        args = _parse(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    command = _COMMANDS[args.command]
    try:
        out = command.compute(args)
        _emit(args.format, command.provenance, out)
        return out.code
    except (argparse.ArgumentError, DomainError) as exc:
        # ArgumentError: a usage problem found after parsing (a bad QUOTIENTFREE_BUDGET)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN if isinstance(exc, DomainError) else EXIT_USAGE
    except (BudgetError, PrecisionError) as exc:
        achieved = getattr(exc, "achieved", None)
        reached = "" if achieved is None else (
            f"; achieved bracket: [{achieved.lower}, {achieved.upper}]")
        print(f"error: {exc}{reached}", file=sys.stderr)
        return EXIT_BUDGET
    except SelfCheckError as exc:
        print(f"error: self-check failed: {exc}", file=sys.stderr)
        return EXIT_SUITE_FAILED
    except (MemoryError, OverflowError):
        # an answer too large to hold, or a size past the C index range
        print(f"error: out of memory in {args.command}", file=sys.stderr)
        return EXIT_BUDGET
    except ValueError as exc:
        # a number past the interpreter's int-to-str digit limit, a resource
        # limit like memory; any other ValueError is a defect and propagates
        if "integer string conversion" not in str(exc):
            raise
        print(f"error: a number too long to print in {args.command}", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
