import contextlib
import decimal
import hashlib
import inspect
import io
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from itertools import compress

import pytest
from hypothesis import example, given, settings, strategies as st

import quotientfree
from quotientfree import cli, density, geometry, lattice, verify
from quotientfree.cli import (
    _MaskList,
    _Output,
    _RowList,
    _emit,
    _log_dec,
    build_parser,
    dec12,
    main,
)
from quotientfree.density import DensityBracket
from quotientfree.errors import SelfCheckError

from helpers import decimal_dec12


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBasicCommands:
    def test_rho_json(self, capsys):
        code, out, _ = run(capsys, "rho", "--a", "2,3", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["result"] == "7/12"
        assert payload["params"]["a"] == ["2", "3"]
        assert "provenance" in payload

    def test_max_subset_with_witness(self, capsys):
        code, out, _ = run(capsys, "max-subset", "--p", "2", "--q", "3",
                           "--n", "12", "--witness", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["result"]["count"] == 7
        assert payload["result"]["witness"] == [1, 4, 5, 6, 7, 9, 11]

    def test_max_subset_witness_count_is_the_checked_count(self, capsys, monkeypatch):
        # the count comes with the mask, checked against the block sum, and
        # the mask is not counted a second time
        class Uncounted(bytearray):
            def count(self, *args):
                raise AssertionError("the witness mask was counted again")

        witness = density.max_subset_witness

        def checked(p, q, n):
            count, mask = witness(p, q, n)
            return count, Uncounted(mask)

        argv = ("max-subset", "--p", "2", "--q", "3", "--n", "1000", "--witness", "--json")
        expected = run(capsys, *argv)
        monkeypatch.setattr(cli, "max_subset_witness", checked)
        assert run(capsys, *argv) == expected
        assert json.loads(expected[1])["result"]["count"] == 612

    def test_rho_general(self, capsys):
        code, out, _ = run(capsys, "rho-general", "--a", "3/2", "--depth", "6", "--json")
        assert code == 0
        payload = json.loads(out)
        lower = payload["result"]["lower"]
        assert "/" in lower

    def test_sigma(self, capsys):
        code, out, _ = run(capsys, "sigma", "--p", "2", "--q", "3",
                           "--tol", "1/1000", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["result"]["method"] == "series-with-tail"

    def test_gap(self, capsys):
        code, out, _ = run(capsys, "gap", "--p", "2", "--q", "3", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["result"]["gap_proven"] is True
        assert payload["result"]["rho"] == "7/12"

    def test_enumerate_csv(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--a", "2,3", "--bound", "12", "--csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "value,exponents"
        assert len(lines) == 9

    def test_f(self, capsys):
        code, out, _ = run(capsys, "f", "--p", "2", "--q", "3", "--t", "8", "--json")
        assert code == 0
        assert json.loads(out)["result"] == 4

    def test_gamma(self, capsys):
        code, out, _ = run(capsys, "gamma", "--a", "2,3", "--depth", "4", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["result"]["depth"] == 4

    def test_dense_set(self, capsys):
        code, out, _ = run(capsys, "dense-set", "--a", "2,3", "--x", "12", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["result"]["members"] == [1, 4, 5, 6, 7, 9, 11]
        assert payload["result"]["counting_density"] == "7/12"

    def test_densities_csv(self, capsys):
        code, out, _ = run(capsys, "densities", "--a", "2,3",
                           "--checkpoints", "100,1000", "--csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "X,count,count_density,count_density_dec12,log_density"
        assert len(lines) == 3

    def test_monochromatize(self, capsys):
        code, out, _ = run(capsys, "monochromatize", "--p", "2", "--q", "3",
                           "--n", "12", "--points", "[[0,0],[0,2],[2,1],[3,0]]",
                           "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["result"]["color"] == "white"
        assert len(payload["result"]["points"]) == 4

    def test_monochromatize_majority_class_past_the_default_cap(self, capsys):
        # every maximum input is checked by the majority count, whatever its
        # size: the white class of 2^x 3^y <= 10^30 has 1,607 of 3,214 points
        n = 10**30
        points = [[x, y] for x in range(100) for y in range(63)
                  if 2**x * 3**y <= n and (x + y) % 2 == 0]
        assert len(points) == 1607
        argv = ("monochromatize", "--p", "2", "--q", "3", "--n", str(n), "--cap", "5000",
                "--points", json.dumps(points), "--json")
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert json.loads(out)["result"] == {"color": "white", "points": sorted(points)}
        code, _, err = run(capsys, *argv[:-2], json.dumps(points[1:]), "--json")
        assert code == 2
        assert "input has 1606 points but the maximum is 1607;" in err

    def test_simplex(self, capsys):
        code, out, _ = run(capsys, "simplex", "--alphas", "1,2", "--c", "4", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["result"]["white"] == 5
        assert payload["result"]["black"] == 4

    def test_simplex_counts_only_by_row_sums(self, capsys):
        code, out, _ = run(capsys, "simplex", "--alphas", "1,1", "--c", "100000",
                           "--counts-only")
        assert code == 0
        assert out == "points = 5000150001\nwhite = 2500100001\nblack = 2500050000\n"

    @pytest.mark.parametrize("alphas,c", [
        ("1,2", "9"), ("ln2,ln3,ln5", "ln900"), ("1,sqrt2,sqrt3", "sqrt50"), ("sqrt2", "1/3"),
        # the benchmark's simplex families, each at the low and the high end of its range
        ("1,sqrt2,sqrt3", "1000/100"), ("1,sqrt2,sqrt3", "2000/100"),
        ("ln2,ln3,sqrt2", "800/100"), ("ln2,ln3,sqrt2", "1500/100"),
        ("sqrt2,sqrt3,sqrt5,sqrt7", "800/100"), ("sqrt2,sqrt3,sqrt5,sqrt7", "1500/100"),
        ("1/2,sqrt5", "3000/100"), ("1/2,sqrt5", "10000/100"),
        ("ln2,ln3,ln5,ln7", "ln100000000"), ("ln2,ln3,ln5,ln7", "ln1000000000000"),
    ])
    def test_simplex_counts_only_matches_the_listing(self, capsys, alphas, c):
        _, listed, _ = run(capsys, "simplex", "--alphas", alphas, "--c", c, "--json")
        _, counted, _ = run(capsys, "simplex", "--alphas", alphas, "--c", c, "--json",
                            "--counts-only")
        # the counts, byte for byte, are those of the listed points tallied here
        listed = json.loads(listed)
        points = listed["result"].pop("points")
        black = sum(sum(p) % 2 for p in points)
        listed["result"].update(white=len(points) - black, black=black)
        assert counted == json.dumps(listed, sort_keys=True) + "\n"
        counted = json.loads(counted)
        for fmt in ((), ("--counts-only",)):
            _, text, _ = run(capsys, "simplex", "--alphas", alphas, "--c", c, *fmt)
            assert text.splitlines() == [
                f"points = {counted['result']['white'] + counted['result']['black']}",
                f"white = {counted['result']['white']}",
                f"black = {counted['result']['black']}",
            ]

    def test_simplex_counts_a_long_filterless_row_at_once(self, capsys):
        # the last alpha is 2**-70, below 2**-64, so the enclosures are
        # scaled by 2**134, and the one row of 2**70 + 1 points is one count
        code, out, _ = run(capsys, "simplex", "--alphas", f"sqrt2,1/{2**70}", "--c", "1",
                           "--counts-only")
        assert code == 0
        assert out == ("points = 1180591620717411303425\n"
                       "white = 590295810358705651713\n"
                       "black = 590295810358705651712\n")

    @pytest.mark.parametrize("alphas,white,black", [
        (f"1/{2**70},sqrt2", 590295810358705651713, 590295810358705651712),
        (f"1/{2**60},1", 576460752303423489, 576460752303423489),
    ])
    def test_simplex_counts_with_a_small_alpha_first(self, alphas, white, black):
        # rows along the small alpha would number 2**60 and more; a separate
        # process, so that a slow walk fails instead of hanging
        src = os.path.dirname(os.path.dirname(quotientfree.__file__))
        proc = subprocess.run(
            [sys.executable, "-m", "quotientfree.cli", "simplex", "--alphas", alphas,
             "--c", "1", "--counts-only"],
            capture_output=True, env={**os.environ, "PYTHONPATH": src}, timeout=60,
        )
        assert proc.returncode == 0
        assert proc.stdout.decode() == (
            f"points = {white + black}\nwhite = {white}\nblack = {black}\n")

    @pytest.mark.parametrize("alphas", ["1,1", "1,2"])
    def test_simplex_counts_a_rational_triangle_at_ten_to_the_300(self, alphas):
        # x + a*y <= n: n + 1 rows, counted by floor sums, not one by one;
        # a separate process, so that a row walk fails instead of hanging
        n = 10**300
        src = os.path.dirname(os.path.dirname(quotientfree.__file__))
        proc = subprocess.run(
            [sys.executable, "-m", "quotientfree.cli", "simplex", "--alphas", alphas,
             "--c", str(n), "--counts-only"],
            capture_output=True, env={**os.environ, "PYTHONPATH": src}, timeout=60,
        )
        assert proc.returncode == 0
        k = n // 2
        if alphas == "1,1":
            total, white = (n + 1) * (n + 2) // 2, (k + 1) ** 2
        else:
            # row y holds x = 0..n - 2y, n even: those of y's parity are white
            total, white = (k + 1) * (n + 1 - k), k * (k + 1) // 2 + k // 2 + 1
        assert proc.stdout.decode() == (
            f"points = {total}\nwhite = {white}\nblack = {total - white}\n")

    def test_simplex_counts_ten_million_rows_at_once(self, capsys):
        # 3x + 7y <= 10**7 has 3,333,334 rows along x, and 1,428,572 along y
        start = time.perf_counter()
        code, out, _ = run(capsys, "simplex", "--alphas", "3,7", "--c", "10000000",
                           "--counts-only")
        assert time.perf_counter() - start < 0.1
        assert code == 0
        assert out == "points = 2380955000001\nwhite = 1190477619048\nblack = 1190477380953\n"

    def test_simplex_radicand_past_the_trial_divisors(self, capsys):
        # trial division stops at 10**4, so a 21-digit radicand parses at once
        code, out, _ = run(capsys, "simplex", "--alphas", "1,sqrt(100000000000000000039)",
                           "--c", "4")
        assert code == 0
        assert out == "points = 5\nwhite = 3\nblack = 2\n"

    def test_black_majority(self, capsys):
        code, out, _ = run(capsys, "black-majority", "--alphas", "ln2,ln3", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["result"]["n"] == 3

    def test_black_majority_merges_exactly_equal_values(self, capsys):
        # 3*ln 2 = ln 8, so the window starts at ln 8 and ends at ln 2 + sqrt 2
        code, out, _ = run(capsys, "black-majority", "--alphas", "ln2,sqrt2,ln8", "--json")
        assert code == 0
        result = json.loads(out)["result"]
        assert (result["c"], result["white"], result["black"]) == ("21/10", 2, 4)
        assert result["candidates_tested"] == 5

    def test_slope_profile_csv(self, capsys):
        code, out, _ = run(capsys, "slope-profile", "--a1", "1", "--a2", "2",
                           "--cmax", "8", "--csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "c,white,black,diff"
        assert lines[4] == "4,5,4,1"

    def test_slope_profile_at_one_hundred_thousand(self, capsys):
        start = time.perf_counter()
        code, out, _ = run(capsys, "slope-profile", "--a1", "1", "--a2", "1",
                           "--cmax", "100000", "--csv")
        assert time.perf_counter() - start < 5.0
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 100001
        assert lines[-1] == "100000,2500100001,2500050000,50001"

    def test_verify_small(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "lemma2",
                           "--budget", "small")
        assert code == 0
        assert "passed" in out

    def test_budget_tier_env_default(self, capsys, monkeypatch):
        monkeypatch.setenv("QUOTIENTFREE_BUDGET", "small")
        code, out, _ = run(capsys, "verify", "--suite", "lemma2")
        assert code == 0
        assert "budget=small" in out

    def test_budget_env_read_per_call(self, capsys, monkeypatch):
        # one process, one parser: the tier follows the environment of each call
        monkeypatch.setenv("QUOTIENTFREE_BUDGET", "small")
        code, out, _ = run(capsys, "verify", "--suite", "lemma2", "--json")
        assert code == 0
        assert json.loads(out)["params"]["budget"] == "small"
        monkeypatch.delenv("QUOTIENTFREE_BUDGET")
        code, out, _ = run(capsys, "verify", "--suite", "lemma2", "--json")
        assert code == 0
        assert json.loads(out)["params"]["budget"] == "default"

    def test_unknown_budget_tier_in_env(self, capsys, monkeypatch):
        monkeypatch.setenv("QUOTIENTFREE_BUDGET", "bogus")
        code, out, err = run(capsys, "verify", "--suite", "lemma2")
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("error: unknown budget tier 'bogus'")
        # an explicit flag wins over the environment
        code, out, _ = run(capsys, "verify", "--suite", "lemma2", "--budget", "small")
        assert code == 0
        assert "budget=small" in out

    def test_text_lines(self, capsys):
        _, out, _ = run(capsys, "max-subset", "--p", "2", "--q", "3", "--n", "12", "--witness")
        assert out == "count = 7\nwitness = [1, 4, 5, 6, 7, 9, 11]\n"
        _, out, _ = run(capsys, "max-subset", "--p", "2", "--q", "3", "--n", "12")
        assert out == "count = 7\n"
        _, out, _ = run(capsys, "enumerate", "--a", "2,3", "--bound", "4")
        assert out == "1 [0, 0]\n2 [1, 0]\n3 [0, 1]\n4 [2, 0]\n"


class TestDefaults:
    # each CLI default is read from the library, so the two cannot drift
    @pytest.mark.parametrize("argv,name,constant", [
        (["rho-general", "--a", "3/2"], "cap", lattice.DEFAULT_SEARCH_CAP),
        (["dense-set", "--a", "3/2", "--x", "10"], "cap", lattice.DEFAULT_SEARCH_CAP),
        (["densities", "--a", "3/2", "--checkpoints", "10"], "cap", lattice.DEFAULT_SEARCH_CAP),
        (["gamma", "--a", "2,3"], "cap", lattice.DEFAULT_SEARCH_CAP),
        (["monochromatize", "--points", "[]"], "cap", lattice.DEFAULT_SEARCH_CAP),
        (["sigma", "--p", "2", "--q", "3"], "budget", density.DEFAULT_SERIES_BUDGET),
        (["gap", "--p", "2", "--q", "3"], "budget", density.DEFAULT_SERIES_BUDGET),
        (["black-majority", "--alphas", "1,2"], "budget", geometry.DEFAULT_SCAN_BUDGET),
    ])
    def test_cli_default_is_the_library_constant(self, argv, name, constant):
        assert getattr(build_parser().parse_args(argv), name) == constant
        assert getattr(cli._parse(argv), name) == constant

    @pytest.mark.parametrize("function,name,constant", [
        (density.rho_general, "cap", lattice.DEFAULT_SEARCH_CAP),
        (lattice.gamma_bracket, "cap", lattice.DEFAULT_SEARCH_CAP),
        (lattice.monochromatize, "cap", lattice.DEFAULT_SEARCH_CAP),
        (density.sigma_series, "budget", density.DEFAULT_SERIES_BUDGET),
        (density.strict_gap_check, "budget", density.DEFAULT_SERIES_BUDGET),
        (geometry.find_black_majority_c, "budget", geometry.DEFAULT_SCAN_BUDGET),
    ])
    def test_library_default_is_the_constant(self, function, name, constant):
        assert inspect.signature(function).parameters[name].default == constant

    def test_constants(self):
        assert (lattice.DEFAULT_SEARCH_CAP, density.DEFAULT_SERIES_BUDGET,
                geometry.DEFAULT_SCAN_BUDGET) == (40, 10**6, 64)


# one valid argv per subcommand, each with more than its required flags
ROUTED = [
    ["rho", "--a", "2,3", "--exact"],
    ["rho-general", "--a", "3/2", "--depth", "3", "--cap", "50", "--json"],
    ["sigma", "--p", "2", "--q", "3", "--tol", "1/100", "--budget", "500"],
    ["gap", "--json", "--p", "5", "--q", "7"],
    ["max-subset", "--p", "2", "--q", "3", "--n", "12", "--witness"],
    ["dense-set", "--a", "2,3", "--x", "20", "--members", "--depth", "4"],
    ["densities", "--a", "2,3", "--checkpoints", "10,100", "--csv"],
    ["enumerate", "--a", "2,3", "--bound", "4", "--json"],
    ["f", "--p", "2", "--q", "3", "--t", "8"],
    ["gamma", "--a", "2,3", "--depth", "2", "--cap", "30"],
    ["monochromatize", "--ta", "1", "--tb", "1", "--tc", "1", "--points", "[[0,1],[1,0]]"],
    ["simplex", "--alphas", "1,sqrt2", "--c", "3/2", "--counts-only"],
    ["black-majority", "--alphas", "1,sqrt2", "--budget", "5", "--json"],
    ["slope-profile", "--a1", "1", "--a2", "2", "--cmax", "4", "--csv"],
    ["verify", "--suite", "lemma2", "--budget", "small", "--seed", "3"],
]

# valid argvs that the flag table declines and argparse parses
DECLINED = [
    ["sigma", "--p", "2", "--q", "3", "--tol=1/100"],
    ["sigma", "--p", "2", "--q", "3", "--to", "1/100"],
    ["gap", "--p", "2", "--q", "5", "--p", "3"],
    ["gap", "--p", "-3", "--q", "5"],
]

# argvs that the top-level parser answers, or that end in a usage error
UNROUTED = [
    [], ["-h"], ["nope"], ["gap"],
    ["gap", "--p", "x", "--q", "3"],
    ["gap", "--p", "2", "--q", "3", "--zzz"],
    ["gap", "--p", "2", "--q", "3", "extra"],
    ["gap", "-h"],
    ["sigma", "--p", "2", "--q", "3", "--tol"],
    ["gap", "--p", "2", "--", "--q", "3"],
]


class TestDirectRouting:
    def test_one_argv_per_subcommand(self):
        assert [argv[0] for argv in ROUTED] == list(cli._COMMANDS)

    @pytest.mark.parametrize("argv", ROUTED, ids=[argv[0] for argv in ROUTED])
    def test_namespace_equals_the_top_level_parse(self, argv):
        assert cli._parse(argv) == build_parser().parse_args(argv)

    @pytest.mark.parametrize("argv", DECLINED,
                             ids=["flag=value", "abbreviation", "repeated", "dash-led value"])
    def test_declined_argv_equals_the_top_level_parse(self, argv):
        assert cli._read(cli._GRAMMARS[argv[0]], argv[1:]) is None
        assert cli._parse(argv) == build_parser().parse_args(argv)

    @pytest.mark.parametrize("argv", UNROUTED, ids=[" ".join(argv) or "(empty)" for argv in UNROUTED])
    def test_same_bytes_and_code_as_the_top_level_parse(self, capsys, monkeypatch, argv):
        routed = run(capsys, *argv)
        # with no flag table to read, every argv goes through the top-level parser
        monkeypatch.setattr(cli, "_GRAMMARS", {})
        assert routed == run(capsys, *argv)
        assert routed[0] == (0 if "-h" in argv else 1)

    def test_a_valid_argv_never_builds_the_parser(self, capsys, monkeypatch):
        def unbuilt():
            raise AssertionError("the parser was built for a well-formed argv")

        monkeypatch.setattr(cli, "build_parser", unbuilt)
        for argv in ROUTED:
            assert cli._parse(argv).command == argv[0]

    def test_a_valid_argv_skips_the_top_level_parser(self, capsys, monkeypatch):
        parser, calls = build_parser(), []
        parse = parser.parse_known_args

        def spy(*args, **kwargs):
            calls.append(args)
            return parse(*args, **kwargs)

        monkeypatch.setattr(parser, "parse_known_args", spy)
        for argv in ROUTED:
            run(capsys, *argv)
        assert calls == []
        assert run(capsys, "nope")[0] == 1
        assert len(calls) == 1


# the parse-level fuzz: values that argparse and the table could read apart
# (dash-led, empty, padded, non-integers for type=int, out-of-choice tiers)
_PARSE_VALUES = ["2", "3", "12", "0", "-3", "-1/2", "-", "", " 4", "x", "1.5", "1/100",
                 "2,3", "3/2", "[[0,1]]", "lemma2", "all", "small", "enormous"]
_PARSE_STRAYS = ["-h", "--", "--zzz", "-x", "extra"]


def _flag_groups(tokens):
    """argv tokens grouped into items, each a flag and the values after it."""
    groups = []
    for token in tokens:
        if token.startswith("--"):
            groups.append([])
        groups[-1].append(token)
    return groups


def _fuzzed_argv(name):
    arguments = (cli._JSON, *cli._COMMANDS[name].arguments)
    flags = [flag for names, _ in arguments for flag in names]
    flag, value = st.sampled_from(flags), st.sampled_from(_PARSE_VALUES)

    def fitting(names, options):  # a flag with a value of its type and choices
        if options.get("action", "store") != "store":
            return st.just([names[0]])
        values = options.get("choices") or (["2", "3", "12", " 4"] if options.get("type")
                                            else _PARSE_VALUES)
        return st.sampled_from(values).map(lambda v: [names[0], v])

    odd = st.one_of(
        st.tuples(flag, value).map(list),
        flag.map(lambda f: [f]),  # a switch, or a valued flag missing its value
        st.tuples(flag, value).map(lambda fv: ["=".join(fv)]),
        st.tuples(flag.filter(lambda f: len(f) > 3), st.integers(3, 9), value).map(
            lambda t: [t[0][:min(t[1], len(t[0]) - 1)], t[2]]),  # an abbreviation
        st.sampled_from(_PARSE_STRAYS).map(lambda s: [s]),
    )
    item = st.one_of(st.one_of([fitting(*argument) for argument in arguments]), odd)
    # a valid argv, one of its values swapped, or part of it; items added; in any order
    valid = _flag_groups(next(argv for argv in ROUTED if argv[0] == name)[1:])
    swapped = st.tuples(st.sampled_from([i for i, g in enumerate(valid) if len(g) == 2]),
                        value).map(lambda t: [[g[0], t[1]] if i == t[0] else g
                                              for i, g in enumerate(valid)])
    base = st.one_of(st.just(valid), swapped,
                     st.lists(st.sampled_from(valid), unique_by=tuple))
    return st.tuples(base, st.lists(item, max_size=3)).flatmap(
        lambda t: st.permutations(t[0] + t[1])).map(lambda items: [name, *sum(items, [])])


def _parse_outcome(parse, argv):
    """parse(argv)'s namespace, or the code, stdout and stderr it exits with."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return parse(argv)
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()


class TestParseFuzz:
    # parsing only: no argv here reaches a compute function
    @pytest.mark.parametrize("name", list(cli._COMMANDS))
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_parse_equals_the_top_level_parse(self, name, data):
        argv = data.draw(_fuzzed_argv(name))
        assert _parse_outcome(cli._parse, argv) == _parse_outcome(build_parser().parse_args, argv)


def _no_text(*args):
    raise AssertionError("a text line was formatted in JSON mode")


class TestJsonFormatsNoText:
    @pytest.mark.parametrize("argv", [
        ["rho", "--a", "2,3,5,7"],
        ["rho-general", "--a", "2,3,5", "--depth", "4"],
        ["sigma", "--p", "5", "--q", "7", "--tol", "1/10000000000"],
        ["gap", "--p", "2", "--q", "5"],
        ["black-majority", "--alphas", "ln2,ln3"],
        ["monochromatize", "--ta", "1", "--tb", "1", "--tc", "1", "--points", "[[0,1],[1,0]]"],
    ], ids=lambda argv: argv[0])
    def test_json_mode_runs_without_the_decimal_formatters(self, capsys, monkeypatch, argv):
        monkeypatch.setattr(cli, "dec12", _no_text)
        monkeypatch.setattr(cli, "_with_dec", _no_text)
        code, out, err = run(capsys, *argv, "--json")
        assert (code, err) == (0, "")
        assert json.loads(out)["params"]

    @pytest.mark.parametrize("argv,expected", [
        (["rho", "--a", "2,3,5,7"], "rho = 13/24 = 0.541666666667\n"),
        (["sigma", "--p", "5", "--q", "7", "--tol", "1/10000000000"],
         "lower = 17045186217452216095992/20697725611846923828125 = 0.823529432031\n"
         "upper = 8696523581266900998053/10560064087677001953125 = 0.823529432119\n"
         "terms = 132\n"),
        (["gap", "--p", "2", "--q", "5"],
         "rho = 11/18\nsigma in [0.61971875, 0.634525]\ngap proven: True\n"),
        (["black-majority", "--alphas", "ln2,ln3"], "c = ln(3)\nwhite = 1, black = 2\n"),
    ], ids=["rho", "sigma", "gap", "black-majority"])
    def test_text_mode_bytes(self, capsys, argv, expected):
        assert run(capsys, *argv) == (0, expected, "")


class TestStartUp:
    def test_a_built_parser_has_not_imported_mpmath_or_dataclasses(self):
        # the library computes its enclosures with integers alone, so a fresh
        # start pays no import of the tests' oracle; and its records are
        # NamedTuples or plain classes, so it pays for no dataclasses, nor the
        # inspect module that dataclasses imports
        src = os.path.dirname(os.path.dirname(quotientfree.__file__))
        code = ("import sys\nimport quotientfree.cli as cli\ncli.build_parser()\n"
                "print(sorted(m for m in sys.modules\n"
                "             if m.split('.')[0] in ('mpmath', 'dataclasses', 'inspect')))\n")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              env={**os.environ, "PYTHONPATH": src}, timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"[]\n", b"")

    def test_a_query_builds_no_parser_and_help_builds_one(self):
        # argparse is built only for help and usage errors, in a fresh start
        src = os.path.dirname(os.path.dirname(quotientfree.__file__))
        code = ("import contextlib, io\nimport quotientfree.cli as cli\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                "    codes = [cli.main(['gap', '--p', '2', '--q', '3', '--json'])]\n"
                "    sizes = [cli.build_parser.cache_info().currsize]\n"
                "    codes.append(cli.main(['-h']))\n"
                "    sizes.append(cli.build_parser.cache_info().currsize)\n"
                "print(codes, sizes)\n")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              env={**os.environ, "PYTHONPATH": src}, timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"[0, 0] [0, 1]\n", b"")


class TestBrokenPipe:
    def test_reader_closing_early_ends_quietly(self):
        # ~13,000 smooth values, far more than a pipe buffers, so the writer
        # is still writing when the reader goes away
        src = os.path.dirname(os.path.dirname(quotientfree.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.Popen(
            [sys.executable, "-m", "quotientfree.cli", "enumerate", "--a", "2,3",
             "--bound", str(10**60)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        assert proc.stdout.readline() == b"1 [0, 0]\n"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert err == b""


class TestDeterminism:
    def test_byte_identical_repeat_runs(self, capsys):
        argv = ("verify", "--suite", "theorem6", "--seed", "0",
                "--budget", "small", "--json")
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second

    def test_json_round_trip_identity(self, capsys):
        for argv in (
            ("rho", "--a", "2,3,5", "--json"),
            ("gap", "--p", "3", "--q", "5", "--json"),
            ("simplex", "--alphas", "1,sqrt2", "--c", "3/2", "--json"),
            ("gamma", "--a", "3/2", "--depth", "5", "--json"),
        ):
            _, out, _ = run(capsys, *argv)
            payload = json.loads(out)
            assert json.dumps(payload, sort_keys=True) + "\n" == out


# One small query per subcommand, in every output mode it has (text, --exact
# text where it changes the text, --json, and --csv for tables), pinned byte
# for byte with its exit code.  The last rows are flags a subcommand does not
# read: they are not registered there, so they are usage errors.
GOLDEN = [
    (("rho", "--a", "2,3"),
     0, "rho = 7/12 = 0.583333333333\n"),
    (("rho", "--a", "2,3", "--exact"),
     0, "rho = 7/12\n"),
    (("rho", "--a", "2,3", "--json"),
     0, '{"params": {"a": ["2", "3"]}, "provenance": "pairwise-coprime-closed-form", '
        '"result": "7/12"}\n'),
    (("rho-general", "--a", "3/2", "--depth", "3"),
     0, "lower = 49/72\n"
        "upper = 257/324\n"
        "width = 73/648 = 0.112654320988\n"),
    (("rho-general", "--a", "3/2", "--depth", "3", "--exact"),
     0, "lower = 49/72\n"
        "upper = 257/324\n"
        "width = 73/648\n"),
    (("rho-general", "--a", "3/2", "--depth", "3", "--json"),
     0, '{"params": {"a": ["3/2"], "cap": 40, "depth": 3}, '
        '"provenance": "phi-times-gamma-bracket", "result": {"detail": {"basis": [2, 3], '
        '"depth": 3, "witness_size": 6}, "lower": "49/72", "method": "truncated-gamma", '
        '"upper": "257/324", "width": "73/648"}}\n'),
    (("sigma", "--p", "2", "--q", "3", "--tol", "1/100"),
     0, "lower = 1370113/2239488 = 0.611797428698\n"
        "upper = 231817/373248 = 0.621080354081\n"
        "terms = 41\n"),
    (("sigma", "--p", "2", "--q", "3", "--tol", "1/100", "--exact"),
     0, "lower = 1370113/2239488\n"
        "upper = 231817/373248\n"
        "terms = 41\n"),
    (("sigma", "--p", "2", "--q", "3", "--tol", "1/100", "--json"),
     0, '{"params": {"budget": 1000000, "p": 2, "q": 3, "tol": "1/100"}, '
        '"provenance": "majority-color-series-bracket", '
        '"result": {"detail": {"next_value": 1152, "terms": 41}, "lower": "1370113/2239488", '
        '"method": "series-with-tail", "upper": "231817/373248", "width": "20789/2239488"}}\n'),
    (("gap", "--p", "2", "--q", "3"),
     0, "rho = 7/12\n"
        "sigma in [0.598443930041, 0.660879629630]\n"
        "gap proven: True\n"),
    (("gap", "--p", "2", "--q", "3", "--exact"),
     0, "rho = 7/12\n"
        "sigma in [9307/15552, 571/864]\n"
        "gap proven: True\n"),
    (("gap", "--p", "2", "--q", "3", "--json"),
     0, '{"params": {"budget": 1000000, "p": 2, "q": 3}, '
        '"provenance": "series-lower-versus-closed-form", "result": {"gap_proven": true, '
        '"rho": "7/12", "rounds": 1, "sigma": {"lower": "9307/15552", "upper": "571/864"}}}\n'),
    # a budget too small for any bracket: no sigma, and no gap proven
    (("gap", "--p", "2", "--q", "3", "--budget", "1"),
     0, "rho = 7/12\n"
        "gap proven: False\n"),
    (("gap", "--p", "2", "--q", "3", "--budget", "1", "--json"),
     0, '{"params": {"budget": 1, "p": 2, "q": 3}, '
        '"provenance": "series-lower-versus-closed-form", "result": {"gap_proven": false, '
        '"rho": "7/12", "rounds": 1, "sigma": null}}\n'),
    (("max-subset", "--p", "2", "--q", "3", "--n", "12", "--witness"),
     0, "count = 7\n"
        "witness = [1, 4, 5, 6, 7, 9, 11]\n"),
    (("max-subset", "--p", "2", "--q", "3", "--n", "12", "--witness", "--json"),
     0, '{"params": {"n": 12, "p": 2, "q": 3}, "provenance": "coprime-class-majority-sum", '
        '"result": {"count": 7, "witness": [1, 4, 5, 6, 7, 9, 11]}}\n'),
    (("dense-set", "--a", "2,3", "--x", "20", "--members"),
     0, "x = 20\n"
        "count = 12\n"
        "counting density = 3/5 = 0.6\n"
        "log density ~ 0.755215082736\n"
        "members = [1, 4, 5, 6, 7, 9, 11, 13, 16, 17, 19, 20]\n"),
    (("dense-set", "--a", "2,3", "--x", "20", "--exact"),
     0, "x = 20\n"
        "count = 12\n"
        "counting density = 3/5\n"
        "log density ~ 0.755215082736\n"),
    (("dense-set", "--a", "2,3", "--x", "20", "--json"),
     0, '{"params": {"a": ["2", "3"], "depth": 6, "x": 20}, '
        '"provenance": "smooth-times-free-construction", "result": {"count": 12, '
        '"counting_density": "3/5", "counting_density_dec": "0.6", '
        '"log_density_dec": "0.755215082736", "members": [1, 4, 5, 6, 7, 9, 11, 13, 16, 17, '
        '19, 20], "x": 20}}\n'),
    (("densities", "--a", "2,3", "--checkpoints", "10,100"),
     0, "X=10 count=6 density=3/5 (0.6) log=0.812406423687\n"
        "X=100 count=59 density=59/100 (0.59) log=0.689907582166\n"),
    (("densities", "--a", "2,3", "--checkpoints", "10,100", "--json"),
     0, '{"params": {"a": ["2", "3"], "checkpoints": [10, 100]}, '
        '"provenance": "counting-and-log-density-table", "result": [{"count": 6, '
        '"counting_density": "3/5", "counting_density_dec": "0.6", '
        '"log_density_dec": "0.812406423687", "x": 10}, {"count": 59, '
        '"counting_density": "59/100", "counting_density_dec": "0.59", '
        '"log_density_dec": "0.689907582166", "x": 100}]}\n'),
    (("densities", "--a", "2,3", "--checkpoints", "10,100", "--csv"),
     0, "X,count,count_density,count_density_dec12,log_density\n"
        "10,6,3/5,0.6,0.812406423687\n"
        "100,59,59/100,0.59,0.689907582166\n"),
    # duplicate, unsorted checkpoints, and X = 1 with no log density
    (("densities", "--a", "3/2", "--checkpoints", "10,1,10", "--json"),
     0, '{"params": {"a": ["3/2"], "checkpoints": [10, 1, 10]}, '
        '"provenance": "counting-and-log-density-table", "result": [{"count": 1, '
        '"counting_density": "1", "counting_density_dec": "1", "log_density_dec": null, '
        '"x": 1}, {"count": 8, "counting_density": "4/5", "counting_density_dec": "0.8", '
        '"log_density_dec": "1.05488750942", "x": 10}]}\n'),
    (("densities", "--a", "2,3", "--checkpoints", "1000,10000,60000", "--csv"),
     0, "X,count,count_density,count_density_dec12,log_density\n"
        "1000,580,29/50,0.58,0.652723072427\n"
        "10000,5835,1167/2000,0.5835,0.635730622846\n"
        "60000,35001,11667/20000,0.58335,0.627180362662\n"),
    (("enumerate", "--a", "2,3", "--bound", "9"),
     0, "1 [0, 0]\n"
        "2 [1, 0]\n"
        "3 [0, 1]\n"
        "4 [2, 0]\n"
        "6 [1, 1]\n"
        "8 [3, 0]\n"
        "9 [0, 2]\n"),
    (("enumerate", "--a", "2,3", "--bound", "9", "--json"),
     0, '{"params": {"basis": [2, 3], "bound": 9}, "provenance": "smooth-enumeration", '
        '"result": {"exponents": [[0, 0], [1, 0], [0, 1], [2, 0], [1, 1], [3, 0], [0, 2]], '
        '"values": [1, 2, 3, 4, 6, 8, 9]}}\n'),
    (("enumerate", "--a", "2,3", "--bound", "9", "--csv"),
     0, "value,exponents\n"
        "1,0 0\n"
        "2,1 0\n"
        "3,0 1\n"
        "4,2 0\n"
        "6,1 1\n"
        "8,3 0\n"
        "9,0 2\n"),
    # one basis element, five of them, and the bound 1 that only 1 meets
    (("enumerate", "--a", "7", "--bound", "400"),
     0, "1 [0]\n"
        "7 [1]\n"
        "49 [2]\n"
        "343 [3]\n"),
    (("enumerate", "--a", "7", "--bound", "400", "--json"),
     0, '{"params": {"basis": [7], "bound": 400}, "provenance": "smooth-enumeration", '
        '"result": {"exponents": [[0], [1], [2], [3]], "values": [1, 7, 49, 343]}}\n'),
    (("enumerate", "--a", "7", "--bound", "400", "--csv"),
     0, "value,exponents\n"
        "1,0\n"
        "7,1\n"
        "49,2\n"
        "343,3\n"),
    (("enumerate", "--a", "2,3,5,7,11", "--bound", "12"),
     0, "1 [0, 0, 0, 0, 0]\n"
        "2 [1, 0, 0, 0, 0]\n"
        "3 [0, 1, 0, 0, 0]\n"
        "4 [2, 0, 0, 0, 0]\n"
        "5 [0, 0, 1, 0, 0]\n"
        "6 [1, 1, 0, 0, 0]\n"
        "7 [0, 0, 0, 1, 0]\n"
        "8 [3, 0, 0, 0, 0]\n"
        "9 [0, 2, 0, 0, 0]\n"
        "10 [1, 0, 1, 0, 0]\n"
        "11 [0, 0, 0, 0, 1]\n"
        "12 [2, 1, 0, 0, 0]\n"),
    (("enumerate", "--a", "2,3,5,7,11", "--bound", "12", "--json"),
     0, '{"params": {"basis": [2, 3, 5, 7, 11], "bound": 12}, "provenance": '
        '"smooth-enumeration", "result": {"exponents": [[0, 0, 0, 0, 0], [1, 0, 0, 0, 0], '
        '[0, 1, 0, 0, 0], [2, 0, 0, 0, 0], [0, 0, 1, 0, 0], [1, 1, 0, 0, 0], [0, 0, 0, 1, 0], '
        '[3, 0, 0, 0, 0], [0, 2, 0, 0, 0], [1, 0, 1, 0, 0], [0, 0, 0, 0, 1], [2, 1, 0, 0, 0]], '
        '"values": [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12]}}\n'),
    (("enumerate", "--a", "2,3,5,7,11", "--bound", "12", "--csv"),
     0, "value,exponents\n"
        "1,0 0 0 0 0\n"
        "2,1 0 0 0 0\n"
        "3,0 1 0 0 0\n"
        "4,2 0 0 0 0\n"
        "5,0 0 1 0 0\n"
        "6,1 1 0 0 0\n"
        "7,0 0 0 1 0\n"
        "8,3 0 0 0 0\n"
        "9,0 2 0 0 0\n"
        "10,1 0 1 0 0\n"
        "11,0 0 0 0 1\n"
        "12,2 1 0 0 0\n"),
    (("enumerate", "--a", "2,3", "--bound", "1"),
     0, "1 [0, 0]\n"),
    (("enumerate", "--a", "2,3", "--bound", "1", "--json"),
     0, '{"params": {"basis": [2, 3], "bound": 1}, "provenance": "smooth-enumeration", '
        '"result": {"exponents": [[0, 0]], "values": [1]}}\n'),
    (("enumerate", "--a", "2,3", "--bound", "1", "--csv"),
     0, "value,exponents\n"
        "1,0 0\n"),
    (("f", "--p", "2", "--q", "3", "--t", "8"),
     0, "f = 4\n"),
    (("f", "--p", "2", "--q", "3", "--t", "8", "--json"),
     0, '{"params": {"p": 2, "q": 3, "t": 8}, "provenance": "checkerboard-majority", '
        '"result": 4}\n'),
    (("gamma", "--a", "2,3", "--depth", "2"),
     0, "lower = 55/36\n"
        "upper = 13/6\n"
        "witness size = 4\n"),
    (("gamma", "--a", "2,3", "--depth", "2", "--json"),
     0, '{"params": {"a": ["2", "3"], "cap": 40, "depth": 2}, '
        '"provenance": "truncated-weighted-search", "result": {"depth": 2, "lower": "55/36", '
        '"upper": "13/6", "witness": [[0, 0], [0, 2], [1, 1], [2, 0]]}}\n'),
    (("monochromatize", "--p", "2", "--q", "3", "--n", "12", "--points",
      "[[0,0],[0,2],[2,1],[3,0]]"),
     0, "points = [[0, 0], [0, 2], [1, 1], [2, 0]]\n"
        "color = white\n"),
    (("monochromatize", "--p", "2", "--q", "3", "--n", "12", "--points",
      "[[0,0],[0,2],[2,1],[3,0]]", "--json"),
     0, '{"params": {"n": 12, "p": 2, "points": [[0, 0], [0, 2], [2, 1], [3, 0]], "q": 3}, '
        '"provenance": "diagonal-sweep", "result": {"color": "white", "points": [[0, 0], [0, '
        "2], [1, 1], [2, 0]]}}\n"),
    (("monochromatize", "--ta", "1", "--tb", "1", "--tc", "2", "--points",
      "[[0,0],[2,0],[1,1],[0,2]]", "--json"),
     0, '{"params": {"a": "1", "b": "1", "c": "2", "points": [[0, 0], [2, 0], [1, 1], [0, '
        '2]]}, "provenance": "diagonal-sweep", "result": {"color": "white", "points": [[0, '
        "0], [0, 2], [1, 1], [2, 0]]}}\n"),
    # the color is black when any point is black, and white for no points
    (("monochromatize", "--ta", "1", "--tb", "1", "--tc", "1", "--points", "[[0,1],[1,0]]"),
     0, "points = [[0, 1], [1, 0]]\n"
        "color = black\n"),
    (("monochromatize", "--ta", "1", "--tb", "1", "--tc", "-1", "--points", "[]"),
     0, "points = []\n"
        "color = white\n"),
    (("simplex", "--alphas", "1,sqrt2", "--c", "3/2"),
     0, "points = 3\n"
        "white = 1\n"
        "black = 2\n"),
    (("simplex", "--alphas", "1,sqrt2", "--c", "3/2", "--json"),
     0, '{"params": {"alphas": ["1", "sqrt2"], "c": "3/2"}, '
        '"provenance": "simplex-lattice-enumeration", "result": {"black": 2, "points": [[0, '
        '0], [0, 1], [1, 0]], "white": 1}}\n'),
    (("simplex", "--alphas", "1,sqrt2", "--c", "3/2", "--counts-only", "--json"),
     0, '{"params": {"alphas": ["1", "sqrt2"], "c": "3/2"}, '
        '"provenance": "simplex-lattice-enumeration", "result": {"black": 2, "white": 1}}\n'),
    (("black-majority", "--alphas", "1,sqrt2"),
     0, "c = 3/2\n"
        "white = 1, black = 2\n"),
    (("black-majority", "--alphas", "1,sqrt2", "--json"),
     0, '{"params": {"alphas": ["1", "sqrt2"], "budget": 64}, '
        '"provenance": "ascending-threshold-scan", "result": {"black": 2, "c": "3/2", '
        '"candidates_tested": 3, "found": true, "n": null, "white": 1}}\n'),
    (("black-majority", "--alphas", "1,2", "--budget", "3"),
     0, "none found within budget (3 thresholds tested)\n"),
    (("slope-profile", "--a1", "1", "--a2", "2", "--cmax", "4"),
     0, "c=1 white=1 black=1 diff=0\n"
        "c=2 white=2 black=2 diff=0\n"
        "c=3 white=3 black=3 diff=0\n"
        "c=4 white=5 black=4 diff=1\n"),
    (("slope-profile", "--a1", "1", "--a2", "2", "--cmax", "4", "--json"),
     0, '{"params": {"a1": 1, "a2": 2, "cmax": 4}, '
        '"provenance": "integer-slope-parity-profile", "result": [{"black": 1, "c": 1, '
        '"diff": 0, "white": 1}, {"black": 2, "c": 2, "diff": 0, "white": 2}, {"black": 3, '
        '"c": 3, "diff": 0, "white": 3}, {"black": 4, "c": 4, "diff": 1, "white": 5}]}\n'),
    (("slope-profile", "--a1", "1", "--a2", "2", "--cmax", "4", "--csv"),
     0, "c,white,black,diff\n"
        "1,1,1,0\n"
        "2,2,2,0\n"
        "3,3,3,0\n"
        "4,5,4,1\n"),
    (("verify", "--suite", "lemma2", "--budget", "small", "--seed", "3"),
     0, "suite lemma2: 3/3 passed (seed=3, budget=small)\n"),
    (("verify", "--suite", "lemma2", "--budget", "small", "--seed", "3", "--json"),
     0, '{"params": {"budget": "small", "seed": 3, "suite": "lemma2"}, '
        '"provenance": "seeded-property-suite", "result": [{"failed": 0, '
        '"first_failure": null, "passed": 3, "suite": "lemma2"}]}\n'),
    (("rho", "--a", "2,3", "--csv"), 1, ""),
    (("f", "--p", "2", "--q", "3", "--t", "8", "--seed", "1"), 1, ""),
    (("max-subset", "--p", "2", "--q", "3", "--n", "12", "--exact"), 1, ""),
]


def _failing_lemma2(seed, budget):
    cases = [verify.CaseResult("x=1", True), verify.CaseResult("x=2", False, "count 3 > bound")]
    return verify.SuiteReport("lemma2", seed, budget, cases)


class TestGolden:
    @pytest.mark.parametrize("argv,expected_code,expected_out", GOLDEN,
                             ids=[" ".join(argv) for argv, _, _ in GOLDEN])
    def test_stdout_and_exit_code(self, capsys, argv, expected_code, expected_out):
        code, out, _ = run(capsys, *argv)
        assert (code, out) == (expected_code, expected_out)

    @pytest.mark.parametrize("fmt,expected", [
        ((), "rho = 11/18\n"
             "sigma in [0.60725, 0.6695]\n"
             "gap proven: False\n"),
        (("--json",), '{"params": {"budget": 1000000, "p": 2, "q": 5}, '
                      '"provenance": "series-lower-versus-closed-form", "result": '
                      '{"gap_proven": false, "rho": "11/18", "rounds": 1, '
                      '"sigma": {"lower": "2429/4000", "upper": "1339/2000"}}}\n'),
    ])
    def test_gap_not_proven_when_the_rounds_run_out(self, capsys, monkeypatch, fmt, expected):
        # one round's sigma bracket still straddles rho, so the last bracket is reported
        monkeypatch.setattr(density, "_GAP_ROUNDS", 1)
        code, out, err = run(capsys, "gap", "--p", "2", "--q", "5", *fmt)
        assert (code, out, err) == (0, expected, "")

    @pytest.mark.parametrize("fmt,expected", [
        ((), "suite lemma2: 1/2 passed (seed=0, budget=small)\n"
             "  FIRST FAILURE x=2: count 3 > bound\n"),
        (("--json",), '{"params": {"budget": "small", "seed": 0, "suite": "lemma2"}, '
                      '"provenance": "seeded-property-suite", "result": [{"failed": 1, '
                      '"first_failure": {"case": "x=2", "detail": "count 3 > bound"}, '
                      '"passed": 1, "suite": "lemma2"}]}\n'),
    ])
    def test_failed_suite_prints_its_report_and_exits_4(self, capsys, monkeypatch, fmt,
                                                        expected):
        monkeypatch.setitem(verify._SUITE_FUNCS, "lemma2", _failing_lemma2)
        code, out, err = run(capsys, "verify", "--suite", "lemma2", "--budget", "small", *fmt)
        assert (code, out, err) == (4, expected, "")


def _big_fraction(seed, num_bits, den_bits, negative, exact):
    """A Fraction from a seeded generator: num_bits over den_bits, or over 2**a * 5**b."""
    rng = random.Random(seed)
    num = rng.getrandbits(num_bits) | 1 << (num_bits - 1)
    if exact:
        den = 2 ** rng.randrange(den_bits) * 5 ** rng.randrange(den_bits // 2 + 1)
    else:
        den = rng.getrandbits(den_bits) | 1 << (den_bits - 1)
    return Fraction(-num if negative else num, den)


class TestDec12:
    @pytest.mark.parametrize("value", [
        Fraction(0), Fraction(1, 4), Fraction(3), Fraction(-3), Fraction(1200),
        Fraction(10**20), Fraction(1, 3), Fraction(2, 3), Fraction(-2, 3),
        Fraction(10**12 - 1), Fraction(10**13 - 1), Fraction(10**12 + 5),
        Fraction(999999999999500, 1000), Fraction(1234567890125, 10**13),
        Fraction(1, 10**30), Fraction(7, 2**40), Fraction(123456789012, 10**5),
    ])
    def test_known_values(self, value):
        assert dec12(value) == decimal_dec12(value)

    def test_exact_quotients_keep_the_ideal_exponent(self):
        assert dec12(Fraction(1, 4)) == "0.25"
        assert dec12(Fraction(3, 1)) == "3"

    def test_ignores_the_thread_decimal_context(self):
        with decimal.localcontext() as ctx:
            ctx.prec = 3
            ctx.rounding = decimal.ROUND_DOWN
            assert dec12(Fraction(2, 3)) == "0.666666666667"
            assert dec12(Fraction(1, 4)) == "0.25"
            assert dec12(Fraction(10**12 + 5)) == "1.00000000000E+12"

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32), num_bits=st.integers(1, 10**5),
           den_bits=st.integers(1, 10**5), negative=st.booleans(), exact=st.booleans())
    @example(seed=0, num_bits=86900, den_bits=86900, negative=False, exact=False)
    @example(seed=1, num_bits=40, den_bits=30, negative=True, exact=True)
    def test_matches_the_decimal_division(self, seed, num_bits, den_bits, negative, exact):
        value = _big_fraction(seed, num_bits, den_bits, negative, exact)
        assert dec12(value) == decimal_dec12(value)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(m=st.integers(-10**14, 10**14), k=st.integers(0, 30),
           a=st.integers(0, 60), b=st.integers(0, 30))
    @example(m=25, k=0, a=2, b=2)  # 1/4
    @example(m=12, k=2, a=0, b=0)  # 1200
    def test_short_decimals_match_the_decimal_division(self, m, k, a, b):
        # quotients with few digits: exact results keep their ideal exponent
        value = Fraction(m * 10**k, 2**a * 5**b)
        assert dec12(value) == decimal_dec12(value)


def _bracket(lower, upper):
    return DensityBracket(lower, upper, "test", {})


def _unreachable(*args, **kwargs):
    raise AssertionError("the exact route was taken")


class TestLogDensityDecimal:
    def test_a_narrow_bracket_decides_alone(self):
        eps = Fraction(1, 2**100)
        bracket = _bracket(Fraction(1, 3) - eps, Fraction(1, 3) + eps)
        assert _log_dec(bracket, _unreachable) == "0.333333333333"

    def test_no_bracket_prints_nothing(self):
        assert _log_dec(None, _unreachable) is None

    def test_a_bracket_across_a_rounding_boundary_takes_the_exact_route(self):
        # 0.1234567890125 is a half-even tie: the ends round apart
        tie, eps = Fraction(1234567890125, 10**13), Fraction(1, 2**100)
        bracket = _bracket(tie - eps, tie + eps)
        assert dec12(bracket.lower) != dec12(bracket.upper)
        calls = []
        assert _log_dec(bracket, lambda: calls.append(1) or tie) == "0.123456789012"
        assert calls == [1]

    def test_a_bracket_around_its_named_decimal_takes_the_exact_route(self):
        # both ends print 0.250000000000, but 1/4 itself prints trimmed
        eps = Fraction(1, 2**100)
        bracket = _bracket(Fraction(1, 4) - eps, Fraction(1, 4) + eps)
        assert dec12(bracket.lower) == dec12(bracket.upper) == "0.250000000000"
        calls = []
        assert _log_dec(bracket, lambda: calls.append(1) or Fraction(1, 4)) == "0.25"
        assert calls == [1]


class TestDensityTables:
    def test_dense_set_digest(self, capsys):
        code, out, _ = run(capsys, "dense-set", "--a", "4/3", "--x", "20000", "--json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "97d631dec6a25f359118c1b6678a04cfe9b31cdb6761ee41182c1deec9514be4")

    def test_max_subset_witness_digest(self, capsys):
        code, out, _ = run(capsys, "max-subset", "--p", "2", "--q", "3", "--n", "200000",
                           "--witness", "--json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "c0ee661dd0992edde2b9810c472dbd75c4d54229dc3d8ea30c71a9ff50625eb7")

    @pytest.mark.parametrize("checkpoints,message", [
        ("-5", "error: checkpoints must be positive\n"),
        ("0,10", "error: checkpoints must be positive\n"),
        (",", "error: at least one checkpoint is required\n"),
        ("10,x", "error: expected a comma-separated list of integers: '10,x'\n"),
    ])
    def test_bad_checkpoints(self, capsys, checkpoints, message):
        code, out, err = run(capsys, "densities", "--a", "2,3", "--checkpoints", checkpoints)
        assert (code, out, err) == (2, "", message)

    def test_bad_checkpoint_is_rejected_before_the_sample(self, capsys, monkeypatch):
        def build(*args, **kwargs):
            raise AssertionError("the sample was built")

        monkeypatch.setattr(cli, "construct_dense_set", build)
        code, out, err = run(capsys, "densities", "--a", "2,3",
                             "--checkpoints", "0,10000000", "--csv")
        assert (code, out, err) == (2, "", "error: checkpoints must be positive\n")

    def test_no_exact_sum_on_bench_inputs(self, capsys, monkeypatch):
        # the fixed-point bracket decides every log density here; the exact
        # routes are fallbacks only, and densities never lists the members
        for name in ("empirical_densities", "exact_sum"):
            monkeypatch.setattr(density, name, _unreachable)
        monkeypatch.setattr(density.DenseSetSample, "log_density",
                            property(_unreachable))
        samples = []

        def recording(*args, **kwargs):
            samples.append(density.construct_dense_set(*args, **kwargs))
            return samples[-1]

        monkeypatch.setattr(cli, "construct_dense_set", recording)
        for a_set in ("2,3", "3/2", "4/3"):
            for x in (15000, 60000):
                code, out, _ = run(capsys, "dense-set", "--a", a_set, "--x", str(x), "--json")
                assert code == 0
                assert json.loads(out)["result"]["log_density_dec"] is not None
            code, out, _ = run(capsys, "densities", "--a", a_set,
                               "--checkpoints", "1000,15000,60000", "--csv")
            assert code == 0
            assert len(out.splitlines()) == 4
            assert "members" not in samples[-1].__dict__
            assert "member_mask" not in samples[-1].__dict__

    def test_densities_up_to_ten_to_the_eighteen(self, capsys, monkeypatch):
        samples = []

        def recording(*args, **kwargs):
            samples.append(density.construct_dense_set(*args, **kwargs))
            return samples[-1]

        monkeypatch.setattr(cli, "construct_dense_set", recording)
        checkpoints = (1000, 10**12, 10**18)
        start = time.perf_counter()
        code, out, err = run(capsys, "densities", "--a", "2,3", "--checkpoints",
                             ",".join(map(str, checkpoints)), "--csv")
        assert time.perf_counter() - start < 1.0
        assert (code, err) == (0, "")
        sample, = samples
        assert "member_mask" not in sample.__dict__ and "members" not in sample.__dict__
        basis = quotientfree.CoprimeBasis.from_coprime_integers((2, 3))
        even = [v for v, e in quotientfree.enumerate_smooth(basis, 10**18).entries()
                if sum(e) % 2 == 0]
        rows = out.splitlines()[1:]
        for x, row in zip(checkpoints, rows):
            count = sum(quotientfree.count_coprime_part(basis, x // m) for m in even if m <= x)
            assert row.split(",")[:2] == [str(x), str(count)]
            assert row.split(",")[4]
        assert rows[0] == "1000,580,29/50,0.58,0.652723072427"

    @pytest.mark.parametrize("argv", [
        ("densities", "--a", "2,3", "--checkpoints", "1000,1000000000000", "--csv"),
        ("dense-set", "--a", "2,3", "--x", "1000000000000"),
    ])
    def test_an_undecided_bracket_above_the_exact_bound_is_a_budget_error(
            self, capsys, monkeypatch, argv):
        # a bracket across the half-even tie 0.1234567890125 needs the exact
        # value, an O(X) rational sum that is refused at X = 10^12
        tie, eps = Fraction(1234567890125, 10**13), Fraction(1, 2**100)
        monkeypatch.setattr(density.DenseSetSample, "log_density_bracket",
                            lambda self, x=None: _bracket(tie - eps, tie + eps))
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "")
        assert err == (f"error: the exact log density at x = {10**12} is an O(x) rational sum; "
                       f"it is computed up to x = {density.EXACT_LOG_DENSITY_MAX_X}\n")


# set bits at block edges, and at the 10^6 and 10^7 edges
_EDGES = sorted({max(0, 1000 * block + d) for block in (0, 1, 2, 999, 1000, 1001, 9999, 10000)
                 for d in (-1, 0, 1)} | {999})


@st.composite
def _sparse_masks(draw):
    """A mask and its set positions, ascending: the list that compress reads
    off the mask, without a walk over 10^7 positions."""
    ones = draw(st.sets(st.sampled_from(_EDGES) | st.integers(0, 10**7 + 1), max_size=12))
    mask = bytearray(max(ones, default=0) + 1 + draw(st.integers(0, 1001)))
    for k in ones:
        mask[k] = 1
    return bytes(mask), sorted(ones)


def _mask_payload(mask):
    """The JSON ``_emit`` prints for one mask list, and the list it stands for."""
    members = list(compress(range(len(mask)), mask))
    return {"params": {"n": len(mask)}, "result": {"count": len(members), "witness": members},
            "provenance": "test"}


class TestMaskList:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(mask=st.binary(max_size=5000).map(lambda raw: bytes(b & 1 for b in raw)))
    @example(mask=b"")
    @example(mask=b"\0" * 1000 + b"\1")
    def test_random_masks_render_as_the_list(self, mask):
        members = list(compress(range(len(mask)), mask))
        assert str(_MaskList(mask)) == json.dumps(members) == str(members)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(sparse=_sparse_masks())
    def test_sparse_masks_render_as_the_list(self, sparse):
        mask, members = sparse
        assert str(_MaskList(mask)) == json.dumps(members) == str(members)

    @pytest.mark.parametrize("mask", [b"", b"\0\1\1", b"\0" * 1000 + b"\1" * 1001])
    def test_emit_splices_the_list_into_the_json(self, capsys, mask):
        payload = _mask_payload(mask)
        result = {**payload["result"], "witness": _MaskList(mask)}
        _emit("json", "test", _Output(payload["params"], result, []))
        assert capsys.readouterr().out == json.dumps(payload, sort_keys=True) + "\n"

    def test_a_placeholder_met_twice_is_a_failed_self_check(self, capsys):
        # "\0witness" cannot come from argv, but a crafted output can carry it
        out = _Output({"n": "\0witness"}, {"witness": _MaskList(b"\0\1")}, [])
        with pytest.raises(SelfCheckError, match="found 2 times"):
            _emit("json", "test", out)
        assert capsys.readouterr().out == ""

    def test_a_row_placeholder_met_twice_is_a_failed_self_check(self, capsys):
        out = _Output({"n": "\0exponents"}, {"exponents": _RowList(("0, 0", "1, 0"))}, [])
        with pytest.raises(SelfCheckError, match="found 2 times"):
            _emit("json", "test", out)
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("rows", [("",), ("0",), ("0, 0", "1, 0", "0, 1000")])
    def test_emit_splices_the_rows_into_the_json(self, capsys, rows):
        lists = [json.loads(f"[{row}]") for row in rows]
        payload = {"params": {}, "result": {"exponents": lists, "values": []},
                   "provenance": "test"}
        _emit("json", "test", _Output({}, {"exponents": _RowList(rows), "values": []}, []))
        assert capsys.readouterr().out == json.dumps(payload, sort_keys=True) + "\n"

    def test_enumerate_is_the_library_tuple(self, capsys):
        # exponents up to 1100 in the rows, and values of 332 digits
        bound = 2**1100
        seq = quotientfree.enumerate_smooth((2,), bound)
        code, out, _ = run(capsys, "enumerate", "--a", "2", "--bound", str(bound), "--json")
        assert code == 0
        assert out == json.dumps({
            "params": {"basis": [2], "bound": bound},
            "result": {"values": seq.values, "exponents": seq.exponents},
            "provenance": "smooth-enumeration",
        }, sort_keys=True) + "\n"

    @pytest.mark.parametrize("n", [1, 999, 1000, 1001, 12345, 200000])
    def test_max_subset_witness_is_the_library_tuple(self, capsys, n):
        count, mask = quotientfree.max_subset_witness(2, 3, n)
        witness = tuple(compress(range(n + 1), mask))
        argv = ("max-subset", "--p", "2", "--q", "3", "--n", str(n), "--witness")
        code, out, _ = run(capsys, *argv, "--json")
        assert code == 0
        assert out == json.dumps({
            "params": {"p": 2, "q": 3, "n": n},
            "result": {"count": count, "witness": list(witness)},
            "provenance": "coprime-class-majority-sum",
        }, sort_keys=True) + "\n"
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out == f"count = {count}\nwitness = {list(witness)}\n"

    @pytest.mark.parametrize("a_set", ["2,3", "3/2", "4/3", "2,3,5"])
    @pytest.mark.parametrize("x", [1, 999, 1000, 1001, 12345])
    def test_dense_set_members_are_the_library_tuple(self, capsys, a_set, x):
        members = list(quotientfree.construct_dense_set(a_set.split(","), x).members)
        code, out, _ = run(capsys, "dense-set", "--a", a_set, "--x", str(x), "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["result"]["members"] == members
        assert payload["result"]["count"] == len(members)
        assert out == json.dumps(payload, sort_keys=True) + "\n"
        code, out, _ = run(capsys, "dense-set", "--a", a_set, "--x", str(x), "--members")
        assert code == 0
        lines = out.splitlines()
        assert lines[1] == f"count = {len(members)}"
        assert lines[-1] == f"members = {members}"

    def test_dense_set_json_renders_the_members_once(self, capsys, monkeypatch):
        # with --json, the text line that --members asks for is never rendered
        calls = []
        render = _MaskList.__str__
        monkeypatch.setattr(_MaskList, "__str__", lambda self: calls.append(1) or render(self))
        code, _, _ = run(capsys, "dense-set", "--a", "2,3", "--x", "1000", "--json", "--members")
        assert code == 0
        assert calls == [1]

    def test_dense_set_text_without_members_builds_no_member_list(self, capsys, monkeypatch):
        # the count comes from the sample's cuts
        counts = {a_set: len(quotientfree.construct_dense_set(a_set.split(","), 1000).members)
                  for a_set in ("2,3", "3/2")}
        for name in ("member_mask", "members"):
            monkeypatch.setattr(density.DenseSetSample, name, property(_unreachable))
        for a_set, count in counts.items():
            code, out, _ = run(capsys, "dense-set", "--a", a_set, "--x", "1000")
            assert code == 0
            assert out.splitlines()[1] == f"count = {count}"


# the atom grammar around its edges: zeros, negatives, unbalanced and
# malformed forms, padding, and square parts
_FUZZ_VALID = ["1", "2", "3/2", "1/9", "7", " 5/4 ", "ln2", "ln(3)", "ln8", "sqrt2",
               "sqrt(8)", "sqrt9"]
_FUZZ_ATOMS = _FUZZ_VALID + ["0", "-1", "-3/2", "ln1", "ln(2", "sqrt0", "sqrt3)", "1/0", "x", ""]
# drawn lists come unsorted; a second branch sorts valid ones, so scans run too
_FUZZ_ALPHAS = st.one_of(
    st.lists(st.sampled_from(_FUZZ_ATOMS), min_size=1, max_size=4),
    st.lists(st.sampled_from(_FUZZ_VALID), min_size=1, max_size=4).map(lambda texts: sorted(
        texts, key=lambda text: quotientfree.ExactReal.parse(text).sort_key())),
).map(",".join)
_FUZZ_BOUNDS = ["0", "-1", "3", "5/2", "6", "ln10", "sqrt7", "ln(2", "1/0", "q"]

MALFORMED = [
    (("definitely-not-a-subcommand",), 1),
    (("rho",), 1),  # missing required --a
    (("rho", "--a", "2,3", "--frobnicate"), 1),
    (("verify", "--suite", "not-a-suite"), 1),
    (("verify", "--suite", "lemma2", "--budget", "enormous"), 1),
    (("max-subset", "--p", "2", "--q", "3"), 1),  # missing --n
    (("sigma", "--p", "2", "--q", "3", "--tol", "x/y"), 2),
    (("rho", "--a", "2,4"), 2),
    (("rho", "--a", "1,2"), 2),
    (("rho", "--a", "3,2"), 2),
    (("rho", "--a", "3/2"), 2),  # closed form needs integers
    (("rho", "--a", ""), 2),
    (("sigma", "--p", "4", "--q", "2", "--tol", "1/10"), 2),
    (("sigma", "--p", "2", "--q", "3", "--tol=-1/10"), 2),
    (("max-subset", "--p", "2", "--q", "3", "--n", "0"), 2),
    (("enumerate", "--a", "2,3", "--bound", "0"), 2),
    (("f", "--p", "2", "--q", "4", "--t", "5"), 2),
    (("f", "--p", "2", "--q", "3", "--t", "0"), 2),
    (("dense-set", "--a", "2,3", "--x", "0"), 2),
    (("gamma", "--a", "2,3", "--depth", "-1"), 2),
    (("monochromatize", "--p", "2", "--q", "3", "--n", "12",
      "--points", "not json"), 2),
    (("monochromatize", "--p", "2", "--q", "3", "--n", "12",
      "--points", "[[0,0],[1,0]]"), 2),
    (("simplex", "--alphas", "0,2", "--c", "4"), 2),
    (("simplex", "--alphas", "1,2", "--c", "q"), 2),
    (("black-majority", "--alphas", "2"), 2),
    (("slope-profile", "--a1", "0", "--a2", "2", "--cmax", "5"), 2),
    (("gamma", "--a", "2,3", "--depth", "12"), 3),  # exceeds default cap
    (("sigma", "--p", "2", "--q", "3", "--tol", "1/10000000000",
      "--budget", "20"), 3),
    (("monochromatize", "--p", "3", "--q", "2", "--n", "12", "--points", "[]"), 2),
    (("monochromatize", "--p", "2", "--q", "3", "--n", "0", "--points", "[]"), 2),
    (("monochromatize", "--ta", "0", "--tb", "1", "--tc", "4", "--points", "[]"), 2),
    (("monochromatize", "--ta", "1", "--tb", "1", "--tc", "ln4", "--points", "[]"), 2),
    # coordinates must be JSON integers: no float, string or bool conversion
    (("monochromatize", "--p", "2", "--q", "3", "--n", "12",
      "--points", "[[0,0],[0,2],[2,1.9],[3,0]]"), 2),
    (("monochromatize", "--p", "2", "--q", "3", "--n", "12",
      "--points", '[[0,0],[0,2],[2,"1"],[3,0]]'), 2),
    (("monochromatize", "--p", "2", "--q", "3", "--n", "12",
      "--points", "[[0,0],[0,2],[2,true],[3,0]]"), 2),
    (("monochromatize", "--p", "2", "--q", "3", "--n", "12",
      "--points", "[[0,0],[0,0],[0,2],[2,1],[3,0]]"), 2),  # a duplicate point
    (("monochromatize", "--p", "2", "--q", "3", "--n", "12", "--tc", "5",
      "--points", "[[0,0],[0,2],[2,1],[3,0]]"), 2),  # integer and rational modes mixed
    # work budgets and caps below 1 are bad input, not exhausted work
    (("gap", "--p", "2", "--q", "3", "--budget", "-1"), 2),
    (("sigma", "--p", "2", "--q", "3", "--budget", "0"), 2),
    (("black-majority", "--alphas", "1,2", "--budget", "-1"), 2),
    (("rho-general", "--a", "3/2", "--cap", "-1"), 2),
    (("gamma", "--a", "2,3", "--cap", "0"), 2),
    (("monochromatize", "--p", "2", "--q", "3", "--n", "12",
      "--points", "[[0,0],[0,2]]", "--cap", "0"), 2),
    (("monochromatize", "--p", "2", "--q", "3", "--n", "12",
      "--points", "[[0,0],[0,2]]", "--cap", "-1"), 2),
    # a rational zero coefficient: ln 1 and 0
    (("black-majority", "--alphas", "ln1,ln2"), 2),
    (("black-majority", "--alphas", "0,1"), 2),
    # depths far past the cap: the largest feasible depth is found by bisection
    (("rho-general", "--a", "2", "--depth", "10000000000000", "--cap", "1000000000000"), 3),
    (("gamma", "--a", "3", "--depth", "100000000000", "--cap", "10000000000"), 3),
    # an exact tie that square extraction misses: 200280098 = 2 * 10007**2
    (("simplex", "--alphas", "1,sqrt2", "--c", "sqrt200280098", "--counts-only"), 3),
    # the cap bounds the input's point count
    (("monochromatize", "--p", "2", "--q", "3", "--n", "12",
      "--points", "[[0,0],[0,2],[2,1],[3,0]]", "--cap", "1"), 3),
    # a non-maximum input on a triangle past the cap: rejected, not trusted
    (("monochromatize", "--p", "2", "--q", "3", "--n", str(10**30), "--points", "[[0,0]]"), 2),
    # 10**12 + 1 diagonals: the majority is counted exactly by floor sums
    (("monochromatize", "--ta", "1", "--tb", "1", "--tc", str(10**12), "--points", "[]"), 2),
    # a coefficient's parentheses must come in pairs
    (("simplex", "--alphas", "ln(2", "--c", "1"), 2),
    (("simplex", "--alphas", "1,ln2)", "--c", "1"), 2),
    (("simplex", "--alphas", "1,sqrt(8", "--c", "4"), 2),
    (("black-majority", "--alphas", "1,sqrt8)"), 2),
    # a mode given in part
    (("monochromatize", "--p", "2", "--q", "3", "--points", "[]"), 2),
    (("monochromatize", "--ta", "1", "--tb", "2", "--points", "[]"), 2),
    # depth and cap are checked on the coprime route too, which runs no search
    (("dense-set", "--a", "2,3", "--x", "10", "--depth", "-1", "--json"), 2),
    (("dense-set", "--a", "2,3", "--x", "10", "--cap", "0"), 2),
    (("densities", "--a", "2,3", "--checkpoints", "10", "--cap", "0"), 2),
    (("densities", "--a", "2,3", "--checkpoints", "10", "--depth", "-1"), 2),
    # sizes past the index range: one stderr line, not a traceback
    (("f", "--p", "2", "--q", "3", "--t", str(10**20)), 3),
    (("max-subset", "--p", "2", "--q", "3", "--n", str(10**20), "--witness", "--json"), 3),
    (("dense-set", "--a", "2,3", "--x", str(10**20), "--json"), 3),
    (("slope-profile", "--a1", "2", "--a2", "3", "--cmax", str(10**20), "--csv"), 3),
    (("sigma", "--p", "2", "--q", "3", "--budget", str(10**20)), 3),
    (("black-majority", "--alphas", "1,2", "--budget", str(10**20)), 3),
    (("gap", "--p", "2", "--q", "3", "--budget", str(10**20)), 3),
]


class TestExitCodes:
    @pytest.mark.parametrize("argv,expected", MALFORMED)
    def test_contract(self, capsys, argv, expected):
        code, out, err = run(capsys, *argv)
        assert code == expected, err
        if code >= 2:  # past argparse: one stderr line and nothing else
            assert out == "" and err.endswith("\n") and err.count("\n") == 1, err
            assert "Traceback" not in err

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.one_of(
        st.tuples(st.just("black-majority"), _FUZZ_ALPHAS, st.just("--budget"),
                  st.integers(-1, 40).map(str)),
        st.tuples(st.just("simplex"), _FUZZ_ALPHAS, st.just("--c"),
                  st.sampled_from(_FUZZ_BOUNDS), st.just("--counts-only")),
    ), st.booleans())
    def test_contract_on_fuzzed_argv(self, argv, as_json):
        # each example gets its own buffers: a function-scoped capsys would be
        # shared by all of them
        command, alphas, *rest = argv
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, f"--alphas={alphas}", *rest, *(["--json"] if as_json else [])])
        out, err = out.getvalue(), err.getvalue()
        assert 0 <= code <= 4, err
        assert "Traceback" not in err
        if code >= 2:
            assert out == "" and err.endswith("\n") and err.count("\n") == 1, err

    @pytest.mark.parametrize("argv,message", [
        (("dense-set", "--x", "10", "--depth", "-1"), "depth must be nonnegative"),
        (("densities", "--checkpoints", "10", "--cap", "0"), "cap must be at least 1, got 0"),
    ], ids=["depth", "cap"])
    def test_dense_set_checks_are_the_same_on_both_routes(self, capsys, argv, message):
        # 2,3 builds from its even-parity class, 3/2 from a gamma_bracket witness
        for a in ("2,3", "3/2"):
            assert run(capsys, *argv, "--a", a) == (2, "", f"error: {message}\n"), a

    def test_domain_error_message_mentions_coprimality(self, capsys):
        code, _, err = run(capsys, "rho", "--a", "2,4")
        assert code == 2
        assert "coprime" in err

    def test_budget_error_reports_achieved_bracket(self, capsys):
        code, _, err = run(capsys, "sigma", "--p", "2", "--q", "3",
                           "--tol", "1/10000000000", "--budget", "20")
        assert code == 3
        assert "achieved bracket" in err
        assert err.count("\n") == 1

    def test_verify_failure_exit_code_is_distinct(self):
        # unknown suites are usage errors; actual failures exit 4 (not
        # triggered here since the suites pass, just assert the contract)
        from quotientfree.cli import EXIT_SUITE_FAILED

        assert EXIT_SUITE_FAILED == 4

    def test_rho_general_self_check_failure_exits_4(self, capsys, monkeypatch):
        # a closed form outside the bracket is a program defect, reported in
        # one line with the suite-failure code rather than a traceback
        import quotientfree.density as density

        monkeypatch.setattr(density, "rho_closed_form", lambda values: 2)
        code, out, err = run(capsys, "rho-general", "--a", "2,3", "--depth", "4", "--json")
        assert code == 4
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("error: self-check failed: bracket [")
        assert "misses the closed form 2" in err

    def test_black_majority_recount_disagreement_exits_4(self, capsys, monkeypatch):
        # the recount at the canonical threshold is the scan's second route;
        # make it disagree and the query ends in one stderr line, exit 4
        import quotientfree.geometry as geometry

        counts = geometry.simplex_color_counts

        def disagreeing(spec):  # the recount is the only region the scan counts
            found = counts(spec)
            return geometry.ColorCount(found.white + 1, found.black)

        monkeypatch.setattr(geometry, "simplex_color_counts", disagreeing)
        code, out, err = run(capsys, "black-majority", "--alphas", "1,sqrt2", "--json")
        assert code == 4
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("error: self-check failed: recount at the canonical threshold 3/2")

    def test_black_majority_midpoints_out_of_order_exit_3(self, capsys, monkeypatch):
        # midpoint keys that put 1 above sqrt 2 are caught by the walk's exact
        # steps: one stderr line, exit 3, and no count
        from quotientfree import ExactReal

        sort_key = ExactReal.sort_key
        monkeypatch.setattr(ExactReal, "sort_key", lambda atom: (
            Fraction(3, 2) if atom == ExactReal.of(1) else sort_key(atom)))
        code, out, err = run(capsys, "black-majority", "--alphas", "1,sqrt2", "--json")
        assert code == 3
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("error: threshold order: ")

    def test_max_subset_witness_recount_disagreement_exits_4(self, capsys, monkeypatch):
        # the witness is counted by its length and checked against the block
        # sum; skew the block sum and the query ends in one stderr line, exit 4
        import quotientfree.density as density

        counts = density.count_coprime_part
        monkeypatch.setattr(density, "count_coprime_part", lambda basis, x: counts(basis, x) + 1)
        code, out, err = run(capsys, "max-subset", "--p", "2", "--q", "3", "--n", "100",
                             "--witness", "--json")
        assert code == 4
        assert out == ""
        assert err == "error: self-check failed: witness of 61 elements, block sum 72\n"

    def test_out_of_memory_exits_3_in_one_line(self, capsys, monkeypatch):
        # a member mask too large to allocate, as at dense-set --x 10**12
        def exhausted(basis, x):
            raise MemoryError

        monkeypatch.setattr(density, "coprime_part_mask", exhausted)
        # text mode prints none of its lines before the member line fails
        for mode in ("--json", "--members"):
            code, out, err = run(capsys, "dense-set", "--a", "2,3", "--x", "1000", mode)
            assert code == 3, mode
            assert out == "", mode
            assert err == "error: out of memory in dense-set\n", mode

    @pytest.mark.parametrize("name,argv", [
        ("ln", ("simplex", "--alphas", "ln2,ln3", "--c", "ln(" + "7" * 5001 + ")")),
        ("sqrt", ("simplex", "--alphas", "sqrt(" + "7" * 5001 + "),1", "--c", "4")),
    ])
    def test_overlong_log_and_sqrt_arguments_are_domain_errors(self, capsys, name, argv):
        # Python refuses int strings past 4300 digits; that is bad input
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == f"error: {name} argument has 5001 digits, too many to convert\n"
