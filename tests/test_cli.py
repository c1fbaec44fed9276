import hashlib
import inspect
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import quotientfree
from quotientfree import cli, density, geometry, lattice, verify
from quotientfree.cli import _log_dec, build_parser, dec12, main
from quotientfree.density import DensityBracket

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

    @pytest.mark.parametrize("alphas,c", [("1,2", "9"), ("ln2,ln3,ln5", "ln900"),
                                          ("1,sqrt2,sqrt3", "sqrt50"), ("sqrt2", "1/3")])
    def test_simplex_counts_only_matches_the_listing(self, capsys, alphas, c):
        _, listed, _ = run(capsys, "simplex", "--alphas", alphas, "--c", c, "--json")
        _, counted, _ = run(capsys, "simplex", "--alphas", alphas, "--c", c, "--json",
                            "--counts-only")
        listed, counted = json.loads(listed), json.loads(counted)
        del listed["result"]["points"]
        assert counted == listed
        for fmt in ((), ("--counts-only",)):
            _, text, _ = run(capsys, "simplex", "--alphas", alphas, "--c", c, *fmt)
            assert text.splitlines() == [
                f"points = {counted['result']['white'] + counted['result']['black']}",
                f"white = {counted['result']['white']}",
                f"black = {counted['result']['black']}",
            ]

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
        ("-5", "error: the horizon must be at least 1\n"),
        ("0,10", "error: checkpoints must be positive\n"),
    ])
    def test_bad_checkpoints(self, capsys, checkpoints, message):
        code, out, err = run(capsys, "densities", "--a", "2,3", "--checkpoints", checkpoints)
        assert (code, out, err) == (2, "", message)

    def test_no_exact_sum_on_bench_inputs(self, capsys, monkeypatch):
        # the fixed-point bracket decides every log density here; the exact
        # routes are fallbacks only, and densities never lists the members
        for name in ("_grouped_reciprocal_sum", "empirical_densities", "exact_sum"):
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
]


class TestExitCodes:
    @pytest.mark.parametrize("argv,expected", MALFORMED)
    def test_contract(self, capsys, argv, expected):
        code, _, err = run(capsys, *argv)
        assert code == expected, err

    def test_domain_error_message_mentions_coprimality(self, capsys):
        code, _, err = run(capsys, "rho", "--a", "2,4")
        assert code == 2
        assert "coprime" in err

    def test_budget_error_reports_achieved_bracket(self, capsys):
        code, _, err = run(capsys, "sigma", "--p", "2", "--q", "3",
                           "--tol", "1/10000000000", "--budget", "20")
        assert code == 3
        assert "achieved bracket" in err

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

        def disagreeing(spec):
            found = counts(spec)
            if len(spec.c) == 1:  # the recount's bound is one rational
                return geometry.ColorCount(found.white + 1, found.black)
            return found

        monkeypatch.setattr(geometry, "simplex_color_counts", disagreeing)
        code, out, err = run(capsys, "black-majority", "--alphas", "1,sqrt2", "--json")
        assert code == 4
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("error: self-check failed: recount at the canonical threshold 3/2")

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
