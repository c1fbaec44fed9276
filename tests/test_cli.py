import json
import os
import subprocess
import sys

import pytest

import quotientfree
from quotientfree.cli import main


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

        def disagreeing(spec, prec_cap=geometry.DEFAULT_PREC_CAP_BITS):
            found = counts(spec, prec_cap)
            if len(spec.c) == 1:  # the recount's bound is one rational
                return geometry.ColorCount(found.white + 1, found.black)
            return found

        monkeypatch.setattr(geometry, "simplex_color_counts", disagreeing)
        code, out, err = run(capsys, "black-majority", "--alphas", "1,sqrt2", "--json")
        assert code == 4
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("error: self-check failed: recount at the canonical threshold 3/2")

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
