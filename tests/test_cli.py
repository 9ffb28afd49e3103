import csv
import io
import json
import math
import os
import subprocess
import sys
import textwrap

import mpmath
import numpy as np
import pytest

from threshdist import cli
from threshdist import distributions as fd
from threshdist import limits as lm
from threshdist import selfcheck
from threshdist import simulate as mc
from threshdist import special as sf


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


def strict_json(text):
    """Parse ``text`` as JSON, refusing NaN and the infinities."""
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=refuse)


class TestSelprob:
    def test_default_rule_known(self, capsys):
        code, out, _ = run_cli(capsys, "selprob", "--theta", "0", "--n", "8",
                               "--xi", "1", "--sigma", "1", "--eta-rule", "default",
                               "--mode", "known")
        assert code == 0
        assert abs(float(out.splitlines()[1]) - 0.95) <= 1e-12

    def test_unknown_variance_at_a_billion_dof(self, capsys):
        # the rho_m weight is exact at any dof, so the smoothed law is the
        # known-variance one up to the O(1/dof) effect of estimating sigma
        args = ("selprob", "--n", "8", "--theta", "0.3")
        code, out, _ = run_cli(capsys, *args, "--mode", "unknown", "--dof", "1000000000")
        assert code == 0
        _, known, _ = run_cli(capsys, *args, "--mode", "known")
        assert abs(float(out.splitlines()[1]) - float(known.splitlines()[1])) <= 1e-8

    def test_unknown_mode_needs_dof(self, capsys):
        code, _, err = run_cli(capsys, "selprob", "--theta", "0", "--n", "8",
                               "--eta-rule", "default", "--mode", "unknown")
        assert code == 2
        assert "dof" in json.loads(err)["error"]

    @pytest.mark.parametrize("dof", ["inf", "2.5"])
    def test_non_integral_dof_exit_code(self, capsys, dof):
        code, out, err = run_cli(capsys, "selprob", "--n", "8", "--mode", "unknown",
                                 "--dof", dof, "--eta-rule", "default")
        assert code == 2 and out == ""
        assert json.loads(err)["exit_code"] == 2

    def test_limiting_value(self, capsys):
        code, out, _ = run_cli(capsys, "selprob", "--limit", "--mode", "unknown",
                               "--e", "inf", "--zeta", "1", "--dof", "4",
                               "--n", "1", "--format", "json")
        assert code == 0
        val = json.loads(out)[0]["value"]
        assert abs(val - 3.0 * math.exp(-2.0)) <= 1e-12

    def test_limiting_value_needs_no_sample_size(self, capsys):
        code, out, err = run_cli(capsys, "selprob", "--limit", "--mode", "unknown",
                                 "--e", "inf", "--zeta", "1", "--dof", "inf", "--d", "1",
                                 "--r", "0")
        assert code == 0 and err == ""
        assert float(out.splitlines()[1]) == 0.5

    @pytest.mark.parametrize("argv", [["dist", "--kind", "hard"], ["selprob", "--theta", "0.3"]],
                             ids=["dist", "selprob"])
    def test_finite_sample_needs_n(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "" and err.count("\n") == 1
        error = json.loads(err)
        assert error["exit_code"] == 2 and "--n" in error["error"]

    @pytest.mark.parametrize("argv,field", [
        (["dist", "--kind", "hard", "--n", "8", "--xi", "0"], "xi"),
        (["dist", "--kind", "hard", "--n", "0"], "n"),
        (["dist", "--kind", "hard", "--n", "8", "--eta", "0", "--alpha", "inverse-xi-eta"], "eta"),
        (["selprob", "--n", "-3"], "n"),
    ], ids=["xi0", "n0", "eta0-inverse-xi-eta", "selprob-n-3"])
    def test_bad_component_field_named(self, capsys, argv, field):
        # the eta rule and the alpha presets divide by n, xi and eta, so the
        # fields are checked before them
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "" and err.count("\n") == 1
        error = json.loads(err)
        assert error["exit_code"] == 2 and error["error"].startswith(f"{field} must be")

    @pytest.mark.parametrize("argv, flag", [
        (["--n", "8", "--e", "1", "--nu", "0.3"], "--e"),
        (["--n", "8", "--e", "nan"], "--e"),
        (["--n", "8", "--theta", "0", "--r-prime", "1"], "--r-prime"),
        *[(["--limit", "--e", "inf", "--zeta", "0.5", flag, value], flag)
          for flag, value in (("--xi", "1"), ("--theta", "0"), ("--sigma", "1"),
                              ("--eta", "0.5"), ("--eta-rule", "default"), ("--alpha", "2"))],
    ])
    def test_flag_of_the_other_path_refused(self, capsys, argv, flag):
        # a regime flag without --limit, or a component flag with it, would
        # be ignored, so it is refused
        code, out, err = run_cli(capsys, "selprob", *argv)
        assert code == 2 and out == "" and err.count("\n") == 1
        error = json.loads(err)
        assert error["exit_code"] == 2 and error["error"].startswith(f"{flag} ")

    def test_regime_not_covered_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "selprob", "--limit", "--mode", "known",
                               "--e", "inf", "--zeta", "1", "--n", "1")
        assert code == 4
        assert json.loads(err)["exit_code"] == 4


class TestRate:
    def test_value(self, capsys):
        code, out, _ = run_cli(capsys, "rate", "--n", "100", "--xi", "1", "--eta", "0.5")
        assert code == 0
        assert float(out.splitlines()[1]) == 2.0


class TestDist:
    def test_grid_schema_and_round_trip(self, capsys):
        code, out, _ = run_cli(capsys, "dist", "--kind", "soft", "--mode", "unknown",
                               "--dof", "4", "--n", "8", "--xi", "1", "--theta", "1.5",
                               "--sigma", "1", "--eta-rule", "default")
        assert code == 0
        rows = parse_csv(out)
        assert list(rows[0]) == ["x", "cdf", "ac_density", "atom_location", "atom_weight"]
        assert len(rows) >= 601
        xs = [float(r["x"]) for r in rows]
        cdfs = [float(r["cdf"]) for r in rows]
        assert xs == sorted(xs)
        assert all(b >= a - 1e-12 for a, b in zip(cdfs, cdfs[1:]))
        # serialized at full precision: values re-parse exactly
        spec = fd.ComponentSpec(8, 1.0, 1.5, 1.0, mc.default_eta(8))
        mode = fd.VarianceMode.unknown_sigma(4)
        i = len(rows) // 2
        assert float(rows[i]["cdf"]) == fd.cdf(fd.SOFT, mode, spec, float(rows[i]["x"]))
        # grid resolves the atom jump: the point itself plus both one-sided
        # neighbors at offset 1e-9 * max(1, |atom|)
        atom = spec.atom_location
        off = 1.05e-9 * max(1.0, abs(atom))
        near_atom = [r for r in rows if abs(float(r["x"]) - atom) <= off]
        assert len(near_atom) >= 3

    @pytest.mark.parametrize("mode", [[], ["--mode", "unknown", "--dof", "4"]],
                             ids=["known", "dof4"])
    @pytest.mark.parametrize("kind", fd.KINDS)
    def test_huge_theta_is_quiet(self, capsys, kind, mode):
        # the grid lies 1e300 standard deviations from the mean, where the
        # normal density is 0 because x * x overflows to inf: no warning
        code, out, err = run_cli(capsys, "dist", "--kind", kind, "--n", "8",
                                 "--theta", "1e300", *mode)
        assert code == 0 and len(parse_csv(out)) >= 601
        assert err == ""

    def test_alpha_presets(self, capsys):
        code, out, _ = run_cli(capsys, "dist", "--kind", "hard", "--n", "8",
                               "--theta", "1.0", "--eta", "0.3",
                               "--alpha", "inverse-xi-eta", "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert abs(rows[0]["atom_location"] + 1.0 / 0.3) <= 1e-12

    def test_alpha_numeric_value(self, capsys):
        code, out, _ = run_cli(capsys, "dist", "--kind", "soft", "--n", "8",
                               "--theta", "2.0", "--eta", "0.3",
                               "--alpha", "1.5", "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert abs(rows[0]["atom_location"] + 3.0) <= 1e-12

    def test_overflowing_alpha_named_once(self, capsys):
        # alpha = 1e-320 would scale the grid to +-inf: the error names alpha,
        # not the whole grid
        code, out, err = run_cli(capsys, "dist", "--kind", "hard", "--n", "8",
                                 "--alpha", "1e-320")
        assert code == 2 and out == "" and err.count("\n") == 1
        error = json.loads(err)
        assert error["exit_code"] == 2 and error["error"].startswith("alpha must")


class TestLimitCommand:
    def test_two_point_mixture_grid(self, capsys):
        code, out, _ = run_cli(capsys, "limit", "--kind", "hard", "--mode", "unknown",
                               "--e", "inf", "--zeta", "1", "--dof", "4")
        assert code == 0
        rows = parse_csv(out)
        assert rows[0]["family"] == "TwoPointMixture"
        weight = float(rows[0]["atom_weight"])
        assert abs(weight - sf.chi_square_tail(4, 4.0)) <= 1e-12

    def test_zero_atom_is_positive_zero(self, capsys):
        code, out, _ = run_cli(capsys, "limit", "--kind", "hard", "--e", "1", "--nu", "0")
        assert code == 0
        assert {row["atom_location"] for row in parse_csv(out)} == {"0.0"}

    def test_escaping_family_reported(self, capsys):
        code, out, _ = run_cli(capsys, "limit", "--kind", "adaptive", "--oracle",
                               "--zeta", "-2", "--format", "json")
        assert code == 0
        payload = json.loads(out)[0]
        assert payload["family"] == "EscapesToInfinity"
        assert payload["direction"] == 1

    @pytest.mark.parametrize("kind", ["hard", "adaptive"])
    def test_atom_weight_integrated_once(self, capsys, monkeypatch, kind):
        # one rho average for the whole cdf grid and one for the atom weight,
        # not one more per row
        calls = []
        rho_average = sf.rho_average

        def counted(*args, **kw):
            calls.append(1)
            return rho_average(*args, **kw)

        monkeypatch.setattr(sf, "rho_average", counted)
        code, out, _ = run_cli(capsys, "limit", "--kind", kind, "--mode", "unknown",
                               "--dof", "4", "--e", "1.5", "--nu", "0.3")
        assert code == 0
        rows = parse_csv(out)
        assert len(calls) == 2 and len(rows) == 604
        monkeypatch.undo()
        family = lm.limit_distribution(kind, "unknown", lm.RegimeParams(e=1.5, nu=0.3, dof=4))
        for row in rows:
            assert float(row["atom_weight"]) == family.atom_weight
            assert float(row["atom_location"]) == family.atom_location
            assert float(row["cdf"]) == family.cdf(float(row["x"]))

    def test_missing_field_is_regime_error(self, capsys):
        code, _, err = run_cli(capsys, "limit", "--kind", "hard", "--mode", "known",
                               "--e", "inf")
        assert code == 4


class TestDesign:
    def test_condition_number_metadata(self, capsys):
        code, out, _ = run_cli(capsys, "design", "--variant", "II", "--c", "2",
                               "--n", "8", "--k", "4", "--format", "json")
        assert code == 0 and out.count("\n") == 1
        meta = strict_json(out)
        assert meta["rho"] is None
        assert round(meta["condition_number"]) == 81
        assert len(meta["xi"]) == 4
        assert len(meta["matrix"]) == 8

    def test_condition_number_is_accurate(self, capsys):
        # cond(X) = 2.5e7 here: X's singular values give cond(X'X) = (1 + 4c)^-2
        # to 1e-9, where the condition number of X'X formed in floating point
        # is 3 % off
        code, out, _ = run_cli(capsys, "design", "--variant", "II", "--c", "-0.24999999",
                               "--n", "8", "--k", "4", "--format", "json")
        assert code == 0
        exact = 1 / (1 + 4 * mpmath.mpf(-0.24999999)) ** 2
        assert abs(strict_json(out)["condition_number"] / exact - 1) <= 1e-6

    def test_csv_spells_an_absent_parameter_nan(self, capsys):
        code, out, _ = run_cli(capsys, "design", "--variant", "II", "--c", "2",
                               "--n", "8", "--k", "4")
        assert code == 0
        meta = {row["key"]: row["value"] for row in parse_csv(out)}
        assert meta["variant"] == "II" and float(meta["c"]) == 2.0
        assert meta["rho"] == meta["matrix_file"] == "nan"
        assert round(float(meta["condition_number"])) == 81
        assert [k for k in meta if k.startswith("xi_")] == ["xi_1", "xi_2", "xi_3", "xi_4"]

    def test_matrix_file_output(self, capsys, tmp_path):
        path = tmp_path / "X.txt"
        code, out, _ = run_cli(capsys, "design", "--variant", "I", "--rho", "0.3",
                               "--n", "8", "--k", "4", "--out", str(path))
        assert code == 0
        from threshdist.estimators import read_matrix
        X = read_matrix(path)
        assert X.shape == (8, 4)
        assert np.allclose(X.T @ X, 8.0 * np.array(
            [[0.3 ** abs(i - j) for j in range(4)] for i in range(4)]), atol=1e-12)

    def test_invalid_combination(self, capsys):
        code, _, err = run_cli(capsys, "design", "--variant", "I", "--n", "8", "--k", "4")
        assert code == 2


class TestSimulate:
    def test_summary_output(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--variant", "I", "--rho", "0",
                               "--n", "8", "--k", "4", "--theta", "3,1.5,0,0",
                               "--estimator", "hard", "--infeasible",
                               "--reps", "4000", "--seed", "9", "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 4
        assert abs(rows[2]["atom_weight"] - 0.95) <= 1e-12
        assert abs(rows[2]["zero_proportion"] - 0.95) <= 0.02

    def test_seed_required(self, capsys):
        code, _, _ = run_cli(capsys, "simulate", "--variant", "I", "--rho", "0",
                             "--n", "8", "--k", "4", "--theta", "0,0,0,0",
                             "--estimator", "hard", "--reps", "10")
        assert code == 2

    def test_non_integral_reps_exit_code(self, capsys):
        code, _, _ = run_cli(capsys, "simulate", "--variant", "I", "--rho", "0",
                             "--n", "8", "--k", "4", "--theta", "0,0,0,0",
                             "--estimator", "hard", "--reps", "10.5", "--seed", "1")
        assert code == 2

    def test_file_outputs(self, capsys, tmp_path):
        argv = ["simulate", "--variant", "II", "--c", "0.2", "--n", "8", "--k", "4",
                "--theta", "3,1.5,0,0", "--estimator", "lasso", "--reps", "200",
                "--seed", "3"]
        assert run_cli(capsys, *argv, "--out", str(tmp_path / "study"))[0] == 0
        assert run_cli(capsys, *argv, "--infeasible", "--out", str(tmp_path / "known"))[0] == 0
        meta = json.loads((tmp_path / "study_meta.json").read_text())
        assert meta["estimator"] == "lasso" and meta["feasible"] is True
        assert meta["solver_failures"] == 0

        # the layout of a reproduce panel, whose sidecar adds only its name
        assert run_cli(capsys, "reproduce", "--out", str(tmp_path / "panels"),
                       "--seed", "3", "--reps", "20")[0] == 0
        panel = tmp_path / "panels" / "fig10_lasso_designII_c0.2"
        header = (tmp_path / "study_comp1.csv").read_text().splitlines()[0]
        assert header == panel.with_name(panel.name + "_comp1.csv").read_text().splitlines()[0]
        panel_meta = json.loads(panel.with_name(panel.name + "_meta.json").read_text())
        assert set(meta) == set(panel_meta) - {"panel"}

        # with known variance the overlay is the known-variance law
        for i in range(1, 5):
            rows = parse_csv((tmp_path / f"known_comp{i}.csv").read_text())
            assert len(rows) == mc.HIST_BINS
            for row in rows:
                assert row["overlay_ac_density"] == row["overlay_known_ac_density"]
                assert row["overlay_atom_weight"] == row["overlay_known_atom_weight"]


class TestReproduce:
    def test_writes_all_panels(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "reproduce", "--out", str(tmp_path),
                               "--seed", "21", "--reps", "120")
        assert code == 0
        assert len(out.splitlines()) == 1 + 12 * 5
        assert (tmp_path / "SCHEMA.txt").exists()


class TestSelfcheck:
    # stub registries whose order is not alphabetical: "run all" keeps
    # registry order; the checks themselves run in tests/test_selfcheck.py
    def test_every_check_passes(self, capsys, monkeypatch):
        monkeypatch.setattr(selfcheck, "_CHECKS", {"zeta": lambda: None, "alpha": lambda: None})
        code, out, _ = run_cli(capsys, "selfcheck")
        assert code == 0
        assert out.splitlines() == ["zeta: PASS", "alpha: PASS"]

    def test_failing_check_exit_code(self, capsys, monkeypatch):
        def broken():
            raise AssertionError("off by 0.5")

        monkeypatch.setattr(selfcheck, "_CHECKS", {"passes": lambda: None, "broken": broken})
        code, out, _ = run_cli(capsys, "selfcheck")
        assert code == 3
        assert out.splitlines()[:2] == ["passes: PASS", "broken: FAIL (off by 0.5)"]

    def test_unknown_check_exit_code(self, capsys):
        code, out, _ = run_cli(capsys, "selfcheck", "no_such_check")
        assert code == 3
        assert out.splitlines() == ["no_such_check: UNKNOWN CHECK"]


SIMULATE = ["simulate", "--variant", "I", "--rho", "0.3", "--n", "8", "--k", "4",
            "--theta", "3,1.5,0,0", "--estimator", "hard", "--reps", "50", "--seed", "1"]


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        assert run_cli(capsys, "frobnicate")[0] == 2

    @pytest.mark.parametrize("argv", [
        ["rate", "--n", "100", "--xi", "nan", "--eta", "0.1"],
        ["rate", "--n", "100", "--xi", "1", "--eta", "nan"],
        SIMULATE + ["--sigma", "nan"],
        SIMULATE + ["--sigma", "inf"],
    ], ids=["rate-xi-nan", "rate-eta-nan", "simulate-sigma-nan", "simulate-sigma-inf"])
    def test_non_finite_input(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert json.loads(err)["exit_code"] == 2

    @pytest.mark.parametrize("seed", ["-1", str(2 ** 64)])
    def test_out_of_range_seed(self, capsys, seed):
        code, out, err = run_cli(capsys, *SIMULATE[:-1], seed)
        assert code == 2 and out == ""
        error = json.loads(err)
        assert error["exit_code"] == 2 and "seed" in error["error"]

    def test_reproduce_checks_every_panel_seed_before_writing(self, capsys, tmp_path):
        # the last panel's seed would overflow 2**64
        code, out, err = run_cli(capsys, "reproduce", "--out", str(tmp_path / "panels"),
                                 "--seed", str(2 ** 64 - 6), "--reps", "10")
        assert code == 2 and out == ""
        assert json.loads(err)["exit_code"] == 2
        assert not (tmp_path / "panels").exists()

    def test_reproduce_checks_every_panel_config_before_writing(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "reproduce", "--out", str(tmp_path / "panels"),
                                 "--seed", "1", "--reps", "0")
        assert code == 2 and out == ""
        assert "reps" in json.loads(err)["error"]
        assert not (tmp_path / "panels").exists()

    def test_unwritable_out(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "dist", "--kind", "soft", "--n", "8",
                                 "--out", str(tmp_path / "missing" / "x.csv"))
        assert code == 2 and out == ""
        assert json.loads(err)["exit_code"] == 2

    def test_unknown_flag(self, capsys):
        assert run_cli(capsys, "rate", "--n", "4", "--xi", "1", "--eta", "1",
                       "--bogus", "2")[0] == 2

    def test_unknown_flag_before_a_negative_number(self, capsys):
        assert run_cli(capsys, "selprob", "--n", "8", "--bogus", "-1")[0] == 2

    @pytest.mark.parametrize("argv", [
        ["selprob", "--n", "8", "--dof", "4"],
        ["selprob", "--limit", "--e", "1", "--nu", "0", "--dof", "4"],
        ["dist", "--kind", "hard", "--n", "8", "--dof", "4"],
        ["limit", "--kind", "hard", "--e", "1", "--nu", "0", "--dof", "4"],
    ], ids=["selprob", "selprob-limit", "dist", "limit"])
    def test_dof_needs_unknown_mode(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "" and err.count("\n") == 1
        error = json.loads(err)
        assert error["exit_code"] == 2 and "--dof" in error["error"]

    @pytest.mark.parametrize("argv, field", [
        (["limit", "--kind", "hard", "--e", "nan"], "e"),
        (["selprob", "--limit", "--e", "1", "--nu", "nan"], "nu"),
    ], ids=["limit-e", "selprob-nu"])
    def test_nan_regime_value_is_a_json_error(self, capsys, argv, field):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert json.loads(err) == {"error": f"{field} must not be NaN", "exit_code": 2}


class TestNegativeValues:
    """A value that starts with '-' is read as the value of the flag before it."""

    @pytest.mark.parametrize("argv, flag", [
        (["selprob", "--n", "8", "--theta", "-1e-3"], "--theta"),
        (["limit", "--kind", "hard", "--e", "1.5", "--nu", "-inf"], "--nu"),
        (["limit", "--kind", "adaptive", "--mode", "unknown", "--dof", "4", "--e", "inf",
          "--zeta", "-inf"], "--zeta"),
        (["design", "--variant", "II", "--c", "-2e-1", "--n", "8", "--k", "4"], "--c"),
        (["simulate", "--variant", "I", "--rho", "0.3", "--n", "8", "--k", "4",
          "--theta", "-1.5,2,0,0", "--estimator", "soft", "--reps", "10", "--seed", "1"],
         "--theta"),
    ], ids=["exponent", "minus-inf", "adaptive-minus-inf", "design-exponent", "list"])
    def test_same_as_equals_spelling(self, capsys, argv, flag):
        i = argv.index(flag)
        joined = argv[:i] + [f"{flag}={argv[i + 1]}"] + argv[i + 2:]
        code, out, err = run_cli(capsys, *argv)
        assert code == 0 and err == ""
        assert run_cli(capsys, *joined) == (0, out, "")


class TestJsonOutput:
    # the JSON writer changes only the whitespace: the rows equal the CSV rows
    COMMANDS = {
        **{f"dist-{kind}-{mode[1] if mode else 'known'}":
           ["dist", "--kind", kind, *mode, "--n", "8", "--theta", "0.7", "--eta-rule", "default"]
           for kind in fd.KINDS for mode in ([], ["--mode", "unknown", "--dof", "3"])},
        "limit-two-point": ["limit", "--kind", "hard", "--mode", "unknown", "--e", "inf",
                            "--zeta", "1", "--dof", "4"],
        "limit-oracle-hard": ["limit", "--kind", "hard", "--oracle", "--zeta", "2"],
        "limit-soft-nu-inf": ["limit", "--kind", "soft", "--e", "1", "--nu", "inf"],
        "selprob": ["selprob", "--theta", "0.4", "--n", "8", "--mode", "unknown", "--dof", "4",
                    "--eta-rule", "default"],
        "rate": ["rate", "--n", "100", "--xi", "1", "--eta", "0.5"],
        "simulate": SIMULATE,
    }

    @pytest.mark.parametrize("argv", list(COMMANDS.values()), ids=list(COMMANDS))
    def test_json_rows_equal_csv_rows(self, capsys, argv):
        code, text, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == 0
        assert text.count("\n") == 1  # one compact line
        rows = strict_json(text)
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        csv_rows = parse_csv(out)
        assert [list(row) for row in rows] == [list(row) for row in csv_rows]
        for row, csv_row in zip(rows, csv_rows):
            for key, value in row.items():
                cell = csv_row[key]
                if value is None:  # a law without an atom
                    assert key == "atom_location" and math.isnan(float(cell))
                elif isinstance(value, str):
                    assert cell == value
                else:
                    assert type(value)(cell) == value


def test_import_loads_numpy_and_scipy_special_only():
    # QUADPACK (scipy.integrate, which loads scipy.optimize and scipy.linalg)
    # is imported only by the checks' oracles, and scipy.stats only by
    # selfcheck: no law, limit law or total-variation distance needs them
    script = textwrap.dedent("""
        import sys
        import numpy as np
        import threshdist, threshdist.cli
        from threshdist import distributions as fd, limits as lm
        heavy = {"scipy.integrate", "scipy.linalg", "scipy.optimize", "scipy.stats"}
        print(sorted(heavy & set(sys.modules)))
        x = np.linspace(-6.0, 6.0, 41)
        spec = fd.ComponentSpec(8, 1.0, 0.5, 1.0, 0.6)
        needle = fd.ComponentSpec(10_000, 1.0, 0.4, 1.0, 0.5)  # sqrt(n) * eta = 50
        regime = lm.RegimeParams(e=1.5, nu=0.3, dof=4)
        for kind in fd.KINDS:
            for m in (1, 4):
                mix = fd.as_mixture(kind, fd.VarianceMode(m), spec)
                mix.cdf(x), mix.ac_density(x), mix.atom_weight
            fd.cdf(kind, fd.VarianceMode(1), needle, x)
            law = lm.limit_distribution(kind, "unknown", regime)
            law.cdf(x), law.ac_density(x), law.atom_weight
        print(lm.tv_distance(lm.PointMass(0.0), lm.ExcisedNormal(0.0, 0.0),
                             window=(-12.0, 12.0)))
        print(sorted(heavy & set(sys.modules)))
    """)
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}
    result = subprocess.run([sys.executable, "-c", script], env=env,
                            capture_output=True, text=True, check=True)
    loaded, tv, loaded_after = result.stdout.splitlines()
    assert loaded == loaded_after == "[]"
    assert abs(float(tv) - 2.0) <= 1e-6
