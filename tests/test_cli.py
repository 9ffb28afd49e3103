import csv
import io
import json
import math

import numpy as np
import pytest

from threshdist import cli
from threshdist import distributions as fd
from threshdist import estimators as est
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


class TestSelprob:
    def test_default_rule_known(self, capsys):
        code, out, _ = run_cli(capsys, "selprob", "--theta", "0", "--n", "8",
                               "--xi", "1", "--sigma", "1", "--eta-rule", "default",
                               "--mode", "known")
        assert code == 0
        assert abs(float(out.splitlines()[1]) - 0.95) <= 1e-12

    def test_unknown_mode_needs_dof(self, capsys):
        code, _, err = run_cli(capsys, "selprob", "--theta", "0", "--n", "8",
                               "--eta-rule", "default", "--mode", "unknown")
        assert code == 2
        assert "dof" in json.loads(err)["error"]

    def test_limiting_value(self, capsys):
        code, out, _ = run_cli(capsys, "selprob", "--limit", "--mode", "unknown",
                               "--e", "inf", "--zeta", "1", "--dof", "4",
                               "--n", "1", "--format", "json")
        assert code == 0
        val = json.loads(out)[0]["value"]
        assert abs(val - 3.0 * math.exp(-2.0)) <= 1e-12

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


class TestLimitCommand:
    def test_two_point_mixture_grid(self, capsys):
        code, out, _ = run_cli(capsys, "limit", "--kind", "hard", "--mode", "unknown",
                               "--e", "inf", "--zeta", "1", "--dof", "4")
        assert code == 0
        rows = parse_csv(out)
        assert rows[0]["family"] == "TwoPointMixture"
        weight = float(rows[0]["atom_weight"])
        assert abs(weight - sf.chi_square_tail(4, 4.0)) <= 1e-12

    def test_escaping_family_reported(self, capsys):
        code, out, _ = run_cli(capsys, "limit", "--kind", "adaptive", "--oracle",
                               "--zeta", "-2", "--format", "json")
        assert code == 0
        payload = json.loads(out)[0]
        assert payload["family"] == "EscapesToInfinity"
        assert payload["direction"] == 1

    @pytest.mark.parametrize("kind", ["hard", "adaptive"])
    def test_atom_weight_integrated_once(self, capsys, monkeypatch, kind):
        # one smoothing integral per cdf point and one for the atom weight,
        # not one more per row
        calls = []
        integrate_rho = sf.integrate_rho

        def counted(*args, **kw):
            calls.append(1)
            return integrate_rho(*args, **kw)

        monkeypatch.setattr(sf, "integrate_rho", counted)
        code, out, _ = run_cli(capsys, "limit", "--kind", kind, "--mode", "unknown",
                               "--dof", "4", "--e", "1.5", "--nu", "0.3")
        assert code == 0
        rows = parse_csv(out)
        assert len(calls) == len(rows) + 1 == 605
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
        assert code == 0
        meta = json.loads(out)
        assert round(meta["condition_number"]) == 81
        assert len(meta["xi"]) == 4
        assert len(meta["matrix"]) == 8

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
        prefix = tmp_path / "study"
        code, _, _ = run_cli(capsys, "simulate", "--variant", "II", "--c", "0.2",
                             "--n", "8", "--k", "4", "--theta", "3,1.5,0,0",
                             "--estimator", "lasso", "--reps", "200", "--seed", "3",
                             "--out", str(prefix))
        assert code == 0
        assert (tmp_path / "study_comp1.csv").exists()
        meta = json.loads((tmp_path / "study_meta.json").read_text())
        assert meta["estimator"] == "lasso"
        assert meta["solver_failures"] == 0


class TestSolverFailureAbort:
    @pytest.mark.parametrize("argv", [
        ["simulate", "--variant", "I", "--rho", "0.5", "--n", "8", "--k", "4",
         "--theta", "3,1.5,0,0", "--estimator", "lasso", "--reps", "20", "--seed", "3"],
        ["reproduce", "--seed", "3", "--reps", "20"]], ids=["simulate", "reproduce"])
    def test_numeric_exit_code(self, capsys, monkeypatch, tmp_path, argv):
        # every replication runs out of its single sweep
        monkeypatch.setattr(est.LassoConfig.__init__, "__defaults__", (1e-15, 1))
        if argv[0] == "reproduce":
            argv = argv + ["--out", str(tmp_path)]
        code, _, err = run_cli(capsys, *argv)
        assert code == 3
        lines = err.splitlines()
        assert len(lines) == 1
        payload = json.loads(lines[0])
        assert payload["exit_code"] == 3
        assert payload["error"] == "20 of 20 replications failed to converge"


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

    def test_unknown_flag(self, capsys):
        assert run_cli(capsys, "rate", "--n", "4", "--xi", "1", "--eta", "1",
                       "--bogus", "2")[0] == 2
