import json
import math
from pathlib import Path

import numpy as np
import pytest

from threshdist import distributions as fd
from threshdist import estimators as est
from threshdist import simulate as mc
from threshdist import special as sf

DIAG = est.DesignSpec("I", 8, 4, rho=0.0)
THETA = (3.0, 1.5, 0.0, 0.0)


def fresh_stream(seed, rep, n):
    """Replication noise from a newly keyed generator, independent of the package."""
    return np.random.Generator(np.random.Philox(key=[seed, rep])).standard_normal(n)


def small_config(**kw):
    base = dict(design=DIAG, theta=THETA, sigma=1.0, estimator="hard",
                feasible=False, reps=2000, seed=17)
    base.update(kw)
    return mc.SimConfig(**base)


class TestSimConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            small_config(theta=(1.0, 2.0))
        with pytest.raises(ValueError):
            small_config(estimator="ridge")
        with pytest.raises(ValueError):
            small_config(reps=0)
        for bad in (dict(sigma=math.nan), dict(sigma=math.inf), dict(sigma=-1.0),
                    dict(theta=(3.0, math.inf, 0.0, 0.0)), dict(eta=math.nan),
                    dict(eta=math.inf), dict(eta=0.0)):
            with pytest.raises(ValueError):
                small_config(**bad)
        assert small_config(sigma=0.0).sigma == 0.0  # the noiseless test hook
        with pytest.raises(ValueError):
            mc.SimConfig(design=est.DesignSpec("II", 4, 4, c=0.2), theta=(0.0,) * 4,
                         sigma=1.0, estimator="hard", feasible=True, reps=10, seed=0)

    def test_reps_must_be_a_positive_integer(self):
        for bad in (10.5, 10.0, "10", -3):
            with pytest.raises(ValueError):
                small_config(reps=bad)
        cfg = small_config(reps=np.int64(50))
        assert type(cfg.reps) is int and cfg == small_config(reps=50)
        res = mc.run_study(cfg)
        assert np.array_equal(res.scaled_samples, mc.run_study(small_config(reps=50)).scaled_samples)

    def test_default_eta_rule(self):
        cfg = small_config()
        assert abs(cfg.eta_value() - sf.normal_quantile(0.975) / math.sqrt(8)) <= 1e-15


class TestDeterminism:
    def test_same_seed_same_result(self):
        a = mc.run_study(small_config())
        b = mc.run_study(small_config())
        assert np.array_equal(a.scaled_samples, b.scaled_samples)
        assert np.array_equal(a.hist_heights, b.hist_heights)

    def test_different_seed_differs(self):
        a = mc.run_study(small_config())
        b = mc.run_study(small_config(seed=18))
        assert not np.array_equal(a.scaled_samples, b.scaled_samples)

    def test_replication_streams_are_schedule_independent(self):
        # drawing replication noise in any order reproduces the same rows
        order = np.random.default_rng(0).permutation(100)
        shuffled = np.empty((100, 8))
        for r in order:
            shuffled[r] = mc.replication_noise(123, int(r), 8)
        direct = np.stack([mc.replication_noise(123, r, 8) for r in range(100)])
        assert np.array_equal(shuffled, direct)

    @pytest.mark.parametrize("seed", [0, 7, 2**63])
    @pytest.mark.parametrize("reps", [1, 17, 300])
    @pytest.mark.parametrize("n", [8, 404])
    def test_study_noise_equals_fresh_philox_streams(self, seed, reps, n):
        want = np.stack([fresh_stream(seed, r, n) for r in range(reps)])
        assert np.array_equal(mc._fill_noise(np.empty((reps, n)), seed), want)
        assert np.array_equal(mc.replication_noise(seed, reps - 1, n), want[-1])

    def test_known_variance_study_equals_recomputation(self):
        # least squares on regenerated noise, thresholded at the true sigma
        n, reps, sigma, seed = 404, 300, 1.3, 29
        design = est.DesignSpec("I", n, 4, rho=0.5)
        theta = np.array([2.0, 0.7, 0.0, -0.6]) / math.sqrt(n)
        res = mc.run_study(small_config(design=design, theta=tuple(theta), sigma=sigma,
                                        feasible=False, reps=reps, seed=seed))
        X = est.make_design(design)
        noise = np.stack([fresh_stream(seed, r, n) for r in range(reps)])
        ls = np.linalg.lstsq(X, (X @ theta + sigma * noise).T, rcond=None)[0].T
        xi = np.sqrt(np.diag(np.linalg.inv(X.T @ X / n)))
        estimate = np.where(np.abs(ls) > sigma * xi * mc.default_eta(n), ls, 0.0)
        want = math.sqrt(n) * (estimate - theta) / (sigma * xi)
        # a kept coordinate sits O(1) away from its deletion atom, so this
        # also pins the zero pattern
        assert np.max(np.abs(res.scaled_samples - want)) <= 1e-12
        assert 0.0 < res.zero_proportion[2] < 1.0

    @pytest.mark.parametrize("estimator,n", [
        ("hard", 404), ("soft", 404), ("lasso", 8), ("adaptive-lasso", 8)])
    def test_replications_independent_of_replication_count(self, estimator, n):
        design = est.DesignSpec("I", n, 4, rho=0.5)
        theta = tuple(t / math.sqrt(n / 8) for t in THETA)
        full = mc.run_study(small_config(design=design, theta=theta, estimator=estimator,
                                         feasible=True, reps=2000))
        for m in (1, 3, 16, 257):
            part = mc.run_study(small_config(design=design, theta=theta, estimator=estimator,
                                             feasible=True, reps=m))
            assert np.array_equal(part.scaled_samples, full.scaled_samples[:m]), m

    def test_sigma_zero_degenerate_hook(self):
        res = mc.run_study(small_config(sigma=0.0, reps=50))
        assert np.all(res.scaled_samples == res.scaled_samples[0])
        assert np.all(res.scaled_samples[:, :2] == 0.0)  # exact recovery


class TestRunStudy:
    def test_zero_proportions_match_analytic(self):
        reps = 20_000
        res = mc.run_study(small_config(reps=reps, estimator="soft", feasible=True))
        mode = fd.VarianceMode.unknown_sigma(4)
        for i in range(4):
            spec = fd.ComponentSpec(8, float(res.xi[i]), THETA[i], 1.0, mc.default_eta(8))
            w = fd.deletion_probability(spec, mode)
            se = math.sqrt(max(w * (1.0 - w), 1e-12) / reps)
            assert abs(res.zero_proportion[i] - w) <= max(4.0 * se, 3.0 / reps)

    def test_histogram_mass_accounting(self):
        res = mc.run_study(small_config(reps=5000))
        width = res.hist_edges[1] - res.hist_edges[0]
        for i in range(4):
            hist_mass = res.hist_heights[i].sum() * width
            assert abs(hist_mass + res.zero_proportion[i] - 1.0) <= 1e-12

    def test_known_equals_unknown_when_sigma_known(self):
        # infeasible study thresholds with the true sigma: atom weight of the
        # overlay must be the known-variance deletion probability
        res = mc.run_study(small_config(reps=10))
        spec = fd.ComponentSpec(8, 1.0, 0.0, 1.0, mc.default_eta(8))
        assert abs(res.overlay[2].atom_weight - fd.deletion_probability(spec)) <= 1e-12

    def test_lasso_matches_soft_on_diagonal_design(self):
        # X'X diagonal: the lasso with eta/xi penalties IS soft thresholding
        reps = 400
        a = mc.run_study(small_config(estimator="lasso", feasible=True, reps=reps))
        b = mc.run_study(small_config(estimator="soft", feasible=True, reps=reps))
        assert np.max(np.abs(a.scaled_samples - b.scaled_samples)) <= 1e-8

    def test_adaptive_lasso_matches_adaptive_on_diagonal_design(self):
        reps = 400
        a = mc.run_study(small_config(estimator="adaptive-lasso", feasible=True, reps=reps))
        b = mc.run_study(small_config(estimator="adaptive", feasible=True, reps=reps))
        assert np.max(np.abs(a.scaled_samples - b.scaled_samples)) <= 1e-8

    def test_too_many_solver_failures_abort(self, monkeypatch):
        # every replication runs out of its single sweep
        monkeypatch.setattr(est.LassoConfig.__init__, "__defaults__", (1e-15, 1))
        for estimator in ("lasso", "adaptive-lasso"):
            with pytest.raises(RuntimeError, match="failed to converge"):
                mc.run_study(small_config(estimator=estimator, feasible=True, reps=50))

    def test_zero_events_identical_across_kinds(self):
        # all three thresholding rules share the same deletion event: a zero
        # estimate maps the scaled sample exactly onto the atom location
        res = {kind: mc.run_study(small_config(estimator=kind, feasible=True, reps=3000))
               for kind in fd.KINDS}
        events = {}
        for kind, r in res.items():
            atoms = np.array([m.atom_location for m in r.overlay])
            events[kind] = r.scaled_samples == atoms[None, :]
        assert np.array_equal(events["hard"], events["soft"])
        assert np.array_equal(events["hard"], events["adaptive"])
        assert events["hard"][:, 2].mean() == res["hard"].zero_proportion[2]


class TestEmpiricalMixedCdf:
    def test_single_value_step(self):
        emp = mc.empirical_mixed_cdf(np.full(10, 1.5), 1.5)
        assert emp(1.4999) == 0.0
        assert emp(1.5) == 1.0
        assert emp.left(1.5) == 0.0
        assert emp(math.inf) == 1.0

    def test_normal_draws_ks(self):
        gen = np.random.Generator(np.random.Philox(key=np.array([123, 0], dtype=np.uint64)))
        draws = gen.standard_normal(100_000)
        emp = mc.empirical_mixed_cdf(draws, 0.0)
        grid = np.linspace(-4.0, 4.0, 321)
        ks = max(abs(emp(float(x)) - float(sf.normal_cdf(float(x)))) for x in grid)
        assert ks <= 1.36 / math.sqrt(draws.size) * 1.5


class TestKsDistance:
    def test_zero_against_itself(self):
        spec = fd.ComponentSpec(8, 1.0, 0.0, 1.0, mc.default_eta(8))
        mix = fd.as_mixture(fd.HARD, fd.KNOWN, spec)
        # inverse sampling through the component sampler
        vals = mc.sample_component(fd.HARD, fd.KNOWN, spec, 200_000, seed=3)
        scaled = spec.alpha * vals
        emp = mc.empirical_mixed_cdf(scaled, 0.0)
        grid = mc.default_ks_grid(scaled, 0.0)
        assert mc.ks_distance(emp, mix, grid) <= 0.005

    def test_identical_steps(self):
        # every sample at the atom: the pure-atom mixture matches exactly
        samples = np.zeros(5)
        emp = mc.empirical_mixed_cdf(samples, 0.0)
        mix = fd.MixtureDistribution(
            0.0, 1.0,
            cdf=lambda x: np.heaviside(x, 1.0),
            ac_density=lambda x: 0.0)
        grid = np.array([-1.0, -1e-9, 0.0, 1e-9, 2.0])
        assert mc.ks_distance(emp, mix, grid) == 0.0

    def test_wrong_theta_detected(self):
        spec = fd.ComponentSpec(8, 1.0, 0.0, 1.0, mc.default_eta(8))
        wrong = fd.as_mixture(fd.HARD, fd.KNOWN,
                              fd.ComponentSpec(8, 1.0, 1.0, 1.0, mc.default_eta(8)))
        vals = mc.sample_component(fd.HARD, fd.KNOWN, spec, 50_000, seed=4)
        scaled = spec.alpha * vals
        emp = mc.empirical_mixed_cdf(scaled, 0.0)
        grid = mc.default_ks_grid(scaled, 0.0)
        # the analytic atom sits elsewhere: include it as the contract asks
        grid = np.unique(np.concatenate([grid, [wrong.atom_location]]))
        assert mc.ks_distance(emp, wrong, grid) > 0.05


class TestReproduceFigures:
    def test_panel_files_and_determinism(self, tmp_path):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        paths1 = mc.reproduce_figures(str(out1), seed=77, reps=300)
        paths2 = mc.reproduce_figures(str(out2), seed=77, reps=300)
        assert len(paths1) == 1 + 12 * 5  # schema + 4 component csvs + meta per panel
        for p1, p2 in zip(paths1, paths2):
            assert Path(p1).name == Path(p2).name
            assert Path(p1).read_bytes() == Path(p2).read_bytes()

    def test_metadata_contents(self, tmp_path):
        mc.reproduce_figures(str(tmp_path), seed=5, reps=200)
        meta = json.loads((tmp_path / "fig05_adaptive_lasso_designII_c2_meta.json").read_text())
        assert round(meta["condition_number"]) == 81
        assert meta["reps"] == 200
        assert len(meta["zero_proportion"]) == 4

    def test_component_csv_round_trip(self, tmp_path):
        mc.reproduce_figures(str(tmp_path), seed=5, reps=200)
        path = tmp_path / "fig01_adaptive_lasso_designI_rho0.3_comp3.csv"
        lines = path.read_text().strip().splitlines()
        header = lines[0].split(",")
        assert header[0] == "bin_left"
        assert "overlay_known_atom_weight" in header
        rows = [dict(zip(header, [float(v) for v in ln.split(",")])) for ln in lines[1:]]
        assert len(rows) == 60
        # full-precision round trip: re-serializing reproduces the file
        for ln, row in zip(lines[1:], rows):
            assert ln == ",".join(repr(row[h]) for h in header)
        # irrelevant component: known-variance overlay weight is exactly 0.95
        assert abs(rows[0]["overlay_known_atom_weight"] - 0.95) <= 1e-12
