import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from threshdist import distributions as fd
from threshdist import estimators as est
from threshdist import limits as lm
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
                    dict(sigma=0.0), dict(theta=(3.0, math.inf, 0.0, 0.0)),
                    dict(eta=math.nan), dict(eta=math.inf), dict(eta=0.0)):
            with pytest.raises(ValueError):
                small_config(**bad)
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

    @pytest.mark.parametrize("seed", [0, 7, 2**63])
    @pytest.mark.parametrize("reps", [1, 17, 300])
    @pytest.mark.parametrize("n", [8, 404])
    def test_study_noise_equals_fresh_philox_streams(self, seed, reps, n):
        want = np.stack([fresh_stream(seed, r, n) for r in range(reps)])
        assert np.array_equal(mc._fill_noise(np.empty((reps, n)), seed), want)
        assert np.array_equal(mc.replication_noise(seed, reps - 1, n), want[-1])

    @pytest.mark.parametrize("mode", [fd.KNOWN, fd.VarianceMode.unknown_sigma(4)])
    @pytest.mark.parametrize("kind", fd.KINDS)
    def test_component_draws_do_not_depend_on_reps(self, kind, mode):
        # replication r's draws are the same in a 50- and a 100-replication run
        spec = fd.ComponentSpec(8, 1.0, 0.5, 1.0, 0.7)
        short = mc.sample_component(kind, mode, spec, 50, seed=3)
        long = mc.sample_component(kind, mode, spec, 100, seed=3)
        assert np.array_equal(short, long[:50])

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

    @pytest.mark.parametrize("n,k", [(8, 4), (404, 4), (24, 6)], ids=["8", "404", "24-k6"])
    @pytest.mark.parametrize("feasible", [True, False])
    @pytest.mark.parametrize("estimator", mc.ESTIMATORS)
    def test_results_independent_of_block_size(self, monkeypatch, estimator, feasible, n, k):
        # blocks of 1, 7 and 97 response rows; 97 does not divide the
        # replication count.  Where k^2 > n a lasso block holds fewer rows,
        # as its homotopy's (rows, k, k) Gram inverses bound it
        design = est.DesignSpec("I", n, k, rho=0.5)
        theta = tuple(t / math.sqrt(n / 8) for t in THETA + (0.0,) * (k - 4))
        config = small_config(design=design, theta=theta, estimator=estimator,
                              feasible=feasible, reps=1000)
        want = mc.run_study(config)
        for rows in (1, 7, 97):
            monkeypatch.setattr(mc, "STREAM_ELEMENTS", rows * n)
            got = mc.run_study(config)
            for field in ("scaled_samples", "zero_proportion", "hist_heights", "outlier_count"):
                assert np.array_equal(getattr(got, field), getattr(want, field)), (rows, field)

    @pytest.mark.parametrize("feasible", [True, False])
    @pytest.mark.parametrize("estimator", mc.ESTIMATORS)
    def test_rows_equal_public_estimators(self, estimator, feasible):
        # a study is a batch of the public pipeline: each row is its
        # replication's noise -> RegressionData -> least_squares -> estimator,
        # scaled by the overlay's alpha, bit for bit
        design, theta, sigma, seed = est.DesignSpec("I", 8, 4, rho=0.5), np.array(THETA), 1.3, 21
        res = mc.run_study(small_config(design=design, sigma=sigma, estimator=estimator,
                                        feasible=feasible, reps=300, seed=seed))
        X = est.make_design(design)
        eta = mc.default_eta(8)
        alpha = np.array([mix.spec.alpha for mix in res.overlay])
        for rep in (0, 17, 299):
            data = est.RegressionData(X, X @ theta + sigma * mc.replication_noise(seed, rep, 8))
            ls, var = est.least_squares(data)
            scale = math.sqrt(var) if feasible else sigma
            if estimator in fd.KINDS:
                estimate = est.threshold_estimate(estimator, ls, scale, est.xi_values(X), eta)
            elif estimator == "lasso":
                estimate = est.lasso(data, est.LassoConfig.eta_xi_inverse(eta), scale)
            else:
                estimate = est.adaptive_lasso(data, est.LassoConfig.constant(eta), scale)
            assert np.array_equal(res.scaled_samples[rep], alpha * (estimate - theta) / sigma), rep

    def test_ill_conditioned_fit_matches_lstsq(self):
        # cond(X) = 2.5e7, which the rank check accepts; a fit through the
        # Gram inverse would lose digits as cond(X)^2
        n, sigma, seed, reps = 8, 1.0, 9, 200
        design = est.DesignSpec("II", n, 4, c=-0.24999999)
        X = est.make_design(design)
        assert 2e7 < np.linalg.cond(X) < 3e7
        res = mc.run_study(small_config(design=design, sigma=sigma, feasible=True, eta=1e-12,
                                        reps=reps, seed=seed))
        theta = np.array(THETA)
        Y = X @ theta + sigma * np.stack([fresh_stream(seed, r, n) for r in range(reps)])
        ls = np.linalg.lstsq(X, Y.T, rcond=None)[0].T
        resid = Y - ls @ X.T
        sigma_hat = np.sqrt(np.sum(resid * resid, axis=1) / (n - 4))
        xi = est.xi_values(X)
        estimate = np.where(np.abs(ls) > sigma_hat[:, None] * xi * 1e-12, ls, 0.0)
        want = math.sqrt(n) / xi * (estimate - theta) / sigma
        assert np.max(np.abs(res.scaled_samples - want)) <= 1e-12


class TestRunStudy:
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

    @pytest.mark.parametrize("kind", mc.ESTIMATORS)
    def test_memory_bounded_by_one_block(self, kind):
        n = 404
        if kind in fd.KINDS:
            # one (reps, n) array of this study would take 65 MB; a study
            # keeps (reps, k) arrays and one block of response rows
            design, reps, mib = est.DesignSpec("I", n, 4, rho=0.5), 20_000, 16
            theta = tuple(np.array([2.0, 0.7, 0.0, -0.6]) / math.sqrt(n))
        else:
            # k^2 > n: a homotopy pass over all replications at once would
            # gather a (reps, k, k) stack of Gram inverses and peak near 10 MiB;
            # a lasso block holds STREAM_ELEMENTS // k^2 rows
            design, reps, mib = est.DesignSpec("II", n, 24, c=0.5), 600, 8
            theta = tuple(np.linspace(-0.5, 0.5, 24))
        config = small_config(design=design, theta=theta, estimator=kind, feasible=True,
                              reps=reps)
        tracemalloc.start()
        try:
            mc.run_study(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < mib * 2 ** 20

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

    @pytest.mark.parametrize("feasible", [True, False])
    @pytest.mark.parametrize("kind", fd.KINDS)
    def test_zeros_sit_on_the_overlay_atom(self, kind, feasible):
        # every exact zero maps onto its overlay's atom_location, bit for bit,
        # so the empirical cdf jumps where the overlay's does
        reps = 4000
        for design in dict.fromkeys(d for _, d in mc.PANELS):  # the six panel designs
            res = mc.run_study(mc.SimConfig(design=design, theta=mc.PANEL_THETA,
                                            sigma=mc.PANEL_SIGMA, estimator=kind,
                                            feasible=feasible, reps=reps, seed=11))
            for i, mix in enumerate(res.overlay):
                on_atom = int(np.sum(res.scaled_samples[:, i] == mix.atom_location))
                assert on_atom == round(res.zero_proportion[i] * reps), (design, i)


class TestEmpiricalMixedCdf:
    def test_single_value_step(self):
        emp = mc.empirical_mixed_cdf(np.full(10, 1.5), 1.5)
        assert emp(1.4999) == 0.0
        assert emp(1.5) == 1.0
        assert emp.left(1.5) == 0.0
        assert emp(math.inf) == 1.0

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
        mix = lm.PointMass(0.0)
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
