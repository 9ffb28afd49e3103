import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import linalg

from threshdist import distributions as fd
from threshdist import estimators as est
from threshdist import simulate as mc


def random_diagonal_design(rng, n, k):
    """Design with orthogonal columns (diagonal X'X) and random scales."""
    Q, _ = np.linalg.qr(rng.standard_normal((n, k)))
    return Q * rng.uniform(0.4, 2.5, k)


class TestDesignSpec:
    def test_variant_i_divisibility(self):
        with pytest.raises(ValueError):
            est.DesignSpec("I", 10, 4, rho=0.3)
        with pytest.raises(ValueError):
            est.DesignSpec("I", 8, 4, rho=1.0)

    def test_variant_ii_c_range(self):
        with pytest.raises(ValueError):
            est.DesignSpec("II", 8, 4, c=-0.25)
        est.DesignSpec("II", 8, 4, c=-0.24)

    @pytest.mark.parametrize("c", [math.inf, math.nan])
    def test_variant_ii_c_must_be_finite(self, c):
        with pytest.raises(ValueError, match="finite c"):
            est.DesignSpec("II", 8, 4, c=c)

    @pytest.mark.parametrize("args, field", [
        (("II", 8.0, 4), "n"), (("II", 8.5, 4), "n"), (("I", 8, 4.0), "k"),
        (("II", "8", 4), "n"), (("II", 8, None), "k"),
    ])
    def test_n_and_k_must_be_integers(self, args, field):
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            est.DesignSpec(*args, rho=0.3, c=0.2)

    def test_numpy_integers_become_int(self, tmp_path):
        spec = est.DesignSpec("II", np.int64(8), np.int32(4), c=0.2)
        assert type(spec.n) is int and type(spec.k) is int
        assert spec == est.DesignSpec("II", 8, 4, c=0.2)
        config = mc.SimConfig(design=spec, theta=(1.0, 0.0, 0.0, 0.0), sigma=1.0,
                              estimator="hard", reps=20, seed=1)
        mc.write_study(mc.run_study(config), str(tmp_path / "study"))
        assert json.loads((tmp_path / "study_meta.json").read_text())["design"]["n"] == 8


class TestMakeDesign:
    def test_variant_i_gram_identity(self):
        for rho in (0.0, 0.3, -0.6, 0.9):
            spec = est.DesignSpec("I", 8, 4, rho=rho)
            X = est.make_design(spec)
            omega = linalg.toeplitz(rho ** np.arange(4))
            assert np.allclose(X.T @ X, 8.0 * omega, atol=1e-12)

    def test_variant_i_generalizes_to_more_blocks(self):
        X = est.make_design(est.DesignSpec("I", 12, 4, rho=0.3))
        omega = linalg.toeplitz(0.3 ** np.arange(4))
        assert np.allclose(X.T @ X, 12.0 * omega, atol=1e-12)

    def test_variant_i_condition_numbers(self):
        # two-significant-digit benchmarks: 2.7, 5.6, 57
        for rho, target in [(0.3, 2.7), (0.5, 5.6), (0.9, 57.0)]:
            X = est.make_design(est.DesignSpec("I", 8, 4, rho=rho))
            cond = np.linalg.cond(X.T @ X)
            rounded = float(f"{cond:.2g}")
            assert rounded == target, (rho, cond)

    def test_variant_ii_structure(self):
        X = est.make_design(est.DesignSpec("II", 8, 4, c=0.2))
        assert np.allclose(X[:4], np.eye(4) + 0.2)
        assert np.all(X[4:] == 0.0)

    def test_variant_ii_condition_and_correlation(self):
        for c, cond_t, corr_t in [(0.2, 3.2, 0.36), (2.0, 81.0, 0.952), (-0.2, 25.0, -0.32)]:
            X = est.make_design(est.DesignSpec("II", 8, 4, c=c))
            G = X.T @ X
            cond = np.linalg.cond(G)
            corr = G[0, 1] / math.sqrt(G[0, 0] * G[1, 1])
            assert float(f"{cond:.2g}") == cond_t, (c, cond)
            digits = 3 if c == 2.0 else 2
            assert round(corr, digits) == corr_t, (c, corr)


class TestXiValues:
    def test_identity_gram(self):
        X = 2.0 * np.vstack([np.eye(4), np.eye(4)])  # X'X = 8*I, so X'X/n = I
        assert np.allclose(est.xi_values(X), 1.0)

    def test_design_i_against_matrix_inverse_oracle(self):
        X = est.make_design(est.DesignSpec("I", 8, 4, rho=0.5))
        omega = linalg.toeplitz(0.5 ** np.arange(4))
        oracle = np.sqrt(np.diag(np.linalg.inv(omega)))
        assert np.allclose(est.xi_values(X), oracle, atol=1e-12)

    def test_column_scaling_law_diagonal(self):
        rng = np.random.default_rng(1)
        X = random_diagonal_design(rng, 10, 4)
        xi = est.xi_values(X)
        Xs = X.copy()
        Xs[:, 2] *= -4.0
        xis = est.xi_values(Xs)
        assert abs(xis[2] - xi[2] / 4.0) <= 1e-12
        assert np.allclose(np.delete(xis, 2), np.delete(xi, 2))

    def test_rank_deficiency(self):
        X = np.ones((6, 2))
        with pytest.raises(est.SingularDesignError):
            est.xi_values(X)


    @pytest.mark.parametrize("call", [
        est.xi_values,
        lambda X: est.LassoConfig.eta_xi_inverse(0.5).penalties(X),
        lambda X: est.RegressionData(X, np.ones(2)),
    ], ids=["xi_values", "penalties", "RegressionData"])
    def test_fewer_rows_than_columns(self, call):
        X = np.random.default_rng(0).standard_normal((2, 3))
        with pytest.raises(est.SingularDesignError, match="n = 2 rows, fewer than its k = 3"):
            call(X)

class TestRegressionData:
    @pytest.mark.parametrize("where", ["X", "Y"])
    def test_non_finite_data_rejected(self, where):
        X, Y = np.eye(4, 2) + 1.0, np.ones(4)
        (X if where == "X" else Y)[1] = math.nan
        with pytest.raises(ValueError, match=f"{where} must be finite"):
            est.RegressionData(X, Y)

    def test_xi_values_rejects_non_finite_design(self):
        with pytest.raises(ValueError, match="X must be finite"):
            est.xi_values(np.array([[1.0, 0.0], [0.0, math.inf]]))


class TestLeastSquares:
    def test_noiseless_recovery(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((9, 4))
        theta = np.array([1.0, -0.5, 2.0, 0.0])
        ls, s2 = est.least_squares(est.RegressionData(X, X @ theta))
        assert np.max(np.abs(ls - theta)) <= 1e-10
        assert s2 <= 1e-20

    def test_saturated_model_has_no_variance_estimate(self):
        X = np.eye(5)
        Y = np.arange(5.0)
        ls, s2 = est.least_squares(est.RegressionData(X, Y))
        assert np.allclose(ls, Y)
        assert s2 is None

    def test_against_pseudoinverse_oracle(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((8, 4))
        Y = rng.standard_normal(8)
        ls, s2 = est.least_squares(est.RegressionData(X, Y))
        oracle = np.linalg.pinv(X) @ Y
        assert np.max(np.abs(ls - oracle)) <= 1e-10
        resid = Y - X @ oracle
        assert abs(s2 - resid @ resid / 4.0) <= 1e-12


class TestThresholdEstimate:
    def test_inside_threshold_is_exact_zero(self):
        for kind in fd.KINDS:
            assert est.threshold_estimate(kind, 0.4, 1.0, 1.0, 0.5) == 0.0
            assert est.threshold_estimate(kind, -0.5, 1.0, 1.0, 0.5) == 0.0

    def test_worked_values(self):
        assert est.threshold_estimate("soft", 2.0, 1.0, 1.0, 0.5) == 1.5
        assert est.threshold_estimate("adaptive", 2.0, 1.0, 1.0, 0.5) == 1.875
        assert est.threshold_estimate("hard", 2.0, 1.0, 1.0, 0.5) == 2.0

    @given(st.floats(-5.0, 5.0), st.floats(0.01, 3.0))
    @settings(max_examples=200)
    def test_ordering_chain(self, ls, t):
        s = est.threshold_estimate("soft", ls, t, 1.0, 1.0)
        a = est.threshold_estimate("adaptive", ls, t, 1.0, 1.0)
        h = est.threshold_estimate("hard", ls, t, 1.0, 1.0)
        if ls >= 0.0:
            assert 0.0 <= s <= a <= h <= ls
        else:
            assert ls <= h <= a <= s <= 0.0

    @pytest.mark.parametrize("kind", fd.KINDS)
    @pytest.mark.parametrize("bad", [(math.nan, 1.0), (1.0, math.nan), (-1.0, 1.0)])
    def test_nan_or_negative_threshold_rejected(self, kind, bad):
        # a NaN threshold would compare false and delete the coordinate
        scale, eta = bad
        with pytest.raises(ValueError, match="threshold"):
            est.threshold_estimate(kind, 1.0, scale, 1.0, eta)
        with pytest.raises(ValueError, match="threshold"):
            est.threshold_estimate(kind, np.ones(3), np.array([1.0, scale, 1.0]), 1.0, eta)

    def test_sign_zero_convention(self):
        assert est.threshold_estimate("soft", 0.0, 1.0, 1.0, 0.5) == 0.0

    def test_vectorized(self):
        out = est.threshold_estimate("soft", np.array([2.0, -2.0, 0.1]), 1.0, 1.0, 0.5)
        assert np.array_equal(out, np.array([1.5, -1.5, 0.0]))


class TestLasso:
    def test_zero_penalty_recovers_least_squares(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((8, 4))
        data = est.RegressionData(X, rng.standard_normal(8))
        ls, _ = est.least_squares(data)
        sol = est.lasso(data, est.LassoConfig.per_component(np.zeros(4)), 1.0)
        assert np.max(np.abs(sol - ls)) <= 1e-11

    @pytest.mark.parametrize("solver", [est.lasso, est.adaptive_lasso])
    def test_zero_penalty_is_least_squares_on_an_ill_conditioned_design(self, solver):
        # cond(X) = 2.5e7: a full-support solve through the Gram inverse loses
        # digits as cond(X)^2, one relative to the least-squares fit loses none
        X = est.make_design(est.DesignSpec("II", 8, 4, c=-0.24999999))
        for rep in range(20):
            Y = X @ np.array([1.0, 0.5, 0.0, -1.0]) + mc.replication_noise(9, rep, 8)
            data = est.RegressionData(X, Y)
            ls, _ = est.least_squares(data)
            assert np.array_equal(solver(data, est.LassoConfig.constant(0.0), 1.0), ls)

    def test_produces_exact_zeros(self):
        rng = np.random.default_rng(6)
        X = random_diagonal_design(rng, 11, 4)
        data = est.RegressionData(X, 0.01 * rng.standard_normal(11))
        sol = est.lasso(data, est.LassoConfig.constant(5.0), 1.0)
        assert np.all(sol == 0.0)

    def test_against_proximal_gradient_oracle(self):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((8, 4))
        Y = rng.standard_normal(8)
        data = est.RegressionData(X, Y)
        _, s2 = est.least_squares(data)
        sig = math.sqrt(s2)
        etap = rng.uniform(0.1, 0.5, 4)
        sol = est.lasso(data, est.LassoConfig.per_component(etap), sig)

        # ISTA on the same objective, run to stagnation
        L = 2.0 * np.linalg.eigvalsh(X.T @ X).max()
        t = np.zeros(4)
        for _ in range(100_000):
            g = -2.0 * X.T @ (Y - X @ t)
            z = t - g / L
            t_new = np.sign(z) * np.maximum(np.abs(z) - 2.0 * 8.0 * sig * etap / L, 0.0)
            if np.max(np.abs(t_new - t)) < 1e-15:
                t = t_new
                break
            t = t_new
        assert np.max(np.abs(sol - t)) <= 1e-8

    def test_objective_optimality_random_probes(self):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((8, 4))
        Y = rng.standard_normal(8)
        data = est.RegressionData(X, Y)
        _, s2 = est.least_squares(data)
        sig = math.sqrt(s2)
        etap = rng.uniform(0.1, 0.5, 4)
        sol = est.lasso(data, est.LassoConfig.per_component(etap), sig)

        def objective(T):
            R = Y[None, :] - T @ X.T
            return np.einsum("ij,ij->i", R, R) + 2.0 * 8.0 * sig * (np.abs(T) @ etap)

        probes = sol[None, :] + rng.normal(scale=0.3, size=(100_000, 4))
        assert objective(sol[None, :])[0] <= np.min(objective(probes)) + 1e-12

    @pytest.mark.parametrize("config, sigma_hat", [
        (est.LassoConfig.constant(-0.4), 1.0),
        (est.LassoConfig.constant(math.nan), 1.0),
        (est.LassoConfig.constant(math.inf), 1.0),
        (est.LassoConfig.eta_xi_inverse(-0.4), 1.0),
        (est.LassoConfig.per_component([0.4, 0.4, -0.1, 0.4]), 1.0),
        (est.LassoConfig.constant(0.4), math.nan),
        (est.LassoConfig.constant(0.4), math.inf),
        (est.LassoConfig.constant(0.4), 0.0),
    ], ids=["negative", "nan", "inf", "negative-rule", "negative-component",
            "nan-sigma", "inf-sigma", "zero-sigma"])
    def test_bad_inputs_rejected(self, config, sigma_hat):
        rng = np.random.default_rng(9)
        data = est.RegressionData(rng.standard_normal((8, 4)), rng.standard_normal(8))
        for solver in (est.lasso, est.adaptive_lasso):
            with pytest.raises(ValueError):
                solver(data, config, sigma_hat)

    def test_levels_read_the_data_design(self, monkeypatch):
        # the penalty levels come from the RegressionData's own factorization,
        # so solving factors X no second time
        rng = np.random.default_rng(5)
        data = est.RegressionData(rng.standard_normal((8, 4)), rng.standard_normal(8))
        calls = []
        svd = np.linalg.svd

        def counted(*args, **kwargs):
            calls.append(args)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        est.lasso(data, est.LassoConfig.eta_xi_inverse(0.5), 1.0)
        assert calls == []


class TestAdaptiveLasso:
    def test_reduction_to_reweighted_lasso(self):
        rng = np.random.default_rng(11)
        X = rng.standard_normal((8, 4))
        data = est.RegressionData(X, rng.standard_normal(8))
        ls, s2 = est.least_squares(data)
        sig = math.sqrt(s2)
        etap = rng.uniform(0.1, 0.5, 4)
        sol = est.adaptive_lasso(data, est.LassoConfig.per_component(etap), sig)
        folded = est.lasso(
            data, est.LassoConfig.per_component(sig * etap ** 2 / np.abs(ls)), sig)
        assert np.max(np.abs(sol - folded)) <= 1e-8

    def test_zero_penalty_recovers_least_squares(self):
        rng = np.random.default_rng(12)
        X = rng.standard_normal((8, 4))
        data = est.RegressionData(X, rng.standard_normal(8))
        ls, _ = est.least_squares(data)
        sol = est.adaptive_lasso(data, est.LassoConfig.per_component(np.zeros(4)), 1.0)
        assert np.max(np.abs(sol - ls)) <= 1e-11

    def test_zero_ls_component_rejected(self):
        X = np.vstack([np.eye(2), np.zeros((1, 2))])
        Y = np.array([1.0, 0.0, 0.0])  # second LS component exactly zero
        data = est.RegressionData(X, Y)
        with pytest.raises(ValueError):
            est.adaptive_lasso(data, est.LassoConfig.constant(0.5), 1.0)


def lasso_thresholds(X, ls, sig, cfg, adaptive):
    """Per-row thresholds t of the KKT conditions |X'Y - X'X theta| <= t."""
    eta_prime = cfg.penalties(X)
    if adaptive:
        return len(X) * sig[:, None] ** 2 * eta_prime ** 2 / np.abs(ls)
    return np.broadcast_to(len(X) * sig[:, None] * eta_prime, ls.shape)


# k = 100 at 4 residual dof, where a solve keeps the digits that an explicit
# inverse of each support's Gram block loses
LARGE_K = [est.DesignSpec("II", 104, 100, c=0.5), est.DesignSpec("II", 104, 100, c=2.0)]


class TestBatchedSolver:
    """The homotopy solves every row exactly and on its own."""

    @staticmethod
    def problem(rows, design=est.DesignSpec("II", 8, 4, c=2.0)):
        """Least-squares fits and sigma_hat of responses around theta: at
        k = 4, ``rows`` rows around (3, 1.5, 0, 0); at larger k, 20 rows
        around theta evenly spaced in [-0.2, 0.2]."""
        rng = np.random.default_rng(16)
        X = est.make_design(design)
        if design.k == 4:
            theta = np.array([3.0, 1.5, 0.0, 0.0])
        else:
            theta, rows = np.linspace(-0.2, 0.2, design.k), 20
        Y = X @ theta + rng.standard_normal((rows, design.n))
        ls = np.array([est.least_squares(est.RegressionData(X, y))[0] for y in Y])
        return X, Y, ls, rng.uniform(0.5, 1.5, rows)

    @staticmethod
    def config(design, adaptive):
        """eta / xi at eta = 0.7 for k = 4; at larger k, run_study's rules
        eta / xi (lasso) and eta (adaptive lasso) at eta = 0.05."""
        if design.k == 4:
            return est.LassoConfig.eta_xi_inverse(0.7)
        return est.LassoConfig.constant(0.05) if adaptive else est.LassoConfig.eta_xi_inverse(0.05)

    @pytest.mark.parametrize("adaptive", [False, True])
    def test_rows_independent_of_batch_size(self, adaptive):
        for design in (est.DesignSpec("I", 8, 4, rho=0.5), *LARGE_K):
            X, Y, ls, sig = self.problem(1000, design)
            cfg = self.config(design, adaptive)
            alone = [est._lasso_rows(est._Design(X), ls[r:r + 1], sig[r:r + 1],
                                     cfg.penalties(X), adaptive)
                     for r in range(len(ls))]
            for m in (1, 2, 3, 17, len(ls)):
                theta = est._lasso_rows(est._Design(X), ls[:m], sig[:m], cfg.penalties(X),
                                        adaptive)
                for r in range(m):
                    assert np.array_equal(theta[r], alone[r][0]), (design, m, r)

    def test_public_solvers_are_a_batch_of_one(self):
        X, Y, ls, sig = self.problem(5)
        cfg = est.LassoConfig.constant(0.4)
        for solver, adaptive in ((est.lasso, False), (est.adaptive_lasso, True)):
            theta = est._lasso_rows(est._Design(X), ls, sig, cfg.penalties(X), adaptive)
            for r in range(5):
                alone = solver(est.RegressionData(X, Y[r]), cfg, sig[r])
                assert np.array_equal(alone, theta[r])

    @pytest.mark.parametrize("adaptive", [False, True])
    @pytest.mark.parametrize("design", [est.DesignSpec("II", 8, 4, c=2.0),
                                        est.DesignSpec("I", 8, 4, rho=0.9), *LARGE_K])
    def test_kkt_conditions(self, design, adaptive):
        X, Y, ls, sig = self.problem(1000, design)
        cfg = self.config(design, adaptive)
        theta = est._lasso_rows(est._Design(X), ls, sig, cfg.penalties(X), adaptive)
        t = lasso_thresholds(X, ls, sig, cfg, adaptive)
        xty = Y @ X
        grad = xty - theta @ (X.T @ X)
        bound = 1e-12 * np.abs(xty).max()
        support = theta != 0.0
        assert support.any() and not support.all()
        assert np.all(np.abs(grad - t * np.sign(theta))[support] <= bound)
        assert np.all((np.abs(grad) - t)[~support] <= bound)

    @pytest.mark.parametrize("adaptive", [False, True])
    @pytest.mark.parametrize("design", [est.DesignSpec("II", 8, 4, c=2.0),
                                        est.DesignSpec("I", 8, 4, rho=0.9)])
    def test_against_pattern_enumeration(self, design, adaptive):
        # brute force: of all 3^4 (support, sign) patterns, each row keeps the
        # one whose KKT solution violates its conditions least
        X, Y, ls, sig = self.problem(1000, design)
        cfg = est.LassoConfig.eta_xi_inverse(0.7)
        t = lasso_thresholds(X, ls, sig, cfg, adaptive)
        gram, xty = X.T @ X, Y @ X
        best, worst = np.zeros_like(xty), np.full(len(Y), np.inf)
        for pattern in itertools.product((-1.0, 0.0, 1.0), repeat=4):
            s = np.array(pattern)
            on = s != 0.0
            cand = np.zeros_like(xty)
            if on.any():
                cand[:, on] = np.linalg.solve(gram[np.ix_(on, on)],
                                              (xty[:, on] - t[:, on] * s[on]).T).T
            grad = xty - cand @ gram
            violation = np.maximum(np.max(-s * cand, axis=1, where=on, initial=0.0),
                                   np.max(np.abs(grad) - t, axis=1, where=~on, initial=0.0))
            better = violation < worst
            best[better], worst[better] = cand[better], violation[better]
        theta = est._lasso_rows(est._Design(X), ls, sig, cfg.penalties(X), adaptive)
        assert np.array_equal(theta == 0.0, best == 0.0)
        assert np.max(np.abs(theta - best)) <= 1e-12

    def test_exact_zeros_stay_exact(self):
        X, Y, ls, sig = self.problem(200)
        Y[1::2] = 0.0  # least squares 0 is already the lasso solution
        ls[1::2] = 0.0
        theta = est._lasso_rows(est._Design(X), ls, sig,
                                est.LassoConfig.eta_xi_inverse(0.7).penalties(X), False)
        assert np.all(theta[1::2] == 0.0)
        zeros = theta == 0.0
        assert zeros[::2].any() and not zeros[::2].all()
        assert not np.any(np.signbit(theta[zeros]))


class TestMatrixIo:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(15)
        X = rng.standard_normal((5, 3))
        path = tmp_path / "mat.txt"
        est.write_matrix(path, X)
        back = est.read_matrix(path)
        assert np.array_equal(back, X)
