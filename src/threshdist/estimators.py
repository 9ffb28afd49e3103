"""Data-level estimators and the two benchmark design generators.

All five shrinkage estimators produce exact floating-point zeros by
construction (through max(., 0) or an indicator), never by rounding, so a
zero coefficient can be detected by comparison with 0.0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import linalg

from .distributions import HARD, SOFT, _check_kind

__all__ = [
    "SingularDesignError",
    "NonConvergenceError",
    "DesignSpec",
    "RegressionData",
    "LassoConfig",
    "make_design",
    "xi_values",
    "psi_values",
    "least_squares",
    "threshold_estimate",
    "lasso",
    "adaptive_lasso",
    "read_matrix",
    "write_matrix",
]

#: relative singular-value cutoff below which a design counts as rank-deficient
RANK_RTOL = 1e-10


class SingularDesignError(ValueError):
    """Design matrix is (numerically) rank deficient."""


class NonConvergenceError(RuntimeError):
    """Coordinate descent ran out of sweeps."""

    def __init__(self, message: str, iterate: np.ndarray, max_change: float):
        super().__init__(message)
        self.iterate = iterate
        self.max_change = max_change


@dataclass(frozen=True)
class DesignSpec:
    """Benchmark design: variant "I" (block Toeplitz correlation) or
    variant "II" (equicorrelated rows over an identity block)."""

    variant: str
    n: int
    k: int
    rho: float | None = None
    c: float | None = None

    def __post_init__(self):
        if self.variant not in ("I", "II"):
            raise ValueError(f"variant must be 'I' or 'II', got {self.variant!r}")
        if not (self.n >= 1 and 1 <= self.k <= self.n):
            raise ValueError(f"need 1 <= k <= n, got n={self.n}, k={self.k}")
        if self.variant == "I":
            if self.rho is None or not -1.0 < self.rho < 1.0:
                raise ValueError(f"variant I needs rho in (-1, 1), got {self.rho!r}")
            if self.n % self.k != 0:
                raise ValueError(f"variant I needs k | n, got n={self.n}, k={self.k}")
        else:
            if self.c is None or not self.c > -1.0 / self.k:
                raise ValueError(f"variant II needs c > -1/k = {-1.0 / self.k}, got {self.c!r}")


def make_design(spec: DesignSpec) -> np.ndarray:
    """Realize the design matrix.

    Variant I stacks n/k copies of sqrt(k) * L where L L' is the Cholesky
    factorization of the Toeplitz correlation rho^{|i-j|}, so that
    X'X = n * Omega(rho).  Variant II puts I_k + c * ones on the first k
    rows and zeros below.
    """
    n, k = spec.n, spec.k
    if spec.variant == "I":
        omega = linalg.toeplitz(spec.rho ** np.arange(k))
        # upper factor R with R'R = Omega, so that X'X = n * Omega exactly
        R = np.linalg.cholesky(omega).T
        return np.tile(math.sqrt(k) * R, (n // k, 1))
    X = np.zeros((n, k))
    X[:k, :] = np.eye(k) + spec.c * np.ones((k, k))
    return X


def _check_full_rank(X: np.ndarray) -> None:
    sv = np.linalg.svd(X, compute_uv=False)
    if sv[-1] <= RANK_RTOL * sv[0]:
        raise SingularDesignError(
            f"design is numerically rank deficient (sv ratio {sv[-1] / sv[0]:.2e})")


@dataclass(frozen=True)
class RegressionData:
    """Observed design X (n x k, full column rank) and response Y."""

    X: np.ndarray
    Y: np.ndarray

    def __post_init__(self):
        X = np.asarray(self.X, dtype=float)
        Y = np.asarray(self.Y, dtype=float).ravel()
        if X.ndim != 2 or X.shape[0] != Y.shape[0]:
            raise ValueError(f"shape mismatch: X {X.shape}, Y {Y.shape}")
        if X.shape[0] < X.shape[1]:
            raise ValueError("need n >= k")
        _check_full_rank(X)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "Y", Y)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def k(self) -> int:
        return self.X.shape[1]


def xi_values(X: np.ndarray) -> np.ndarray:
    """xi_i = sqrt of the i-th diagonal entry of (X'X/n)^{-1}."""
    X = np.asarray(X, dtype=float)
    _check_full_rank(X)
    n = X.shape[0]
    gram_inv = np.linalg.inv(X.T @ X / n)
    return np.sqrt(np.diag(gram_inv))


def psi_values(X: np.ndarray) -> np.ndarray:
    """psi_i = sqrt of the i-th diagonal entry of X'X/n."""
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    return np.sqrt(np.einsum("ij,ij->j", X, X) / n)


def least_squares(data: RegressionData) -> tuple[np.ndarray, float | None]:
    """Least-squares coefficients and the residual variance estimate.

    The variance estimate ||Y - X theta_hat||^2 / (n - k) is None when
    n == k.
    """
    theta_hat, *_ = np.linalg.lstsq(data.X, data.Y, rcond=None)
    if data.n == data.k:
        return theta_hat, None
    resid = data.Y - data.X @ theta_hat
    return theta_hat, float(resid @ resid) / (data.n - data.k)


def threshold_estimate(kind: str, ls, scale, xi, eta):
    """Apply one of the three thresholding rules at threshold scale*xi*eta.

    ``ls`` may be a scalar or an array; thresholds broadcast against it.
    hard keeps or zeroes, soft shrinks by the threshold, adaptive soft
    shrinks multiplicatively by (1 - threshold^2/ls^2)_+.
    """
    _check_kind(kind)
    ls = np.asarray(ls, dtype=float)
    t = np.broadcast_to(np.asarray(scale, dtype=float) * np.asarray(xi, dtype=float)
                        * np.asarray(eta, dtype=float), ls.shape)
    if np.any(t < 0):
        raise ValueError("threshold must be nonnegative")
    keep = np.abs(ls) > t
    if kind == HARD:
        out = np.where(keep, ls, 0.0)
    elif kind == SOFT:
        out = np.sign(ls) * np.maximum(np.abs(ls) - t, 0.0)
    else:
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            shrunk = ls - np.where(keep, t * t / np.where(ls == 0.0, 1.0, ls), 0.0)
        out = np.where(keep, shrunk, 0.0)
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class LassoConfig:
    """Penalty rule plus coordinate-descent controls.

    The rule fixes the per-component penalty levels eta'_i:

    - ``per_component``:   eta'_i given directly as a vector;
    - ``eta_xi_inverse``:  eta'_i = eta / xi_i  (scale equivariant);
    - ``eta_psi``:         eta'_i = eta * psi_i (scale equivariant);
    - ``constant``:        eta'_i = eta' for all i.
    """

    rule: str
    value: float | np.ndarray
    tol: float = 1e-12
    max_sweeps: int = 100_000

    _RULES = ("per_component", "eta_xi_inverse", "eta_psi", "constant")

    def __post_init__(self):
        if self.rule not in self._RULES:
            raise ValueError(f"rule must be one of {self._RULES}, got {self.rule!r}")
        if self.tol <= 0 or self.max_sweeps < 1:
            raise ValueError("tol must be positive and max_sweeps >= 1")

    @classmethod
    def per_component(cls, values, **kw) -> "LassoConfig":
        return cls("per_component", np.asarray(values, dtype=float), **kw)

    @classmethod
    def eta_xi_inverse(cls, eta: float, **kw) -> "LassoConfig":
        return cls("eta_xi_inverse", float(eta), **kw)

    @classmethod
    def eta_psi(cls, eta: float, **kw) -> "LassoConfig":
        return cls("eta_psi", float(eta), **kw)

    @classmethod
    def constant(cls, eta_prime: float, **kw) -> "LassoConfig":
        return cls("constant", float(eta_prime), **kw)

    def penalties(self, X: np.ndarray) -> np.ndarray:
        k = X.shape[1]
        if self.rule == "per_component":
            vec = np.asarray(self.value, dtype=float)
            if vec.shape != (k,):
                raise ValueError(f"need {k} per-component penalties, got shape {vec.shape}")
            return vec
        if self.rule == "eta_xi_inverse":
            return self.value / xi_values(X)
        if self.rule == "eta_psi":
            return self.value * psi_values(X)
        return np.full(k, float(self.value))


def _lasso_rows(X: np.ndarray, Y: np.ndarray, theta_ls: np.ndarray, sigma_hat: np.ndarray,
                config: LassoConfig, adaptive: bool):
    """Lasso (adaptive lasso if ``adaptive``) of each row of ``Y`` on X from the
    least-squares fits ``theta_ls``, by cyclic coordinate descent in the
    covariance form of Friedman, Hastie and Tibshirani (2010), elementwise in a
    fixed order so that a row's result does not depend on the batch.  Returns
    the solutions and each row's last largest change in a sweep; a row stops
    once that is within ``config.tol``, so a row above it ran out of sweeps.

    Cyclic descent usually finds the support within a few sweeps but converges
    only linearly on correlated designs.  So after sweeps 1, 2, 4, 8, ...
    (unless it was the last) every unconverged row also tries an exact
    active-set step (:func:`_active_set_step`): the solution of the KKT
    system on its current support and signs.  The step is kept only where
    the KKT conditions hold, and the row then goes on sweeping; the next
    sweep leaves a kept step in place up to rounding and freezes the row by
    the usual ``change <= tol`` test, so every result is still the output of
    a coordinate-descent sweep, and a row whose steps are all refused takes
    the plain descent path."""
    if np.any(sigma_hat <= 0):
        raise ValueError(f"sigma_hat must be positive, got {np.min(sigma_hat)!r}")
    n, k = X.shape
    eta_prime = config.penalties(X)
    sigma_hat = sigma_hat[:, None]
    if adaptive:
        if np.any(np.abs(theta_ls) <= np.finfo(float).tiny):
            raise ValueError("adaptive penalty weights are undefined: a least-squares "
                             "component is zero")
        thresholds = n * sigma_hat ** 2 * eta_prime ** 2 / np.abs(theta_ls)
    else:
        thresholds = n * sigma_hat * eta_prime
    gram = X.T @ X
    g = gram.tolist()
    # coordinate-major: one contiguous vector per coordinate; einsum rather
    # than BLAS keeps each row's X'Y independent of the batch
    theta, t = theta_ls.T.copy(), thresholds.T.copy()
    xty = np.einsum("rn,nk->rk", Y, X).T.copy()
    out, last = np.empty_like(theta), np.empty(theta.shape[1])
    rows = np.arange(theta.shape[1])
    for sweep in range(1, config.max_sweeps + 1):
        old = theta.copy()
        for i in range(k):
            z = xty[i] - sum(g[i][j] * theta[j] for j in range(k) if j != i)
            # soft threshold: z - clip(z, -t, t) is exactly z - t, z + t or 0.0
            theta[i] = (z - np.minimum(np.maximum(z, -t[i]), t[i])) / g[i][i]
        change = np.abs(theta - old).max(axis=0)
        done = change <= config.tol
        if done.any():  # freeze converged rows, go on with the rest
            out[:, rows[done]], last[rows[done]] = theta[:, done], change[done]
            keep = ~done
            rows, theta, xty, t, change = (rows[keep], theta[:, keep], xty[:, keep],
                                           t[:, keep], change[keep])
            if not rows.size:
                break
        if sweep & (sweep - 1) == 0 and sweep < config.max_sweeps:
            _active_set_step(gram, xty, t, theta)
    out[:, rows], last[rows] = theta, change
    return out.T, last


def _active_set_step(gram: np.ndarray, xty: np.ndarray, t: np.ndarray,
                     theta: np.ndarray) -> None:
    """Replace, in place, each column of the coordinate-major ``theta`` by the
    lasso solution on its support A and signs, where that is one.

    The candidate solves G_AA theta_A = X'Y_A - t_A * sign(theta_A) and is zero
    off A (identity rows stand in for the inactive coordinates, so one
    stacked solve covers every row).  It is kept only if its signs on A
    match and the gradient g = X'Y - G theta satisfies |g_j| <= t_j off A:
    then it satisfies the KKT conditions.  LAPACK solves each row's system
    on its own and the gradient uses the sweep's elementwise sums in its
    order, so a row's step does not depend on the batch."""
    k = theta.shape[0]
    g = gram.tolist()
    active = theta != 0.0
    sign = np.sign(theta)
    a = np.where(active[:, None, :] & active[None, :, :], gram[:, :, None], 0.0)
    diag = np.arange(k)
    a[diag, diag] += ~active
    rhs = np.where(active, xty - t * sign, 0.0)
    cand = np.linalg.solve(a.transpose(2, 0, 1), rhs.T[:, :, None])[:, :, 0].T
    cand = np.where(active, cand, 0.0)
    grad = np.array([xty[i] - sum(g[i][j] * cand[j] for j in range(k)) for i in range(k)])
    ok = np.where(active, np.sign(cand) == sign, np.abs(grad) <= t).all(axis=0)
    theta[:, ok] = cand[:, ok]


def _solve_one(data: RegressionData, config: LassoConfig, sigma_hat: float, adaptive: bool):
    theta_ls, _ = least_squares(data)
    theta, change = _lasso_rows(data.X, data.Y[None, :], theta_ls[None, :],
                                np.array([float(sigma_hat)]), config, adaptive)
    if change[0] > config.tol:
        raise NonConvergenceError(
            f"coordinate descent did not converge within {config.max_sweeps} sweeps "
            f"(last max coordinate change {change[0]:.3e})",
            iterate=theta[0], max_change=float(change[0]))
    return theta[0]


def lasso(data: RegressionData, config: LassoConfig, sigma_hat: float) -> np.ndarray:
    """Minimizer of (Y-X theta)'(Y-X theta) + 2*n*sigma_hat*sum eta'_i |theta_i|.

    Under diagonal X'X the i-th component equals the soft-thresholding
    closed form sign(ls_i) * (|ls_i| - sigma_hat * eta'_i * xi_i^2)_+.
    """
    return _solve_one(data, config, sigma_hat, adaptive=False)


def adaptive_lasso(data: RegressionData, config: LassoConfig, sigma_hat: float) -> np.ndarray:
    """Minimizer of (Y-X theta)'(Y-X theta)
    + 2*n*sigma_hat^2*sum (eta'_i)^2 |theta_i| / |ls_i|.

    Requires every least-squares component to be nonzero.  Under diagonal
    X'X the i-th component equals ls_i * (1 - sigma_hat^2 eta'_i^2 xi_i^2 / ls_i^2)_+.
    """
    return _solve_one(data, config, sigma_hat, adaptive=True)


def write_matrix(path, X) -> None:
    """Plain columnar text: one row per line, whitespace separated."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    with open(path, "w", encoding="utf-8") as fh:
        for row in X:
            fh.write(" ".join(repr(float(v)) for v in row) + "\n")


def read_matrix(path) -> np.ndarray:
    """Inverse of :func:`write_matrix`."""
    return np.loadtxt(path, ndmin=2)
