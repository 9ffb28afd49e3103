"""Data-level estimators and the two benchmark design generators.

All five shrinkage estimators produce exact floating-point zeros by
construction (through max(., 0), an indicator, or the support of the exact
lasso homotopy), never by rounding, so a zero coefficient can be detected by
comparison with 0.0.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

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
    """The lasso homotopy visited more (support, sign) patterns than exist:
    rounding made its path cycle."""


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
        for name in ("n", "k"):
            if not isinstance(getattr(self, name), numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
            object.__setattr__(self, name, int(getattr(self, name)))
        if not (self.n >= 1 and 1 <= self.k <= self.n):
            raise ValueError(f"need 1 <= k <= n, got n={self.n}, k={self.k}")
        if self.variant == "I":
            if self.rho is None or not -1.0 < self.rho < 1.0:
                raise ValueError(f"variant I needs rho in (-1, 1), got {self.rho!r}")
            if self.n % self.k != 0:
                raise ValueError(f"variant I needs k | n, got n={self.n}, k={self.k}")
        else:
            if self.c is None or not -1.0 / self.k < self.c < math.inf:
                raise ValueError(f"variant II needs a finite c > -1/k = {-1.0 / self.k}, "
                                 f"got {self.c!r}")


def make_design(spec: DesignSpec) -> np.ndarray:
    """Realize the design matrix.

    Variant I stacks n/k copies of sqrt(k) * L where L L' is the Cholesky
    factorization of the Toeplitz correlation rho^{|i-j|}, so that
    X'X = n * Omega(rho).  Variant II puts I_k + c * ones on the first k
    rows and zeros below.
    """
    n, k = spec.n, spec.k
    if spec.variant == "I":
        i = np.arange(k)
        omega = (spec.rho ** i)[np.abs(i[:, None] - i)]
        # upper factor R with R'R = Omega, so that X'X = n * Omega exactly
        R = np.linalg.cholesky(omega).T
        return np.tile(math.sqrt(k) * R, (n // k, 1))
    X = np.zeros((n, k))
    X[:k, :] = np.eye(k) + spec.c * np.ones((k, k))
    return X


class _Design:
    """A design X (n x k, finite, full column rank), factored once by a thin
    SVD X = U diag(s) V'.

    This is the one check of a design: every reader of X (``RegressionData``,
    ``xi_values``, ``psi_values`` and ``LassoConfig.penalties``) builds or
    reuses a ``_Design``, which refuses a non-2-D, column-less, non-finite,
    wide (so also zero-row) or rank-deficient X.

    The SVD gives the rank test, the condition number (s_1 / s_k)^2 of X'X,
    and the pseudo-inverse V diag(1/s) U' by numpy's ``pinv`` steps, which a
    fit applies so that it loses digits as cond(X), not cond(X)^2.

    xi keeps its Gram-inverse formula, whose bits the benchmark's own
    ``perfbench/checks.xi_of`` reproduces and compares by equality (an SVD xi
    moves their last bit).  It is computed only on request, so a design whose
    X'X is too ill-conditioned to invert can still be fitted."""

    def __init__(self, X):
        X = np.asarray(X, dtype=float)
        if X.ndim != 2:
            raise ValueError(f"design X must be 2-D, got shape {X.shape}")
        if X.shape[1] == 0:
            raise ValueError(f"design X must have at least one column, got shape {X.shape}")
        if not np.isfinite(X).all():
            raise ValueError("design X must be finite")
        n, k = X.shape
        if n < k:
            raise SingularDesignError(f"design has n = {n} rows, fewer than its k = {k} columns")
        u, s, vt = np.linalg.svd(X, full_matrices=False)
        if s[-1] <= RANK_RTOL * s[0]:
            raise SingularDesignError(
                f"design is numerically rank deficient (sv ratio {s[-1] / s[0]:.2e})")
        self.X = X
        self.condition_number = float((s[0] / s[-1]) ** 2)
        self.gram = X.T @ X
        self.pinv = vt.T @ ((1.0 / s)[:, None] * u.T)

    def xi(self) -> np.ndarray:
        """xi_i = sqrt of the i-th diagonal entry of (X'X/n)^{-1}.

        Raises :class:`SingularDesignError` where the Gram inverse cannot give
        xi: X'X is singular in floating point, or its inverse has a diagonal
        entry that is not finite and positive."""
        try:
            diag = np.diag(np.linalg.inv(self.gram / self.X.shape[0]))
        except np.linalg.LinAlgError:
            diag = np.array([np.nan])
        if not np.all((diag > 0.0) & (diag < np.inf)):  # NaN too
            raise SingularDesignError(f"xi is not computable: X'X, with condition number "
                                      f"{self.condition_number:.3g}, cannot be inverted")
        return np.sqrt(diag)

    def psi(self) -> np.ndarray:
        """psi_i = sqrt of the i-th diagonal entry of X'X/n."""
        return np.sqrt(np.einsum("ij,ij->j", self.X, self.X) / self.X.shape[0])


@dataclass(frozen=True)
class RegressionData:
    """Observed design X (n x k, full column rank) and response Y."""

    X: np.ndarray
    Y: np.ndarray

    def __post_init__(self):
        design = _Design(self.X)
        Y = np.asarray(self.Y, dtype=float).ravel()
        if design.X.shape[0] != Y.shape[0]:
            raise ValueError(f"shape mismatch: X {design.X.shape}, Y {Y.shape}")
        if not np.isfinite(Y).all():
            raise ValueError("response Y must be finite")
        object.__setattr__(self, "X", design.X)
        object.__setattr__(self, "Y", Y)
        object.__setattr__(self, "_design", design)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def k(self) -> int:
        return self.X.shape[1]


def xi_values(X: np.ndarray) -> np.ndarray:
    """xi_i = sqrt of the i-th diagonal entry of (X'X/n)^{-1}.

    Raises :class:`SingularDesignError` for a rank-deficient X, and for an X
    whose X'X is too ill-conditioned for its inverse to give xi."""
    return _Design(X).xi()


def psi_values(X: np.ndarray) -> np.ndarray:
    """psi_i = sqrt of the i-th diagonal entry of X'X/n.

    psi is read only as a lasso penalty level, so X gets the solvers' check
    of :class:`_Design`: a rank-deficient X raises
    :class:`SingularDesignError`."""
    return _Design(X).psi()


def _fit_rows(design: _Design, Y: np.ndarray, variance: bool):
    """Least-squares fits pinv(X) y of the response rows y of ``Y`` and, if
    ``variance``, their residual variances ||y - X theta_hat||^2 / (n - k)
    (else None).

    einsum, unlike BLAS, works row by row in a fixed order, so a row's fit
    is the same bits whatever the other rows of ``Y``.  The fitted values
    contract with a contiguous X', whose long rows einsum runs fastest."""
    X = design.X
    theta_hat = np.einsum("rn,kn->rk", Y, design.pinv)
    if not variance:
        return theta_hat, None
    # fitted values, turned into residuals in place
    resid = np.einsum("rk,kn->rn", theta_hat, np.ascontiguousarray(X.T))
    np.subtract(Y, resid, out=resid)
    return theta_hat, np.einsum("rn,rn->r", resid, resid) / (X.shape[0] - X.shape[1])


def least_squares(data: RegressionData) -> tuple[np.ndarray, float | None]:
    """Least-squares coefficients pinv(X) Y and the residual variance estimate.

    The fit applies the SVD pseudo-inverse of X, so it loses digits as
    cond(X), not cond(X)^2.  It is :func:`simulate.run_study`'s fit of one
    replication, bit for bit.  The variance estimate ||Y - X theta_hat||^2 /
    (n - k) is None when n == k.
    """
    theta_hat, var = _fit_rows(data._design, data.Y[None, :], data.n > data.k)
    return theta_hat[0], None if var is None else float(var[0])


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
    if not np.all(t >= 0):  # NaN too: hard thresholding would delete every coordinate
        raise ValueError("threshold must be nonnegative, not NaN")
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
    """Penalty rule.

    The rule fixes the per-component penalty levels eta'_i:

    - ``per_component``:   eta'_i given directly as a vector;
    - ``eta_xi_inverse``:  eta'_i = eta / xi_i  (scale equivariant);
    - ``eta_psi``:         eta'_i = eta * psi_i (scale equivariant);
    - ``constant``:        eta'_i = eta' for all i.

    Every level must be finite and nonnegative.
    """

    rule: str
    value: float | np.ndarray

    _RULES = ("per_component", "eta_xi_inverse", "eta_psi", "constant")

    def __post_init__(self):
        if self.rule not in self._RULES:
            raise ValueError(f"rule must be one of {self._RULES}, got {self.rule!r}")

    @classmethod
    def per_component(cls, values) -> "LassoConfig":
        return cls("per_component", np.asarray(values, dtype=float))

    @classmethod
    def eta_xi_inverse(cls, eta: float) -> "LassoConfig":
        return cls("eta_xi_inverse", float(eta))

    @classmethod
    def eta_psi(cls, eta: float) -> "LassoConfig":
        return cls("eta_psi", float(eta))

    @classmethod
    def constant(cls, eta_prime: float) -> "LassoConfig":
        return cls("constant", float(eta_prime))

    def penalties(self, X: np.ndarray) -> np.ndarray:
        """The levels eta'_i of this rule on the design X, which gets the one
        design check of :class:`_Design`, as in the solvers."""
        return self._levels(_Design(X))

    def _levels(self, design: _Design) -> np.ndarray:
        k = design.X.shape[1]
        if self.rule == "per_component":
            vec = np.asarray(self.value, dtype=float)
            if vec.shape != (k,):
                raise ValueError(f"need {k} per-component penalties, got shape {vec.shape}")
        elif self.rule == "eta_xi_inverse":
            vec = self.value / design.xi()
        elif self.rule == "eta_psi":
            vec = self.value * design.psi()
        else:
            vec = np.full(k, float(self.value))
        if not np.all(np.isfinite(vec) & (vec >= 0)):
            raise ValueError(f"penalties must be finite and nonnegative, got {vec!r}")
        return vec


def _lasso_rows(design: _Design, theta_ls: np.ndarray, sigma_hat: np.ndarray,
                eta_prime: np.ndarray, adaptive: bool) -> np.ndarray:
    """Lasso (adaptive lasso if ``adaptive``) of each response Y on X, exactly,
    by the homotopy of Osborne, Presnell and Turlach (2000) from the
    least-squares fits ``theta_ls``, one row per response.

    The homotopy takes the k penalty levels ``eta_prime`` themselves, not a
    rule: its caller takes them once per design (``LassoConfig._levels``), so
    X is checked once, by the ``_Design`` in hand.

    With G = X'X, ||Y - X theta||^2 = (theta - theta_ls)' G (theta - theta_ls)
    + RSS, so a row's lasso depends on Y only through theta_ls.  With
    thresholds t, the path runs in a penalty scale tau from 0 to 1 with
    thresholds tau * t.  At tau = 0 the solution is ``theta_ls``, so every
    nonzero coordinate starts active with its sign.  On a support A with
    signs s the solution is theta_A = u_A - tau * v_A, solved relative to the
    fit: with B the complement of A, u = theta_ls - d for d_B = theta_ls_B and
    d_A = -G_AA^{-1} G_AB theta_ls_B, and G_AA v_A = t_A * s_A.  The gradient
    X'Y - G theta off A is then p + tau * q, with p = G d and q = G v.  On the
    full support d = 0, so zero penalties return least squares exactly.
    A row's next event is the smallest tau at which an active coordinate
    reaches 0 (it leaves) or an inactive |gradient| reaches tau * t (it joins
    with the sign of q).  A crossing counts only in the direction the
    coordinate moves, so rounding cannot make a coordinate rejoin just after
    it left.  The row finishes at tau = 1 with theta_A = u - v and exact zeros
    off A.

    Each pass makes one stacked solve: every open row's k x k system is G_AA
    on its support A and the identity off it, solved for d and v at once.
    A solve is backward stable, where multiplying by an explicit inverse is
    not.  numpy factors each row's system on its own, and G is applied by
    einsum contractions in a fixed order, so a row's result does not depend
    on the batch.  The exact path visits each of the 3^k (support, sign)
    patterns at most once, so a row still open after 3^k passes is caught in
    a rounding cycle and raises :class:`NonConvergenceError`."""
    bad = ~(np.isfinite(sigma_hat) & (sigma_hat > 0))
    if bad.any():
        raise ValueError(f"sigma_hat must be finite and positive, got {sigma_hat[bad][0]!r}")
    n, k = design.X.shape
    sigma_hat = sigma_hat[:, None]
    if adaptive:
        if np.any(np.abs(theta_ls) <= np.finfo(float).tiny):
            raise ValueError("adaptive penalty weights are undefined: a least-squares "
                             "component is zero")
        t = n * sigma_hat ** 2 * eta_prime ** 2 / np.abs(theta_ls)
    else:
        t = np.broadcast_to(n * sigma_hat * eta_prime, theta_ls.shape)
    gram = design.gram
    sign = np.sign(theta_ls)
    tau = np.zeros(len(theta_ls))
    rows = np.arange(len(theta_ls))
    out = np.empty_like(theta_ls)
    eye = np.eye(k)
    for _ in range(3 ** k):
        active = sign != 0.0
        # each row's system, G_AA on its support A and the identity off it,
        # solved for (G off) masked to A, which gives d, and for t * s, which
        # gives v; on the full support off = 0, so d = 0 exactly
        system = np.where(active[:, :, None] & active[:, None, :], gram, eye)
        off = np.where(active, 0.0, theta_ls)
        rhs = np.stack([np.where(active, np.einsum("ij,rj->ri", gram, off), 0.0), t * sign], 2)
        solved = np.linalg.solve(system, rhs)
        d = off - solved[:, :, 0]
        u = theta_ls - d
        v = solved[:, :, 1]
        p = np.einsum("ij,rj->ri", gram, d)
        q = np.einsum("ij,rj->ri", gram, v)
        with np.errstate(divide="ignore", invalid="ignore"):
            event = np.where(active & (sign * v > 0), u / v,
                             np.where(~active & (q > t), p / (t - q),
                                      np.where(~active & (q < -t), -p / (t + q), np.inf)))
        event = np.maximum(event, tau[:, None])
        j = np.argmin(event, axis=1)
        r = np.arange(len(rows))
        tau = event[r, j]
        done = tau >= 1.0
        out[rows[done]] = np.where(active, u - v, 0.0)[done]
        sign[r, j] = np.where(active[r, j], 0.0, np.sign(q[r, j]))
        keep = ~done
        if not keep.any():
            return out
        rows, tau, sign, theta_ls, t = rows[keep], tau[keep], sign[keep], theta_ls[keep], t[keep]
    raise NonConvergenceError(
        f"lasso homotopy: {rows.size} rows still open after all 3^{k} (support, sign) "
        "patterns; rounding made their paths cycle")


def _solve_one(data: RegressionData, config: LassoConfig, sigma_hat: float, adaptive: bool):
    theta_ls, _ = least_squares(data)
    return _lasso_rows(data._design, theta_ls[None, :], np.array([float(sigma_hat)]),
                       config._levels(data._design), adaptive)[0]


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
