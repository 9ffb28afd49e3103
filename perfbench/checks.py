"""Independent correctness checks of the package's outputs.

Each check takes plain outputs (arrays, parsed rows, file contents) and
returns a list of failure messages, empty when the output is correct.  The
expected values come from :mod:`reference` or from the benchmark's own
regeneration of the Monte Carlo inputs, never from the package.

Tolerances:

* ``CLOSED`` (1e-12) where both sides are closed forms in floating point;
* ``SINGLE`` (1e-10) for one smoothing integral of the package, its stated
  absolute tolerance; ``DOUBLE`` (2e-10) for a difference of two;
* ``SAMPLED`` (1e-9) at sampled points of the smoothed laws, compared with a
  chi expectation the benchmark computes itself.  Next to the atom at one
  residual degree of freedom the package's adaptive-soft density misses its
  1e-10 contract by up to 6.4e-10; a probe operation of ``exact_laws``
  counts that fault, and this wider tolerance keeps the sampled check
  about the law itself (a law moved by 1e-6 still fails it).
"""

from __future__ import annotations

import math

import numpy as np

import reference as ref

CLOSED = 1e-12
SINGLE = 1e-10
DOUBLE = 2e-10
SAMPLED = 1e-9
#: false-alarm probability of each statistical check
ALPHA = 1e-6
#: binomial standard errors allowed between a zero share and its probability
ZERO_SE = 5.0
#: tolerance on the coordinate-descent optimality conditions
KKT_TOL = 1e-8


def compare(label: str, got, want, tol: float) -> list[str]:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    err = np.abs(got - want)
    if got.shape != want.shape or not np.all(err <= tol):
        i = int(np.nanargmax(np.where(np.isnan(err), np.inf, err))) if err.size else 0
        return [f"{label}: |diff| {float(err.flat[i]) if err.size else math.nan:.3e} "
                f"> {tol:.0e} (got {float(got.flat[i]) if got.size else math.nan!r}, "
                f"want {float(want.flat[i]) if want.size else math.nan!r})"]
    return []


def deletion_reference(shift: float, b: float, dof: int | None) -> float:
    return ref.known_deletion(shift, b) if dof is None else ref.nct_deletion(dof, shift, b)


def check_deletions(label: str, probs, shifts, b_values, dof: int | None,
                    calibrated=None) -> list[str]:
    """Deletion probabilities against norm / nctdtr; ``calibrated`` marks the
    entries that must equal 0.95 (known variance, theta = 0, default eta)."""
    want = [deletion_reference(s, b, dof) for s, b in zip(shifts, b_values)]
    out = compare(f"{label} deletion probability", probs, want,
                  CLOSED if dof is None else DOUBLE)
    if calibrated is not None:
        at_zero = np.asarray(probs, dtype=float)[np.asarray(calibrated, dtype=bool)]
        out += compare(f"{label} 0.95 calibration", at_zero, np.full(at_zero.shape, 0.95),
                       CLOSED)
    return out


def check_law_grid(label: str, kind: str, dof: int | None, x, cdf, density,
                   shift: float, b: float, atom_weight: float | None,
                   atom_location: float | None, sampled) -> list[str]:
    """One law evaluated on a grid in standardized units (v = x).

    ``sampled`` indexes the points at which smoothed values are recomputed
    as chi expectations; closed-form values are compared everywhere.
    """
    x, cdf = np.asarray(x, dtype=float), np.asarray(cdf, dtype=float)
    # the grid point on the atom belongs to the upper branch (w = 0), which
    # rounding in x + shift could otherwise miss
    v = np.where(x == atom_location, -shift, x) if atom_location is not None else x
    out = []
    if np.any((cdf < 0.0) | (cdf > 1.0)):
        out.append(f"{label}: cdf leaves [0, 1]")
    order = np.argsort(x, kind="stable")
    if np.any(np.diff(cdf[order]) < -SINGLE):
        out.append(f"{label}: cdf decreases by {-np.min(np.diff(cdf[order])):.3e}")
    if dof is None:
        out += compare(f"{label} cdf", cdf, ref.known_cdf(kind, v, shift, b), CLOSED)
        if density is not None:
            out += compare(f"{label} density", density, ref.known_density(kind, v, shift, b),
                           CLOSED)
    else:
        if kind == "soft":
            out += compare(f"{label} cdf", cdf, ref.nct_soft_cdf(dof, v, b, shift), SINGLE)
        else:
            want = [ref.smoothed_cdf(kind, dof, float(v[i]), shift, b) for i in sampled]
            out += compare(f"{label} sampled cdf", cdf[sampled], want, SAMPLED)
        if density is not None:
            density = np.asarray(density, dtype=float)
            want = [ref.smoothed_density(kind, dof, float(v[i]), shift, b) for i in sampled]
            out += compare(f"{label} sampled density", density[sampled], want,
                           CLOSED if kind == "hard" else SAMPLED)
    if atom_weight is not None:
        out += check_deletions(label, [atom_weight], [shift], [b], dof)
        out += compare(f"{label} atom location", [atom_location], [-shift],
                       CLOSED * max(1.0, abs(shift)))
        out += check_atom_jump(label, x, cdf, atom_location, atom_weight)
    return out


def check_atom_jump(label: str, x, cdf, atom: float, weight: float) -> list[str]:
    """The cdf rises by the atom weight across the atom (grid holds atom - off)."""
    x = np.asarray(x, dtype=float)
    at = np.flatnonzero(x == atom)
    below = np.flatnonzero(x < atom)
    if at.size == 0 or below.size == 0:
        return [f"{label}: grid misses the atom or its left neighbour"]
    left = below[np.argmax(x[below])]
    gap = atom - x[left]
    if gap > 1e-8 * max(1.0, abs(atom)):
        return [f"{label}: left neighbour of the atom is {gap:.1e} away"]
    jump = cdf[at[0]] - cdf[left]
    # the continuous part adds at most gap * (density <= 1) across the gap
    return compare(f"{label} jump at the atom", [jump], [weight], gap + DOUBLE)


def check_tv_trend(label: str, values) -> list[str]:
    """Total-variation distances in [0, 2], strictly falling as the dof grow."""
    v = np.asarray(values, dtype=float)
    out = []
    if np.any((v < 0.0) | (v > 2.0)):
        out.append(f"{label}: tv outside [0, 2]: {v.tolist()}")
    if not np.all(np.diff(v) < 0.0):
        out.append(f"{label}: tv not falling with the dof: {v.tolist()}")
    return out


# --- Monte Carlo ----------------------------------------------------------

def replication_noise(seed: int, rep: int, n: int) -> np.ndarray:
    """Replication ``rep`` of run ``seed``, regenerated from its Philox key."""
    gen = np.random.Generator(np.random.Philox(key=np.array([seed, rep], dtype=np.uint64)))
    return gen.standard_normal(n)


def threshold(kind: str, ls: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The three thresholding rules, elementwise."""
    keep = np.abs(ls) > t
    if kind == "hard":
        return np.where(keep, ls, 0.0)
    if kind == "soft":
        return np.where(keep, ls - np.sign(ls) * t, 0.0)
    safe = np.where(keep, ls, 1.0)
    return np.where(keep, ls - t * t / safe, 0.0)


def xi_of(X: np.ndarray) -> np.ndarray:
    n = X.shape[0]
    return np.sqrt(np.diag(np.linalg.inv(X.T @ X / n)))


def regenerate(X, theta, sigma, seed, reps):
    """Responses, least squares and sigma-hat for the listed replications."""
    n, k = X.shape
    Y = np.array([X @ theta + sigma * replication_noise(seed, r, n) for r in reps])
    ls = np.array([np.linalg.lstsq(X, y, rcond=None)[0] for y in Y])
    resid = Y - ls @ X.T
    sigma_hat = np.sqrt(np.sum(resid * resid, axis=1) / (n - k))
    return Y, ls, sigma_hat


def estimates_from_scaled(scaled, theta, xi, n, sigma):
    """Invert the package's scaling sqrt(n) (estimate - theta) / (sigma xi)."""
    return theta[None, :] + scaled * (sigma * xi[None, :] / math.sqrt(n))


def check_threshold_replications(label, kind, feasible, X, theta, sigma, eta, seed,
                                 reps, scaled) -> list[str]:
    """Recompute the estimates of ``reps`` and compare zeros and values."""
    n = X.shape[0]
    xi = xi_of(X)
    _, ls, sigma_hat = regenerate(X, theta, sigma, seed, reps)
    scale = sigma_hat if feasible else np.full(len(reps), sigma)
    want = threshold(kind, ls, scale[:, None] * xi[None, :] * eta)
    got = estimates_from_scaled(np.asarray(scaled)[list(reps)], theta, xi, n, sigma)
    got_zero = np.abs(got) <= 1e-13
    out = []
    if not np.array_equal(got_zero, want == 0.0):
        out.append(f"{label}: zero pattern differs in "
                   f"{int(np.sum(got_zero != (want == 0.0)))} entries")
    return out + compare(f"{label} estimates", np.where(got_zero, 0.0, got), want, CLOSED)


def check_zero_shares(label, zero_share, probs, reps) -> list[str]:
    """Empirical zero shares within ZERO_SE binomial errors of the probabilities."""
    out = []
    for i, (z, p) in enumerate(zip(zero_share, probs)):
        se = math.sqrt(max(p * (1.0 - p), 0.25 / reps) / reps)
        if abs(z - p) > ZERO_SE * se + 1.0 / reps:
            out.append(f"{label} comp {i + 1}: zero share {z:.5f} vs deletion "
                       f"probability {p:.5f} (> {ZERO_SE:g} se = {ZERO_SE * se:.5f})")
    return out


def dkw_bound(reps: int) -> float:
    """Dvoretzky-Kiefer-Wolfowitz radius at false-alarm probability ALPHA."""
    return math.sqrt(math.log(2.0 / ALPHA) / (2.0 * reps))


def ks_distance(samples, atom: float, weight: float, law) -> float:
    """Sup distance between the sample's cdf and ``law`` (a vectorized cdf
    with an atom of ``weight`` at ``atom``), both sides of each jump, over
    sample quantiles and the atom's neighbourhood."""
    s = np.sort(np.asarray(samples, dtype=float))
    off = 1e-9 * max(1.0, abs(atom))
    grid = np.unique(np.concatenate([np.quantile(s, np.linspace(0.0, 1.0, 61)),
                                     [atom - off, atom, atom + off]]))
    right = np.searchsorted(s, grid, side="right") / s.size
    left = np.searchsorted(s, grid, side="left") / s.size
    ana = np.asarray(law(grid), dtype=float)
    ana_left = ana - weight * (grid == atom)
    return float(max(np.max(np.abs(right - ana)), np.max(np.abs(left - ana_left))))


# --- lasso ------------------------------------------------------------------

def kkt_violation(X, Y, estimate, thresholds) -> float:
    """Largest violation of the optimality conditions of
    0.5 ||Y - X theta||^2 + sum_i t_i |theta_i|, relative to max(1, t_i)."""
    grad = X.T @ (Y - X @ estimate)
    active = estimate != 0.0
    viol = np.where(active, np.abs(grad - thresholds * np.sign(estimate)),
                    np.maximum(np.abs(grad) - thresholds, 0.0))
    return float(np.max(viol / np.maximum(1.0, thresholds)))


def lasso_thresholds(estimator, X, ls, sigma_hat, eta):
    """Per-coordinate thresholds of the panel's penalty, for one replication.

    lasso: 2 n sigmahat sum (eta/xi_i) |theta_i|; adaptive lasso:
    2 n sigmahat^2 sum eta^2 |theta_i| / |ls_i| (halved for the 0.5 scaling).
    """
    n = X.shape[0]
    if estimator == "lasso":
        return n * sigma_hat * eta / xi_of(X)
    return n * sigma_hat ** 2 * eta ** 2 / np.abs(ls)


def check_kkt(label, estimator, X, theta, sigma, eta, seed, reps, scaled) -> list[str]:
    """Optimality of the solver's solutions on regenerated replications."""
    n = X.shape[0]
    xi = xi_of(X)
    Y, ls, sigma_hat = regenerate(X, theta, sigma, seed, reps)
    est = estimates_from_scaled(np.asarray(scaled)[list(reps)], theta, xi, n, sigma)
    est = np.where(np.abs(est) <= 1e-13, 0.0, est)
    worst = max(kkt_violation(X, Y[j], est[j], lasso_thresholds(estimator, X, ls[j],
                                                                 sigma_hat[j], eta))
                for j in range(len(reps)))
    if worst > KKT_TOL:
        return [f"{label}: optimality conditions violated by {worst:.3e} > {KKT_TOL:.0e}"]
    return []


def check_histogram(label, heights, width, zero_share) -> list[str]:
    """Histogram mass plus the zero share is one."""
    total = float(np.sum(heights)) * width + zero_share
    return compare(f"{label} histogram mass + zero share", [total], [1.0], CLOSED)


def check_design(label, X, gram) -> list[str]:
    """X'X/n equals the design's stated correlation structure."""
    n = X.shape[0]
    return compare(f"{label} X'X/n", X.T @ X / n, gram, CLOSED)


def design_gram(variant: str, n: int, k: int, rho=None, c=None) -> np.ndarray:
    """X'X/n of the two benchmark designs, from their definitions."""
    if variant == "I":
        idx = np.arange(k)
        return rho ** np.abs(idx[:, None] - idx[None, :])
    block = np.eye(k) + c * np.ones((k, k))
    return block.T @ block / n

