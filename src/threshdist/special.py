"""Normal, chi and non-central t routines plus weighted quadrature.

Extended reals are represented by plain floats: ``math.inf`` and
``-math.inf`` are legal wherever a limit convention exists, with
``normal_cdf(inf) = 1``, ``normal_cdf(-inf) = 0`` and the same convention
for the non-central t cdf.

``rho_density(m, s)`` is the density of ``sqrt(chi2_m / m)``, the law of a
residual standard-deviation estimate divided by the true standard deviation
at ``m`` residual degrees of freedom.  Every smoothing integral in this
package is an expectation against this density.  :func:`rho_average`
evaluates one for a whole array of points at once with a composite
Gauss-Legendre rule, checks each point against the rule with twice the
nodes, and sends the points that miss the tolerance to
:func:`integrate_rho` (adaptive QUADPACK), which also serves as the
independent oracle in the checks.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, Iterable, Sequence

import numpy as np
from scipy import integrate, special

__all__ = [
    "QuadratureError",
    "normal_cdf",
    "normal_pdf",
    "normal_quantile",
    "rho_density",
    "chi_square_tail",
    "rho_cdf",
    "rho_quantile",
    "rho_support",
    "noncentral_t_cdf",
    "integrate_rho",
    "rho_average",
]

DEFAULT_TOL = 1e-10
#: total rho-mass allowed outside the truncated integration interval
SUPPORT_TAIL_MASS = 1e-14

# The composite rule of :func:`rho_average`.  BASE_PANELS equal panels of
# width w span the truncated support; around each breakpoint c the edges
# c +- w * GRADING_RATIO**j, j = 1..GRADING_LEVELS, resolve features down to
# about 2e-8 * w, such as the adaptive-soft law at one dof next to its atom.
#: Gauss-Legendre nodes per panel; each point is checked against twice as many
RULE_NODES = 10
BASE_PANELS = 6
GRADING_RATIO = 0.2
GRADING_LEVELS = 11
#: (point x node) elements evaluated at once, which bounds the temporaries
BLOCK_ELEMENTS = 1 << 13


class QuadratureError(RuntimeError):
    """Adaptive quadrature did not reach the requested tolerance."""

    def __init__(self, message: str, estimate: float | None = None,
                 error: float | None = None):
        super().__init__(message)
        self.estimate = estimate
        self.error = error


def _check_dof(m) -> int:
    if not (isinstance(m, (int, np.integer)) and m >= 1):
        raise ValueError(f"degrees of freedom must be a positive integer, got {m!r}")
    return int(m)


def normal_cdf(x):
    """Standard normal cdf; accepts +-inf and arrays."""
    return special.ndtr(x)


def normal_pdf(x):
    """Standard normal density (2*pi)**-0.5 * exp(-x**2/2)."""
    if not isinstance(x, float):
        x = np.asarray(x, dtype=float)
    out = np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    return out if np.ndim(out) else float(out)


def normal_quantile(p):
    """Inverse of :func:`normal_cdf` on (0, 1)."""
    p_arr = np.asarray(p, dtype=float)
    if np.any(p_arr <= 0.0) or np.any(p_arr >= 1.0):
        raise ValueError(f"quantile argument must lie strictly in (0, 1), got {p!r}")
    out = special.ndtri(p_arr)
    return out if out.ndim else float(out)


def _rho_log_const(m: int) -> float:
    # rho_m(s) = exp(logc + log(s) + (m/2 - 1) log(m s^2) - m s^2 / 2)
    return math.log(2.0) + math.log(m) - 0.5 * m * math.log(2.0) - math.lgamma(0.5 * m)


def rho_density(m, s):
    """Density of sqrt(chi2_m/m): 2*m*s*g_m(m*s**2) for s > 0, else 0."""
    m = _check_dof(m)
    s = np.asarray(s, dtype=float)
    out = np.zeros(s.shape if s.ndim else ())
    pos = s > 0
    sp = np.atleast_1d(s)[np.atleast_1d(pos)]
    if sp.size:
        logc = _rho_log_const(m)
        vals = np.exp(logc + np.log(sp) + (0.5 * m - 1.0) * np.log(m * sp * sp)
                      - 0.5 * m * sp * sp)
        if out.ndim:
            out[pos] = vals
        else:
            out = vals[0]
    return out if np.ndim(out) else float(out)


def _rho_scalar(m: int, s: float, logc: float) -> float:
    if s <= 0.0:
        return 0.0
    return math.exp(logc + math.log(s) + (0.5 * m - 1.0) * math.log(m * s * s)
                    - 0.5 * m * s * s)


def chi_square_tail(m, x):
    """Upper tail Pr(chi2_m > x) for x >= 0 (x = inf gives 0)."""
    m = _check_dof(m)
    x_arr = np.asarray(x, dtype=float)
    if np.any(x_arr < 0.0):
        raise ValueError(f"chi-square tail needs x >= 0, got {x!r}")
    out = special.gammaincc(0.5 * m, 0.5 * x_arr)
    return out if out.ndim else float(out)


def rho_cdf(m, t):
    """Pr(sqrt(chi2_m/m) <= t); zero for t <= 0, one at t = inf."""
    m = _check_dof(m)
    t_arr = np.asarray(t, dtype=float)
    out = np.where(t_arr > 0.0,
                   special.gammainc(0.5 * m, 0.5 * m * np.square(np.maximum(t_arr, 0.0))),
                   0.0)
    return out if out.ndim else float(out)


def rho_quantile(m: int, p: float) -> float:
    """Quantile of sqrt(chi2_m/m) at probability p in (0, 1)."""
    m = _check_dof(m)
    if not 0.0 < p < 1.0:
        raise ValueError(f"quantile argument must lie strictly in (0, 1), got {p!r}")
    return math.sqrt(2.0 * special.gammaincinv(0.5 * m, p) / m)


def rho_support(m: int, tail_mass: float = SUPPORT_TAIL_MASS) -> tuple[float, float]:
    """Interval carrying all but ``tail_mass`` of the rho_m mass on each side."""
    return rho_quantile(m, tail_mass), rho_quantile(m, 1.0 - tail_mass)


def integrate_rho(m: int, f: Callable[[float], float], tol: float = DEFAULT_TOL,
                  breakpoints: Iterable[float] | None = None) -> float:
    """Integral of f(s) * rho_m(s) over (0, inf) to absolute tolerance tol.

    The domain is truncated to the interval carrying all but 1e-14 of the
    rho mass per side, so ``f`` must be bounded.  Points where ``f`` jumps
    should be supplied in ``breakpoints`` to keep the panel subdivision
    honest.
    """
    m = _check_dof(m)
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    lo, hi = rho_support(m)
    pts: Sequence[float] | None = None
    if breakpoints is not None:
        pts = sorted(float(b) for b in breakpoints if lo < b < hi)
        if not pts:
            pts = None
    logc = _rho_log_const(m)

    def integrand(s: float) -> float:
        return f(s) * _rho_scalar(m, s, logc)

    res = integrate.quad(integrand, lo, hi, epsabs=0.5 * tol, epsrel=1e-12,
                         limit=300, points=pts, full_output=1)
    value, abserr = res[0], res[1]
    # a roundoff warning with an in-tolerance error estimate is acceptable
    if abserr > tol:
        raise QuadratureError(
            f"rho-weighted quadrature failed (m={m}, achieved error {abserr:.3e} > {tol:.3e})",
            estimate=value, error=abserr)
    return value


def noncentral_t_cdf(m: int, c: float, x: float, tol: float = DEFAULT_TOL) -> float:
    """Cdf of the non-central t with m dof and non-centrality c, at x.

    Evaluated through the smoothing identity
    ``T_{m,c}(x) = integral Phi(x*s - c) rho_m(s) ds``; the conventions
    ``T(+inf) = 1`` and ``T(-inf) = 0`` apply.
    """
    m = _check_dof(m)
    c = float(c)
    if not math.isfinite(c):
        raise ValueError(f"non-centrality must be finite, got {c!r}")
    x = float(x)
    if math.isinf(x):
        return 1.0 if x > 0 else 0.0
    val = integrate_rho(m, lambda s: float(special.ndtr(x * s - c)), tol=tol)
    return min(1.0, max(0.0, val))


@lru_cache(maxsize=None)
def _paired_rule(nodes: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes on [0, 1] of the Gauss-Legendre rules with ``nodes`` and
    2 * ``nodes`` points, side by side, and the weights of each; read-only."""
    t1, w1 = special.roots_legendre(nodes)
    t2, w2 = special.roots_legendre(2 * nodes)
    rule = (0.5 * (np.concatenate([t1, t2]) + 1.0), 0.5 * w1, 0.5 * w2)
    for a in rule:
        a.flags.writeable = False
    return rule


def rho_average(m: int, f: Callable, x, breakpoints) -> np.ndarray:
    """E f(x_i, S), S ~ rho_m, at every point x_i, each to absolute tolerance
    DEFAULT_TOL.

    ``f(x, s)`` must broadcast: it is called with ``x`` of shape (p, 1) and
    ``s`` of shape (p, q), and with two scalars.  Row i of ``breakpoints``
    lists the points in s where ``f(x_i, .)`` jumps or turns sharply; the
    panels of point i are graded geometrically toward each of them from
    both sides.  Each point takes the rule with 2 * RULE_NODES nodes per
    panel; where it differs from the RULE_NODES rule by more than the
    tolerance, the point is recomputed by :func:`integrate_rho` with the
    same breakpoints.  Points are evaluated in blocks of about
    BLOCK_ELEMENTS nodes.
    """
    m = _check_dof(m)
    x = np.asarray(x, dtype=float).ravel()
    if x.size == 0:
        return np.empty(0)
    brk = np.asarray(breakpoints, dtype=float).reshape(x.size, -1)
    lo, hi = rho_support(m)
    base = np.linspace(lo, hi, BASE_PANELS + 1)
    steps = (hi - lo) / BASE_PANELS * GRADING_RATIO ** np.arange(1, GRADING_LEVELS + 1)
    offsets = np.concatenate([-steps[::-1], [0.0], steps])
    t, w1, w2 = _paired_rule(RULE_NODES)
    # log rho_m(s) = logc + (m - 1) log s - m s^2 / 2
    logc = _rho_log_const(m) + (0.5 * m - 1.0) * math.log(m)
    block = max(1, BLOCK_ELEMENTS // ((BASE_PANELS + brk.shape[1] * offsets.size) * t.size))
    coarse, out = np.empty(x.size), np.empty(x.size)
    for start in range(0, x.size, block):
        part = slice(start, start + block)
        rows = x[part].size
        edges = np.concatenate([np.broadcast_to(base, (rows, base.size)),
                                (brk[part, :, None] + offsets).reshape(rows, -1)], axis=1)
        edges = np.sort(np.clip(edges, lo, hi), axis=1)
        width = np.diff(edges, axis=1)[:, :, None]
        s = edges[:, :-1, None] + width * t
        weighted = width * np.exp(logc + (m - 1.0) * np.log(s) - 0.5 * m * s * s)
        weighted *= f(x[part, None], s.reshape(rows, -1)).reshape(s.shape)
        # row by row sums, so that a point's value does not depend on the batch
        coarse[part] = (weighted[:, :, :RULE_NODES] * w1).reshape(rows, -1).sum(axis=1)
        out[part] = (weighted[:, :, RULE_NODES:] * w2).reshape(rows, -1).sum(axis=1)
    for i in np.flatnonzero(~(np.abs(coarse - out) <= DEFAULT_TOL)):
        out[i] = integrate_rho(m, lambda s, xi=x[i]: float(f(xi, s)), breakpoints=brk[i])
    return out
