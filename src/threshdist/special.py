"""Normal, chi and rho routines plus weighted quadrature.

Extended reals are represented by plain floats: ``math.inf`` and
``-math.inf`` are legal wherever a limit convention exists, with
``normal_cdf(inf) = 1`` and ``normal_cdf(-inf) = 0``.

``rho_density(m, s)`` is the density of ``sqrt(chi2_m / m)``, the law of a
residual standard-deviation estimate divided by the true standard deviation
at ``m`` residual degrees of freedom.  Every smoothing integral in this
package is an expectation against this density.  :func:`rho_average`
evaluates one for a whole array of points at once by
:func:`integrate_panels`, which runs a pair of Gauss-Legendre rules on every
panel and bisects the panels where the two disagree until they agree.  The
same function computes ``limits.tv_distance``, so every law the package
computes comes from one engine.  :func:`integrate_rho` (adaptive QUADPACK)
is the independent oracle of the checks only.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, Iterable

import numpy as np
from scipy import special

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
    "integrate_rho",
    "integrate_panels",
    "rho_average",
]

DEFAULT_TOL = 1e-10
#: total rho-mass allowed outside the truncated integration interval
SUPPORT_TAIL_MASS = 1e-14

# The composite rule of :func:`rho_average`.  BASE_PANELS equal panels of
# width w span the truncated support.  Each breakpoint c comes with the width
# h of its feature, such as the rise or the bump of width 1/b next to c in the
# hard and soft laws at threshold b, or the turn of the adaptive-soft law next
# to its atom, whose width is c itself; the edges c +- h * LADDER_RATIO**j,
# j = 0, 1, ... while h * LADDER_RATIO**j < w, resolve it and grade outward
# from it to the scale of the base panels.
BASE_PANELS = 6
LADDER_RATIO = 5.0
#: Gauss-Legendre nodes per panel; each panel is checked against twice as many
RULE_NODES = 10
#: (panel x node) elements evaluated at once, which bounds the temporaries
BLOCK_ELEMENTS = 1 << 13
#: times a panel that misses its share of the tolerance may be bisected
MAX_BISECTIONS = 40
#: residual dof from which :func:`_log_rho` sums log1p(d) - d by its series
#: and :func:`rho_average` places its nodes in d = s - 1
SERIES_DOF = 1 << 20
#: the largest residual dof of the rho routines: up to it the rho mass is
#: within 1e-13 of 1, and laws first fail to integrate past 1e24
MAX_DOF = 10 ** 18


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
    if m > MAX_DOF:
        shown = m if m < 10 ** 30 else f"about 1e{len(str(m)) - 1}"
        raise ValueError(f"degrees of freedom must be at most {MAX_DOF:.0e}, got {shown}")
    return int(m)


def normal_cdf(x):
    """Standard normal cdf; accepts +-inf and arrays."""
    out = special.ndtr(x)
    return out if out.ndim else float(out)


def normal_pdf(x):
    """Standard normal density (2*pi)**-0.5 * exp(-x**2/2)."""
    if not isinstance(x, float):
        x = np.asarray(x, dtype=float)
    with np.errstate(over="ignore"):  # x * x overflows to inf, and exp(-inf) = 0 is right
        out = np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    return out if np.ndim(out) else float(out)


def normal_quantile(p):
    """Inverse of :func:`normal_cdf` on (0, 1)."""
    p_arr = np.asarray(p, dtype=float)
    if np.any(p_arr <= 0.0) or np.any(p_arr >= 1.0):
        raise ValueError(f"quantile argument must lie strictly in (0, 1), got {p!r}")
    out = special.ndtri(p_arr)
    return out if out.ndim else float(out)


def _log_rho(m: int, d):
    """log rho_m(1 + d) for d > -1, written about s = 1: with a = m/2,
    it is K + (m - 1)(log1p(d) - d) - d - a d^2, where
    K = log 2 + a log a - a - lgamma(a).  Where rho_m has its mass, d is of
    order m^-1/2 and every term but K is O(1), so the rounding does not grow
    with m, as it does in logc + (m - 1) log s - a s^2, whose terms are O(m).

    From SERIES_DOF on, log1p(d) - d, whose absolute rounding of about
    eps |d| the factor m - 1 would multiply, is summed instead as
    -u d + 2 (u^3/3 + u^5/5 + u^7/7 + u^9/9) with u = d / (2 + d), to a
    relative error of about eps: wherever exp(log rho_m) does not underflow,
    |u| < 0.014, so the next term is about 2e-18 of the sum."""
    if m < SERIES_DOF:
        g = np.log1p(d) - d
    else:
        u = d / (2.0 + d)
        v = u * u
        g = 2.0 * u * v * (1 / 3 + v * (1 / 5 + v * (1 / 7 + v / 9))) - u * d
    return _rho_rule(m)[0] + (m - 1.0) * g - d - 0.5 * m * d * d


@lru_cache(maxsize=64)
def _rho_rule(m: int) -> tuple[float, np.ndarray]:
    """The constants of the rho_m rule, computed once per m: K of
    :func:`_log_rho` and the read-only edges of the BASE_PANELS equal panels
    on the truncated support."""
    a = 0.5 * m
    if a < 50.0:
        k = math.log(2.0) + a * math.log(a) - a - math.lgamma(a)
    else:
        # Stirling's series for lgamma; the next term is below 1e-15
        k = 0.5 * math.log(m / math.pi) - (1 / 12 - (1 / 360 - 1 / (1260 * a * a)) / (a * a)) / a
    base = np.linspace(*rho_support(m), BASE_PANELS + 1)
    base.flags.writeable = False
    return k, base


def rho_density(m, s):
    """Density of sqrt(chi2_m/m): 2*m*s*g_m(m*s**2) for s > 0, else 0."""
    m = _check_dof(m)
    s = np.asarray(s, dtype=float)
    out = np.where(s > 0, np.exp(_log_rho(m, np.where(s > 0, s, 1.0) - 1.0)), 0.0)
    return out if out.ndim else float(out)


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


def rho_support(m: int) -> tuple[float, float]:
    """Interval carrying all but SUPPORT_TAIL_MASS of the rho_m mass on each side."""
    return rho_quantile(m, SUPPORT_TAIL_MASS), rho_quantile(m, 1.0 - SUPPORT_TAIL_MASS)


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
    pts = sorted(float(b) for b in breakpoints or () if lo < b < hi)

    def integrand(s: float) -> float:
        return f(s) * math.exp(_log_rho(m, s - 1.0))

    # imported on first use: scipy.integrate also loads scipy.optimize, and
    # only the checks' oracles need it
    from scipy import integrate
    value, abserr = integrate.quad(integrand, lo, hi, epsabs=0.5 * tol, epsrel=1e-12,
                                   limit=300, points=pts or None, full_output=1)[:2]
    # a roundoff warning with an in-tolerance error estimate is acceptable
    if abserr > tol:
        raise QuadratureError(
            f"rho-weighted quadrature failed (m={m}, achieved error {abserr:.3e} > {tol:.3e})",
            estimate=value, error=abserr)
    return value


@lru_cache(maxsize=None)
def _paired_rule(nodes: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes on [0, 1] of the Gauss-Legendre rules with ``nodes`` and
    2 * ``nodes`` points, side by side, and the weights of each; read-only."""
    # numpy's rules, not scipy's, which would load scipy.linalg
    from numpy.polynomial.legendre import leggauss
    (t1, w1), (t2, w2) = leggauss(nodes), leggauss(2 * nodes)
    rule = (0.5 * (np.concatenate([t1, t2]) + 1.0), 0.5 * w1, 0.5 * w2)
    for a in rule:
        a.flags.writeable = False
    return rule


def integrate_panels(f: Callable, edges: np.ndarray, tol: float) -> np.ndarray:
    """The integral of f(i, s) over row i of ``edges``, for every row i, each
    to absolute tolerance ``tol``.

    Row i of the 2-d ``edges`` holds the sorted edges of its panels; an empty
    panel, between two equal edges, is skipped.  Every other panel is
    integrated by the Gauss-Legendre rules with RULE_NODES and
    2 * RULE_NODES nodes.  A panel is kept, with the second rule's value,
    where the two agree to ``tol`` times its share of its row's span; every
    other panel is bisected, up to MAX_BISECTIONS times and while the open
    panels number at most BLOCK_ELEMENTS // (3 * RULE_NODES) per row.  Past
    either cap, the open panels raise :class:`QuadratureError`, whose
    ``error`` is the worst gap between the two rules scaled from its panel to
    the whole row, which exceeds ``tol``.

    ``f`` is called with the row of each panel in ``i``, of shape (p,), and
    the nodes of both rules on that panel in the same row of ``s``, of shape
    (p, 3 * RULE_NODES), and must return values of the shape of ``s``.
    Panels are evaluated in blocks of about BLOCK_ELEMENTS nodes.  A row's
    value does not depend on the other rows.
    """
    t, w1, w2 = _paired_rule(RULE_NODES)
    rows = edges.shape[0]
    # an empty panel would add +0.0, so it is not evaluated
    full = edges[:, :-1] != edges[:, 1:]
    row, left, right = np.nonzero(full)[0], edges[:, :-1][full], edges[:, 1:][full]
    span = edges[:, -1] - edges[:, 0]
    total, chunk = np.zeros(rows), max(1, BLOCK_ELEMENTS // t.size)
    for level in range(MAX_BISECTIONS + 1):
        width = right - left
        sums = np.empty((2, row.size))
        for j in range(0, row.size, chunk):
            part = slice(j, j + chunk)
            s = left[part, None] + width[part, None] * t
            weighted = width[part, None] * f(row[part], s)
            sums[:, part] = ((weighted[:, :RULE_NODES] * w1).sum(axis=1),
                             (weighted[:, RULE_NODES:] * w2).sum(axis=1))
        # the gap between the two rules, scaled from the panel to its whole row
        scaled = np.abs(sums[0] - sums[1]) * span[row]
        ok = scaled <= tol * width
        # bincount adds a row's panels in their order, whatever the other rows
        total += np.bincount(row[ok], sums[1, ok], minlength=rows)
        missed = ok.size - np.count_nonzero(ok)
        if missed == 0:
            return total
        # an integrand the rules never agree on would double the open panels
        # at every level, so their number is capped at one block per row
        if level == MAX_BISECTIONS or missed > rows * chunk:
            break
        mid = 0.5 * (left + right)[~ok]
        left, right = np.stack([left[~ok], mid], 1).ravel(), np.stack([mid, right[~ok]], 1).ravel()
        row = np.repeat(row[~ok], 2)
    worst = float(np.max(scaled[~ok] / width[~ok]))
    raise QuadratureError(f"panel quadrature failed on {missed} panels after {level} bisections "
                          f"(worst gap between the two rules, scaled from a panel to its row, "
                          f"{worst:.3e} > {tol:.3e})", error=worst)


def rho_average(m: int, f: Callable, x, breakpoints, widths) -> np.ndarray:
    """E f(x_i, S), S ~ rho_m, at every point x_i, each to absolute tolerance
    DEFAULT_TOL.

    ``f(x, s)`` must broadcast: it is called with ``x`` of shape (p, 1) and
    ``s`` of shape (p, q).  Row i of ``breakpoints`` lists the points in s
    where ``f(x_i, .)`` jumps or turns sharply, and row i of ``widths``, of
    the same size, the width of each of those features.  Point i gets its
    own panels on the truncated support: BASE_PANELS equal ones of width w,
    plus the edges c and c +- h * LADDER_RATIO**j while
    h * LADDER_RATIO**j < w for each of its breakpoints c of width h.  Edges
    past the support are clipped to it, and the empty panels they leave are
    skipped; a breakpoint at inf adds none.  Those panels are chosen before
    any error estimate; :func:`integrate_panels` then bisects the ones whose
    two rules disagree.
    """
    m = _check_dof(m)
    x = np.asarray(x, dtype=float).ravel()
    if x.size == 0:
        return np.empty(0)
    brk = np.asarray(breakpoints, dtype=float).reshape(x.size, -1)
    h = np.asarray(widths, dtype=float).reshape(brk.shape)
    base = _rho_rule(m)[1]
    w = base[1] - base[0]
    # enough rungs for the narrowest feature; a rung of w or more falls back
    # onto its breakpoint, where it leaves an empty panel
    narrowest = np.min(h, initial=w, where=h > 0.0)
    powers = LADDER_RATIO ** np.arange(
        1 + math.ceil((math.log(w) - math.log(narrowest)) / math.log(LADDER_RATIO)))
    rungs = h[:, :, None] * np.concatenate([-powers, [0.0], powers])
    rungs = np.where(abs(rungs) < w, rungs, 0.0)
    edges = np.concatenate([np.broadcast_to(base, (x.size, base.size)),
                            (brk[:, :, None] + rungs).reshape(x.size, -1)], axis=1)
    edges = np.sort(np.clip(edges, base[0], base[-1]), axis=1)
    if m >= SERIES_DOF:
        # the support is so narrow that a node in s would round by a visible
        # share of it, so the nodes are placed in d = s - 1, where they round
        # relative to d
        return integrate_panels(lambda i, d: f(x[i, None], 1.0 + d) * np.exp(_log_rho(m, d)),
                                edges - 1.0, DEFAULT_TOL)
    return integrate_panels(lambda i, s: f(x[i, None], s) * np.exp(_log_rho(m, s - 1.0)),
                            edges, DEFAULT_TOL)
