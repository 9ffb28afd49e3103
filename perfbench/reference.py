"""Independent reference laws for the six thresholding variants.

Everything here is derived from the model and built only from
``scipy.stats.norm``, ``scipy.special.nctdtr`` and ``scipy.stats.chi``; no
code of the package under test is used.  Laws are written in standardized
units: with ``Z ~ N(0, 1)`` the least-squares coordinate is
``W = Z + shift`` (``shift = sqrt(n) theta / (sigma xi)``), the threshold is
``b = sqrt(n) eta`` (times ``S = sigmahat / sigma`` when the variance is
estimated), and the evaluation point ``x`` of the package's scaled law maps
to ``v = sqrt(n) x / (alpha xi)``, so that ``w = v + shift`` is the
thresholded value.  Densities are per unit of ``v``.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special, stats

_norm = stats.norm
_NODES, _WEIGHTS = special.roots_legendre(40)
_HALF_NODES, _HALF_WEIGHTS = special.roots_legendre(20)
#: panels of the composite rule over the truncated chi support
_PANELS = 96
#: allowed disagreement between the 40- and 20-point rules
_RULE_TOL = 1e-12


class UnresolvedIntegral(RuntimeError):
    """The reference quadrature did not reach its own tolerance."""


def adaptive_roots(w, b):
    """Roots r- <= r+ of r - b^2/r = w (the adaptive-soft branch points)."""
    w = np.asarray(w, dtype=float)
    half = np.sqrt(0.25 * w * w + b * b)
    return 0.5 * w - half, 0.5 * w + half


def known_cdf(kind: str, v, shift: float, b: float):
    """Cdf at v of the scaled estimate with known variance."""
    v = np.asarray(v, dtype=float)
    w = v + shift
    if kind == "hard":
        above = np.maximum(_norm.cdf(v), _norm.cdf(b - shift))
        below = _norm.cdf(np.minimum(v, -shift - b))
    elif kind == "soft":
        above, below = _norm.cdf(v + b), _norm.cdf(v - b)
    else:
        lo, hi = adaptive_roots(w, b)
        above, below = _norm.cdf(hi - shift), _norm.cdf(lo - shift)
    return np.where(w >= 0.0, above, below)


def known_density(kind: str, v, shift: float, b: float):
    """Density (per unit v) of the continuous part, known variance."""
    v = np.asarray(v, dtype=float)
    w = v + shift
    if kind == "hard":
        out = np.where(np.abs(w) > b, _norm.pdf(v), 0.0)
    elif kind == "soft":
        out = np.where(w > 0.0, _norm.pdf(v + b), _norm.pdf(v - b))
    else:
        lo, hi = adaptive_roots(w, b)
        with np.errstate(invalid="ignore", divide="ignore"):
            t = np.where(b > 0.0, w / np.sqrt(w * w + 4.0 * b * b), np.sign(w))
        out = np.where(w > 0.0, 0.5 * _norm.pdf(hi - shift) * (1.0 + t),
                       0.5 * _norm.pdf(lo - shift) * (1.0 - t))
    return np.where(w == 0.0, 0.0, out)


def known_deletion(shift: float, b: float) -> float:
    return float(_norm.cdf(b - shift) - _norm.cdf(-b - shift))


def nct_cdf(m: int, c, t):
    """Non-central t cdf by ``scipy.special.nctdtr``.

    nctdtr returns NaN in part of its domain (for instance m = 4, c = 10,
    t = -1.96); there the mirror identity T_{m,c}(t) = 1 - T_{m,-c}(-t)
    gives the value to absolute precision.
    """
    direct = special.nctdtr(m, c, t)
    return np.where(np.isnan(direct), 1.0 - special.nctdtr(m, -np.asarray(c), -np.asarray(t)),
                    direct)


def nct_deletion(m: int, shift: float, b: float) -> float:
    """Deletion probability with estimated variance at m residual dof."""
    return float(nct_cdf(m, shift, b) - nct_cdf(m, shift, -b))


def nct_soft_cdf(m: int, v, b: float, shift: float):
    """Soft-thresholding cdf with estimated variance, in closed form."""
    v = np.asarray(v, dtype=float)
    return np.where(v + shift >= 0.0, nct_cdf(m, -v, b), nct_cdf(m, -v, -b))


def chi_expectation(m: int, g, breaks=()) -> float:
    """E[g(S)] for S = chi_m / sqrt(m), g vectorized.

    Composite Gauss-Legendre over the central 1 - 2e-15 of the mass, with
    panel edges at ``breaks`` (points where g has a kink) and geometrically
    shrinking panels next to the lower end, where ``g(s)`` may vary on the
    scale of ``b * s``; the 20-point rule on the same panels must agree with
    the 40-point rule to 1e-12.
    """
    dist = stats.chi(m, scale=1.0 / math.sqrt(m))
    lo, hi = float(dist.ppf(1e-15)), float(dist.isf(1e-15))
    width = (hi - lo) / _PANELS
    edges = np.concatenate([np.linspace(lo, hi, _PANELS + 1),
                            lo + width * np.logspace(-14, -1, 14)])
    inner = [p for p in breaks if lo < p < hi]
    edges = np.unique(np.concatenate([edges, inner]))
    mid = 0.5 * (edges[1:] + edges[:-1])[:, None]
    half = 0.5 * (edges[1:] - edges[:-1])[:, None]

    def rule(nodes, weights):
        s = mid + half * nodes[None, :]
        return float(np.sum(half * weights[None, :] * g(s) * dist.pdf(s)))

    fine, coarse = rule(_NODES, _WEIGHTS), rule(_HALF_NODES, _HALF_WEIGHTS)
    if abs(fine - coarse) > _RULE_TOL:
        raise UnresolvedIntegral(f"chi expectation unresolved at m={m}: "
                             f"rules differ by {abs(fine - coarse):.2e}")
    return fine


def smoothed_cdf(kind: str, m: int, v: float, shift: float, b: float) -> float:
    """Cdf at one point with estimated variance, as a chi expectation."""
    if kind == "soft":
        return float(nct_soft_cdf(m, v, b, shift))
    w = v + shift
    breaks = (abs(w) / b,) if kind == "hard" and b > 0.0 else ()
    return chi_expectation(m, lambda s: known_cdf(kind, v, shift, b * s), breaks)


def smoothed_density(kind: str, m: int, v: float, shift: float, b: float) -> float:
    """Density (per unit v) at one point with estimated variance."""
    if kind == "hard":
        # the kept region |w| > b*S has probability Pr(S < |w|/b)
        w = v + shift
        return float(_norm.pdf(v) * stats.chi.cdf(abs(w) / b * math.sqrt(m), m))
    return chi_expectation(m, lambda s: known_density(kind, v, shift, b * s))
