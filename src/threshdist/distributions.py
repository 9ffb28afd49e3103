"""Exact finite-sample laws of the six thresholding-estimator variants.

Each estimator (hard, soft, adaptive soft; known or unknown error variance)
has, after centering at the true coefficient and scaling by ``alpha/sigma``,
a mixed distribution: an atom at ``-alpha*theta/sigma`` whose weight is the
variable deletion probability, plus an absolutely continuous part.  The
functions here evaluate those cdfs and densities exactly; every probability
is clamped to [0, 1] after quadrature.

Branch boundaries pair weak and strict inequalities so that every cdf is
right-continuous; at the atom the value belongs to the upper branch.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable

from . import special as sf

__all__ = [
    "KINDS",
    "HARD",
    "SOFT",
    "ADAPTIVE",
    "ComponentSpec",
    "VarianceMode",
    "MixtureDistribution",
    "root_n_over_xi",
    "inverse_xi_eta",
    "deletion_probability",
    "cdf",
    "ac_density",
    "z_bounds",
    "t_factor",
    "as_mixture",
]

HARD = "hard"
SOFT = "soft"
ADAPTIVE = "adaptive"
KINDS = (HARD, SOFT, ADAPTIVE)


def _check_kind(kind: str) -> str:
    if kind not in KINDS:
        raise ValueError(f"estimator kind must be one of {KINDS}, got {kind!r}")
    return kind


def root_n_over_xi(n: int, xi: float) -> float:
    """Scaling preset sqrt(n)/xi (the least-squares rate)."""
    return math.sqrt(n) / xi


def inverse_xi_eta(xi: float, eta: float) -> float:
    """Scaling preset 1/(xi*eta) (the uniform rate under consistent tuning)."""
    return 1.0 / (xi * eta)


@dataclass(frozen=True)
class VarianceMode:
    """Known sigma (``dof is None``) or estimated with ``dof`` residual df."""

    dof: int | None = None

    def __post_init__(self):
        if self.dof is not None and not (isinstance(self.dof, numbers.Integral) and self.dof >= 1):
            raise ValueError(f"unknown-variance mode needs integer dof >= 1, got {self.dof!r}")
        object.__setattr__(self, "dof", None if self.dof is None else int(self.dof))

    @property
    def known(self) -> bool:
        return self.dof is None

    @classmethod
    def known_sigma(cls) -> "VarianceMode":
        return cls(None)

    @classmethod
    def unknown_sigma(cls, dof: int) -> "VarianceMode":
        return cls(dof)


KNOWN = VarianceMode.known_sigma()


@dataclass(frozen=True)
class ComponentSpec:
    """Problem data for one coordinate.

    n      sample size
    xi     sqrt of the i-th diagonal of (X'X/n)^{-1}
    theta  true coefficient
    sigma  error standard deviation
    eta    tuning parameter (threshold is sigma*xi*eta resp. sigmahat*xi*eta)
    alpha  positive scaling factor; defaults to sqrt(n)/xi
    """

    n: int
    xi: float
    theta: float
    sigma: float
    eta: float
    alpha: float | None = None

    def __post_init__(self):
        if not (isinstance(self.n, numbers.Integral) and self.n >= 1):
            raise ValueError(f"n must be a positive integer, got {self.n!r}")
        object.__setattr__(self, "n", int(self.n))
        for name in ("xi", "sigma", "eta"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be a finite positive real, got {v!r}")
        if not math.isfinite(self.theta):
            raise ValueError(f"theta must be finite, got {self.theta!r}")
        if self.alpha is None:
            object.__setattr__(self, "alpha", root_n_over_xi(self.n, self.xi))
        elif not (math.isfinite(self.alpha) and self.alpha > 0):
            raise ValueError(f"alpha must be a finite positive real, got {self.alpha!r}")

    # shorthands used throughout the formulas
    @property
    def root_n(self) -> float:
        return math.sqrt(self.n)

    @property
    def shift(self) -> float:
        """sqrt(n) * theta / (sigma * xi)."""
        return self.root_n * self.theta / (self.sigma * self.xi)

    @property
    def atom_location(self) -> float:
        return -self.alpha * self.theta / self.sigma + 0.0  # avoid -0.0

    def standardized(self, x: float) -> float:
        """sqrt(n) * x / (alpha * xi)."""
        return self.root_n * x / (self.alpha * self.xi)

    def offset(self, x: float) -> float:
        """x / alpha + theta / sigma (sign decides which branch applies)."""
        return x / self.alpha + self.theta / self.sigma


@dataclass(frozen=True)
class MixtureDistribution:
    """Atom plus absolutely continuous part, with evaluators."""

    atom_location: float
    atom_weight: float
    cdf: Callable[[float], float]
    ac_density: Callable[[float], float]


def _clamp(p: float) -> float:
    return min(1.0, max(0.0, p))


def deletion_probability(spec: ComponentSpec, mode: VarianceMode = KNOWN) -> float:
    """Probability that the estimator sets this coordinate exactly to zero.

    Identical for the hard, soft and adaptive soft estimators.
    """
    b = spec.root_n * spec.eta
    if mode.known:
        return _clamp(float(sf.normal_cdf(-spec.shift + b)) - float(sf.normal_cdf(-spec.shift - b)))
    m = mode.dof
    return _clamp(sf.noncentral_t_cdf(m, spec.shift, b) - sf.noncentral_t_cdf(m, spec.shift, -b))


def z_bounds(spec: ComponentSpec, x: float, y: float) -> tuple[float, float]:
    """The two roots bounding the adaptive-soft cdf branches, z1 <= z2."""
    if y < 0:
        raise ValueError(f"y must be nonnegative, got {y!r}")
    center = 0.5 * spec.root_n * (x / spec.alpha - spec.theta / spec.sigma) / spec.xi
    half = spec.root_n * math.hypot(0.5 * spec.offset(x) / spec.xi, y)
    return center - half, center + half


def t_factor(spec: ComponentSpec, x: float, y: float) -> float:
    """Derivative factor of the adaptive-soft density; in [-1, 1]."""
    a = 0.5 * spec.offset(x) / spec.xi
    denom = math.hypot(a, y)
    if denom == 0.0:
        return 0.0
    return a / denom


def cdf(kind: str, mode: VarianceMode, spec: ComponentSpec, x: float) -> float:
    """Cdf of sigma^{-1} * alpha * (estimate - theta) at x (x may be +-inf)."""
    _check_kind(kind)
    x = float(x)
    if math.isnan(x):
        raise ValueError("cdf argument must not be NaN")
    if math.isinf(x):
        return 1.0 if x > 0 else 0.0
    u = spec.offset(x)
    # the atom belongs to the upper branch (right-continuity) even when its
    # offset rounds below zero
    upper = u >= 0.0 or x == spec.atom_location
    v = spec.standardized(x)
    b = spec.root_n * spec.eta
    if mode.known:
        if kind == HARD:
            if abs(u) > spec.xi * spec.eta:
                val = float(sf.normal_cdf(v))
            elif upper:
                val = float(sf.normal_cdf(-spec.shift + b))
            else:
                val = float(sf.normal_cdf(-spec.shift - b))
        elif kind == SOFT:
            val = float(sf.normal_cdf(v + b)) if upper else float(sf.normal_cdf(v - b))
        else:
            z1, z2 = z_bounds(spec, x, spec.eta)
            val = float(sf.normal_cdf(z2)) if upper else float(sf.normal_cdf(z1))
        return _clamp(val)

    m = mode.dof
    if kind == HARD:
        # indicator splits at s = |u|/(xi*eta): below it the estimate is kept
        s_star = abs(u) / (spec.xi * spec.eta)
        val = float(sf.normal_cdf(v)) * sf.rho_cdf(m, s_star)
        sign = 1.0 if upper else -1.0
        val += sf.integrate_rho(
            m,
            lambda s: float(sf.normal_cdf(-spec.shift + sign * s * b)) if s >= s_star else 0.0,
            breakpoints=[s_star])
    elif kind == SOFT:
        c = -v
        val = sf.noncentral_t_cdf(m, c, b) if upper else sf.noncentral_t_cdf(m, c, -b)
    else:
        if upper:
            val = sf.integrate_rho(m, lambda s: float(sf.normal_cdf(z_bounds(spec, x, s * spec.eta)[1])))
        else:
            val = sf.integrate_rho(m, lambda s: float(sf.normal_cdf(z_bounds(spec, x, s * spec.eta)[0])))
    return _clamp(val)


def ac_density(kind: str, mode: VarianceMode, spec: ComponentSpec, x: float) -> float:
    """Density of the absolutely continuous part at finite x."""
    _check_kind(kind)
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"density argument must be finite, got {x!r}")
    u = spec.offset(x)
    v = spec.standardized(x)
    b = spec.root_n * spec.eta
    scale = spec.root_n / (spec.alpha * spec.xi)
    if mode.known:
        if kind == HARD:
            return scale * float(sf.normal_pdf(v)) if abs(u) > spec.xi * spec.eta else 0.0
        if kind == SOFT:
            if u > 0.0:
                return scale * float(sf.normal_pdf(v + b))
            if u < 0.0:
                return scale * float(sf.normal_pdf(v - b))
            return 0.0
        z1, z2 = z_bounds(spec, x, spec.eta)
        t = t_factor(spec, x, spec.eta)
        if u > 0.0:
            return 0.5 * scale * float(sf.normal_pdf(z2)) * (1.0 + t)
        if u < 0.0:
            return 0.5 * scale * float(sf.normal_pdf(z1)) * (1.0 - t)
        return 0.0

    m = mode.dof
    if kind == HARD:
        # the inner indicator integral collapses to the rho cdf at |u|/(xi*eta)
        s_star = abs(u) / (spec.xi * spec.eta)
        return scale * float(sf.normal_pdf(v)) * sf.rho_cdf(m, s_star)
    if kind == SOFT:
        # the integrand is a Gaussian needle in s when b is large; hand its
        # peak to the quadrature as a breakpoint
        if u > 0.0:
            return scale * sf.integrate_rho(m, lambda s: float(sf.normal_pdf(v + s * b)),
                                            breakpoints=[-v / b])
        if u < 0.0:
            return scale * sf.integrate_rho(m, lambda s: float(sf.normal_pdf(v - s * b)),
                                            breakpoints=[v / b])
        return 0.0
    if u > 0.0:
        def upper(s: float) -> float:
            z2 = z_bounds(spec, x, s * spec.eta)[1]
            return float(sf.normal_pdf(z2)) * (1.0 + t_factor(spec, x, s * spec.eta))
        return 0.5 * scale * sf.integrate_rho(m, upper)
    if u < 0.0:
        def lower(s: float) -> float:
            z1 = z_bounds(spec, x, s * spec.eta)[0]
            return float(sf.normal_pdf(z1)) * (1.0 - t_factor(spec, x, s * spec.eta))
        return 0.5 * scale * sf.integrate_rho(m, lower)
    return 0.0


def as_mixture(kind: str, mode: VarianceMode, spec: ComponentSpec) -> MixtureDistribution:
    """Package the law of one variant as an atom-plus-density object."""
    _check_kind(kind)
    return MixtureDistribution(
        atom_location=spec.atom_location,
        atom_weight=deletion_probability(spec, mode),
        cdf=lambda x: cdf(kind, mode, spec, x),
        ac_density=lambda x: ac_density(kind, mode, spec, x),
    )
