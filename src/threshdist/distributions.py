"""Exact finite-sample laws of the six thresholding-estimator variants.

Each estimator (hard, soft, adaptive soft; known or unknown error variance)
has, after centering at the true coefficient and scaling by ``alpha/sigma``,
a mixed distribution: an atom at ``-alpha*theta/sigma`` whose weight is the
variable deletion probability, plus an absolutely continuous part.  The
functions here evaluate those cdfs and densities exactly, at a scalar or at
a whole array of points.  The known-variance laws are closed forms in Phi.
Each unknown-variance law is the known-variance law with the threshold
scaled by s = sigmahat/sigma, averaged over s ~ rho_m with
:func:`special.rho_average`; every probability is clamped to [0, 1] after
quadrature.

Branch boundaries pair weak and strict inequalities so that every cdf is
right-continuous; at the atom the value belongs to the upper branch.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

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
    """Atom plus absolutely continuous part, with evaluators.

    ``cdf`` and ``ac_density`` take a scalar, giving a float, or an array,
    giving an array of its shape.
    """

    atom_location: float
    atom_weight: float
    cdf: Callable
    ac_density: Callable


def _clamp(p: float) -> float:
    return min(1.0, max(0.0, p))


def _deleted(shift, b):
    """Known-variance deletion probability at standardized shift and threshold b."""
    return sf.normal_cdf(-shift + b) - sf.normal_cdf(-shift - b)


def deletion_probability(spec: ComponentSpec, mode: VarianceMode = KNOWN) -> float:
    """Probability that the estimator sets this coordinate exactly to zero.

    Identical for the hard, soft and adaptive soft estimators.
    """
    b = spec.root_n * spec.eta
    if mode.known:
        return _clamp(float(_deleted(spec.shift, b)))
    # the one point is the shift; the deletion window turns at s = |shift| / b
    val = sf.rho_average(mode.dof, lambda shift, s: _deleted(shift, s * b), [spec.shift],
                         [abs(spec.shift) / b])
    return _clamp(float(val[0]))


def _adaptive_roots(spec: ComponentSpec, x, y):
    """a = offset / (2 xi), the center of the adaptive-soft roots and hypot(a, y);
    the roots are center -+ sqrt(n) * hypot(a, y)."""
    a = 0.5 * spec.offset(x) / spec.xi
    center = 0.5 * spec.root_n * (x / spec.alpha - spec.theta / spec.sigma) / spec.xi
    return a, center, np.hypot(a, y)


def z_bounds(spec: ComponentSpec, x: float, y: float) -> tuple[float, float]:
    """The two roots bounding the adaptive-soft cdf branches, z1 <= z2."""
    if y < 0:
        raise ValueError(f"y must be nonnegative, got {y!r}")
    _, center, r = _adaptive_roots(spec, x, y)
    half = spec.root_n * r
    return center - half, center + half


def t_factor(spec: ComponentSpec, x: float, y: float) -> float:
    """Derivative factor of the adaptive-soft density; in [-1, 1]."""
    a, _, r = _adaptive_roots(spec, x, y)
    return float(a / r) if r else 0.0


# The laws below are the known-variance laws with the threshold scaled by
# s = sigmahat / sigma, for x and s that broadcast; s = 1 is known variance,
# and the average over s ~ rho_m is the law with m residual dof.

def _cdf_given(kind: str, spec: ComponentSpec, x, s):
    u = spec.offset(x)
    # the atom belongs to the upper branch (right-continuity) even when its
    # offset rounds below zero
    side = 2.0 * ((u >= 0.0) | (x == spec.atom_location)) - 1.0
    b = spec.root_n * (s * spec.eta)
    if kind == HARD:
        kept = abs(u) > spec.xi * (s * spec.eta)
        return np.where(kept, sf.normal_cdf(spec.standardized(x)),
                        sf.normal_cdf(-spec.shift + side * b))
    if kind == SOFT:
        return sf.normal_cdf(spec.standardized(x) + side * b)
    _, center, r = _adaptive_roots(spec, x, s * spec.eta)
    return sf.normal_cdf(center + side * (spec.root_n * r))


def _density_given(kind: str, spec: ComponentSpec, x, s):
    u = spec.offset(x)
    side = np.sign(u)  # the density vanishes where u = 0
    scale = spec.root_n / (spec.alpha * spec.xi)
    if kind == HARD:
        return np.where(abs(u) > spec.xi * (s * spec.eta),
                        scale * sf.normal_pdf(spec.standardized(x)), 0.0)
    if kind == SOFT:
        b = spec.root_n * (s * spec.eta)
        return abs(side) * scale * sf.normal_pdf(spec.standardized(x) + side * b)
    a, center, r = _adaptive_roots(spec, x, s * spec.eta)
    t = a / np.where(r == 0.0, 1.0, r)  # a = 0 where r = 0
    return (abs(side) * 0.5 * scale * sf.normal_pdf(center + side * (spec.root_n * r))
            * (1.0 + side * t))


def _breakpoints(kind: str, spec: ComponentSpec, x):
    """Where the law at x, as a function of s, jumps or bends."""
    if kind == HARD:
        # the estimate is kept for s below |u| / (xi eta)
        return abs(spec.offset(x)) / (spec.xi * spec.eta)
    if kind == SOFT:
        # Phi(v -+ s b) turns, and its density peaks, at |v| / b
        return abs(spec.standardized(x)) / (spec.root_n * spec.eta)
    # hypot(a, s eta) bends at |a| / eta, which is tiny next to the atom
    return abs(0.5 * spec.offset(x) / spec.xi) / spec.eta


def _law(given, kind: str, mode: VarianceMode, spec: ComponentSpec, x):
    """The law ``given`` at finite x: its known-variance closed form, or its
    average over the law of sigmahat / sigma."""
    if mode.known:
        return given(kind, spec, x, 1.0)
    val = sf.rho_average(mode.dof, lambda xs, s: given(kind, spec, xs, s), x,
                         _breakpoints(kind, spec, x))
    return val.reshape(np.shape(x))


def _as_points(x):
    """A float for a scalar, else a float array of the same shape."""
    if not isinstance(x, float):
        x = np.asarray(x, dtype=float)
        if x.ndim:
            return x
    return float(x)


def cdf(kind: str, mode: VarianceMode, spec: ComponentSpec, x):
    """Cdf of sigma^{-1} * alpha * (estimate - theta) at x (x may be +-inf).

    A scalar x gives a float, an array gives an array of its shape.
    """
    _check_kind(kind)
    x = _as_points(x)
    if isinstance(x, float):
        if math.isnan(x):
            raise ValueError("cdf argument must not be NaN")
        if math.isinf(x):
            return 1.0 if x > 0 else 0.0
        return _clamp(float(_law(_cdf_given, kind, mode, spec, x)))
    if np.isnan(x).any():
        raise ValueError("cdf argument must not be NaN")
    out = np.where(x > 0.0, 1.0, 0.0)
    finite = np.isfinite(x)
    out[finite] = np.clip(_law(_cdf_given, kind, mode, spec, x[finite]), 0.0, 1.0)
    return out


def ac_density(kind: str, mode: VarianceMode, spec: ComponentSpec, x):
    """Density of the absolutely continuous part at finite x.

    A scalar x gives a float, an array gives an array of its shape.
    """
    _check_kind(kind)
    x = _as_points(x)
    if not (math.isfinite(x) if isinstance(x, float) else np.isfinite(x).all()):
        raise ValueError(f"density argument must be finite, got {x!r}")
    out = _law(_density_given, kind, mode, spec, x)
    return float(out) if isinstance(x, float) else out


def as_mixture(kind: str, mode: VarianceMode, spec: ComponentSpec) -> MixtureDistribution:
    """Package the law of one variant as an atom-plus-density object."""
    _check_kind(kind)
    return MixtureDistribution(
        atom_location=spec.atom_location,
        atom_weight=deletion_probability(spec, mode),
        cdf=lambda x: cdf(kind, mode, spec, x),
        ac_density=lambda x: ac_density(kind, mode, spec, x),
    )
