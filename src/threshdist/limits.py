"""Moving-parameter limit laws, limiting selection probabilities, rates.

The limit of a centered-and-scaled thresholding estimator depends on which
of a handful of regimes the tuning and parameter sequences fall into:

* conservative tuning: sqrt(n)*eta_n -> e < inf, scaling sqrt(n)/xi;
* consistent tuning:   sqrt(n)*eta_n -> inf,     scaling 1/(xi*eta);
* known sigma, or estimated sigma with residual degrees of freedom that are
  eventually constant (``dof=m``) or divergent (``dof=inf``).

:class:`RegimeParams` carries the limits of the driving sequences; fields
irrelevant to a requested case may be left unset.  Requests outside the
catalog raise :class:`RegimeNotCoveredError` -- nothing is extrapolated.

Under conservative tuning the known-sigma limits are closed forms in Phi,
and the fixed-dof limits are the same laws with e replaced by s*e, averaged
over s ~ rho_m by :func:`special.rho_average`.  These families live in
:mod:`distributions`: the finite-sample laws are the same families at
(nu, e) = (shift, sqrt(n)*eta).  Every family in the catalog is a
:class:`LimitDistribution`, the atom-plus-density protocol of
:mod:`distributions` (``MixtureDistribution``).

Under consistent tuning at fixed dof m, the soft and adaptive limits
(:class:`SoftChiFold`, :class:`AdaptiveChiCdf`) share one chi-square atom:
the coordinate is deleted with limiting probability Pr(chi2_m > m*zeta^2),
and that mass sits at -zeta.  No family puts its atom at -0.0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.special import gammaln, xlogy

from . import special as sf
from .distributions import (ADAPTIVE, HARD, SOFT, AdaptiveKnown, AdaptiveSmoothed,
                            ExcisedNormal, HardSmoothed, SoftShiftNormal,
                            SoftSmoothed, _check_kind, _conservative)
from .distributions import MixtureDistribution as LimitDistribution

__all__ = [
    "RegimeNotCoveredError",
    "RegimeParams",
    "LimitDistribution",
    "StdNormal",
    "PointMass",
    "TwoPointMixture",
    "ExcisedNormal",
    "SoftShiftNormal",
    "AdaptiveKnown",
    "HardSmoothed",
    "SoftSmoothed",
    "AdaptiveSmoothed",
    "SoftChiFold",
    "AdaptiveChiCdf",
    "OracleHardBoundary",
    "ShiftedNormal",
    "EscapesToInfinity",
    "limit_selection_probability",
    "limit_distribution",
    "oracle_limit",
    "uniform_rate",
    "tv_distance",
]

DIVERGING = math.inf
#: absolute tolerance of the L1 integral in :func:`tv_distance`
TV_TOL = 1e-6


class RegimeNotCoveredError(ValueError):
    """The supplied limits match no catalogued case."""


def _need(value, name: str):
    if value is None:
        raise RegimeNotCoveredError(f"this regime requires the limit {name!r} to be supplied")
    return value


@dataclass(frozen=True)
class RegimeParams:
    """Limits of the driving sequences (extended reals; None = not supplied).

    e        limit of sqrt(n)*eta_n, in [0, inf]
    nu       limit of sqrt(n)*theta_n/(sigma_n*xi_n)
    zeta     limit of theta_n/(sigma_n*xi_n*eta_n)
    r        limit of sqrt(n)*(eta_n - zeta*theta_n/(sigma_n*xi_n))
    d        limit of sqrt(n)*eta_n/(n-k)^{1/2} divided by sqrt(2), in [0, inf]
    r_prime  limit of sqrt(2)*(n-k)^{1/2}*r_n/(sqrt(n)*eta_n)
    w        limit of sqrt(n)*eta_n^2*xi_n*sigma_n/theta_n
    dof      residual degrees of freedom: a positive integer, or inf when
             n - k diverges; None when the variance behavior is irrelevant
    """

    e: Optional[float] = None
    nu: Optional[float] = None
    zeta: Optional[float] = None
    r: Optional[float] = None
    d: Optional[float] = None
    r_prime: Optional[float] = None
    w: Optional[float] = None
    dof: Optional[float] = None

    def __post_init__(self):
        for name in ("e", "nu", "zeta", "r", "d", "r_prime", "w"):
            v = getattr(self, name)
            if v is not None and math.isnan(v):
                raise ValueError(f"{name} must not be NaN")
        if self.e is not None and self.e < 0:
            raise ValueError(f"e must be nonnegative, got {self.e!r}")
        if self.d is not None and self.d < 0:
            raise ValueError(f"d must be nonnegative, got {self.d!r}")
        if self.dof is not None and self.dof != DIVERGING:
            if not (float(self.dof).is_integer() and self.dof >= 1):
                raise ValueError(f"dof must be a positive integer or inf, got {self.dof!r}")


@dataclass(frozen=True)
class PointMass(LimitDistribution):
    loc: float

    def _cdf(self, x):
        return np.where(x >= self.loc, 1.0, 0.0)

    @property
    def atom_weight(self) -> float:
        return 1.0

    @property
    def atom_location(self) -> float:
        return self.loc + 0.0  # avoid -0.0


@dataclass(frozen=True)
class TwoPointMixture(LimitDistribution):
    weight_at_loc1: float
    loc1: float
    loc2: float

    def __post_init__(self):
        if not 0.0 <= self.weight_at_loc1 <= 1.0:
            raise ValueError(f"mixture weight must lie in [0, 1], got {self.weight_at_loc1!r}")

    def _cdf(self, x):
        w = self.weight_at_loc1
        return w * (x >= self.loc1) + (1.0 - w) * (x >= self.loc2)

    @property
    def atom_weight(self) -> float:
        return self.weight_at_loc1

    @property
    def atom_location(self) -> float:
        return self.loc1 + 0.0  # avoid -0.0


@dataclass(frozen=True)
class _ChiSquareAtom(LimitDistribution):
    """Consistent-tuning limit at fixed dof m: the coordinate is deleted with
    limiting probability Pr(chi2_m > m*zeta^2), and that mass sits at -zeta.
    The weight is 0.0 at zeta = +-inf, where there is no atom."""

    zeta: float
    m: int

    density_jumps = (0.0,)

    @property
    def atom_weight(self) -> float:
        return sf.chi_square_tail(self.m, self.m * self.zeta * self.zeta)

    @property
    def atom_location(self) -> Optional[float]:
        return 0.0 - self.zeta if math.isfinite(self.zeta) else None


class SoftChiFold(_ChiSquareAtom):
    """Consistent-tuning soft limit at fixed dof: chi-type density folded
    against the chi-square atom."""

    def _cdf(self, x):
        z = self.zeta
        if z >= 0.0:
            # the atom plus the rho_m mass on (-x, z]
            inner = self.atom_weight + sf.rho_cdf(self.m, z) - sf.rho_cdf(self.m, -x)
            return np.where(x >= 0.0, 1.0, np.where(x >= -z, inner, 0.0))
        return np.where(x < 0.0, 0.0, np.where(x < -z, sf.rho_cdf(self.m, x), 1.0))

    def _density(self, x):
        return (np.where(x + self.zeta < 0.0, sf.rho_density(self.m, x), 0.0)
                + np.where(x + self.zeta > 0.0, sf.rho_density(self.m, -x), 0.0))


@dataclass(frozen=True)  # so that __init__ calls __post_init__
class AdaptiveChiCdf(_ChiSquareAtom):
    """Consistent-tuning adaptive limit at fixed dof: chi-square tail cdf on
    the interval between -zeta and 0 above the chi-square atom."""

    def __post_init__(self):
        if not (math.isfinite(self.zeta) and self.zeta != 0.0):
            raise ValueError("this family is defined for finite nonzero zeta")

    def _cdf(self, x):
        z = self.zeta
        tail = sf.chi_square_tail(self.m, self.m * abs(x * z))
        if z > 0.0:
            return np.where(x >= 0.0, 1.0, np.where(x >= -z, tail, 0.0))
        return np.where(x < 0.0, 0.0, np.where(x < -z, 1.0 - tail, 1.0))

    def _density(self, x):
        # -d/dx of the chi-square tail at m*|x*z| = 2t on the interval
        z, a = self.zeta, 0.5 * self.m
        inside = ((-z <= x) & (x < 0.0)) if z > 0.0 else ((0.0 <= x) & (x < -z))
        t = a * abs(x * z)
        log_g = xlogy(a - 1.0, t) - t - gammaln(a)
        return np.where(inside, a * abs(z) * np.exp(log_g), 0.0)


@dataclass(frozen=True)
class OracleHardBoundary(LimitDistribution):
    """Pointwise limit of the hard estimator under sqrt(n)/xi scaling on the
    boundary |zeta| = 1.  Deletion mass Phi(r) escapes to -sign(zeta)*inf, so
    the evaluator is defective: it runs from Phi(r)*1(zeta=1) at -inf up to
    1 - Phi(r)*1(zeta=-1) at +inf."""

    zeta: float
    r: float

    def __post_init__(self):
        if abs(self.zeta) != 1.0:
            raise ValueError("boundary family needs zeta = +-1")

    def _cdf(self, x):
        if self.zeta == 1.0:
            return np.maximum(sf.normal_cdf(self.r), sf.normal_cdf(x))
        return sf.normal_cdf(np.minimum(x, -self.r))

    def _density(self, x):
        kept = x > self.r if self.zeta == 1.0 else x < -self.r
        return np.where(kept, sf.normal_pdf(x), 0.0)

    @property
    def density_jumps(self) -> tuple:
        return (self.zeta * self.r,)

    @property
    def _tails(self):
        return float(self._cdf(-math.inf)), float(self._cdf(math.inf))

    @property
    def total_mass(self) -> float:
        """Mass remaining on the real line; Phi(r) has escaped."""
        return 1.0 - sf.normal_cdf(self.r)


@dataclass(frozen=True)
class ShiftedNormal(LimitDistribution):
    w: float

    def _cdf(self, x):
        return sf.normal_cdf(x + self.w)

    def _density(self, x):
        return sf.normal_pdf(x + self.w)


@dataclass(frozen=True)
class StdNormal(ShiftedNormal):
    """The standard normal: the shifted normal with w fixed at 0."""

    w: float = field(default=0.0, init=False, repr=False)


@dataclass(frozen=True)
class EscapesToInfinity(LimitDistribution):
    """All mass escapes to direction * inf; there is no limiting cdf."""

    direction: int

    def __post_init__(self):
        if self.direction not in (-1, 1):
            raise ValueError("direction must be +1 or -1")

    def _cdf(self, x):
        raise RegimeNotCoveredError("the mass escapes to infinity; no cdf exists")

    _density = _cdf


def _check_mode(mode: str) -> str:
    if mode not in ("known", "unknown"):
        raise ValueError(f"mode must be 'known' or 'unknown', got {mode!r}")
    return mode


def _smoothing_dof(params: RegimeParams, mode: str) -> int | None:
    """The eventually-constant dof m over which the estimate of sigma smooths
    the law; None for known sigma or diverging dof, as in VarianceMode.dof."""
    if mode == "known" or _need(params.dof, "dof") == DIVERGING:
        return None
    return int(params.dof)


def limit_selection_probability(params: RegimeParams, mode: str) -> float:
    """Limiting probability that the coordinate is set exactly to zero."""
    _check_mode(mode)
    e = _need(params.e, "e")

    if e < math.inf:  # conservative tuning
        nu = _need(params.nu, "nu")
        return _conservative(HARD, nu, e, _smoothing_dof(params, mode)).atom_weight

    zeta = _need(params.zeta, "zeta")
    m = _smoothing_dof(params, mode)
    if m is not None:
        return _ChiSquareAtom(zeta, m).atom_weight
    if abs(zeta) != 1.0:
        return float(abs(zeta) < 1.0)
    # on the boundary: Phi(r / sqrt(1 + d^2)) = Pr(Z1 - d*Z2 <= r), with
    # d = 0 for known sigma, and Phi(r') as d -> inf
    d = 0.0 if mode == "known" else _need(params.d, "d")
    if d == math.inf:
        return sf.normal_cdf(_need(params.r_prime, "r_prime"))
    return sf.normal_cdf(_need(params.r, "r") / math.hypot(1.0, d))


def limit_distribution(kind: str, mode: str, params: RegimeParams) -> LimitDistribution:
    """Limit law of the centered estimator under its uniform-rate scaling."""
    _check_kind(kind)
    _check_mode(mode)
    e = _need(params.e, "e")

    if e < math.inf:  # conservative tuning, scaling sqrt(n)/xi
        nu = _need(params.nu, "nu")
        m = _smoothing_dof(params, mode)
        if e == 0.0 or (math.isinf(nu) and kind != SOFT):
            return StdNormal()
        return _conservative(kind, nu, e, m)

    # consistent tuning, scaling 1/(xi*eta)
    zeta = _need(params.zeta, "zeta")
    m = _smoothing_dof(params, mode)
    if kind == HARD:
        # deleted coordinates sit at -zeta, kept ones at 0
        if math.isinf(zeta) or (m is None and abs(zeta) > 1.0):
            return PointMass(0.0)
        if m is None and abs(zeta) < 1.0:
            return PointMass(-zeta)
        return TwoPointMixture(limit_selection_probability(params, mode), -zeta, 0.0)
    if m is not None:
        if kind == SOFT:
            return SoftChiFold(zeta, m)
        if zeta == 0.0 or math.isinf(zeta):
            return PointMass(0.0)
        return AdaptiveChiCdf(zeta, m)

    if kind == SOFT:
        return PointMass(-math.copysign(min(1.0, abs(zeta)), zeta))
    if abs(zeta) <= 1.0:
        return PointMass(-zeta)
    return PointMass(-1.0 / zeta)


def _mass_at(loc: float) -> LimitDistribution:
    """A point mass at loc, or all mass escaping toward loc = +-inf."""
    return PointMass(loc) if math.isfinite(loc) else EscapesToInfinity(1 if loc > 0 else -1)


def oracle_limit(kind: str, params: RegimeParams) -> LimitDistribution:
    """Limit under sqrt(n)/xi scaling with consistent tuning (oracle scaling)."""
    _check_kind(kind)

    def resolved_nu() -> float:
        if params.zeta is not None and params.zeta != 0.0:
            # nonzero zeta forces sqrt(n)*theta/(sigma*xi) -> sign(zeta)*inf
            nu = math.copysign(math.inf, params.zeta)
            if params.nu is not None and params.nu != nu:
                raise RegimeNotCoveredError(
                    f"nu={params.nu!r} is inconsistent with zeta={params.zeta!r}")
            return nu
        return _need(params.nu, "nu")

    if kind == SOFT:
        return _mass_at(-resolved_nu())

    zeta = _need(params.zeta, "zeta")
    if kind == HARD:
        if abs(zeta) < 1.0:
            return _mass_at(-resolved_nu())
        if abs(zeta) > 1.0:
            return StdNormal()
        r = _need(params.r, "r")
        if r == -math.inf:
            return StdNormal()
        return OracleHardBoundary(zeta, r)

    # adaptive soft
    if zeta == 0.0:
        return _mass_at(-resolved_nu())
    if math.isfinite(zeta):
        return EscapesToInfinity(-1 if zeta > 0 else 1)
    w = _need(params.w, "w")
    if w != 0.0 and math.copysign(1.0, w) != math.copysign(1.0, zeta):
        raise RegimeNotCoveredError(f"w={w!r} has a sign incompatible with zeta={zeta!r}")
    return ShiftedNormal(w) if math.isfinite(w) else EscapesToInfinity(-1 if w > 0 else 1)


def uniform_rate(n: int, xi: float, eta: float) -> float:
    """min(sqrt(n)/xi, 1/(xi*eta)), the uniform consistency rate."""
    if not (n >= 1 and math.isfinite(xi) and xi > 0 and math.isfinite(eta) and eta > 0):
        raise ValueError("n must be positive, xi and eta finite and positive")
    return min(math.sqrt(n) / xi, 1.0 / (xi * eta))


def tv_distance(a: LimitDistribution, b: LimitDistribution,
                window: tuple[float, float] = (-60.0, 60.0),
                breakpoints: tuple[float, ...] = ()) -> float:
    """|atom-weight difference| plus the L1 distance of the ac densities.

    Both mixtures must share the atom location, or both have none.  The L1
    integral runs over ``window``, a finite (lo, hi) with lo < hi, so the
    caller must pick it wide enough for both densities.  Its panels are cut
    at the window, the atom, the points where either law's density jumps
    (``density_jumps``) and any extra ``breakpoints``, with cuts a few ulps
    apart merged, and :func:`special.integrate_panels` integrates them to
    TV_TOL.
    """
    atom, other = a.atom_location, b.atom_location
    if (atom is None) != (other is None) or atom is not None and not math.isclose(
            atom, other, rel_tol=0.0, abs_tol=1e-12):
        raise ValueError("total-variation comparison needs a common atom location")
    lo, hi = window
    if not -math.inf < lo < hi < math.inf:
        raise ValueError(f"window must be finite with lo < hi, got {window!r}")
    cuts = {atom, *a.density_jumps, *b.density_jumps, *breakpoints} - {None}
    edges = np.array([lo, *sorted(p for p in cuts if lo < p < hi), hi])
    # a panel only ulps wide cannot be bisected to resolve a jump inside it
    edges = edges[np.append(np.diff(edges) > 4.0 * np.spacing(np.abs(edges[1:])), True)]
    l1 = sf.integrate_panels(lambda _, x: np.abs(a.ac_density(x) - b.ac_density(x)),
                             edges[None], TV_TOL)
    return abs(a.atom_weight - b.atom_weight) + float(l1[0])
