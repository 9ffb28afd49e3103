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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from scipy import integrate

from . import special as sf
from .distributions import HARD, SOFT, MixtureDistribution, _check_kind

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


class RegimeNotCoveredError(ValueError):
    """The supplied limits match no catalogued case."""


def _need(value, name: str):
    if value is None:
        raise RegimeNotCoveredError(f"this regime requires the limit {name!r} to be supplied")
    return value


def _phi_cdf(x: float) -> float:
    return float(sf.normal_cdf(x))


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

    @property
    def conservative(self) -> bool:
        return _need(self.e, "e") < math.inf

    def fixed_dof(self) -> int:
        m = _need(self.dof, "dof")
        if m == DIVERGING:
            raise RegimeNotCoveredError("this case needs eventually-constant degrees of freedom")
        return int(m)


class LimitDistribution:
    """Base class of the limit-law catalog; subclasses expose ``cdf``."""

    def cdf(self, x: float) -> float:  # pragma: no cover - overridden
        raise NotImplementedError

    #: weight of the atom, 0.0 when there is none
    @property
    def atom_weight(self) -> float:
        return 0.0

    @property
    def atom_location(self) -> Optional[float]:
        return None


@dataclass(frozen=True)
class StdNormal(LimitDistribution):
    def cdf(self, x: float) -> float:
        return _phi_cdf(x)


@dataclass(frozen=True)
class PointMass(LimitDistribution):
    loc: float

    def cdf(self, x: float) -> float:
        return 1.0 if x >= self.loc else 0.0

    @property
    def atom_weight(self) -> float:
        return 1.0

    @property
    def atom_location(self) -> float:
        return self.loc


@dataclass(frozen=True)
class TwoPointMixture(LimitDistribution):
    weight_at_loc1: float
    loc1: float
    loc2: float

    def __post_init__(self):
        if not 0.0 <= self.weight_at_loc1 <= 1.0:
            raise ValueError(f"mixture weight must lie in [0, 1], got {self.weight_at_loc1!r}")

    def cdf(self, x: float) -> float:
        w = self.weight_at_loc1
        return w * (1.0 if x >= self.loc1 else 0.0) + (1.0 - w) * (1.0 if x >= self.loc2 else 0.0)

    @property
    def atom_weight(self) -> float:
        return self.weight_at_loc1

    @property
    def atom_location(self) -> float:
        return self.loc1


@dataclass(frozen=True)
class ExcisedNormal(LimitDistribution):
    """Standard normal with the band (-nu-e, -nu+e) excised into an atom at -nu."""

    nu: float
    e: float

    def cdf(self, x: float) -> float:
        if abs(x + self.nu) > self.e:
            return _phi_cdf(x)
        if x + self.nu >= 0.0:
            return _phi_cdf(-self.nu + self.e)
        return _phi_cdf(-self.nu - self.e)

    def ac_density(self, x: float) -> float:
        return float(sf.normal_pdf(x)) if abs(x + self.nu) > self.e else 0.0

    @property
    def atom_weight(self) -> float:
        return _phi_cdf(-self.nu + self.e) - _phi_cdf(-self.nu - self.e)

    @property
    def atom_location(self) -> float:
        return -self.nu


@dataclass(frozen=True)
class SoftShiftNormal(LimitDistribution):
    """Normal shifted by -e right of the atom and by +e left of it."""

    nu: float
    e: float

    def cdf(self, x: float) -> float:
        return _phi_cdf(x + self.e) if x + self.nu >= 0.0 else _phi_cdf(x - self.e)

    def ac_density(self, x: float) -> float:
        if x + self.nu > 0.0:
            return float(sf.normal_pdf(x + self.e))
        if x + self.nu < 0.0:
            return float(sf.normal_pdf(x - self.e))
        return 0.0

    @property
    def atom_weight(self) -> float:
        return _phi_cdf(-self.nu + self.e) - _phi_cdf(-self.nu - self.e)

    @property
    def atom_location(self) -> Optional[float]:
        return -self.nu if math.isfinite(self.nu) else None


def _adaptive_roots(x: float, nu: float, e: float) -> tuple[float, float]:
    center = 0.5 * (x - nu)
    half = math.hypot(0.5 * (x + nu), e)
    return center - half, center + half


@dataclass(frozen=True)
class AdaptiveKnown(LimitDistribution):
    """Conservative-tuning limit of the adaptive soft estimator, known sigma."""

    nu: float
    e: float

    def __post_init__(self):
        if not math.isfinite(self.nu):
            raise ValueError("this family is defined for finite nu only")

    def cdf(self, x: float) -> float:
        z1, z2 = _adaptive_roots(x, self.nu, self.e)
        return _phi_cdf(z2) if x + self.nu >= 0.0 else _phi_cdf(z1)

    def ac_density(self, x: float) -> float:
        z1, z2 = _adaptive_roots(x, self.nu, self.e)
        denom = math.hypot(x + self.nu, 2.0 * self.e)
        t = 0.0 if denom == 0.0 else (x + self.nu) / denom
        if x + self.nu > 0.0:
            return 0.5 * float(sf.normal_pdf(z2)) * (1.0 + t)
        if x + self.nu < 0.0:
            return 0.5 * float(sf.normal_pdf(z1)) * (1.0 - t)
        return 0.0

    @property
    def atom_weight(self) -> float:
        return _phi_cdf(-self.nu + self.e) - _phi_cdf(-self.nu - self.e)

    @property
    def atom_location(self) -> float:
        return -self.nu


def _smoothed_atom_weight(nu: float, e: float, m: int) -> float:
    if e == 0.0 or math.isinf(nu):
        return 0.0
    return sf.integrate_rho(m, lambda s: _phi_cdf(-nu + s * e) - _phi_cdf(-nu - s * e))


@dataclass(frozen=True)
class HardSmoothed(LimitDistribution):
    """Excised normal averaged over the distribution of sigmahat/sigma."""

    nu: float
    e: float
    m: int

    def cdf(self, x: float) -> float:
        if math.isinf(self.nu):
            return _phi_cdf(x)
        if self.e == 0.0:
            return _phi_cdf(x) if x != -self.nu else _phi_cdf(-self.nu)
        s_star = abs(x + self.nu) / self.e
        val = _phi_cdf(x) * sf.rho_cdf(self.m, s_star)
        sign = 1.0 if x + self.nu >= 0.0 else -1.0
        val += sf.integrate_rho(
            self.m,
            lambda s: _phi_cdf(-self.nu + sign * s * self.e) if s >= s_star else 0.0,
            breakpoints=[s_star])
        return min(1.0, max(0.0, val))

    def ac_density(self, x: float) -> float:
        if math.isinf(self.nu) or self.e == 0.0:
            return float(sf.normal_pdf(x))
        s_star = abs(x + self.nu) / self.e
        return float(sf.normal_pdf(x)) * sf.rho_cdf(self.m, s_star)

    @property
    def atom_weight(self) -> float:
        return _smoothed_atom_weight(self.nu, self.e, self.m)

    @property
    def atom_location(self) -> Optional[float]:
        return -self.nu if math.isfinite(self.nu) else None


@dataclass(frozen=True)
class SoftSmoothed(LimitDistribution):
    """Shifted normal averaged over the distribution of sigmahat/sigma."""

    nu: float
    e: float
    m: int

    def cdf(self, x: float) -> float:
        if x + self.nu >= 0.0:
            return min(1.0, max(0.0, sf.noncentral_t_cdf(self.m, -x, self.e)))
        return min(1.0, max(0.0, sf.noncentral_t_cdf(self.m, -x, -self.e)))

    def ac_density(self, x: float) -> float:
        if x + self.nu > 0.0:
            return sf.integrate_rho(self.m, lambda s: float(sf.normal_pdf(x + s * self.e)))
        if x + self.nu < 0.0:
            return sf.integrate_rho(self.m, lambda s: float(sf.normal_pdf(x - s * self.e)))
        return 0.0

    @property
    def atom_weight(self) -> float:
        return _smoothed_atom_weight(self.nu, self.e, self.m)

    @property
    def atom_location(self) -> Optional[float]:
        return -self.nu if math.isfinite(self.nu) else None


@dataclass(frozen=True)
class AdaptiveSmoothed(LimitDistribution):
    """Adaptive-soft conservative limit averaged over sigmahat/sigma."""

    nu: float
    e: float
    m: int

    def __post_init__(self):
        if not math.isfinite(self.nu):
            raise ValueError("this family is defined for finite nu only")

    def cdf(self, x: float) -> float:
        idx = 1 if x + self.nu >= 0.0 else 0
        val = sf.integrate_rho(
            self.m, lambda s: _phi_cdf(_adaptive_roots(x, self.nu, s * self.e)[idx]))
        return min(1.0, max(0.0, val))

    def ac_density(self, x: float) -> float:
        if x + self.nu == 0.0:
            return 0.0
        idx = 1 if x + self.nu > 0.0 else 0
        sign = 1.0 if idx == 1 else -1.0

        def f(s: float) -> float:
            z = _adaptive_roots(x, self.nu, s * self.e)[idx]
            denom = math.hypot(x + self.nu, 2.0 * s * self.e)
            t = 0.0 if denom == 0.0 else (x + self.nu) / denom
            return float(sf.normal_pdf(z)) * (1.0 + sign * t)

        return 0.5 * sf.integrate_rho(self.m, f)

    @property
    def atom_weight(self) -> float:
        return _smoothed_atom_weight(self.nu, self.e, self.m)

    @property
    def atom_location(self) -> float:
        return -self.nu


@dataclass(frozen=True)
class SoftChiFold(LimitDistribution):
    """Consistent-tuning soft limit at fixed dof: chi-type density folded
    against an atom at -zeta of weight Pr(chi2_m > m*zeta^2)."""

    zeta: float
    m: int

    def cdf(self, x: float) -> float:
        z = self.zeta
        if z >= 0.0:
            if x >= 0.0:
                return 1.0
            if math.isinf(z) or x >= -z:
                w = 0.0 if math.isinf(z) else sf.chi_square_tail(self.m, self.m * z * z)
                tail = sf.rho_cdf(self.m, z) if math.isfinite(z) else 1.0
                return w + tail - sf.rho_cdf(self.m, -x)
            return 0.0
        if x < 0.0:
            return 0.0
        if math.isinf(z) or x < -z:
            return sf.rho_cdf(self.m, x)
        return 1.0

    def ac_density(self, x: float) -> float:
        val = 0.0
        if x + self.zeta < 0.0:
            val += float(sf.rho_density(self.m, x))
        if x + self.zeta > 0.0:
            val += float(sf.rho_density(self.m, -x))
        return val

    @property
    def atom_weight(self) -> float:
        if math.isinf(self.zeta):
            return 0.0
        return sf.chi_square_tail(self.m, self.m * self.zeta * self.zeta)

    @property
    def atom_location(self) -> Optional[float]:
        return -self.zeta if math.isfinite(self.zeta) else None


@dataclass(frozen=True)
class AdaptiveChiCdf(LimitDistribution):
    """Consistent-tuning adaptive limit at fixed dof: chi-square tail cdf on
    the interval between -zeta and 0, jump of Pr(chi2_m > m*zeta^2) at -zeta."""

    zeta: float
    m: int

    def __post_init__(self):
        if not (math.isfinite(self.zeta) and self.zeta != 0.0):
            raise ValueError("this family is defined for finite nonzero zeta")

    def cdf(self, x: float) -> float:
        z = self.zeta
        if z > 0.0:
            if x >= 0.0:
                return 1.0
            if x >= -z:
                return sf.chi_square_tail(self.m, self.m * abs(x * z))
            return 0.0
        if x < 0.0:
            return 0.0
        if x < -z:
            return 1.0 - sf.chi_square_tail(self.m, self.m * abs(x * z))
        return 1.0

    def ac_density(self, x: float) -> float:
        z = self.zeta
        inside = (-z <= x < 0.0) if z > 0.0 else (0.0 <= x < -z)
        if not inside:
            return 0.0
        # d/dx of the chi-square tail at m*|x*z|
        a = 0.5 * self.m
        arg = 0.5 * self.m * abs(x * z)
        if arg == 0.0:
            return math.inf if self.m < 2 else (abs(z) * self.m * 0.25 if self.m == 2 else 0.0)
        log_g = (a - 1.0) * math.log(arg) - arg - math.lgamma(a)
        return 0.5 * self.m * abs(z) * math.exp(log_g)

    @property
    def atom_weight(self) -> float:
        return sf.chi_square_tail(self.m, self.m * self.zeta * self.zeta)

    @property
    def atom_location(self) -> float:
        return -self.zeta


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

    def cdf(self, x: float) -> float:
        if self.zeta == 1.0:
            return max(_phi_cdf(self.r), _phi_cdf(x))
        return _phi_cdf(min(x, -self.r))

    @property
    def total_mass(self) -> float:
        """Mass remaining on the real line; Phi(r) has escaped."""
        return 1.0 - _phi_cdf(self.r)


@dataclass(frozen=True)
class ShiftedNormal(LimitDistribution):
    w: float

    def cdf(self, x: float) -> float:
        return _phi_cdf(x + self.w)


@dataclass(frozen=True)
class EscapesToInfinity(LimitDistribution):
    """All mass escapes to direction * inf; there is no limiting cdf."""

    direction: int

    def __post_init__(self):
        if self.direction not in (-1, 1):
            raise ValueError("direction must be +1 or -1")

    def cdf(self, x: float) -> float:
        raise RegimeNotCoveredError("the mass escapes to infinity; no cdf exists")


def _check_mode(mode: str) -> str:
    if mode not in ("known", "unknown"):
        raise ValueError(f"mode must be 'known' or 'unknown', got {mode!r}")
    return mode


def _gauss_average(d: float, r: float) -> float:
    """integral of Phi(d*t + r) phi(t) dt over the real line.

    It is Pr(Z1 - d*Z2 <= r) for independent standard normals, and
    Z1 - d*Z2 is N(0, 1 + d^2)."""
    return _phi_cdf(r / math.hypot(1.0, d))


def limit_selection_probability(params: RegimeParams, mode: str) -> float:
    """Limiting probability that the coordinate is set exactly to zero."""
    _check_mode(mode)
    e = _need(params.e, "e")

    if e < math.inf:  # conservative tuning
        nu = _need(params.nu, "nu")
        if mode == "known" or _need(params.dof, "dof") == DIVERGING:
            return _phi_cdf(-nu + e) - _phi_cdf(-nu - e)
        m = params.fixed_dof()
        if math.isinf(nu):
            return 0.0
        return sf.integrate_rho(m, lambda s: _phi_cdf(-nu + s * e) - _phi_cdf(-nu - s * e))

    zeta = _need(params.zeta, "zeta")
    if mode == "known":
        if abs(zeta) < 1.0:
            return 1.0
        if abs(zeta) > 1.0:
            return 0.0
        return _phi_cdf(_need(params.r, "r"))

    dof = _need(params.dof, "dof")
    if dof != DIVERGING:
        m = params.fixed_dof()
        if math.isinf(zeta):
            return 0.0
        return sf.chi_square_tail(m, m * zeta * zeta)
    if abs(zeta) < 1.0:
        return 1.0
    if abs(zeta) > 1.0:
        return 0.0
    d = _need(params.d, "d")
    if d == 0.0:
        return _phi_cdf(_need(params.r, "r"))
    if d < math.inf:
        return _gauss_average(d, _need(params.r, "r"))
    return _phi_cdf(_need(params.r_prime, "r_prime"))


def limit_distribution(kind: str, mode: str, params: RegimeParams) -> LimitDistribution:
    """Limit law of the centered estimator under its uniform-rate scaling."""
    _check_kind(kind)
    _check_mode(mode)
    e = _need(params.e, "e")

    if e < math.inf:  # conservative tuning, scaling sqrt(n)/xi
        nu = _need(params.nu, "nu")
        if mode == "unknown" and _need(params.dof, "dof") != DIVERGING:
            m = params.fixed_dof()
            if e == 0.0:
                return StdNormal()
            if kind == HARD:
                return StdNormal() if math.isinf(nu) else HardSmoothed(nu, e, m)
            if kind == SOFT:
                return SoftSmoothed(nu, e, m)
            return StdNormal() if math.isinf(nu) else AdaptiveSmoothed(nu, e, m)
        if e == 0.0:
            return StdNormal()
        if kind == HARD:
            return StdNormal() if math.isinf(nu) else ExcisedNormal(nu, e)
        if kind == SOFT:
            return SoftShiftNormal(nu, e)
        return StdNormal() if math.isinf(nu) else AdaptiveKnown(nu, e)

    # consistent tuning, scaling 1/(xi*eta)
    zeta = _need(params.zeta, "zeta")
    fixed = mode == "unknown" and _need(params.dof, "dof") != DIVERGING
    if fixed:
        m = params.fixed_dof()
        if kind == HARD:
            if math.isinf(zeta):
                return PointMass(0.0)
            return TwoPointMixture(sf.chi_square_tail(m, m * zeta * zeta), -zeta, 0.0)
        if kind == SOFT:
            return SoftChiFold(zeta, m)
        if zeta == 0.0 or math.isinf(zeta):
            return PointMass(0.0)
        return AdaptiveChiCdf(zeta, m)

    if kind == HARD:
        if abs(zeta) < 1.0:
            return PointMass(-zeta)
        if abs(zeta) > 1.0:
            return PointMass(0.0)
        if mode == "known":
            return TwoPointMixture(_phi_cdf(_need(params.r, "r")), -zeta, 0.0)
        d = _need(params.d, "d")
        if d == 0.0:
            weight = _phi_cdf(_need(params.r, "r"))
        elif d < math.inf:
            weight = _gauss_average(d, _need(params.r, "r"))
        else:
            weight = _phi_cdf(_need(params.r_prime, "r_prime"))
        return TwoPointMixture(weight, -zeta, 0.0)
    if kind == SOFT:
        if zeta == 0.0:
            return PointMass(0.0)
        return PointMass(-math.copysign(min(1.0, abs(zeta)), zeta))
    if abs(zeta) <= 1.0:
        return PointMass(-zeta)
    if math.isinf(zeta):
        return PointMass(0.0)
    return PointMass(-1.0 / zeta)


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
        nu = resolved_nu()
        if math.isfinite(nu):
            return PointMass(-nu)
        return EscapesToInfinity(-1 if nu > 0 else 1)

    zeta = _need(params.zeta, "zeta")
    if kind == HARD:
        if abs(zeta) < 1.0:
            nu = resolved_nu()
            if math.isfinite(nu):
                return PointMass(-nu)
            return EscapesToInfinity(-1 if nu > 0 else 1)
        if abs(zeta) > 1.0:
            return StdNormal()
        r = _need(params.r, "r")
        if r == -math.inf:
            return StdNormal()
        return OracleHardBoundary(zeta, r)

    # adaptive soft
    if zeta == 0.0:
        nu = _need(params.nu, "nu")
        if math.isfinite(nu):
            return PointMass(-nu)
        return EscapesToInfinity(-1 if nu > 0 else 1)
    if math.isfinite(zeta):
        return EscapesToInfinity(-1 if zeta > 0 else 1)
    w = _need(params.w, "w")
    if math.isfinite(w):
        if w != 0.0 and math.copysign(1.0, w) != math.copysign(1.0, zeta):
            raise RegimeNotCoveredError(
                f"w={w!r} has a sign incompatible with zeta={zeta!r}")
        return ShiftedNormal(w)
    if math.copysign(1.0, w) != math.copysign(1.0, zeta):
        raise RegimeNotCoveredError(f"w={w!r} has a sign incompatible with zeta={zeta!r}")
    return EscapesToInfinity(-1 if w > 0 else 1)


def uniform_rate(n: int, xi: float, eta: float) -> float:
    """min(sqrt(n)/xi, 1/(xi*eta)), the uniform consistency rate."""
    if not (n >= 1 and math.isfinite(xi) and xi > 0 and math.isfinite(eta) and eta > 0):
        raise ValueError("n must be positive, xi and eta finite and positive")
    return min(math.sqrt(n) / xi, 1.0 / (xi * eta))


def tv_distance(a: MixtureDistribution, b: MixtureDistribution, tol: float = 1e-6,
                window: tuple[float, float] = (-60.0, 60.0),
                breakpoints: tuple[float, ...] = ()) -> float:
    """|atom-weight difference| plus the L1 distance of the ac densities.

    Both mixtures must share the atom location.  The L1 integral runs over
    ``window``, so the caller must pick it wide enough for both densities.
    """
    if not math.isclose(a.atom_location, b.atom_location, rel_tol=0.0, abs_tol=1e-12):
        raise ValueError("total-variation comparison needs a common atom location")
    pts = sorted({a.atom_location, *breakpoints})
    lo, hi = window
    pts = [p for p in pts if lo < p < hi]
    val, err = integrate.quad(lambda x: abs(a.ac_density(x) - b.ac_density(x)),
                              lo, hi, epsabs=0.5 * tol, epsrel=1e-9,
                              limit=400, points=pts or None)
    if err > tol:
        raise sf.QuadratureError(
            f"L1 quadrature failed (achieved error {err:.3e} > {tol:.3e})",
            estimate=val, error=err)
    return abs(a.atom_weight - b.atom_weight) + val
