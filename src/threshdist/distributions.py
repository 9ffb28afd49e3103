"""Exact finite-sample laws of the six thresholding-estimator variants.

Each estimator (hard, soft, adaptive soft; known or unknown error variance)
has, after centering at the true coefficient and scaling by ``alpha/sigma``,
a mixed distribution: an atom at ``-alpha*theta/sigma`` whose weight is the
variable deletion probability, plus an absolutely continuous part.
:class:`MixtureDistribution` is the protocol of every such law in the
package, finite-sample or limiting.

A known-variance law depends on (n, xi, theta, sigma, eta, alpha) only
through the shift nu = sqrt(n)*theta/(sigma*xi), the threshold
b = sqrt(n)*eta and the point x' = sqrt(n)*x/(alpha*xi): it is the
conservative limit family of its kind (:class:`ExcisedNormal`,
:class:`SoftShiftNormal`, :class:`AdaptiveKnown`, closed forms in Phi) at
(nu, e) = (shift, b), evaluated at x'.  Each unknown-variance law is the
same family with e scaled by s = sigmahat/sigma, averaged over s ~ rho_m
with :func:`special.rho_average` (:class:`HardSmoothed`,
:class:`SoftSmoothed`, :class:`AdaptiveSmoothed`).  :func:`cdf`,
:func:`ac_density` and :func:`deletion_probability` evaluate those families;
:mod:`limits` catalogs them as limit laws.

Branch boundaries pair weak and strict inequalities so that every cdf is
right-continuous; at the atom the value belongs to the upper branch.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar, Optional

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
    "ExcisedNormal",
    "SoftShiftNormal",
    "AdaptiveKnown",
    "HardSmoothed",
    "SoftSmoothed",
    "AdaptiveSmoothed",
    "root_n_over_xi",
    "inverse_xi_eta",
    "deletion_probability",
    "cdf",
    "ac_density",
    "z_bounds",
    "as_mixture",
    "with_atom_neighborhood",
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
        # the QUADPACK oracles of the checks build a spec per node, so an int n
        # and float fields are kept as given, without the slower abstract-class
        # checks and stores
        n = self.n
        if type(n) is not int and isinstance(n, numbers.Integral):
            n = int(n)
        if not (type(n) is int and n >= 1):
            raise ValueError(f"n must be a positive integer, got {self.n!r}")
        if n is not self.n:
            object.__setattr__(self, "n", n)
        for name in ("xi", "theta", "sigma", "eta", "alpha"):
            v = given = getattr(self, name)
            if given is None and name == "alpha":
                v = root_n_over_xi(self.n, self.xi)
            elif type(given) is not float and isinstance(given, numbers.Real):
                v = float(given)
            if not (type(v) is float and math.isfinite(v) and (name == "theta" or v > 0)):
                kind = "real" if name == "theta" else "positive real"
                raise ValueError(f"{name} must be a finite {kind}, got {given!r}")
            if v is not given:
                object.__setattr__(self, name, v)
        if math.isinf(math.sqrt(n) / self.xi / self.alpha):
            raise ValueError(f"alpha must keep sqrt(n) / (xi * alpha) finite, got {self.alpha!r}")

    # shorthands used throughout the formulas
    @property
    def root_n(self) -> float:
        return math.sqrt(self.n)

    @property
    def shift(self) -> float:
        """sqrt(n) * theta / (sigma * xi)."""
        return self.root_n / self.xi * (self.theta / self.sigma)

    @property
    def atom_location(self) -> float:
        return -self.alpha * self.theta / self.sigma + 0.0  # avoid -0.0

    def standardized(self, x: float) -> float:
        """sqrt(n) * x / (alpha * xi).

        It and ``shift`` scale x / alpha and theta / sigma by the same
        factor, so standardized(x) + shift is >= 0 wherever offset(x) is.
        """
        return self.root_n / self.xi * (x / self.alpha)

    def offset(self, x: float) -> float:
        """x / alpha + theta / sigma (sign decides which branch applies)."""
        return x / self.alpha + self.theta / self.sigma


def _as_points(x):
    """A float for a scalar, else a float array of the same shape."""
    if not isinstance(x, float):
        x = np.asarray(x, dtype=float)
        if x.ndim:
            return x
    return float(x)


def _float_or_array(out):
    return out if np.ndim(out) else float(out)


class MixtureDistribution:
    """An atom plus an absolutely continuous part.

    Subclasses give ``_cdf`` and, where the law has a density, ``_density``
    (zero otherwise), both array-valued at finite points.  ``cdf`` and
    ``ac_density`` take a scalar, giving a float, or an array, giving an
    array of its shape.  Both reject NaN and ``ac_density`` rejects +-inf;
    ``cdf`` takes +-inf to ``_tails`` and clips to [0, 1].
    """

    #: cdf values at -inf and +inf; a law whose mass escapes overrides them
    _tails = (0.0, 1.0)
    #: points other than the atom where the density jumps
    density_jumps = ()

    @property
    def atom_weight(self):
        """Weight of the atom, 0.0 when there is none."""
        return 0.0

    @property
    def atom_location(self) -> Optional[float]:
        return None

    def cdf(self, x):
        x = _as_points(x)
        if isinstance(x, float):
            if math.isnan(x):
                raise ValueError("cdf argument must not be NaN")
            if math.isinf(x):
                return self._tails[x > 0.0]
            return min(1.0, max(0.0, float(self._cdf(x))))
        if np.isnan(x).any():
            raise ValueError("cdf argument must not be NaN")
        lo, hi = self._tails
        out = np.where(x > 0.0, hi, lo)
        finite = np.isfinite(x)
        out[finite] = np.clip(self._cdf(x[finite]), 0.0, 1.0)
        return out

    def ac_density(self, x):
        x = _as_points(x)
        if not (math.isfinite(x) if isinstance(x, float) else np.isfinite(x).all()):
            first = x if isinstance(x, float) else float(x[~np.isfinite(x)][0])
            raise ValueError(f"density argument must be finite, got {first!r}")
        return _float_or_array(self._density(x))

    def _density(self, x):
        return np.zeros(np.shape(x))


def _side(u):
    """+1 on the branch u >= 0, which holds the atom, and -1 below it."""
    return 2.0 * (u >= 0.0) - 1.0


@dataclass(frozen=True)
class _Conservative(MixtureDistribution):
    """Conservative-tuning law in the standardized point x': an atom at -nu
    plus a density.

    The known-sigma families are closed forms with atom weight
    Phi(-nu + e) - Phi(-nu - e); they broadcast over an array ``e``.  At x,
    ``_turn(x)`` is the e at which their law changes form and
    ``_crossing(x)`` the e at which the argument of its Phi crosses zero.
    """

    nu: float
    e: float

    def __post_init__(self):
        # inside the rho averages e is an array of thresholds s * e
        low = self.e if type(self.e) is float else np.min(self.e)
        if math.isnan(self.nu):
            raise ValueError("nu must not be NaN")
        if math.isnan(low):
            raise ValueError("e must not be NaN")
        if low < 0.0:
            raise ValueError(f"e must be nonnegative, got {self.e!r}")

    def _turn_width(self, turn):
        """The width in e of the feature at the turn: the arguments of Phi
        move by one per unit of e."""
        return 1.0

    @property
    def atom_weight(self):
        return _float_or_array(sf.normal_cdf(-self.nu + self.e) - sf.normal_cdf(-self.nu - self.e))

    @property
    def atom_location(self) -> Optional[float]:
        return 0.0 - self.nu if math.isfinite(self.nu) else None


class ExcisedNormal(_Conservative):
    """Standard normal with the band (-nu-e, -nu+e) excised into an atom at -nu."""

    @property
    def density_jumps(self) -> tuple:
        return (-self.nu - self.e, -self.nu + self.e)

    def _turn(self, x):
        return abs(x + self.nu)

    def _crossing(self, x):
        return abs(self.nu)

    def _cdf(self, x):
        u = x + self.nu
        return np.where(abs(u) > self.e, sf.normal_cdf(x),
                        sf.normal_cdf(-self.nu + _side(u) * self.e))

    def _density(self, x):
        return np.where(abs(x + self.nu) > self.e, sf.normal_pdf(x), 0.0)


class SoftShiftNormal(_Conservative):
    """Normal shifted by -e right of the atom and by +e left of it."""

    def _turn(self, x):
        return abs(x)

    _crossing = _turn

    def _cdf(self, x):
        return sf.normal_cdf(x + _side(x + self.nu) * self.e)

    def _density(self, x):
        side = np.sign(x + self.nu)  # the density vanishes at the atom
        return abs(side) * sf.normal_pdf(x + side * self.e)


class AdaptiveKnown(_Conservative):
    """Conservative-tuning law of the adaptive soft estimator, known sigma."""

    def __post_init__(self):
        super().__post_init__()
        if not math.isfinite(self.nu):
            raise ValueError("this family is defined for finite nu only")

    def _turn(self, x):
        return 0.5 * abs(x + self.nu)

    def _turn_width(self, turn):
        """hypot((x + nu) / 2, e) bends over an e of the turn's own size."""
        return np.minimum(1.0, turn)

    def _crossing(self, x):
        """sqrt(-x * nu) where x * nu < 0, written so that it cannot
        overflow; inf, which adds no edges, where there is no crossing."""
        return np.where(x * np.sign(self.nu) < 0.0, np.sqrt(abs(x)) * math.sqrt(abs(self.nu)),
                        math.inf)

    def _roots(self, x):
        """The center of the two roots bounding the branches, and half their distance."""
        return 0.5 * (x - self.nu), np.hypot(0.5 * (x + self.nu), self.e)

    def _cdf(self, x):
        center, half = self._roots(x)
        return sf.normal_cdf(center + _side(x + self.nu) * half)

    def _density(self, x):
        center, half = self._roots(x)
        side = np.sign(x + self.nu)  # the density vanishes at the atom
        t = (x + self.nu) / np.where(half == 0.0, 1.0, 2.0 * half)  # x = -nu where half = 0
        return abs(side) * 0.5 * sf.normal_pdf(center + side * half) * (1.0 + side * t)


@dataclass(frozen=True)
class _Smoothed(_Conservative):
    """The known-sigma family ``known`` with e replaced by s*e, averaged over
    s ~ rho_m, the law of sigmahat/sigma at m residual dof, by one
    :func:`special.rho_average` call.  Its breakpoints in s are the known
    law's turn and crossing, and |nu| for the atom weight, divided by e, and
    so are their widths.
    """

    m: int

    known: ClassVar[type]

    def __post_init__(self):
        self.known(self.nu, self.e)  # the known family validates nu and e

    def _average(self, law, x, places, widths):
        """E law(known(nu, S*e), x) over S ~ rho_m, where the known law at x
        has features at S*e in ``places``, of the widths in ``widths``."""
        if self.e == 0.0:  # the known law does not depend on S
            return law(self.known(self.nu, 0.0), x)
        brk, h = np.empty((2, *np.shape(x), len(places)))
        for j, (place, width) in enumerate(zip(places, widths)):
            brk[..., j], h[..., j] = place, width
        val = sf.rho_average(self.m, lambda xs, s: law(self.known(self.nu, s * self.e), xs),
                             x, brk / self.e, h / self.e)
        return val.reshape(np.shape(x))

    def _law(self, law, x):
        known = self.known(self.nu, self.e)
        turn = known._turn(x)
        return self._average(law, x, (turn, known._crossing(x)), (known._turn_width(turn), 1.0))

    def _cdf(self, x):
        return self._law(self.known._cdf, x)

    def _density(self, x):
        return self._law(self.known._density, x)

    @property
    def atom_weight(self) -> float:
        weight = self._average(lambda law, _: law.atom_weight, self.nu, (abs(self.nu),), (1.0,))
        return float(np.clip(weight, 0.0, 1.0))


class HardSmoothed(_Smoothed):
    """Excised normal averaged over the distribution of sigmahat/sigma."""

    known = ExcisedNormal


class SoftSmoothed(_Smoothed):
    """Shifted normal averaged over the distribution of sigmahat/sigma."""

    known = SoftShiftNormal


class AdaptiveSmoothed(_Smoothed):
    """Adaptive-soft conservative law averaged over sigmahat/sigma."""

    known = AdaptiveKnown


_SMOOTHED = {HARD: HardSmoothed, SOFT: SoftSmoothed, ADAPTIVE: AdaptiveSmoothed}


def _conservative(kind: str, nu: float, e: float, dof: int | None) -> _Conservative:
    """The conservative family of ``kind`` at (nu, e): the known-sigma closed
    form when ``dof`` is None, else that law smoothed over rho_dof."""
    family = _SMOOTHED[kind]
    return family.known(nu, e) if dof is None else family(nu, e, dof)


def _family(kind: str, mode: VarianceMode, spec: ComponentSpec) -> _Conservative:
    """The law of sqrt(n) * (estimate - theta) / (sigma * xi): the family of
    ``kind`` at nu = shift and e = sqrt(n) * eta."""
    return _conservative(_check_kind(kind), spec.shift, spec.root_n * spec.eta, mode.dof)


def _standardized(spec: ComponentSpec, x):
    """x' = sqrt(n) * x / (alpha * xi), with the atom taken to exactly -shift,
    so that it stays on the upper branch where its offset rounds off zero."""
    x = _as_points(x)
    if isinstance(x, float):
        return -spec.shift if x == spec.atom_location else spec.standardized(x)
    return np.where(x == spec.atom_location, -spec.shift, spec.standardized(x))


def deletion_probability(spec: ComponentSpec, mode: VarianceMode = KNOWN) -> float:
    """Probability that the estimator sets this coordinate exactly to zero.

    Identical for the hard, soft and adaptive soft estimators.
    """
    return _family(HARD, mode, spec).atom_weight


def z_bounds(spec: ComponentSpec, x: float, y: float) -> tuple[float, float]:
    """The two roots bounding the adaptive-soft cdf branches, z1 <= z2."""
    if y < 0:
        raise ValueError(f"y must be nonnegative, got {y!r}")
    center, half = AdaptiveKnown(spec.shift, spec.root_n * y)._roots(spec.standardized(x))
    return center - half, center + half


def cdf(kind: str, mode: VarianceMode, spec: ComponentSpec, x):
    """Cdf of sigma^{-1} * alpha * (estimate - theta) at x (x may be +-inf).

    A scalar x gives a float, an array gives an array of its shape.
    """
    return _family(kind, mode, spec).cdf(_standardized(spec, x))


def ac_density(kind: str, mode: VarianceMode, spec: ComponentSpec, x):
    """Density of the absolutely continuous part at finite x.

    A scalar x gives a float, an array gives an array of its shape.
    """
    density = _family(kind, mode, spec).ac_density(_standardized(spec, x))
    return density * (spec.root_n / (spec.alpha * spec.xi))


@dataclass(frozen=True)
class _FiniteSampleLaw(MixtureDistribution):
    """One variant's law, evaluated by the module-level :func:`cdf` and
    :func:`ac_density`."""

    kind: str
    mode: VarianceMode
    spec: ComponentSpec

    def cdf(self, x):
        return cdf(self.kind, self.mode, self.spec, x)

    def ac_density(self, x):
        return ac_density(self.kind, self.mode, self.spec, x)

    @property
    def atom_location(self) -> float:
        return self.spec.atom_location

    @property
    def density_jumps(self) -> tuple:
        """The family's jumps, mapped back from x' to x."""
        spec = self.spec
        return tuple(p * (spec.alpha * spec.xi / spec.root_n)
                     for p in _family(self.kind, self.mode, spec).density_jumps)

    @cached_property
    def atom_weight(self) -> float:
        return deletion_probability(self.spec, self.mode)


def as_mixture(kind: str, mode: VarianceMode, spec: ComponentSpec) -> MixtureDistribution:
    """Package the law of one variant as an atom-plus-density object."""
    return _FiniteSampleLaw(_check_kind(kind), mode, spec)


def with_atom_neighborhood(grid, atom_location: Optional[float]) -> np.ndarray:
    """The sorted points of ``grid`` plus the atom a and its one-sided
    neighbors a -+ 1e-9 * max(1, |a|), offsets large enough that dividing
    by a scaling cannot underflow; ``grid`` itself when there is no atom."""
    if atom_location is None:
        return grid
    off = 1e-9 * max(1.0, abs(atom_location))
    return np.unique(np.concatenate([grid, [atom_location - off, atom_location,
                                            atom_location + off]]))
