"""Seeded Monte Carlo harness and the benchmark histogram study.

Randomness is counter-based: replication ``r`` of a run with seed ``s``
draws from ``Philox(key=(s, r))``, so its noise is bit-identical however the
replications are scheduled or chunked.  A study builds one ``Philox`` and
re-keys it for each replication, with the counter and buffer of a fresh one,
and draws straight into the response rows: the same streams, bit for bit,
as a new generator per replication.  Each replication's estimate is also
bit-identical whatever the replication count, as every later step works row
by row in a fixed order.

The study simulates responses from a fixed design, computes one of the
five estimators (hard / soft / adaptive soft thresholding, lasso, adaptive
lasso; each with estimated or known error standard deviation) and records
the centered, scaled components ``sqrt(n) * (estimate_i - theta_i) /
(sigma * xi_i)`` together with the exact proportion of zero outcomes.
"""

from __future__ import annotations

import json
import math
import numbers
import os
from dataclasses import dataclass, replace

import numpy as np

from . import special as sf
from .distributions import (ADAPTIVE, HARD, KINDS, SOFT, ComponentSpec,
                            MixtureDistribution, VarianceMode, as_mixture)
from .estimators import (DesignSpec, LassoConfig, _lasso_rows, make_design,
                         threshold_estimate, xi_values)

__all__ = [
    "ESTIMATORS",
    "default_eta",
    "SimConfig",
    "SimResult",
    "SolverFailureRateError",
    "replication_noise",
    "run_study",
    "sample_component",
    "EmpiricalMixedCdf",
    "empirical_mixed_cdf",
    "ks_distance",
    "PANELS",
    "reproduce_figures",
]

ESTIMATORS = (HARD, SOFT, ADAPTIVE, "lasso", "adaptive-lasso")

HIST_RANGE = (-6.0, 6.0)
HIST_BINS = 60
#: abort threshold for the fraction of replications whose solver failed
MAX_FAILURE_RATE = 1e-3


class SolverFailureRateError(RuntimeError):
    """More than ``MAX_FAILURE_RATE`` of a study's replications failed to converge."""


def default_eta(n: int) -> float:
    """Tuning rule eta_n = n**-0.5 * Phi^{-1}(0.975): a coordinate with a
    zero coefficient is deleted with known-variance probability 0.95."""
    return float(sf.normal_quantile(0.975)) / math.sqrt(n)


@dataclass(frozen=True)
class SimConfig:
    """One simulation run.

    ``eta`` of None selects :func:`default_eta`.  ``sigma = 0`` is a
    degenerate test hook: responses carry no noise and the scaled samples
    are computed with the factor 1/sigma dropped.
    """

    design: DesignSpec
    theta: tuple
    sigma: float
    estimator: str
    feasible: bool = True
    eta: float | None = None
    reps: int = 10_000
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "theta", tuple(float(t) for t in self.theta))
        if len(self.theta) != self.design.k:
            raise ValueError(f"theta must have length k={self.design.k}")
        if self.estimator not in ESTIMATORS:
            raise ValueError(f"estimator must be one of {ESTIMATORS}, got {self.estimator!r}")
        if not all(math.isfinite(t) for t in self.theta):
            raise ValueError(f"theta must be finite, got {self.theta!r}")
        if not (math.isfinite(self.sigma) and self.sigma >= 0):
            raise ValueError(f"sigma must be finite and nonnegative, got {self.sigma!r}")
        if self.eta is not None and not (math.isfinite(self.eta) and self.eta > 0):
            raise ValueError(f"eta must be finite and positive, got {self.eta!r}")
        if not (isinstance(self.reps, numbers.Integral) and self.reps >= 1):
            raise ValueError(f"reps must be a positive integer, got {self.reps!r}")
        object.__setattr__(self, "reps", int(self.reps))
        if self.feasible and self.design.n <= self.design.k:
            raise ValueError("feasible estimators need n > k residual degrees of freedom")

    def eta_value(self) -> float:
        return default_eta(self.design.n) if self.eta is None else float(self.eta)


@dataclass(frozen=True)
class SimResult:
    """Per-component empirical mixed distribution plus analytic overlay."""

    config: SimConfig
    xi: np.ndarray                    # (k,)
    zero_proportion: np.ndarray       # (k,)
    scaled_samples: np.ndarray        # (reps, k)
    hist_edges: np.ndarray            # (bins + 1,)
    hist_heights: np.ndarray          # (k, bins), density heights
    outlier_count: np.ndarray         # (k,) samples clipped into end bins
    overlay: tuple                    # k MixtureDistribution objects
    solver_failures: int = 0


def _fill_noise(out: np.ndarray, seed: int, first: int = 0) -> np.ndarray:
    """Fill row ``i`` of ``out`` with the standard normal draws of replication
    ``first + i`` of run ``seed``.

    One ``Philox`` serves every row: before each row its key is set to
    ``(seed, rep)`` with the counter and buffer of a freshly keyed ``Philox``,
    so each row is the stream ``Philox(key=(seed, rep))`` bit for bit.
    """
    bitgen = np.random.Philox(key=np.array([seed, first], dtype=np.uint64))
    gen = np.random.Generator(bitgen)
    fresh = bitgen.state
    key = fresh["state"]["key"]
    for rep, row in enumerate(out, start=first):
        key[1] = rep
        bitgen.state = fresh
        gen.standard_normal(out=row)
    return out


def replication_noise(seed: int, rep: int, n: int) -> np.ndarray:
    """Standard normal draws of replication ``rep`` of run ``seed``."""
    return _fill_noise(np.empty((1, n)), seed, rep)[0]


def _matching_kind(estimator: str) -> str:
    if estimator == "lasso":
        return SOFT
    if estimator == "adaptive-lasso":
        return ADAPTIVE
    return estimator


def _overlay(config: SimConfig, xi: np.ndarray) -> tuple:
    kind = _matching_kind(config.estimator)
    n, k = config.design.n, config.design.k
    mode = VarianceMode.unknown_sigma(n - k) if config.feasible else VarianceMode.known_sigma()
    sigma = config.sigma if config.sigma > 0 else 1.0
    mixes = []
    for i in range(k):
        spec = ComponentSpec(n=n, xi=float(xi[i]), theta=config.theta[i], sigma=sigma,
                             eta=config.eta_value())
        mixes.append(as_mixture(kind, mode, spec))
    return tuple(mixes)


def _histogram(scaled: np.ndarray, zero_mask: np.ndarray, reps: int):
    edges = np.linspace(HIST_RANGE[0], HIST_RANGE[1], HIST_BINS + 1)
    width = edges[1] - edges[0]
    nonzero = scaled[~zero_mask]
    outliers = int(np.sum((nonzero < HIST_RANGE[0]) | (nonzero > HIST_RANGE[1])))
    clipped = np.clip(nonzero, HIST_RANGE[0] + 0.5 * width, HIST_RANGE[1] - 0.5 * width)
    counts, _ = np.histogram(clipped, bins=edges)
    heights = counts / (reps * width)
    return edges, heights, outliers


def run_study(config: SimConfig) -> SimResult:
    """Simulate the configured estimator; deterministic for a fixed seed."""
    design = config.design
    n, k = design.n, design.k
    X = make_design(design)
    xi = xi_values(X)
    theta = np.asarray(config.theta)
    eta = config.eta_value()
    reps = config.reps

    # the noise is drawn straight into the response rows, then scaled and
    # shifted in place: the same bits as mean + sigma * noise
    Y = _fill_noise(np.empty((reps, n)), config.seed)
    Y *= config.sigma
    Y += X @ theta

    # one least-squares product for all replications; einsum, unlike BLAS,
    # keeps each row independent of the batch shape
    gram_inv = np.linalg.inv(X.T @ X)
    proj = gram_inv @ X.T                       # (k, n)
    theta_ls = np.einsum("rn,kn->rk", Y, proj)  # (reps, k)
    if config.feasible:
        # fitted values, turned into residuals in place
        resid = np.einsum("rk,kn->rn", theta_ls, X.T.copy())
        np.subtract(Y, resid, out=resid)
        scale = np.sqrt(np.einsum("ij,ij->i", resid, resid) / (n - k))
    else:
        scale = np.full(reps, config.sigma)
    failures = 0
    if config.estimator in KINDS:
        estimates = threshold_estimate(config.estimator, theta_ls,
                                       scale[:, None], xi[None, :], eta)
    else:
        adaptive = config.estimator == "adaptive-lasso"
        cfg = LassoConfig.constant(eta) if adaptive else LassoConfig.eta_xi_inverse(eta)
        estimates, change = _lasso_rows(X, Y, theta_ls, scale, cfg, adaptive)
        failures = int(np.count_nonzero(change > cfg.tol))
        if failures > MAX_FAILURE_RATE * reps:
            raise SolverFailureRateError(
                f"{failures} of {reps} replications failed to converge")

    inv_sigma = 1.0 / config.sigma if config.sigma > 0 else 1.0
    scaled = math.sqrt(n) * inv_sigma * (estimates - theta[None, :]) / xi[None, :]
    zero_mask = estimates == 0.0
    zero_prop = zero_mask.mean(axis=0)

    heights = np.empty((k, HIST_BINS))
    outliers = np.empty(k, dtype=int)
    edges = None
    for i in range(k):
        edges, heights[i], outliers[i] = _histogram(scaled[:, i], zero_mask[:, i], reps)

    return SimResult(config=config, xi=xi, zero_proportion=zero_prop,
                     scaled_samples=scaled, hist_edges=edges, hist_heights=heights,
                     outlier_count=outliers, overlay=_overlay(config, xi),
                     solver_failures=failures)


def sample_component(kind: str, mode: VarianceMode, spec: ComponentSpec,
                     reps: int, seed: int) -> np.ndarray:
    """Direct draws of one thresholded coordinate (diagonal-design law).

    Draws the least-squares coordinate N(theta, sigma^2 xi^2 / n) and, in
    unknown-variance mode, an independent sigma * sqrt(chi2_m/m), then
    thresholds.  Returns raw (unscaled) estimates.
    """
    gen = np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))
    ls = spec.theta + spec.sigma * spec.xi / math.sqrt(spec.n) * gen.standard_normal(reps)
    if mode.known:
        scale = np.full(reps, spec.sigma)
    else:
        scale = spec.sigma * np.sqrt(gen.chisquare(mode.dof, reps) / mode.dof)
    return threshold_estimate(kind, ls, scale, spec.xi, spec.eta)


class EmpiricalMixedCdf:
    """Right-continuous step cdf of a sample, atom included."""

    def __init__(self, samples: np.ndarray, zero_location: float):
        samples = np.asarray(samples, dtype=float).ravel()
        if samples.size == 0:
            raise ValueError("need at least one sample")
        self.sorted = np.sort(samples)
        self.n = samples.size
        self.zero_location = float(zero_location)

    def __call__(self, x):
        return np.searchsorted(self.sorted, x, side="right") / self.n

    def left(self, x):
        """Left limit of the step cdf at x."""
        return np.searchsorted(self.sorted, x, side="left") / self.n


def empirical_mixed_cdf(samples, zero_location: float) -> EmpiricalMixedCdf:
    return EmpiricalMixedCdf(samples, zero_location)


def ks_distance(empirical: EmpiricalMixedCdf, analytic: MixtureDistribution,
                grid) -> float:
    """Max |empirical - analytic| over the grid, both sides of every jump.

    The grid must contain the atom location; left limits of the analytic
    cdf are reconstructed from the atom weight.
    """
    grid = np.asarray(grid, dtype=float)
    emp_right = empirical(grid)
    emp_left = empirical.left(grid)
    ana_right = analytic.cdf(grid)
    at_atom = grid == analytic.atom_location
    ana_left = ana_right - analytic.atom_weight * at_atom
    return float(max(np.max(np.abs(emp_right - ana_right)),
                     np.max(np.abs(emp_left - ana_left))))


def default_ks_grid(samples: np.ndarray, atom_location: float,
                    points: int = 801) -> np.ndarray:
    """Sample quantiles plus both one-sided neighborhoods of the atom."""
    qs = np.quantile(samples, np.linspace(0.0, 1.0, points))
    # offsets large enough that dividing by a scaling cannot underflow
    off = 1e-9 * max(1.0, abs(atom_location))
    extra = [atom_location, atom_location - off, atom_location + off]
    return np.unique(np.concatenate([qs, extra]))


# the twelve benchmark panels: estimator x design
PANELS = tuple(
    (estimator, design)
    for estimator in ("adaptive-lasso", "lasso")
    for design in (
        DesignSpec("I", 8, 4, rho=0.3),
        DesignSpec("I", 8, 4, rho=0.5),
        DesignSpec("I", 8, 4, rho=0.9),
        DesignSpec("II", 8, 4, c=0.2),
        DesignSpec("II", 8, 4, c=2.0),
        DesignSpec("II", 8, 4, c=-0.2),
    )
)

PANEL_THETA = (3.0, 1.5, 0.0, 0.0)
PANEL_SIGMA = 1.0

_SCHEMA = """\
Per-component CSV columns (one row per histogram bin):

bin_left, bin_right        histogram bin edges in scaled units
hist_height                density height; heights * bin width sum to the
                           proportion of nonzero outcomes
x                          bin midpoint, the overlay evaluation point
overlay_ac_density         absolutely continuous density of the matching
                           thresholding law with estimated variance (the
                           residual degrees of freedom of the panel)
overlay_known_ac_density   same with known variance
overlay_atom_location      atom location of the overlay (constant column)
overlay_atom_weight        atom weight, estimated-variance law (constant)
overlay_known_atom_weight  atom weight, known-variance law (constant)
zero_proportion            empirical proportion of exact zeros (constant)

One metadata JSON sidecar per panel records the design, its condition
number, xi values, seed, replication count, eta, outlier counts and the
number of solver failures.
"""


def _panel_name(index: int, estimator: str, design: DesignSpec) -> str:
    if design.variant == "I":
        tag = f"designI_rho{design.rho:g}"
    else:
        tag = f"designII_c{design.c:g}"
    return f"fig{index:02d}_{estimator.replace('-', '_')}_{tag}"


def reproduce_figures(out_dir: str, seed: int, reps: int = 10_000) -> list[str]:
    """Write the data behind all twelve benchmark panels; returns the paths.

    Panel ``i`` uses seed ``seed + i``.  Outputs are bit-identical across
    reruns with the same seed.
    """
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    schema_path = os.path.join(out_dir, "SCHEMA.txt")
    with open(schema_path, "w", encoding="utf-8") as fh:
        fh.write(_SCHEMA)
    paths.append(schema_path)

    for index, (estimator, design) in enumerate(PANELS, start=1):
        config = SimConfig(design=design, theta=PANEL_THETA, sigma=PANEL_SIGMA,
                           estimator=estimator, feasible=True, reps=reps,
                           seed=seed + index)
        result = run_study(config)
        name = _panel_name(index, estimator, design)
        X = make_design(design)
        cond = float(np.linalg.cond(X.T @ X))
        eta = config.eta_value()

        known_overlay = _overlay(replace(config, feasible=False), result.xi)

        mids = 0.5 * (result.hist_edges[:-1] + result.hist_edges[1:])
        for i in range(design.k):
            mix = result.overlay[i]
            known = known_overlay[i]
            density = mix.ac_density(mids)
            known_density = known.ac_density(mids)
            path = os.path.join(out_dir, f"{name}_comp{i + 1}.csv")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("bin_left,bin_right,hist_height,x,overlay_ac_density,"
                         "overlay_known_ac_density,overlay_atom_location,"
                         "overlay_atom_weight,overlay_known_atom_weight,"
                         "zero_proportion\n")
                for j, x in enumerate(mids):
                    row = (result.hist_edges[j], result.hist_edges[j + 1],
                           result.hist_heights[i, j], x, density[j], known_density[j],
                           mix.atom_location, mix.atom_weight, known.atom_weight,
                           result.zero_proportion[i])
                    fh.write(",".join(repr(float(v)) for v in row) + "\n")
            paths.append(path)

        meta = {
            "panel": name,
            "estimator": estimator,
            "design": {"variant": design.variant, "n": design.n, "k": design.k,
                       "rho": design.rho, "c": design.c},
            "condition_number": cond,
            "xi": [float(v) for v in result.xi],
            "theta": list(config.theta),
            "sigma": PANEL_SIGMA,
            "eta": eta,
            "reps": reps,
            "seed": config.seed,
            "zero_proportion": [float(v) for v in result.zero_proportion],
            "outlier_count": [int(v) for v in result.outlier_count],
            "solver_failures": result.solver_failures,
        }
        meta_path = os.path.join(out_dir, f"{name}_meta.json")
        with open(meta_path, "w", encoding="utf-8") as fh:
            json.dump(meta, fh, indent=2, sort_keys=True)
            fh.write("\n")
        paths.append(meta_path)
    return paths
