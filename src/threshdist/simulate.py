"""Seeded Monte Carlo harness and the benchmark histogram study.

Randomness is counter-based: replication ``r`` of a run with seed ``s``
draws from ``Philox(key=(s, r))``, so its noise is bit-identical however the
replications are scheduled or chunked.  A study builds one ``Philox`` and
re-keys it for each replication, with the counter and buffer of a fresh one,
and draws straight into the response rows: the same streams, bit for bit,
as a new generator per replication.

A study streams its replications through one block of about
``STREAM_ELEMENTS`` response values: each block of rows is drawn, fitted and
reduced to its least-squares fits and residual scales before the next
block reuses the buffer, so a study holds O(reps * k) memory, not a
``(reps, n)`` response matrix.  A lasso or adaptive-lasso study is the
exception: each pass of its homotopy gathers a ``(reps, k, k)`` stack of
Gram inverses, so it peaks at O(reps * k^2).  The ``(seed, replication)``
streams and each replication's results are bit-identical whatever the
block size and the replication count, as every step works row by row in a
fixed order.

The study simulates responses from a fixed design, computes one of the
five estimators (hard / soft / adaptive soft thresholding, lasso, adaptive
lasso; each with estimated or known error standard deviation) and records
the centered, scaled components ``alpha_i * (estimate_i - theta_i) /
sigma`` together with the exact proportion of zero outcomes.  A study is a
batch of the public estimators: each replication's row equals
:func:`replication_noise` -> ``RegressionData`` -> ``least_squares`` ->
``threshold_estimate`` / ``lasso`` / ``adaptive_lasso`` of that replication
alone, bit for bit.  Both fit by the SVD pseudo-inverse of X, which loses
digits as cond(X), not cond(X)^2.  ``alpha_i = sqrt(n) / xi_i`` is read from
component i's overlay, so a zero estimate lands exactly on the overlay's
``atom_location``.
"""

from __future__ import annotations

import json
import math
import numbers
import os
from dataclasses import dataclass

import numpy as np

from . import special as sf
from .distributions import (ADAPTIVE, HARD, KINDS, KNOWN, SOFT, ComponentSpec,
                            MixtureDistribution, VarianceMode, as_mixture,
                            with_atom_neighborhood)
from .estimators import (DesignSpec, LassoConfig, _Design, _fit_rows, _lasso_rows,
                         make_design, threshold_estimate)

__all__ = [
    "ESTIMATORS",
    "default_eta",
    "SimConfig",
    "SimResult",
    "replication_noise",
    "run_study",
    "sample_component",
    "EmpiricalMixedCdf",
    "empirical_mixed_cdf",
    "ks_distance",
    "PANELS",
    "write_study",
    "reproduce_figures",
]

ESTIMATORS = (HARD, SOFT, ADAPTIVE, "lasso", "adaptive-lasso")

#: response values per block of replications, which bounds the (rows, n)
#: buffers of a study; the results do not depend on it
STREAM_ELEMENTS = 1 << 17

HIST_RANGE = (-6.0, 6.0)
HIST_BINS = 60


def default_eta(n: int) -> float:
    """Tuning rule eta_n = n**-0.5 * Phi^{-1}(0.975): a coordinate with a
    zero coefficient is deleted with known-variance probability 0.95."""
    if not n >= 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    return sf.normal_quantile(0.975) / math.sqrt(n)


@dataclass(frozen=True)
class SimConfig:
    """One simulation run.

    ``eta`` of None selects :func:`default_eta`.
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
        if not (math.isfinite(self.sigma) and self.sigma > 0):
            raise ValueError(f"sigma must be finite and positive, got {self.sigma!r}")
        if self.eta is not None and not (math.isfinite(self.eta) and self.eta > 0):
            raise ValueError(f"eta must be finite and positive, got {self.eta!r}")
        if not (isinstance(self.reps, numbers.Integral) and self.reps >= 1):
            raise ValueError(f"reps must be a positive integer, got {self.reps!r}")
        object.__setattr__(self, "reps", int(self.reps))
        if not (isinstance(self.seed, numbers.Integral) and 0 <= self.seed < 2 ** 64):
            raise ValueError(f"seed must be an integer in [0, 2**64), got {self.seed!r}")
        object.__setattr__(self, "seed", int(self.seed))
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
    mixes = []
    for i in range(k):
        spec = ComponentSpec(n=n, xi=float(xi[i]), theta=config.theta[i], sigma=config.sigma,
                             eta=config.eta_value())
        mixes.append(as_mixture(kind, mode, spec))
    return tuple(mixes)


def run_study(config: SimConfig) -> SimResult:
    """Simulate the configured estimator; deterministic for a fixed seed."""
    n, k = config.design.n, config.design.k
    design = _Design(make_design(config.design))
    xi = design.xi()
    theta = np.asarray(config.theta)
    eta = config.eta_value()
    reps = config.reps

    # the replications stream through one block of response rows, fitted row
    # by row, so every row's results are the same bits whatever the block
    mean = design.X @ theta
    rows = min(reps, max(1, STREAM_ELEMENTS // n))
    Y = np.empty((rows, n))
    theta_ls = np.empty((reps, k))
    scale = np.empty(reps) if config.feasible else np.full(reps, config.sigma)
    for lo in range(0, reps, rows):
        hi = min(lo + rows, reps)
        # the noise is drawn straight into the response rows, then scaled and
        # shifted in place: the same bits as mean + sigma * noise
        y = _fill_noise(Y[:hi - lo], config.seed, lo)
        y *= config.sigma
        y += mean
        theta_ls[lo:hi], var = _fit_rows(design, y, config.feasible)
        if config.feasible:
            scale[lo:hi] = np.sqrt(var)

    if config.estimator in KINDS:
        estimates = threshold_estimate(config.estimator, theta_ls,
                                       scale[:, None], xi[None, :], eta)
    else:
        adaptive = config.estimator == "adaptive-lasso"
        # eta / xi is LassoConfig.eta_xi_inverse(eta)'s levels, bit for bit
        cfg = LassoConfig.constant(eta) if adaptive else LassoConfig.per_component(eta / xi)
        estimates = _lasso_rows(design, theta_ls, scale, cfg, adaptive)

    # each overlay's own alpha, so that a zero lands on its atom_location
    overlay = _overlay(config, xi)
    alpha = np.array([mix.spec.alpha for mix in overlay])
    scaled = alpha * (estimates - theta) / config.sigma
    zero_mask = estimates == 0.0

    # the nonzero outcomes of all k components, each clipped into the range
    # and binned by the fixed edges in one pass
    low, high = HIST_RANGE
    edges = np.linspace(low, high, HIST_BINS + 1)
    width = edges[1] - edges[0]
    bins = np.searchsorted(edges, np.clip(scaled, low + 0.5 * width, high - 0.5 * width),
                           side="right") - 1 + HIST_BINS * np.arange(k)
    counts = np.bincount(bins[~zero_mask], minlength=k * HIST_BINS).reshape(k, HIST_BINS)
    outliers = np.sum(~zero_mask & ((scaled < low) | (scaled > high)), axis=0)

    return SimResult(config=config, xi=xi, zero_proportion=zero_mask.mean(axis=0),
                     scaled_samples=scaled, hist_edges=edges,
                     hist_heights=counts / (reps * width), outlier_count=outliers,
                     overlay=overlay)


def sample_component(kind: str, mode: VarianceMode, spec: ComponentSpec,
                     reps: int, seed: int) -> np.ndarray:
    """Direct draws of one thresholded coordinate (diagonal-design law).

    Draws the least-squares coordinate N(theta, sigma^2 xi^2 / n) and, in
    unknown-variance mode, an independent sigma * sqrt(chi2_m/m), then
    thresholds.  Returns raw (unscaled) estimates.

    The normals come from ``Philox(key=(seed, 0))`` and the chi-squares from
    ``Philox(key=(seed, 1))``, one draw per replication in order, so the
    first m replications of a run are those of an m-replication run.
    """
    normal, chi2 = (np.random.Generator(np.random.Philox(key=np.array([seed, j], dtype=np.uint64)))
                    for j in (0, 1))
    ls = spec.theta + spec.sigma * spec.xi / math.sqrt(spec.n) * normal.standard_normal(reps)
    if mode.known:
        scale = np.full(reps, spec.sigma)
    else:
        scale = spec.sigma * np.sqrt(chi2.chisquare(mode.dof, reps) / mode.dof)
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
    return with_atom_neighborhood(qs, atom_location)


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
                           thresholding law, with the study's variance:
                           estimated (n - k residual degrees of freedom) if
                           feasible, else known
overlay_known_ac_density   same with known variance
overlay_atom_location      atom location of the overlay (constant column)
overlay_atom_weight        atom weight of the overlay law (constant)
overlay_known_atom_weight  atom weight, known-variance law (constant)
zero_proportion            empirical proportion of exact zeros (constant)

Metadata JSON sidecar keys, one sidecar per study:

estimator          simulated estimator
feasible           true if the error variance is estimated
design             variant, n, k, rho and c of the design
condition_number   condition number of X'X
xi                 xi value of each component
theta, sigma       true coefficients and error standard deviation
eta                tuning parameter
reps, seed         replication count and seed
zero_proportion    empirical proportion of exact zeros per component
outlier_count      nonzero outcomes outside the histogram range per component
solver_failures    always 0: the lasso solver is exact, so it either solves
                   every replication or aborts the study with exit code 3
panel              panel name; only in `threshdist reproduce` output
"""


def _panel_name(index: int, estimator: str, design: DesignSpec) -> str:
    if design.variant == "I":
        tag = f"designI_rho{design.rho:g}"
    else:
        tag = f"designII_c{design.c:g}"
    return f"fig{index:02d}_{estimator.replace('-', '_')}_{tag}"


def write_study(result: SimResult, prefix: str, **meta) -> list[str]:
    """Write a study as ``<prefix>_comp<i>.csv`` per component plus
    ``<prefix>_meta.json``, in the layout of ``SCHEMA.txt``; returns the paths.

    Keyword arguments are added to the metadata sidecar.
    """
    config = result.config
    design = config.design
    edges = result.hist_edges
    mids = 0.5 * (edges[:-1] + edges[1:])
    paths = []
    for i, mix in enumerate(result.overlay):
        known = as_mixture(mix.kind, KNOWN, mix.spec)
        # one (bins, 10) table; the constant columns broadcast down the bins
        table = np.column_stack(np.broadcast_arrays(
            edges[:-1], edges[1:], result.hist_heights[i], mids, mix.ac_density(mids),
            known.ac_density(mids), mix.atom_location, mix.atom_weight, known.atom_weight,
            result.zero_proportion[i]))
        path = f"{prefix}_comp{i + 1}.csv"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("bin_left,bin_right,hist_height,x,overlay_ac_density,"
                     "overlay_known_ac_density,overlay_atom_location,"
                     "overlay_atom_weight,overlay_known_atom_weight,"
                     "zero_proportion\n")
            fh.writelines(",".join(map(repr, row)) + "\n" for row in table.tolist())
        paths.append(path)

    sidecar = {
        "estimator": config.estimator,
        "feasible": config.feasible,
        "design": {"variant": design.variant, "n": design.n, "k": design.k,
                   "rho": design.rho, "c": design.c},
        "condition_number": _Design(make_design(design)).condition_number,
        "xi": result.xi.tolist(),
        "theta": list(config.theta),
        "sigma": float(config.sigma),
        "eta": config.eta_value(),
        "reps": config.reps,
        "seed": config.seed,
        "zero_proportion": result.zero_proportion.tolist(),
        "outlier_count": result.outlier_count.tolist(),
        "solver_failures": 0,
        **meta,
    }
    meta_path = f"{prefix}_meta.json"
    with open(meta_path, "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")
    paths.append(meta_path)
    return paths


def reproduce_figures(out_dir: str, seed: int, reps: int = 10_000) -> list[str]:
    """Write the data behind all twelve benchmark panels; returns the paths.

    Panel ``i`` uses seed ``seed + i``.  Outputs are bit-identical across
    reruns with the same seed.
    """
    # every panel's config, its seed included, is checked before anything is written
    configs = [SimConfig(design=design, theta=PANEL_THETA, sigma=PANEL_SIGMA,
                         estimator=estimator, feasible=True, reps=reps, seed=seed + index)
               for index, (estimator, design) in enumerate(PANELS, start=1)]
    os.makedirs(out_dir, exist_ok=True)
    schema_path = os.path.join(out_dir, "SCHEMA.txt")
    with open(schema_path, "w", encoding="utf-8") as fh:
        fh.write(_SCHEMA)
    paths = [schema_path]
    for index, config in enumerate(configs, start=1):
        name = _panel_name(index, config.estimator, config.design)
        paths += write_study(run_study(config), os.path.join(out_dir, name), panel=name)
    return paths
