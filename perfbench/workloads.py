"""The three benchmark workloads and their operations.

A workload builds its inputs from the seed, then hands the runner one round
of operations at a time.  Every round repeats the same operations on the
same inputs, so the first round is checked in full and every later round
must reproduce the first round's outputs bit for bit.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy import stats

import checks
import reference as ref
from threshdist import cli
from threshdist import distributions as fd
from threshdist import estimators as est
from threshdist import limits as lm
from threshdist import simulate as mc

KINDS = ("hard", "soft", "adaptive")
Q975 = float(stats.norm.ppf(0.975))


@dataclass
class Op:
    """One operation: ``fn`` returns its output; a probe's ``judge`` says
    whether the package behaved as documented."""

    label: str
    fn: Callable[[], object]
    judge: Callable[[object], bool] | None = None

    @property
    def probe(self) -> bool:
        return self.judge is not None


@dataclass
class Outcome:
    """What an operation produced: its output, the units of work it did and,
    when it spans several operations, their separate durations."""

    output: object
    items: int
    parts: list = field(default_factory=list)


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


class Workload:
    """Common round bookkeeping: first-round checks, later-round replay."""

    name = ""

    def __init__(self, seed: int, tmp: str):
        self.seed = seed
        self.tmp = tmp
        self.first: dict[str, str] = {}

    def operations(self, round_index: int) -> list[Op]:
        raise NotImplementedError

    def fingerprint(self, label: str, output) -> str:
        raise NotImplementedError

    def check_first(self, label: str, output) -> list[str]:
        raise NotImplementedError

    def check(self, round_index: int, label: str, output) -> list[str]:
        """Full check in the first round; identity with it afterwards."""
        digest = self.fingerprint(label, output)
        if round_index == 0:
            self.first[label] = digest
            return self.check_first(label, output)
        if digest != self.first.get(label):
            return [f"{label}: output differs from the first round"]
        return []


# --- panels -------------------------------------------------------------------

class Panels(Workload):
    """``simulate.reproduce_figures``: all twelve lasso / adaptive-lasso panels."""

    name = "panels"
    REPS = 300
    #: replications whose solutions are checked against their KKT conditions
    KKT_PREFIX = 16

    def __init__(self, seed: int, tmp: str):
        super().__init__(seed, tmp)
        self.panels = [(i, estimator, design)
                       for i, (estimator, design) in enumerate(mc.PANELS, start=1)]
        self.designs = {i: est.make_design(design) for i, _, design in self.panels}

    def _reproduce(self, round_index: int) -> Outcome:
        out_dir = os.path.join(self.tmp, f"panels{round_index}")
        starts = []
        inner = mc.run_study

        def marked(config):
            starts.append(time.perf_counter())
            return inner(config)

        # a timestamp at each study marks where one panel ends and the next begins
        mc.run_study = marked
        try:
            paths = mc.reproduce_figures(out_dir, seed=self.seed, reps=self.REPS)
            end = time.perf_counter()
        finally:
            mc.run_study = inner
        parts = [b - a for a, b in zip(starts, starts[1:] + [end])]
        return Outcome(paths, len(self.panels) * self.REPS, parts)

    def operations(self, round_index: int) -> list[Op]:
        return [Op("reproduce_figures", lambda: self._reproduce(round_index))]

    def fingerprint(self, label: str, paths) -> str:
        h = hashlib.sha256()
        for path in paths:
            h.update(os.path.basename(path).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
        return h.hexdigest()

    def check(self, round_index: int, label: str, paths) -> list[str]:
        out = super().check(round_index, label, paths)
        shutil.rmtree(os.path.dirname(paths[0]), ignore_errors=True)
        return out

    def check_first(self, label: str, paths) -> list[str]:
        by_name = {os.path.basename(p): p for p in paths}
        out = []
        eta = Q975 / math.sqrt(8)
        for index, estimator, design in self.panels:
            metas = [p for p in by_name
                     if p.startswith(f"fig{index:02d}_") and p.endswith("_meta.json")]
            if len(metas) != 1:
                out.append(f"panel {index}: expected one metadata file, found {metas}")
                continue
            with open(by_name[metas[0]], encoding="utf-8") as fh:
                meta = json.load(fh)
            tag = metas[0][: -len("_meta.json")]
            X = self.designs[index]
            n, k = X.shape
            out += checks.check_design(tag, X, checks.design_gram(
                design.variant, n, k, rho=design.rho, c=design.c))
            if meta["solver_failures"] != 0:
                out.append(f"{tag}: {meta['solver_failures']} solver failures")
            xi = checks.xi_of(X)
            out += checks.compare(f"{tag} xi", meta["xi"], xi, checks.CLOSED)
            theta = np.asarray(meta["theta"], dtype=float)
            for i in range(k):
                path = by_name.get(f"{tag}_comp{i + 1}.csv")
                if path is None:
                    out.append(f"{tag}: component {i + 1} file missing")
                    continue
                out += self._check_component(f"{tag}_comp{i + 1}", path, estimator,
                                             n - k, math.sqrt(n) * theta[i] / xi[i],
                                             math.sqrt(n) * eta)
            out += self._check_kkt(tag, index, estimator, design, X, theta, eta)
        return out

    @staticmethod
    def _check_component(tag, path, estimator, dof, shift, b) -> list[str]:
        data = np.genfromtxt(path, delimiter=",", names=True)
        kind = "soft" if estimator == "lasso" else "adaptive"
        width = float(data["bin_right"][0] - data["bin_left"][0])
        out = checks.check_histogram(tag, data["hist_height"], width,
                                     float(data["zero_proportion"][0]))
        out += checks.check_deletions(f"{tag} overlay", data["overlay_atom_weight"][:1],
                                      [shift], [b], dof)
        out += checks.check_deletions(f"{tag} known overlay",
                                      data["overlay_known_atom_weight"][:1], [shift], [b], None)
        out += checks.compare(f"{tag} known overlay density", data["overlay_known_ac_density"],
                              ref.known_density(kind, data["x"], shift, b), checks.CLOSED)
        return out

    def _check_kkt(self, tag, index, estimator, design, X, theta, eta) -> list[str]:
        # streams are keyed by (seed, replication): a short run with the
        # panel's seed reproduces the first replications of the panel
        config = mc.SimConfig(design=design, theta=mc.PANEL_THETA, sigma=mc.PANEL_SIGMA,
                              estimator=estimator, feasible=True, reps=self.KKT_PREFIX,
                              seed=self.seed + index)
        result = mc.run_study(config)
        return checks.check_kkt(f"{tag} kkt", estimator, X, theta, mc.PANEL_SIGMA, eta,
                                self.seed + index, range(self.KKT_PREFIX),
                                result.scaled_samples)


# --- mc_threshold ---------------------------------------------------------------

class McThreshold(Workload):
    """``simulate.run_study`` for the three thresholding rules, each with
    estimated and with known variance, at 400 residual degrees of freedom."""

    name = "mc_threshold"
    N, K = 404, 4
    REPS = 20_000
    #: replications recomputed from regenerated noise
    SUBSAMPLE = 64

    def __init__(self, seed: int, tmp: str):
        super().__init__(seed, tmp)
        rng = np.random.default_rng([seed, 2])
        rho = float(rng.choice([0.3, 0.5, 0.9]))
        self.design = est.DesignSpec("I", self.N, self.K, rho=rho)
        self.X = est.make_design(self.design)
        # coefficients of order sigma/sqrt(n), where deletion is neither 0 nor 1
        nu = np.array([rng.uniform(1.5, 3.0), rng.uniform(0.3, 1.2), 0.0,
                       -rng.uniform(0.3, 1.2)])
        self.theta = nu / math.sqrt(self.N)
        self.configs = {
            f"{kind}.{'unknown' if feasible else 'known'}": mc.SimConfig(
                design=self.design, theta=tuple(self.theta), sigma=1.0, estimator=kind,
                feasible=feasible, reps=self.REPS, seed=seed)
            for kind in KINDS for feasible in (True, False)}
        self.subsample = np.sort(rng.choice(self.REPS, self.SUBSAMPLE, replace=False))

    def operations(self, round_index: int) -> list[Op]:
        return [Op(label, lambda c=config: Outcome(mc.run_study(c), c.reps))
                for label, config in self.configs.items()]

    def fingerprint(self, label: str, result) -> str:
        return _digest(result.scaled_samples, result.zero_proportion, result.hist_heights)

    def check_first(self, label: str, result) -> list[str]:
        config = self.configs[label]
        kind, mode = label.split(".")
        n, k = self.N, self.K
        eta = Q975 / math.sqrt(n)
        b = math.sqrt(n) * eta
        dof = None if mode == "known" else n - k
        out = checks.check_design(label, self.X, checks.design_gram("I", n, k, rho=self.design.rho))
        xi = checks.xi_of(self.X)
        out += checks.compare(f"{label} xi", result.xi, xi, checks.CLOSED)
        out += checks.check_threshold_replications(
            label, kind, config.feasible, self.X, self.theta, 1.0, eta, self.seed,
            self.subsample, result.scaled_samples)
        shifts = math.sqrt(n) * self.theta / xi
        probs = [checks.deletion_reference(s, b, dof) for s in shifts]
        out += checks.check_zero_shares(label, result.zero_proportion, probs, config.reps)
        bound = checks.dkw_bound(config.reps)
        for i in range(k):
            samples = result.scaled_samples[:, i]
            estimates = self.theta[i] + samples * (xi[i] / math.sqrt(n))
            zeros = samples[np.abs(estimates) <= 1e-13]
            atom = float(zeros[0]) if zeros.size else -shifts[i]

            def law(grid, s=shifts[i], atom=atom):
                grid = np.where(grid == atom, -s, grid)  # the atom takes the upper branch
                if dof is None:
                    return ref.known_cdf(kind, grid, s, b)
                if kind == "soft":
                    return ref.nct_soft_cdf(dof, grid, b, s)
                return [ref.smoothed_cdf(kind, dof, float(g), s, b) for g in grid]

            dist = checks.ks_distance(samples, atom, probs[i], law)
            if dist > bound:
                out.append(f"{label} comp {i + 1}: KS distance {dist:.4f} > DKW bound {bound:.4f}")
        return out


# --- exact_laws -------------------------------------------------------------------

class ExactLaws(Workload):
    """Exact laws without RNG or solver: CLI grids, deletion sweeps, limit
    laws and known-vs-estimated total variation, plus four probes.

    Operations per round: 21 known-variance grids (7 per kind), 9
    estimated-variance grids, 3 sweeps, 3 limit-law evaluations and 3
    total-variation trends (one per kind each).  The cheap, CLI-bound
    known-variance grids are the middle of the operation-time distribution,
    so ``op_p50_s`` reads the cost of one ``threshdist dist`` call rather
    than whichever heterogeneous operation happens to sit at the median.
    """

    name = "exact_laws"
    GRID_N = (16, 64, 256)
    GRID_XI = (1.0, 2.0)
    #: anchors of the standardized shifts of the known-variance grids
    KNOWN_SHIFTS = (-2.4, -1.6, -0.8, 0.1, 0.9, 1.7, 2.5)
    #: residual dof of the estimated-variance grids, and their shift anchors
    GRID_DOF = (1, 24, 300)
    DOF_SHIFTS = (1.2, -0.8, 2.2)
    SWEEP_N = (10, 1_000, 100_000, 100_000_000)
    SWEEP_NU = 33
    SWEEP_DOF = (None, 4, 400)
    LIMIT_DOF = (None, 4, 40)
    LIMIT_POINTS = 201
    TV_N = (20, 80, 320)
    #: points of each smoothed grid recomputed as chi expectations
    SAMPLED = 8

    def __init__(self, seed: int, tmp: str):
        super().__init__(seed, tmp)
        rng = np.random.default_rng([seed, 3])
        self.grids = {}
        # sqrt(n)/xi is a power of two on every grid, so the package maps the
        # atom to w = 0 exactly (probe.cdf_at_atom covers the other case);
        # each grid's standardized shift is jittered around its own anchor,
        # which keeps the atom on the grid and the quadrature work alike from
        # seed to seed
        for kind in KINDS:
            slots = [(f"known.{j}", None, a) for j, a in enumerate(self.KNOWN_SHIFTS)]
            slots += [(f"dof{d}", d, a) for d, a in zip(self.GRID_DOF, self.DOF_SHIFTS)]
            for tag, dof, anchor in slots:
                label = f"grid.{kind}.{tag}"
                n, xi = int(rng.choice(self.GRID_N)), float(rng.choice(self.GRID_XI))
                shift = anchor + float(rng.uniform(-0.2, 0.2))
                self.grids[label] = dict(kind=kind, dof=dof, n=n, xi=xi,
                                         theta=shift * xi / math.sqrt(n))
        self.sweep_xi = float(rng.uniform(1.0, 2.0))
        nu = np.linspace(-4.0, 4.0, self.SWEEP_NU) + rng.uniform(-0.05, 0.05, self.SWEEP_NU)
        nu[self.SWEEP_NU // 2] = 0.0
        self.sweep_specs = []
        for n in self.SWEEP_N:
            eta = Q975 / math.sqrt(n)
            for th in list(nu * self.sweep_xi / math.sqrt(n)) + [0.05, 0.5]:
                self.sweep_specs.append(fd.ComponentSpec(n=n, xi=self.sweep_xi, theta=float(th),
                                                         sigma=1.0, eta=eta))
        self.limit_e = float(rng.uniform(1.0, 2.5))
        self.limit_nu = float(rng.uniform(-2.0, 2.0))
        self.limit_x = np.unique(np.concatenate([
            np.linspace(-6.0, 6.0, self.LIMIT_POINTS),
            [-self.limit_nu - 1e-9 * max(1.0, abs(self.limit_nu)), -self.limit_nu]]))

    # operations

    def _grid(self, label: str) -> Outcome:
        g = self.grids[label]
        path = os.path.join(self.tmp, label + ".json")
        argv = ["dist", "--kind", g["kind"], "--n", str(g["n"]), "--xi", repr(g["xi"]),
                "--theta", repr(g["theta"]), "--sigma", "1", "--eta-rule", "default",
                "--format", "json", "--out", path]
        if g["dof"] is not None:
            argv += ["--mode", "unknown", "--dof", str(g["dof"])]
        code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"threshdist {' '.join(argv)} exited with {code}")
        with open(path, encoding="utf-8") as fh:
            rows = json.load(fh)
        os.remove(path)
        return Outcome(rows, 2 * len(rows) + 1)

    def _sweep(self, dof) -> Outcome:
        mode = fd.KNOWN if dof is None else fd.VarianceMode(dof)
        probs = [fd.deletion_probability(spec, mode) for spec in self.sweep_specs]
        return Outcome(probs, len(probs))

    def _limits(self, kind: str) -> Outcome:
        """The conservative limit law of ``kind`` for each of LIMIT_DOF."""
        laws, items = {}, 0
        for dof in self.LIMIT_DOF:
            params = lm.RegimeParams(e=self.limit_e, nu=self.limit_nu, dof=dof)
            family = lm.limit_distribution(kind, "known" if dof is None else "unknown", params)
            cdf = [family.cdf(float(x)) for x in self.limit_x]
            density = [family.ac_density(float(x)) for x in self.limit_x]
            laws[str(dof)] = dict(cdf=cdf, density=density, atom_weight=family.atom_weight,
                                  atom_location=family.atom_location)
            items += len(cdf) + len(density) + 1
        return Outcome(laws, items)

    def _tv(self, kind: str) -> Outcome:
        """Known- vs estimated-variance total variation at n in TV_N, dof n/2."""
        values = []
        for n in self.TV_N:
            eta = n ** -0.25
            spec = fd.ComponentSpec(n, 1.0, 0.0, 1.0, eta)
            known = fd.as_mixture(kind, fd.KNOWN, spec)
            unknown = fd.as_mixture(kind, fd.VarianceMode.unknown_sigma(n // 2), spec)
            b = math.sqrt(n) * eta
            values.append(lm.tv_distance(known, unknown, window=(-b - 9.0, b + 9.0),
                                         breakpoints=(-b, 0.0, b)))
        return Outcome(values, 0)

    def operations(self, round_index: int) -> list[Op]:
        ops = [Op(label, lambda lb=label: self._grid(lb)) for label in self.grids]
        ops += [Op(f"sweep.{'known' if d is None else f'dof{d}'}", lambda d=d: self._sweep(d))
                for d in self.SWEEP_DOF]
        ops += [Op(f"limit.{kind}", lambda kind=kind: self._limits(kind)) for kind in KINDS]
        ops += [Op(f"tv.{kind}", lambda kind=kind: self._tv(kind)) for kind in KINDS]
        ops += [Op("probe.nan_rejected", _probe_nan, lambda out: out),
                Op("probe.numpy_integers", _probe_numpy_ints, lambda out: out),
                Op("probe.adaptive_density_near_atom", _probe_near_atom, _judge_near_atom),
                Op("probe.cdf_at_atom", _probe_cdf_at_atom, lambda out: out)]
        return ops

    # checks

    def fingerprint(self, label: str, output) -> str:
        return hashlib.sha256(json.dumps(output, sort_keys=True).encode()).hexdigest()

    def check_first(self, label: str, output) -> list[str]:
        head = label.split(".")[0]
        if head == "grid":
            return self._check_grid(label, output)
        if head == "sweep":
            dof = None if label.endswith("known") else int(label.rsplit("dof", 1)[1])
            shifts = [math.sqrt(s.n) * s.theta / s.xi for s in self.sweep_specs]
            bs = [math.sqrt(s.n) * s.eta for s in self.sweep_specs]
            calibrated = [s.theta == 0.0 for s in self.sweep_specs] if dof is None else None
            return checks.check_deletions(label, output, shifts, bs, dof, calibrated)
        if head == "limit":
            kind = label.split(".")[1]
            out = []
            for dof in self.LIMIT_DOF:
                law = output[str(dof)]
                out += checks.check_law_grid(
                    f"{label}.{dof}", kind, dof, self.limit_x, law["cdf"], law["density"],
                    self.limit_nu, self.limit_e, law["atom_weight"], law["atom_location"],
                    _sampled(self.limit_x, self.SAMPLED))
            return out
        return checks.check_tv_trend(label, output)

    def _check_grid(self, label: str, rows) -> list[str]:
        g = self.grids[label]
        n, xi, theta = g["n"], g["xi"], g["theta"]
        shift, b = math.sqrt(n) * theta / xi, Q975
        x = np.array([r["x"] for r in rows])
        cdf = np.array([r["cdf"] for r in rows])
        density = np.array([r["ac_density"] for r in rows])
        out = []
        if len({r["atom_weight"] for r in rows}) != 1:
            out.append(f"{label}: atom weight not constant")
        return out + checks.check_law_grid(
            label, g["kind"], g["dof"], x, cdf, density, shift, b, rows[0]["atom_weight"],
            rows[0]["atom_location"], _sampled(x, self.SAMPLED, rows[0]["atom_location"]))


def _sampled(x, count: int, atom: float | None = None) -> list[int]:
    """Evenly spread grid indices, plus the atom's right neighbour."""
    idx = set(np.linspace(0, len(x) - 1, count).round().astype(int).tolist())
    if atom is not None:
        above = np.flatnonzero(np.asarray(x) > atom)
        if above.size:
            idx.add(int(above[np.argmin(np.asarray(x)[above])]))
    return sorted(idx)


# --- probes: inputs fixed, independent of the seed -------------------------------

_PROBE_SPEC = dict(n=8, xi=1.0, theta=0.5, sigma=1.0, eta=Q975 / math.sqrt(8))


def _probe_nan() -> bool:
    """cdf at NaN must raise ValueError for every known-variance kind."""
    spec = fd.ComponentSpec(**_PROBE_SPEC)
    for kind in KINDS:
        try:
            fd.cdf(kind, fd.KNOWN, spec, math.nan)
        except ValueError:
            continue
        return False
    return True


def _probe_numpy_ints() -> bool:
    """numpy integers are accepted where ints are, and give the same law."""
    try:
        spec = fd.ComponentSpec(**{**_PROBE_SPEC, "n": np.int64(8)})
        mode = fd.VarianceMode(np.int64(4))
    except ValueError:
        return False
    plain = fd.ComponentSpec(**_PROBE_SPEC)
    xs = (-1.0, -spec.theta * spec.alpha, 0.3)
    return (mode == fd.VarianceMode(4)
            and all(fd.cdf(k, fd.KNOWN, spec, x) == fd.cdf(k, fd.KNOWN, plain, x)
                    and fd.ac_density(k, fd.KNOWN, spec, x) == fd.ac_density(k, fd.KNOWN, plain, x)
                    for k in KINDS for x in xs)
            and fd.deletion_probability(spec) == fd.deletion_probability(plain))


_NEAR_ATOM = (-1e-9, 1e-9)


def _probe_near_atom():
    """Adaptive-soft density at one residual dof, theta = 0, next to the atom."""
    spec = fd.ComponentSpec(**{**_PROBE_SPEC, "theta": 0.0})
    return [fd.ac_density("adaptive", fd.VarianceMode(1), spec, x) for x in _NEAR_ATOM]


def _judge_near_atom(values) -> bool:
    """Within the package's 1e-10 quadrature contract of the chi expectation."""
    want = [ref.smoothed_density("adaptive", 1, x, 0.0, Q975) for x in _NEAR_ATOM]
    return all(abs(g - w) <= checks.SINGLE for g, w in zip(values, want))


def _probe_cdf_at_atom() -> bool:
    """The cdf at the atom includes the atom weight (right-continuity), here
    at inputs where x / alpha + theta / sigma rounds below zero."""
    spec = fd.ComponentSpec(n=8, xi=1.1, theta=0.39, sigma=1.0, eta=Q975 / math.sqrt(8))
    atom = spec.atom_location
    weight = fd.deletion_probability(spec)
    below = atom - 1e-9 * max(1.0, abs(atom))
    return all(abs(fd.cdf(k, fd.KNOWN, spec, atom) - fd.cdf(k, fd.KNOWN, spec, below) - weight)
               <= checks.DOUBLE + 1e-9 * max(1.0, abs(atom)) for k in KINDS)


WORKLOADS = {w.name: w for w in (Panels, McThreshold, ExactLaws)}
