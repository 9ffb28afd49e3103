"""Self-tests of the benchmark's correctness checks.

    python3 perfbench/selftest.py

Run from the root of a source checkout.  Every check must pass on a real
output of the package and fail on the same output perturbed slightly (a
law moved by 1e-6, a lasso solution moved off its optimality conditions,
one estimate changed), so that no check passes vacuously.  Exits 0 when
every case behaves, 1 otherwise.
"""

from __future__ import annotations

import math
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import checks  # noqa: E402
import workloads as wl  # noqa: E402
from threshdist import distributions as fd  # noqa: E402
from threshdist import estimators as est  # noqa: E402
from threshdist import simulate as mc  # noqa: E402

Q = wl.Q975
CASES = []


def case(fn):
    CASES.append(fn)
    return fn


def _law(kind, dof, spec, x):
    mode = fd.KNOWN if dof is None else fd.VarianceMode(dof)
    cdf = np.array([fd.cdf(kind, mode, spec, float(v)) for v in x])
    density = np.array([fd.ac_density(kind, mode, spec, float(v)) for v in x])
    return cdf, density


def _grid_case(kind, dof):
    # alpha = sqrt(n)/xi = 4, so the atom maps to w = 0 exactly
    spec = fd.ComponentSpec(n=16, xi=1.0, theta=0.4, sigma=1.0, eta=Q / 4.0)
    a = spec.atom_location
    x = np.unique(np.concatenate([np.linspace(-5.0, 5.0, 41), [a - 1e-9 * abs(a), a]]))
    shift, b = 4.0 * 0.4, Q
    sampled = wl._sampled(x, 6, a)
    weight = fd.deletion_probability(spec, fd.KNOWN if dof is None else fd.VarianceMode(dof))

    def run(cdf, density, w=weight):
        return checks.check_law_grid("grid", kind, dof, x, cdf, density, shift, b, w, a, sampled)

    cdf, density = _law(kind, dof, spec, x)
    moved_cdf, moved_density = _law(kind, dof, spec, x - 1e-6)
    moved_cdf[x == a], moved_density[x == a] = cdf[x == a], density[x == a]
    return [("real", run(cdf, density), False),
            ("law moved by 1e-6", run(moved_cdf, moved_density), True),
            ("atom weight + 1e-6", run(cdf, density, weight + 1e-6), True)]


for _kind in wl.KINDS:
    for _dof in (None, 3):
        case(lambda kind=_kind, dof=_dof: _grid_case(kind, dof)).__name__ = \
            f"law grid {_kind} {'known' if _dof is None else f'dof {_dof}'}"


@case
def grid_shape():
    x = np.linspace(-3.0, 3.0, 13)
    cdf = checks.ref.known_cdf("soft", x, 0.0, Q)
    swapped = cdf.copy()
    swapped[[4, 5]] = swapped[[5, 4]]
    over = cdf.copy()
    over[-1] = 1.0 + 1e-9

    def run(c):
        return checks.check_law_grid("shape", "soft", None, x, c, None, 0.0, Q, None, None, [])
    return [("real", run(cdf), False), ("two values swapped", run(swapped), True),
            ("cdf above 1", run(over), True)]


@case
def calibration():
    spec = fd.ComponentSpec(n=100, xi=1.0, theta=0.0, sigma=1.0, eta=Q / 10.0)
    p = fd.deletion_probability(spec)

    def run(v):
        return checks.check_deletions("calib", [v], [0.0], [Q], None, [True])
    return [("real", run(p), False), ("0.95 + 1e-11", run(p + 1e-11), True)]


@case
def tv_trend():
    return [("real", checks.check_tv_trend("tv", [0.05, 0.004, 3e-5]), False),
            ("rising", checks.check_tv_trend("tv", [0.05, 0.06, 3e-5]), True),
            ("above 2", checks.check_tv_trend("tv", [2.5, 0.004, 3e-5]), True)]


def _study(kind, feasible, reps=400):
    design = est.DesignSpec("I", 24, 4, rho=0.5)
    theta = np.array([2.0, 0.5, 0.0, -0.4]) / math.sqrt(24)
    config = mc.SimConfig(design=design, theta=tuple(theta), sigma=1.0, estimator=kind,
                          feasible=feasible, reps=reps, seed=7)
    return est.make_design(design), theta, mc.run_study(config)


@case
def threshold_replications():
    out = []
    for kind in wl.KINDS:
        X, theta, result = _study(kind, True)
        eta = Q / math.sqrt(24)
        reps = range(0, 400, 7)

        def run(scaled):
            return checks.check_threshold_replications(kind, kind, True, X, theta, 1.0, eta,
                                                       7, reps, scaled)
        nudged = result.scaled_samples.copy()
        nudged[7, 0] += 1e-9
        zero_moved = result.scaled_samples.copy()
        xi = checks.xi_of(X)
        atom = -math.sqrt(24) * theta[2] / xi[2]
        row = next(r for r in reps if zero_moved[r, 2] == atom)
        zero_moved[row, 2] += 1e-3
        out += [(f"{kind} real", run(result.scaled_samples), False),
                (f"{kind} one value + 1e-9", run(nudged), True),
                (f"{kind} one zero moved", run(zero_moved), True)]
    return out


@case
def zero_shares_and_ks():
    X, theta, result = _study("soft", False, reps=4000)
    xi = checks.xi_of(X)
    shifts = math.sqrt(24) * theta / xi
    probs = [checks.ref.known_deletion(s, Q) for s in shifts]
    p = np.array(probs)
    off = result.zero_proportion + 10.0 * np.sqrt(p * (1.0 - p) / 4000)
    samples = result.scaled_samples[:, 0]
    atom = -shifts[0]

    def ks(s):
        dist = checks.ks_distance(s, atom, probs[0],
                                  lambda g: checks.ref.known_cdf("soft", g, shifts[0], Q))
        return [] if dist <= checks.dkw_bound(4000) else [f"KS {dist:.3f}"]
    return [("zero shares real", checks.check_zero_shares("z", result.zero_proportion, probs, 4000),
             False),
            ("zero shares 10 se off", checks.check_zero_shares("z", off, probs, 4000), True),
            ("KS real", ks(samples), False),
            ("KS samples moved by 1", ks(np.where(samples == atom, atom, samples + 1.0)), True)]


@case
def kkt():
    out = []
    for estimator in ("lasso", "adaptive-lasso"):
        design = est.DesignSpec("I", 8, 4, rho=0.9)
        config = mc.SimConfig(design=design, theta=mc.PANEL_THETA, sigma=1.0,
                              estimator=estimator, feasible=True, reps=8, seed=3)
        result = mc.run_study(config)
        X = est.make_design(design)
        theta = np.asarray(mc.PANEL_THETA)
        eta = Q / math.sqrt(8)

        def run(scaled):
            return checks.check_kkt(estimator, estimator, X, theta, 1.0, eta, 3, range(8), scaled)
        moved = result.scaled_samples.copy()
        moved[2, 0] += 1e-6
        out += [(f"{estimator} real", run(result.scaled_samples), False),
                (f"{estimator} solution moved by 1e-6", run(moved), True)]
    return out


@case
def histogram_and_design():
    X, theta, result = _study("hard", True)
    width = result.hist_edges[1] - result.hist_edges[0]
    heights = result.hist_heights[0].copy()
    zero = float(result.zero_proportion[0])
    bumped = heights.copy()
    bumped[10] += 1e-9 / width
    gram = checks.design_gram("I", 24, 4, rho=0.5)
    return [("histogram real", checks.check_histogram("h", heights, width, zero), False),
            ("histogram mass + 1e-9", checks.check_histogram("h", bumped, width, zero), True),
            ("design real", checks.check_design("d", X, gram), False),
            ("design moved by 1e-9", checks.check_design("d", X + 1e-9, gram), True)]


@case
def replay():
    w = wl.ExactLaws(1, ".")
    rows = [{"x": 0.0, "cdf": 0.5}]
    first = w.check_first
    w.check_first = lambda label, output: []
    try:
        same = w.check(0, "sweep.known", rows) + w.check(1, "sweep.known", [dict(rows[0])])
        changed = w.check(2, "sweep.known", [{"x": 0.0, "cdf": 0.5 + 1e-15}])
    finally:
        w.check_first = first
    return [("replayed", same, False), ("changed in a later round", changed, True)]


def main() -> int:
    bad = 0
    for fn in CASES:
        for label, failures, should_fail in fn():
            ok = bool(failures) == should_fail
            bad += not ok
            verdict = "ok  " if ok else "BAD "
            detail = failures[0] if failures else "passes"
            print(f"{verdict}{fn.__name__}: {label}: {detail}")
    print(f"{bad} bad case(s)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
