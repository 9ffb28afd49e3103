"""Invariant suites runnable from the command line.

Each check returns silently on success and raises AssertionError with a
diagnostic message on failure.  ``run(names)`` executes a subset (default
all) and reports one PASS/FAIL line per check.  The registry is the one
home of the library invariants: the test suite runs each check as its own
test rather than keeping a copy of it.
"""

from __future__ import annotations

import math
import traceback
from dataclasses import replace

import numpy as np
from scipy import integrate
from scipy.special import bdtr, bdtrc, nctdtr

from . import special as sf
from . import distributions as fd
from . import limits as lm
from . import estimators as est
from . import simulate as mc

_CHECKS: dict[str, callable] = {}


def _check(fn):
    _CHECKS[fn.__name__] = fn
    return fn


# ---------------------------------------------------------------- specfun

@_check
def rho_normalization():
    # the mass through the QUADPACK oracle, and through the panel engine of
    # every law up to MAX_DOF
    for m in range(1, 65):
        total = sf.integrate_rho(m, lambda s: 1.0)
        assert abs(total - 1.0) <= 1e-10, f"m={m}: integral {total}"
    for m in (*range(1, 65), 10 ** 9, 10 ** 13, 10 ** 15, sf.MAX_DOF):
        total = sf.rho_average(m, lambda x, s: np.ones_like(s), 0.0, [[1.0]], [[1.0]])[0]
        assert abs(total - 1.0) <= 1e-10, f"m={m}: rho_average integral {total}"


@_check
def noncentral_t_identity():
    # integral of Phi(a + b*s) rho_m(s) ds equals the t cdf at b with
    # non-centrality -a, which scipy evaluates by its own series
    for m in (1, 2, 4, 16, 64):
        for a in (-2.0, -0.5, 0.0, 1.0, 1.5, 3.0):
            for b in (-2.0, -1.0, 0.0, 0.7, 2.0, 2.5):
                lhs = sf.integrate_rho(m, lambda s: sf.normal_cdf(a + b * s))
                rhs = nctdtr(m, -a, b)
                assert abs(lhs - rhs) <= 1e-8, f"(m,a,b)=({m},{a},{b}): {lhs} vs {rhs}"


@_check
def rho_gaussian_l1_limit():
    # the rescaled rho density approaches the standard normal in L1 at the
    # rate c/sqrt(m) of the first Edgeworth term: each fourfold step in m
    # halves the distance.  m = 4096 integrates without the breakpoint.
    def l1(m):
        def f(t):
            scale = 1.0 / math.sqrt(2.0 * m)
            return abs(scale * float(sf.rho_density(m, scale * t + 1.0)) - float(sf.normal_pdf(t)))
        val, _ = integrate.quad(f, -60.0, 60.0, limit=400,
                                points=[-math.sqrt(2.0 * m)] if 2.0 * m <= 3600 else None)
        return val

    dists = [l1(m) for m in (64, 256, 1024, 4096)]
    assert all(math.isfinite(v) for v in dists), f"non-finite distance: {dists}"
    ratios = [b / a for a, b in zip(dists, dists[1:])]
    assert all(0.45 <= r <= 0.55 for r in ratios), f"distances {dists}, ratios {ratios}"


@_check
def special_monotonicity():
    xs = np.linspace(-8.0, 8.0, 161)
    phi_vals = sf.normal_cdf(xs)
    assert np.all(np.diff(phi_vals) >= 0.0)
    for m, xs in ((5, np.linspace(0.0, 40.0, 81)), (6, np.linspace(0.0, 50.0, 101))):
        assert np.all(np.diff(sf.chi_square_tail(m, xs)) <= 0.0), f"chi-square tail, m={m}"


# ------------------------------------------------------------- finite_dist

def _specs():
    eta = mc.default_eta(8)
    return [fd.ComponentSpec(8, 1.0, th, 1.0, eta) for th in (0.0, 1.5, 3.0)]


@_check
def smoothing_identity():
    # the unknown-variance cdf and density equal the known-variance law with
    # eta -> s*eta averaged over s ~ rho_m, at 1 and at 400 residual dof;
    # the breakpoint is the s at which the known law at x' turns
    turn = {fd.HARD: lambda xs, nu: abs(xs + nu), fd.SOFT: lambda xs, nu: abs(xs),
            fd.ADAPTIVE: lambda xs, nu: 0.5 * abs(xs + nu)}
    grid = np.linspace(-6.0, 6.0, 31)
    for m in (1, 400):
        mode = fd.VarianceMode.unknown_sigma(m)
        for kind in fd.KINDS:
            for spec in _specs():
                b = spec.root_n * spec.eta
                for law in (fd.cdf, fd.ac_density):
                    worst = 0.0
                    for x, lhs in zip(grid, law(kind, mode, spec, grid)):
                        def averaged(s, x=float(x)):
                            spec_s = fd.ComponentSpec(spec.n, spec.xi, spec.theta, spec.sigma,
                                                      s * spec.eta, alpha=spec.alpha)
                            return law(kind, fd.KNOWN, spec_s, x)

                        bp = [turn[kind](spec.standardized(float(x)), spec.shift) / b]
                        worst = max(worst, abs(lhs - sf.integrate_rho(m, averaged, breakpoints=bp)))
                    assert worst <= 1e-7, \
                        f"{kind} {law.__name__}, m={m}, theta={spec.theta}: max error {worst}"


@_check
def sign_symmetry():
    # the law at (theta, x) mirrors the law at (-theta, -x)
    eta = mc.default_eta(8)
    for kind in fd.KINDS:
        for mode in (fd.KNOWN, fd.VarianceMode.unknown_sigma(4)):
            for th in (0.7, 1.5, 2.0):
                pos = fd.ComponentSpec(8, 1.0, th, 1.0, eta)
                neg = fd.ComponentSpec(8, 1.0, -th, 1.0, eta)
                dw = abs(fd.deletion_probability(pos, mode) - fd.deletion_probability(neg, mode))
                assert dw <= 1e-12, f"{kind} atom weight asymmetry {dw}"
                for x in np.linspace(-5.0, 5.0, 41):
                    a = fd.ac_density(kind, mode, pos, float(x))
                    b = fd.ac_density(kind, mode, neg, float(-x))
                    assert abs(a - b) <= 1e-9, f"{kind} density asymmetry at {x}: {a} vs {b}"


@_check
def cdf_jump_matches_deletion_probability():
    for kind in fd.KINDS:
        for mode in (fd.KNOWN, fd.VarianceMode.unknown_sigma(4)):
            for spec in _specs():
                mix = fd.as_mixture(kind, mode, spec)
                a = mix.atom_location
                jump = mix.cdf(a) - mix.cdf(a - 1e-9)
                assert abs(jump - mix.atom_weight) <= 1e-8, \
                    f"{kind}: jump {jump} vs weight {mix.atom_weight}"


@_check
def soft_unknown_closed_form_vs_quadrature():
    m = 4
    mode = fd.VarianceMode.unknown_sigma(m)
    for spec in _specs():
        b = spec.root_n * spec.eta
        for x in np.linspace(-6.0, 6.0, 61):
            law = fd.cdf(fd.SOFT, mode, spec, float(x))
            v = spec.standardized(float(x))
            sign = 1.0 if spec.offset(float(x)) >= 0.0 else -1.0
            closed = nctdtr(m, -v, sign * b)
            quad = sf.integrate_rho(m, lambda s: sf.normal_cdf(v + sign * s * b))
            assert max(abs(law - closed), abs(law - quad)) <= 1e-8, \
                f"x={x}: {law} vs scipy nctdtr {closed}, quadrature {quad}"


@_check
def adaptive_cdf_consistent_with_density():
    # the cdf is the integral of the density plus the atom, for every kind
    for kind in fd.KINDS:
        for mode in (fd.KNOWN, fd.VarianceMode.unknown_sigma(4)):
            for spec in _specs():
                mix = fd.as_mixture(kind, mode, spec)
                for x in (-2.0, -0.5, 0.3, 1.0, 1.8, 2.5):
                    num, _ = integrate.quad(mix.ac_density, -40.0, x, limit=400,
                                            points=[p for p in (mix.atom_location,) if p < x])
                    jump = mix.atom_weight if x >= mix.atom_location else 0.0
                    assert abs(mix.cdf(x) - (num + jump)) <= 1e-7, \
                        f"{kind}, x={x}: cdf {mix.cdf(x)} vs integral {num + jump}"


@_check
def cdf_monotone():
    # monotone on a grid, and continuous from the right at the atom
    grid = np.linspace(-8.0, 8.0, 161)
    for kind in fd.KINDS:
        for mode in (fd.KNOWN, fd.VarianceMode.unknown_sigma(4)):
            for spec in _specs():
                vals = [fd.cdf(kind, mode, spec, float(x)) for x in grid]
                diffs = np.diff(vals)
                assert np.all(diffs >= -1e-12), f"{kind} not monotone"
                a = spec.atom_location
                step = fd.cdf(kind, mode, spec, a + 1e-9) - fd.cdf(kind, mode, spec, a)
                assert abs(step) <= 1e-6, f"{kind}, theta={spec.theta}: right jump {step}"


@_check
def unknown_variance_approaches_known():
    # the effect of estimating sigma vanishes as the residual dof m grows:
    # the sup cdf distance off the atom falls like 1/m (hard: 1/sqrt(m) near
    # the band edges), and the atom weight moves by about c/m
    spec = fd.ComponentSpec(8, 1.3, 0.4, 1.0, mc.default_eta(8))
    grid = np.linspace(-6.0, 6.0, 601)
    grid = grid[grid != spec.atom_location]
    dofs = (4, 40, 400, 4000)
    for kind in fd.KINDS:
        known = fd.cdf(kind, fd.KNOWN, spec, grid)
        dists = [float(np.max(np.abs(fd.cdf(kind, fd.VarianceMode.unknown_sigma(m), spec, grid)
                                     - known))) for m in dofs]
        assert all(y <= x / 2.0 for x, y in zip(dists, dists[1:])), f"{kind}: {dists}"
    weight = fd.deletion_probability(spec)
    scaled = [m * abs(fd.deletion_probability(spec, fd.VarianceMode.unknown_sigma(m)) - weight)
              for m in dofs[1:]]
    assert max(scaled) - min(scaled) <= 0.02 * max(scaled), f"m * |weight change|: {scaled}"


# -------------------------------------------------------------- asymptotics

@_check
def limit_weight_coherence():
    inf = math.inf
    cases = [
        ("known", lm.RegimeParams(e=1.0, nu=0.4)),
        ("known", lm.RegimeParams(e=2.5, nu=-1.0)),
        ("unknown", lm.RegimeParams(e=1.0, nu=0.4, dof=4)),
        ("unknown", lm.RegimeParams(e=2.5, nu=-1.0, dof=7)),
        ("unknown", lm.RegimeParams(e=inf, zeta=0.8, dof=4)),
        ("unknown", lm.RegimeParams(e=inf, zeta=1.0, dof=inf, d=0.0, r=0.3)),
        ("unknown", lm.RegimeParams(e=inf, zeta=1.0, dof=inf, d=1.5, r=0.3)),
        ("unknown", lm.RegimeParams(e=inf, zeta=1.0, dof=inf, d=inf, r_prime=-0.7)),
    ]
    for mode, params in cases:
        for kind in fd.KINDS:
            family = lm.limit_distribution(kind, mode, params)
            if family.atom_location is None or isinstance(family, lm.PointMass):
                # a total-collapse pointmass merges kept and deleted mass;
                # only families whose atom is the deletion outcome qualify
                continue
            sel = lm.limit_selection_probability(params, mode)
            assert abs(family.atom_weight - sel) <= 1e-10, \
                f"{kind}/{mode}: weight {family.atom_weight} vs selection {sel}"


@_check
def smoothed_families_reduce_to_normal_at_e0():
    grid = np.linspace(-5.0, 5.0, 101)
    for family in (lm.HardSmoothed(1.0, 0.0, 4), lm.SoftSmoothed(1.0, 0.0, 4),
                   lm.AdaptiveSmoothed(1.0, 0.0, 4)):
        for x in grid:
            assert abs(family.cdf(float(x)) - sf.normal_cdf(float(x))) <= 1e-8


@_check
def finite_sample_attains_conservative_limit():
    # along theta_n = nu*sigma*xi/sqrt(n), eta_n = e/sqrt(n), the scaled cdf
    # equals its limit identically, so the sup distance is rounding error
    nu = 1.0
    grid = np.linspace(-6.0, 6.0, 241)
    for e in (1.95996, 1.959964):
        limits = {
            fd.HARD: lm.ExcisedNormal(nu, e),
            fd.SOFT: lm.SoftShiftNormal(nu, e),
            fd.ADAPTIVE: lm.AdaptiveKnown(nu, e),
        }
        for n in (100, 10_000):
            spec = fd.ComponentSpec(n, 1.0, nu / math.sqrt(n), 1.0, e / math.sqrt(n))
            for kind, family in limits.items():
                worst = max(abs(fd.cdf(kind, fd.KNOWN, spec, float(x)) - family.cdf(float(x)))
                            for x in grid)
                assert worst <= 1e-12, f"{kind}, n={n}: sup distance {worst}"


@_check
def tv_distance_decreases():
    # the fixed-dof conservative limits approach the known-variance limit in
    # total variation as m grows: like 1/m for soft and adaptive, like
    # 1/sqrt(m) for hard, whose jumps at the band edges get smeared
    known = lm.RegimeParams(e=1.96, nu=1.0)
    for kind, factor in ((fd.HARD, 0.55), (fd.SOFT, 0.3), (fd.ADAPTIVE, 0.3)):
        limit = lm.limit_distribution(kind, "known", known)
        smoothed = [lm.limit_distribution(kind, "unknown", replace(known, dof=m))
                    for m in (4, 16, 64, 256)]
        dists = [lm.tv_distance(limit, law, window=(-12.0, 12.0)) for law in smoothed]
        assert all(0.0 < y <= factor * x for x, y in zip(dists, dists[1:])), f"{kind}: {dists}"


@_check
def soft_chi_fold_normalization():
    for m in (2, 4, 9):
        for zeta in (-2.0, -1.5, -0.5, 0.0, 0.5, 2.0):
            fam = lm.SoftChiFold(zeta, m)
            val, _ = integrate.quad(fam.ac_density, -12.0, 12.0, limit=300,
                                    points=[0.0, -zeta])
            assert abs(fam.atom_weight + val - 1.0) <= 1e-8, (zeta, m)
        # |zeta| = inf: no atom, only the rho_m density folded onto x < 0
        fam = lm.SoftChiFold(math.inf, m)
        assert fam.atom_weight == 0.0 and fam.cdf(0.0) == 1.0, m
        assert abs(fam.cdf(-1.0) - (1.0 - sf.rho_cdf(m, 1.0))) <= 1e-12, m


@_check
def adaptive_chi_cdf_jump():
    for zeta in (-1.5, -1.2, -0.5, 0.5, 1.0, 2.0):
        for m in (2, 4, 9):
            fam = lm.AdaptiveChiCdf(zeta, m)
            loc = fam.atom_location
            jump = fam.cdf(loc) - fam.cdf(loc - 1e-12 * max(1.0, abs(loc)))
            assert abs(jump - fam.atom_weight) <= 1e-8, (zeta, m, jump)


# --------------------------------------------------------------- estimators

@_check
def ordering_chains():
    rng = np.random.default_rng(3)
    for _ in range(200):
        ls = float(rng.normal(scale=3.0))
        t = float(rng.uniform(0.01, 2.0))
        s = est.threshold_estimate(fd.SOFT, ls, t, 1.0, 1.0)
        a = est.threshold_estimate(fd.ADAPTIVE, ls, t, 1.0, 1.0)
        h = est.threshold_estimate(fd.HARD, ls, t, 1.0, 1.0)
        if ls >= 0:
            assert 0.0 <= s <= a <= h <= ls
        else:
            assert ls <= h <= a <= s <= 0.0


@_check
def feasible_equals_infeasible_at_true_sigma():
    # responses built so that the residual variance estimate is exactly
    # sigma^2; then the feasible and infeasible estimators coincide
    sigma = 1.3
    theta = np.array([3.0, 1.5, 0.0, 0.0])
    X = est.make_design(est.DesignSpec("I", 8, 4, rho=0.3))
    q, _ = np.linalg.qr(X, mode="complete")
    resid_dir = q[:, 4]                      # orthogonal to the columns of X
    Y = X @ theta + sigma * 2.0 * resid_dir  # ||resid||^2 = (n-k) sigma^2
    data = est.RegressionData(X, Y)
    ls, s2 = est.least_squares(data)
    assert abs(math.sqrt(s2) - sigma) <= 1e-12
    xi = est.xi_values(X)
    for kind in fd.KINDS:
        feasible = est.threshold_estimate(kind, ls, math.sqrt(s2), xi, 0.5)
        infeasible = est.threshold_estimate(kind, ls, sigma, xi, 0.5)
        assert np.max(np.abs(feasible - infeasible)) <= 1e-12, kind


@_check
def column_scaling_equivariance():
    # a design with orthogonal columns and a general one
    rng = np.random.default_rng(5)
    Q, _ = np.linalg.qr(rng.standard_normal((12, 4)))
    problems = [(Q * rng.uniform(0.5, 2.0, 4), rng.standard_normal(12), 0.4, -2.3, 1)]
    rng = np.random.default_rng(14)
    problems.append((rng.standard_normal((12, 4)), rng.standard_normal(12), 0.3, 3.7, 2))
    for X, Y, eta, c, j in problems:
        Xs = X.copy()
        Xs[:, j] *= c
        ls, s2 = est.least_squares(est.RegressionData(X, Y))
        lss, s2s = est.least_squares(est.RegressionData(Xs, Y))
        sig, sigs = math.sqrt(s2), math.sqrt(s2s)
        xi, xis = est.xi_values(X), est.xi_values(Xs)
        for kind in fd.KINDS:
            base = est.threshold_estimate(kind, ls, sig, xi, eta)
            scaled = est.threshold_estimate(kind, lss, sigs, xis, eta)
            expect = base.copy()
            expect[j] /= c
            assert np.max(np.abs(scaled - expect)) <= 1e-8, (kind, c)

        # lasso: design-adapted penalty rules; adaptive lasso: design-independent
        # penalties (its least-squares denominator absorbs the column scale)
        combos = [(est.lasso, "eta_xi_inverse"), (est.lasso, "eta_psi"),
                  (est.adaptive_lasso, "constant")]
        for solver, rule in combos:
            cfg = est.LassoConfig(rule, eta)
            base = solver(est.RegressionData(X, Y), cfg, sig)
            scaled = solver(est.RegressionData(Xs, Y), cfg, sigs)
            assert np.max(np.abs(X @ base - Xs @ scaled)) <= 1e-8, (rule, solver.__name__, c)
            expect = base.copy()
            expect[j] /= c
            assert np.max(np.abs(scaled - expect)) <= 1e-8, (rule, solver.__name__, c)


@_check
def lasso_diagonal_closed_forms():
    # on a diagonal design the batched solvers of run_study give the closed
    # forms: the lasso is soft and the adaptive lasso adaptive soft
    # thresholding, replication by replication, for known and estimated sigma.
    # At k = 70 the supports differ only past the 64th coordinate, so each
    # row must solve its own support's system, whatever the other rows'.
    base = mc.SimConfig(design=est.DesignSpec("I", 8, 4, rho=0.0), theta=(3.0, 1.5, 0.0, 0.0),
                        sigma=1.0, estimator="lasso", reps=400, seed=6)
    configs = [replace(base, estimator=solver, feasible=feasible)
               for feasible in (False, True) for solver in ("lasso", "adaptive-lasso")]
    configs.append(replace(base, design=est.DesignSpec("I", 70, 70, rho=0.0), feasible=False,
                           theta=(3.0,) * 64 + tuple(np.linspace(0.0, 0.5, 6)), reps=20))
    for config in configs:
        kind = fd.SOFT if config.estimator == "lasso" else fd.ADAPTIVE
        a, b = (mc.run_study(replace(config, estimator=e)) for e in (config.estimator, kind))
        # estimate = theta + sigma * xi * scaled / sqrt(n)
        n, k = config.design.n, config.design.k
        gap = np.max(np.abs(a.scaled_samples - b.scaled_samples) * a.xi / math.sqrt(n))
        assert gap <= 1e-10, f"{config.estimator} vs {kind}, k={k}, {config.feasible=}: {gap}"


# ---------------------------------------------------------------- mc harness

@_check
def monte_carlo_matches_analytic_law():
    # every histogram count and zero count that run_study publishes, at 400
    # residual dof on a correlated design, against its exact cell mass: a
    # two-sided binomial test per count, Bonferroni-corrected to level 1e-3
    n, reps = 404, 20_000
    design = est.DesignSpec("I", n, 4, rho=0.5)
    theta = tuple(t / math.sqrt(n) for t in (2.0, 0.8, 0.0, -0.8))
    seed = 4041
    pvals, labels = [], []
    for kind in fd.KINDS:
        for feasible in (False, True):
            res = mc.run_study(mc.SimConfig(design=design, theta=theta, sigma=1.0,
                                            estimator=kind, feasible=feasible,
                                            reps=reps, seed=seed))
            seed += 1
            edges = res.hist_edges
            width = edges[1] - edges[0]
            for i, mix in enumerate(res.overlay):
                w = mix.atom_weight
                # cdf of the continuous part; run_study clips the samples
                # beyond the edges into the end bins
                ac = mix.cdf(edges) - w * (edges >= mix.atom_location)
                mass = np.diff(ac)
                mass[0] += ac[0]
                mass[-1] += (1.0 - w) - ac[-1]
                counts = np.append(np.rint(res.hist_heights[i] * reps * width),
                                   round(res.zero_proportion[i] * reps))
                probs = np.append(np.maximum(mass, 0.0), w)
                pvals.append(2.0 * np.minimum(bdtr(counts, reps, probs),
                                              bdtrc(counts - 1, reps, probs)))
                labels.append(f"{kind} feasible={feasible} comp {i + 1}")
    pvals = np.array(pvals)
    worst = np.unravel_index(np.argmin(pvals), pvals.shape)
    adjusted = pvals[worst] * pvals.size
    assert adjusted >= 1e-3, f"{labels[worst[0]]}, cell {worst[1]}: adjusted p {adjusted:.3g}"


@_check
def consistent_tuning_two_point_localization():
    # hard thresholding, known sigma, zeta = 0.5: under 1/(xi*eta) scaling
    # the sampled mass piles up near -zeta and 0 with the catalogued split
    n, reps, seed = 10_000, 100_000, 99
    eta = 2.0 * n ** -0.25
    zeta = 0.5
    spec = fd.ComponentSpec(n, 1.0, zeta * eta, 1.0, eta,
                            alpha=fd.inverse_xi_eta(1.0, eta))
    vals = mc.sample_component(fd.HARD, fd.KNOWN, spec, reps, seed)
    scaled = spec.alpha * (vals - spec.theta) / spec.sigma
    near = (np.abs(scaled + zeta) <= 0.05) | (np.abs(scaled) <= 0.05)
    assert near.mean() >= 0.99, f"only {near.mean()} of mass localized"
    params = lm.RegimeParams(e=math.inf, zeta=zeta)
    w = lm.limit_selection_probability(params, "known")
    frac_at_minus_zeta = np.mean(vals == 0.0)
    se = math.sqrt(w * (1.0 - w) / reps)
    assert abs(frac_at_minus_zeta - w) <= max(3.0 * se, 2.0 / reps), \
        (frac_at_minus_zeta, w)


@_check
def oracle_scaling_normal_limit():
    # fixed nonzero coefficient, consistent tuning with n^{1/4}*eta -> 0:
    # under sqrt(n)/xi scaling hard is standard normal and adaptive is
    # N(-w_n, 1), displaced by w_n = sqrt(n)*eta^2 = 0.025; its true KS
    # distance from N(0,1), 2*Phi(w_n/2) - 1 = 0.0100, is inside the 0.02 bound
    n, reps, seed = 10_000, 100_000, 7
    eta = n ** -0.45
    spec = fd.ComponentSpec(n, 1.0, 1.0, 1.0, eta)
    phi = lm.StdNormal()
    for kind in (fd.HARD, fd.ADAPTIVE):
        vals = mc.sample_component(kind, fd.KNOWN, spec, reps, seed)
        scaled = math.sqrt(n) * (vals - spec.theta)
        emp = mc.empirical_mixed_cdf(scaled, 0.0)
        grid = np.quantile(scaled, np.linspace(0.001, 0.999, 501))
        ks = max(abs(emp(float(x)) - phi.cdf(float(x))) for x in grid)
        assert ks <= 0.02, f"{kind}: KS {ks}"


@_check
def empirical_cdf_against_normal_draws():
    gen = np.random.Generator(np.random.Philox(key=np.array([123, 0], dtype=np.uint64)))
    draws = gen.standard_normal(100_000)
    emp = mc.empirical_mixed_cdf(draws, 0.0)
    grid = np.linspace(-4.0, 4.0, 321)
    ks = max(abs(emp(float(x)) - sf.normal_cdf(float(x))) for x in grid)
    assert ks <= 1.36 / math.sqrt(draws.size) * 1.5, ks


@_check
def study_replications_order_independent():
    cfg = mc.SimConfig(design=est.DesignSpec("II", 8, 4, c=0.2),
                       theta=(3.0, 1.5, 0.0, 0.0), sigma=1.0, estimator="hard",
                       feasible=True, reps=500, seed=31)
    res = mc.run_study(cfg)
    # reassemble the noise in shuffled order: identical per-replication draws
    order = np.random.default_rng(0).permutation(cfg.reps)
    noise = np.empty((cfg.reps, 8))
    for r in order:
        noise[r] = mc.replication_noise(cfg.seed, int(r), 8)
    direct = np.stack([mc.replication_noise(cfg.seed, r, 8) for r in range(cfg.reps)])
    assert np.array_equal(noise, direct)
    res2 = mc.run_study(cfg)
    assert np.array_equal(res.scaled_samples, res2.scaled_samples)


def run(names=None) -> int:
    """Run the named checks (default: all), reporting each on stdout.
    Returns the number of failures."""
    import sys
    selected = names or list(_CHECKS)
    failures = 0
    for name in selected:
        if name not in _CHECKS:
            print(f"{name}: UNKNOWN CHECK")
            failures += 1
            continue
        try:
            _CHECKS[name]()
        except Exception as exc:  # noqa: BLE001 - report any failure
            failures += 1
            print(f"{name}: FAIL ({exc})")
            traceback.print_exc(limit=1, file=sys.stdout)
        else:
            print(f"{name}: PASS")
    return failures
