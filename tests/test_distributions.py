import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, stats

from threshdist import distributions as fd
from threshdist import simulate as mc
from threshdist import special as sf

ETA8 = mc.default_eta(8)
M4 = fd.VarianceMode.unknown_sigma(4)


def spec8(theta, xi=1.0, alpha=None):
    return fd.ComponentSpec(n=8, xi=xi, theta=theta, sigma=1.0, eta=ETA8, alpha=alpha)


class TestComponentSpec:
    def test_default_alpha_is_root_n_over_xi(self):
        s = fd.ComponentSpec(n=9, xi=2.0, theta=0.0, sigma=1.0, eta=0.1)
        assert s.alpha == 1.5

    def test_validation(self):
        with pytest.raises(ValueError):
            fd.ComponentSpec(n=0, xi=1.0, theta=0.0, sigma=1.0, eta=0.1)
        for field, bad in [("xi", -1.0), ("sigma", 0.0), ("eta", 0.0)]:
            kw = dict(n=4, xi=1.0, theta=0.0, sigma=1.0, eta=0.5)
            kw[field] = bad
            with pytest.raises(ValueError):
                fd.ComponentSpec(**kw)
        with pytest.raises(ValueError):
            fd.VarianceMode.unknown_sigma(0)

    def test_numpy_integers_coerced(self):
        s = fd.ComponentSpec(n=np.int64(8), xi=1.0, theta=0.5, sigma=1.0, eta=ETA8)
        m = fd.VarianceMode(np.int64(4))
        assert type(s.n) is int and type(m.dof) is int
        assert m == M4
        plain = spec8(0.5)
        assert s == plain
        for kind in fd.KINDS:
            for x in (-1.0, s.atom_location, 0.3):
                assert fd.cdf(kind, m, s, x) == fd.cdf(kind, M4, plain, x)
                assert fd.ac_density(kind, m, s, x) == fd.ac_density(kind, M4, plain, x)
        with pytest.raises(ValueError):
            fd.VarianceMode(4.0)

    def test_atom_location_never_negative_zero(self):
        s = spec8(0.0)
        assert math.copysign(1.0, s.atom_location) == 1.0


class TestDeletionProbability:
    def test_default_rule_gives_095_known(self):
        assert abs(fd.deletion_probability(spec8(0.0)) - 0.95) <= 1e-12

    def test_unknown_variance_is_central_t_mass(self):
        val = fd.deletion_probability(spec8(0.0), M4)
        b = math.sqrt(8) * ETA8
        oracle = stats.t.cdf(b, 4) - stats.t.cdf(-b, 4)
        assert abs(val - oracle) <= 1e-8

    def test_zero_interval_limit(self):
        s = fd.ComponentSpec(n=4, xi=1.0, theta=0.0, sigma=1.0, eta=1e-300)
        assert fd.deletion_probability(s) <= 1e-12

    def test_known_example(self):
        s = fd.ComponentSpec(n=4, xi=1.0, theta=1.0, sigma=1.0, eta=0.5)
        oracle = float(sf.normal_cdf(-1.0) - sf.normal_cdf(-3.0))
        assert abs(fd.deletion_probability(s) - oracle) <= 1e-14
        assert abs(oracle - 0.15730535589982697) <= 1e-14

    def test_same_for_all_kinds(self):
        # the deletion event is the same for all three estimators: the
        # mixture atom weight never depends on the kind
        for mode in (fd.KNOWN, M4):
            weights = {fd.as_mixture(kind, mode, spec8(1.5)).atom_weight
                       for kind in fd.KINDS}
            assert len(weights) == 1

    def test_monte_carlo_cross_check(self):
        s = fd.ComponentSpec(n=4, xi=1.0, theta=1.0, sigma=1.0, eta=0.5)
        reps = 200_000
        vals = mc.sample_component(fd.HARD, fd.KNOWN, s, reps, seed=101)
        p = fd.deletion_probability(s)
        se = math.sqrt(p * (1 - p) / reps)
        assert abs(np.mean(vals == 0.0) - p) <= 4.0 * se


class TestCdf:
    def test_total_mass_conventions(self):
        for kind in fd.KINDS:
            for mode in (fd.KNOWN, M4):
                assert fd.cdf(kind, mode, spec8(1.5), math.inf) == 1.0
                assert fd.cdf(kind, mode, spec8(1.5), -math.inf) == 0.0

    def test_soft_known_first_branch(self):
        s = fd.ComponentSpec(n=4, xi=1.0, theta=3.0, sigma=1.0, eta=0.5)
        assert abs(fd.cdf(fd.SOFT, fd.KNOWN, s, 0.0) - float(sf.normal_cdf(1.0))) <= 1e-14

    def test_hard_known_plateau(self):
        # theta = 0: constant value on the whole band [0, sqrt(n) eta]
        s = fd.ComponentSpec(n=4, xi=1.0, theta=0.0, sigma=1.0, eta=0.5)
        plateau = float(sf.normal_cdf(1.0))
        for x in np.linspace(0.0, 1.0, 9):
            assert abs(fd.cdf(fd.HARD, fd.KNOWN, s, float(x)) - plateau) <= 1e-14

    def test_hard_known_plateau_monte_carlo(self):
        s = fd.ComponentSpec(n=4, xi=1.0, theta=0.0, sigma=1.0, eta=0.5)
        reps = 1_000_000
        vals = mc.sample_component(fd.HARD, fd.KNOWN, s, reps, seed=7)
        scaled = s.alpha * vals
        emp = np.mean(scaled <= 0.5)
        plateau = float(sf.normal_cdf(1.0))
        assert abs(emp - plateau) <= 4.0 * math.sqrt(plateau * (1 - plateau) / reps)

    @pytest.mark.parametrize("kind", fd.KINDS)
    @pytest.mark.parametrize("mode", [fd.KNOWN, M4], ids=["known", "m4"])
    def test_monotone_right_continuous(self, kind, mode):
        s = spec8(1.5)
        grid = np.linspace(-7.0, 7.0, 141)
        vals = [fd.cdf(kind, mode, s, float(x)) for x in grid]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
        a = s.atom_location
        eps = 1e-9
        right = fd.cdf(kind, mode, s, a + eps)
        at = fd.cdf(kind, mode, s, a)
        assert abs(right - at) <= 1e-6  # continuity from the right

    @pytest.mark.parametrize("kind", fd.KINDS)
    @pytest.mark.parametrize("mode", [fd.KNOWN, M4], ids=["known", "m4"])
    def test_jump_equals_deletion_probability(self, kind, mode):
        for theta in (0.0, 1.5, 3.0):
            mix = fd.as_mixture(kind, mode, spec8(theta))
            a = mix.atom_location
            jump = mix.cdf(a) - mix.cdf(a - 1e-9)
            assert abs(jump - mix.atom_weight) <= 1e-8

    @pytest.mark.parametrize("kind", fd.KINDS)
    @pytest.mark.parametrize("mode", [fd.KNOWN, M4], ids=["known", "m4"])
    def test_jump_where_atom_offset_rounds_below_zero(self, kind, mode):
        # here x / alpha + theta / sigma evaluates below zero at the atom
        s = spec8(0.39, xi=1.1)
        a = s.atom_location
        assert s.offset(a) < 0.0
        jump = fd.cdf(kind, mode, s, a) - fd.cdf(kind, mode, s, a - 1e-9)
        assert abs(jump - fd.deletion_probability(s, mode)) <= 1e-9

    def test_soft_unknown_equals_t_closed_form_and_quadrature(self):
        s = spec8(1.5)
        b = math.sqrt(8) * ETA8
        for x in np.linspace(-5.0, 5.0, 41):
            val = fd.cdf(fd.SOFT, M4, s, float(x))
            v = s.standardized(float(x))
            sign = 1.0 if s.offset(float(x)) >= 0.0 else -1.0
            closed = stats.nct.cdf(sign * b, 4, -v)
            quad = sf.integrate_rho(4, lambda t: float(sf.normal_cdf(v + sign * t * b)))
            assert abs(val - closed) <= 1e-8
            assert abs(val - quad) <= 1e-8


    def test_nan_rejected(self):
        for kind in fd.KINDS:
            for mode in (fd.KNOWN, M4):
                with pytest.raises(ValueError):
                    fd.cdf(kind, mode, spec8(0.5), math.nan)


class TestDensity:
    def test_vanishes_in_tails(self):
        for kind in fd.KINDS:
            for mode in (fd.KNOWN, M4):
                assert fd.ac_density(kind, mode, spec8(1.5), 40.0) <= 1e-12
                assert fd.ac_density(kind, mode, spec8(1.5), -40.0) <= 1e-12

    def test_hard_known_excised_band_is_zero(self):
        s = fd.ComponentSpec(n=4, xi=1.0, theta=0.0, sigma=1.0, eta=0.5)
        b = math.sqrt(4) * 0.5
        for x in np.linspace(-b + 1e-6, b - 1e-6, 11):
            assert fd.ac_density(fd.HARD, fd.KNOWN, s, float(x)) == 0.0
        assert fd.ac_density(fd.HARD, fd.KNOWN, s, b + 1e-6) > 0.0

    @pytest.mark.parametrize("kind", fd.KINDS)
    @pytest.mark.parametrize("mode", [fd.KNOWN, M4], ids=["known", "m4"])
    def test_mixture_normalization(self, kind, mode):
        mix = fd.as_mixture(kind, mode, spec8(1.5))
        val, _ = integrate.quad(mix.ac_density, -40.0, 40.0, limit=400,
                                points=[mix.atom_location, -6.0, 6.0])
        assert abs(mix.atom_weight + val - 1.0) <= 1e-8

    @pytest.mark.parametrize("kind", fd.KINDS)
    @pytest.mark.parametrize("mode", [fd.KNOWN, M4], ids=["known", "m4"])
    def test_sign_symmetry(self, kind, mode):
        pos, neg = spec8(1.5), spec8(-1.5)
        assert abs(fd.deletion_probability(pos, mode)
                   - fd.deletion_probability(neg, mode)) <= 1e-12
        for x in np.linspace(-4.0, 4.0, 17):
            assert abs(fd.ac_density(kind, mode, pos, float(x))
                       - fd.ac_density(kind, mode, neg, float(-x))) <= 1e-9

    @pytest.mark.parametrize("kind", fd.KINDS)
    @pytest.mark.parametrize("mode", [fd.KNOWN, M4], ids=["known", "m4"])
    def test_density_is_cdf_derivative(self, kind, mode):
        # central-difference oracle, keeping clear of the atom and of the
        # hard estimator's excision boundaries where the cdf is kinked
        s = spec8(1.5)
        band = s.alpha * (s.sigma * s.xi * s.eta)
        h = 1e-5
        for x in (-3.3, -1.7, 0.9, 2.1):
            if abs(x - s.atom_location) < 0.2:
                continue
            if kind == fd.HARD and mode.known and \
                    abs(abs(x - s.atom_location) - band) < 0.2:
                continue
            num = (fd.cdf(kind, mode, s, x + h) - fd.cdf(kind, mode, s, x - h)) / (2 * h)
            assert abs(num - fd.ac_density(kind, mode, s, x)) <= 1e-5, (kind, x)


class TestArbitraryScaling:
    @pytest.mark.parametrize("kind", fd.KINDS)
    def test_monte_carlo_agreement_at_generic_alpha(self, kind):
        # the scaling factor is caller-chosen; check a non-preset value
        spec = fd.ComponentSpec(n=11, xi=1.3, theta=0.8, sigma=0.7, eta=0.46,
                                alpha=2.17)
        reps = 100_000
        for mode in (fd.KNOWN, fd.VarianceMode.unknown_sigma(6)):
            vals = mc.sample_component(kind, mode, spec, reps, seed=808)
            scaled = spec.alpha * (vals - spec.theta) / spec.sigma
            mix = fd.as_mixture(kind, mode, spec)
            emp = mc.empirical_mixed_cdf(scaled, spec.atom_location)
            grid = mc.default_ks_grid(scaled, spec.atom_location, 401)
            assert mc.ks_distance(emp, mix, grid) <= 1.36 / math.sqrt(reps) * 2.5
            w = mix.atom_weight
            se = math.sqrt(w * (1.0 - w) / reps)
            assert abs(np.mean(vals == 0.0) - w) <= 4.0 * se


class TestExtremeRegimes:
    @pytest.mark.parametrize("kw", [
        dict(n=10 ** 6, xi=1.0, theta=50.0, sigma=1.0, eta=1e-6),
        dict(n=4, xi=100.0, theta=0.001, sigma=0.01, eta=5.0),
        dict(n=8, xi=1.0, theta=0.0, sigma=1.0, eta=100.0),
        dict(n=8, xi=1.0, theta=1e-12, sigma=1.0, eta=1e-12),
    ])
    def test_evaluators_stay_valid(self, kw):
        spec = fd.ComponentSpec(**kw)
        for kind in fd.KINDS:
            for mode in (fd.KNOWN, M4):
                w = fd.deletion_probability(spec, mode)
                assert 0.0 <= w <= 1.0
                vals = [fd.cdf(kind, mode, spec, x) for x in (-1e6, -3.0, 0.0, 2.5, 1e6)]
                assert all(0.0 <= v <= 1.0 for v in vals)
                assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))
                for x in (-2.0, 0.37, 4.4):
                    d = fd.ac_density(kind, mode, spec, x)
                    assert d >= 0.0 and math.isfinite(d)


class TestZBounds:
    def test_degenerate_root(self):
        s = fd.ComponentSpec(n=4, xi=1.0, theta=-1.0, sigma=1.0, eta=0.5, alpha=1.0)
        z1, z2 = fd.z_bounds(s, 1.0, 0.0)  # offset = 0 and y = 0
        assert z1 == z2

    def test_ordering(self):
        rng = np.random.default_rng(0)
        s = spec8(0.7)
        for _ in range(100):
            x = float(rng.normal(scale=3.0))
            y = float(rng.uniform(0.0, 2.0))
            z1, z2 = fd.z_bounds(s, x, y)
            assert z1 <= z2

    def test_worked_example(self):
        s = fd.ComponentSpec(n=4, xi=1.0, theta=1.0, sigma=1.0, eta=0.5, alpha=2.0)
        z1, z2 = fd.z_bounds(s, 2.0, 0.5)
        assert abs(z1 + 2.23606797749979) <= 1e-12
        assert abs(z2 - 2.23606797749979) <= 1e-12


class TestAsMixture:
    def test_atom_location_zero_for_null_theta(self):
        assert fd.as_mixture(fd.SOFT, fd.KNOWN, spec8(0.0)).atom_location == 0.0

    def test_atom_weight_is_deletion_probability(self):
        for kind in fd.KINDS:
            mix = fd.as_mixture(kind, M4, spec8(3.0))
            assert mix.atom_weight == fd.deletion_probability(spec8(3.0), M4)

    def test_soft_known_atom_weight_monte_carlo(self):
        s = fd.ComponentSpec(n=8, xi=1.0, theta=1.5, sigma=1.0,
                             eta=1.95996 / math.sqrt(8), alpha=math.sqrt(8))
        mix = fd.as_mixture(fd.SOFT, fd.KNOWN, s)
        reps = 1_000_000
        vals = mc.sample_component(fd.SOFT, fd.KNOWN, s, reps, seed=55)
        w = mix.atom_weight
        se = math.sqrt(w * (1 - w) / reps)
        assert abs(np.mean(vals == 0.0) - w) <= 3.0 * se


def scaled(spec, s):
    """spec with its threshold eta scaled by s = sigmahat / sigma."""
    return replace(spec, eta=s * spec.eta)


def bend(kind, spec, x):
    """Where the known law at x, as a function of s, jumps or bends."""
    u = spec.offset(x)
    if kind == fd.HARD:
        return abs(u) / (spec.xi * spec.eta)
    if kind == fd.SOFT:
        return abs(spec.standardized(x)) / (spec.root_n * spec.eta)
    return abs(0.5 * u / spec.xi) / spec.eta


def quadpack(law, kind, m, spec, x):
    """The known-variance law at x averaged over s ~ rho_m: one adaptive
    QUADPACK integral per point, split at the law's breakpoint, at 1e-12
    (at 1e-10 QUADPACK misses the dof-1 adaptive feature by 6e-10)."""
    return sf.integrate_rho(m, lambda s: law(kind, fd.KNOWN, scaled(spec, s), x),
                            tol=1e-12, breakpoints=[bend(kind, spec, x)])


class TestSmoothedLaws:
    """Unknown-variance laws, whole grids at once, against one QUADPACK
    integral per point at the package's 1e-10 tolerance."""

    @pytest.mark.parametrize("m", [1, 4, 24, 300])
    @pytest.mark.parametrize("kind", fd.KINDS)
    def test_grid_matches_per_point_quadrature(self, kind, m):
        for theta in (0.0, 1.5):
            spec = spec8(theta, xi=1.3)
            a = spec.atom_location
            x = np.concatenate([np.linspace(-5.0, 5.0, 9), [a - 1e-9, a, a + 1e-9]])
            for law in (fd.cdf, fd.ac_density):
                got = law(kind, fd.VarianceMode(m), spec, x)
                want = [quadpack(law, kind, m, spec, float(v)) for v in x]
                assert np.max(np.abs(got - want)) <= 1e-10, (law.__name__, theta)

    @pytest.mark.parametrize("kind", fd.KINDS)
    def test_needle_integrands(self, kind):
        # b = sqrt(n) * eta = 50: the integrands in s are needles of width 1/50
        spec = fd.ComponentSpec(10_000, 1.0, 0.4, 1.0, 0.5)
        a = spec.atom_location
        off = 1e-9 * abs(a)
        # hard's integrand jumps at s* = |u| / (xi eta) = 0.5, 1 and 2 here
        jumps = [spec.alpha * (sign * r * spec.xi * spec.eta - spec.theta / spec.sigma)
                 for sign in (1.0, -1.0) for r in (0.5, 1.0, 2.0)]
        x = np.array([a - off, a, a + off, *jumps, 3.0])
        for m in (1, 4, 24):
            for law in (fd.cdf, fd.ac_density):
                got = law(kind, fd.VarianceMode(m), spec, x)
                want = [quadpack(law, kind, m, spec, float(v)) for v in x]
                assert np.max(np.abs(got - want)) <= 1e-10, (law.__name__, m)

    def test_points_that_miss_the_tolerance_fall_back(self, monkeypatch):
        calls = []
        quad = sf.integrate_rho

        def counted(*args, **kwargs):
            calls.append(args[0])
            return quad(*args, **kwargs)

        # one node per panel against two cannot agree to 1e-10
        monkeypatch.setattr(sf, "RULE_NODES", 1)
        monkeypatch.setattr(sf, "integrate_rho", counted)
        spec = spec8(1.5)
        x = np.linspace(-3.0, 3.0, 7)
        for kind in fd.KINDS:
            for law in (fd.cdf, fd.ac_density):
                del calls[:]
                got = law(kind, M4, spec, x)
                assert calls == [4] * x.size
                want = [quadpack(law, kind, 4, spec, float(v)) for v in x]
                assert np.max(np.abs(got - want)) <= 1e-10

    @pytest.mark.parametrize("mode", [fd.KNOWN, M4], ids=["known", "m4"])
    def test_scalar_and_array_agree(self, mode):
        spec = spec8(1.5)
        x = np.array([-math.inf, -2.0, spec.atom_location, 0.3, math.inf])
        inner = x[1:-1]
        for kind in fd.KINDS:
            cdf = fd.cdf(kind, mode, spec, x)
            assert cdf.shape == x.shape and cdf[0] == 0.0 and cdf[-1] == 1.0
            for v, want in zip(x, cdf):
                got = fd.cdf(kind, mode, spec, float(v))
                assert type(got) is float and got == want
                assert fd.cdf(kind, mode, spec, np.float64(v)) == want
            density = fd.ac_density(kind, mode, spec, inner)
            for v, want in zip(inner, density):
                got = fd.ac_density(kind, mode, spec, np.float64(v))
                assert type(got) is float and got == want
            assert fd.cdf(kind, mode, spec, np.int64(1)) == fd.cdf(kind, mode, spec, 1.0)
            grid = inner.reshape(3, 1)
            assert np.array_equal(fd.cdf(kind, mode, spec, grid), cdf[1:-1].reshape(3, 1))
            assert np.array_equal(fd.ac_density(kind, mode, spec, grid), density.reshape(3, 1))
            with pytest.raises(ValueError):
                fd.cdf(kind, mode, spec, np.array([0.0, math.nan]))
            for bad in (math.nan, np.array([0.0, math.inf])):
                with pytest.raises(ValueError):
                    fd.ac_density(kind, mode, spec, bad)

    @pytest.mark.parametrize("x", [-1e-9, 1e-9, -1e-6, 1e-6, 1e-3])
    def test_adaptive_density_next_to_the_atom_at_one_dof(self, x):
        # the integrand in s turns at |a| / eta, which is tiny next to the
        # atom; the reference splits QUADPACK there at 1e-14
        spec = spec8(0.0)
        c = bend(fd.ADAPTIVE, spec, x)
        lo, hi = sf.rho_support(1)

        def integrand(s):
            return fd.ac_density(fd.ADAPTIVE, fd.KNOWN, scaled(spec, s), x) * sf.rho_density(1, s)

        want = sum(integrate.quad(integrand, p, q, epsabs=1e-14, epsrel=1e-14, limit=200)[0]
                   for p, q in ((lo, c), (c, hi)))
        got = fd.ac_density(fd.ADAPTIVE, fd.VarianceMode(1), spec, x)
        assert abs(got - want) <= 1e-10


@settings(max_examples=100, derandomize=True, deadline=None)
@given(kind=st.sampled_from(fd.KINDS), dof=st.integers(1, 400), n=st.integers(2, 10_000),
       xi=st.floats(0.5, 3.0), shift=st.floats(-6.0, 6.0), b=st.floats(0.1, 5.0),
       xs=st.lists(st.floats(-8.0, 8.0), min_size=2, max_size=12))
def test_unknown_variance_law_properties(kind, dof, n, xi, shift, b, xs):
    # shift = sqrt(n) theta / (sigma xi) and b = sqrt(n) eta
    theta = shift * xi / math.sqrt(n)
    spec = fd.ComponentSpec(n, xi, theta, 1.0, b / math.sqrt(n))
    mirror = replace(spec, theta=-theta)
    mode = fd.VarianceMode(dof)
    a = spec.atom_location
    # points within rounding of the atom take a branch by the rounded offset
    near = 1e-9 * max(1.0, abs(a))
    grid = np.sort([v for v in xs if abs(v - a) > near] + [a])
    law = fd.cdf(kind, mode, spec, grid)
    assert np.all((law >= 0.0) & (law <= 1.0))
    assert np.all(np.diff(law) >= -2e-10)  # each value is within 1e-10
    left = fd.cdf(kind, mode, spec, a - 1e-12 * max(1.0, abs(a)))
    assert abs(fd.cdf(kind, mode, spec, a) - left - fd.deletion_probability(spec, mode)) <= 1e-9
    # (theta, x) <-> (-theta, -x): F(x) + F'(-x) = 1 off the atom, f(x) = f'(-x)
    off = grid != a
    assert np.all(np.abs(law[off] + fd.cdf(kind, mode, mirror, -grid[off]) - 1.0) <= 1e-9)
    assert np.all(np.abs(fd.ac_density(kind, mode, spec, grid)
                         - fd.ac_density(kind, mode, mirror, -grid)) <= 1e-9)
