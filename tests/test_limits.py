import math

import numpy as np
import pytest
from scipy import integrate, stats

from threshdist import distributions as fd
from threshdist import limits as lm
from threshdist import special as sf

INF = math.inf
P = lm.RegimeParams


class TestRegimeParams:
    def test_field_validation(self):
        with pytest.raises(ValueError):
            P(e=-0.5)
        with pytest.raises(ValueError):
            P(d=-1.0)
        with pytest.raises(ValueError):
            P(dof=2.5)
        with pytest.raises(ValueError):
            P(nu=math.nan)

    def test_missing_field_is_an_error(self):
        with pytest.raises(lm.RegimeNotCoveredError):
            lm.limit_selection_probability(P(e=1.0), "known")   # nu missing
        with pytest.raises(lm.RegimeNotCoveredError):
            lm.limit_selection_probability(P(e=INF, zeta=1.0), "known")  # r missing
        with pytest.raises(lm.RegimeNotCoveredError):
            lm.limit_distribution("hard", "unknown", P(e=INF, zeta=1.0, dof=INF))  # d missing
        with pytest.raises(lm.RegimeNotCoveredError):
            lm.limit_selection_probability(P(e=1.0, nu=0.0), "unknown")  # dof missing


class TestSelectionProbabilityLimits:
    def test_known_conservative(self):
        val = lm.limit_selection_probability(P(e=1.959963984540054, nu=0.0), "known")
        assert abs(val - 0.95) <= 1e-12

    def test_known_conservative_infinite_nu(self):
        assert lm.limit_selection_probability(P(e=2.0, nu=INF), "known") == 0.0
        assert lm.limit_selection_probability(P(e=2.0, nu=-INF), "known") == 0.0

    def test_known_consistent_cases(self):
        assert lm.limit_selection_probability(P(e=INF, zeta=0.3), "known") == 1.0
        assert lm.limit_selection_probability(P(e=INF, zeta=-4.0), "known") == 0.0
        val = lm.limit_selection_probability(P(e=INF, zeta=1.0, r=0.5), "known")
        assert abs(val - float(sf.normal_cdf(0.5))) <= 1e-14

    def test_unknown_conservative_fixed_dof_smooths(self):
        params = P(e=1.5, nu=0.7, dof=4)
        val = lm.limit_selection_probability(params, "unknown")
        oracle = sf.integrate_rho(4, lambda s: float(sf.normal_cdf(-0.7 + 1.5 * s)
                                                     - sf.normal_cdf(-0.7 - 1.5 * s)))
        assert abs(val - oracle) <= 1e-10
        # diverging dof recovers the known-variance value
        div = lm.limit_selection_probability(P(e=1.5, nu=0.7, dof=INF), "unknown")
        known = lm.limit_selection_probability(P(e=1.5, nu=0.7), "known")
        assert div == known

    def test_unknown_consistent_fixed_dof_chi_tail(self):
        val = lm.limit_selection_probability(P(e=INF, zeta=1.0, dof=4), "unknown")
        assert abs(val - 3.0 * math.exp(-2.0)) <= 1e-12
        assert lm.limit_selection_probability(P(e=INF, zeta=INF, dof=4), "unknown") == 0.0
        assert lm.limit_selection_probability(P(e=INF, zeta=0.0, dof=4), "unknown") == 1.0

    def test_unknown_consistent_boundary_subcases(self):
        # d = 0: plain normal cdf of r
        v0 = lm.limit_selection_probability(P(e=INF, zeta=1.0, dof=INF, d=0.0, r=0.3), "unknown")
        assert abs(v0 - float(sf.normal_cdf(0.3))) <= 1e-14
        # 0 < d < inf: gaussian average; closed form Phi(r / sqrt(1 + d^2))
        v1 = lm.limit_selection_probability(P(e=INF, zeta=1.0, dof=INF, d=1.0, r=0.0), "unknown")
        assert abs(v1 - 0.5) <= 1e-10
        v2 = lm.limit_selection_probability(P(e=INF, zeta=-1.0, dof=INF, d=2.0, r=1.1), "unknown")
        assert abs(v2 - float(sf.normal_cdf(1.1 / math.sqrt(5.0)))) <= 1e-9
        # d = inf: normal cdf of r'
        v3 = lm.limit_selection_probability(
            P(e=INF, zeta=1.0, dof=INF, d=INF, r_prime=-0.4), "unknown")
        assert abs(v3 - float(sf.normal_cdf(-0.4))) <= 1e-14
        # r = +-inf degenerate averages
        assert lm.limit_selection_probability(
            P(e=INF, zeta=1.0, dof=INF, d=1.0, r=INF), "unknown") == 1.0
        assert lm.limit_selection_probability(
            P(e=INF, zeta=1.0, dof=INF, d=1.0, r=-INF), "unknown") == 0.0

    def test_gaussian_average_is_exact(self):
        # 0 < d < inf averages Phi(d*t + r) over t ~ N(0, 1): the law of
        # Z1 - d*Z2 at r.  The quadrature oracle splits at the step t = -r/d
        # and 10 step widths 1/d to either side of it.
        for d in (0.01, 1.5, 30.0, 1000.0):
            for r in (-5.0, 0.0, 2.0, 8.0):
                params = P(e=INF, zeta=1.0, dof=INF, d=d, r=r)
                val = lm.limit_selection_probability(params, "unknown")
                assert val == lm.limit_distribution("hard", "unknown", params).weight_at_loc1
                assert abs(val - stats.norm.cdf(r, scale=math.sqrt(1.0 + d * d))) <= 1e-14
                step = -r / d
                quad, _ = integrate.quad(
                    lambda t: float(sf.normal_cdf(d * t + r) * sf.normal_pdf(t)), -12.0, 12.0,
                    points=[p for p in (step - 10.0 / d, step, step + 10.0 / d) if abs(p) < 12.0],
                    epsabs=1e-14, limit=200)
                assert abs(val - quad) <= 1e-12, (d, r)


class TestLimitDistributionDispatch:
    def test_e_zero_gives_standard_normal(self):
        for kind in fd.KINDS:
            assert isinstance(lm.limit_distribution(kind, "known", P(e=0.0, nu=1.0)),
                              lm.StdNormal)

    def test_known_conservative_families(self):
        assert isinstance(lm.limit_distribution("hard", "known", P(e=1.0, nu=0.5)),
                          lm.ExcisedNormal)
        assert isinstance(lm.limit_distribution("soft", "known", P(e=1.0, nu=0.5)),
                          lm.SoftShiftNormal)
        assert isinstance(lm.limit_distribution("adaptive", "known", P(e=1.0, nu=0.5)),
                          lm.AdaptiveKnown)
        assert isinstance(lm.limit_distribution("hard", "known", P(e=1.0, nu=INF)),
                          lm.StdNormal)
        assert isinstance(lm.limit_distribution("adaptive", "known", P(e=1.0, nu=-INF)),
                          lm.StdNormal)

    def test_soft_shift_normal_handles_infinite_nu(self):
        fam = lm.limit_distribution("soft", "known", P(e=1.0, nu=INF))
        assert isinstance(fam, lm.SoftShiftNormal)
        # all mass on the x + nu >= 0 branch: a normal centered at -e
        for x in (-2.0, 0.0, 1.3):
            assert abs(fam.cdf(x) - float(sf.normal_cdf(x + 1.0))) <= 1e-14
        assert fam.atom_weight == 0.0

    def test_known_consistent_pointmasses(self):
        assert lm.limit_distribution("hard", "known", P(e=INF, zeta=0.5)) == lm.PointMass(-0.5)
        assert lm.limit_distribution("hard", "known", P(e=INF, zeta=3.0)) == lm.PointMass(0.0)
        fam = lm.limit_distribution("hard", "known", P(e=INF, zeta=1.0, r=0.2))
        assert isinstance(fam, lm.TwoPointMixture)
        assert abs(fam.weight_at_loc1 - float(sf.normal_cdf(0.2))) <= 1e-14
        assert lm.limit_distribution("soft", "known", P(e=INF, zeta=-2.5)) == lm.PointMass(1.0)
        assert lm.limit_distribution("soft", "known", P(e=INF, zeta=0.4)) == lm.PointMass(-0.4)
        assert lm.limit_distribution("adaptive", "known", P(e=INF, zeta=2.0)) == lm.PointMass(-0.5)
        assert lm.limit_distribution("adaptive", "known", P(e=INF, zeta=0.7)) == lm.PointMass(-0.7)
        assert lm.limit_distribution("adaptive", "known", P(e=INF, zeta=INF)) == lm.PointMass(0.0)

    def test_unknown_consistent_fixed_dof(self):
        fam = lm.limit_distribution("hard", "unknown", P(e=INF, zeta=1.0, dof=4))
        assert isinstance(fam, lm.TwoPointMixture)
        assert abs(fam.weight_at_loc1 - sf.chi_square_tail(4, 4.0)) <= 1e-14
        assert (fam.loc1, fam.loc2) == (-1.0, 0.0)
        fam = lm.limit_distribution("soft", "unknown", P(e=INF, zeta=0.5, dof=4))
        assert isinstance(fam, lm.SoftChiFold)
        assert abs(fam.atom_weight - sf.chi_square_tail(4, 1.0)) <= 1e-14
        fam = lm.limit_distribution("adaptive", "unknown", P(e=INF, zeta=0.5, dof=4))
        assert isinstance(fam, lm.AdaptiveChiCdf)
        assert lm.limit_distribution("adaptive", "unknown",
                                     P(e=INF, zeta=0.0, dof=4)) == lm.PointMass(0.0)

    def test_unknown_conservative_divergent_dof_matches_known(self):
        grid = np.linspace(-4.0, 4.0, 41)
        for kind in fd.KINDS:
            a = lm.limit_distribution(kind, "unknown", P(e=1.2, nu=0.3, dof=INF))
            b = lm.limit_distribution(kind, "known", P(e=1.2, nu=0.3))
            assert type(a) is type(b)
            for x in grid:
                assert a.cdf(float(x)) == b.cdf(float(x))


class TestLimitFamilies:
    def test_every_family_is_a_cdf(self):
        families = [
            lm.StdNormal(), lm.PointMass(0.3), lm.TwoPointMixture(0.4, -1.0, 0.0),
            lm.ExcisedNormal(1.0, 2.0), lm.SoftShiftNormal(1.0, 2.0),
            lm.AdaptiveKnown(1.0, 2.0), lm.HardSmoothed(1.0, 2.0, 4),
            lm.SoftSmoothed(1.0, 2.0, 4), lm.AdaptiveSmoothed(1.0, 2.0, 4),
            lm.SoftChiFold(0.5, 4), lm.AdaptiveChiCdf(0.5, 4),
            lm.ShiftedNormal(0.7),
        ]
        grid = np.linspace(-30.0, 30.0, 121)
        for fam in families:
            vals = [fam.cdf(float(x)) for x in grid]
            assert all(0.0 <= v <= 1.0 for v in vals), type(fam).__name__
            assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:])), type(fam).__name__
            assert vals[0] <= 1e-8
            assert vals[-1] >= 1.0 - 1e-8

    def test_smoothed_families_normalize(self):
        for fam in (lm.HardSmoothed(0.8, 1.5, 4), lm.SoftSmoothed(0.8, 1.5, 4),
                    lm.AdaptiveSmoothed(0.8, 1.5, 4)):
            val, _ = integrate.quad(fam.ac_density, -30.0, 30.0, limit=400,
                                    points=[fam.atom_location])
            assert abs(fam.atom_weight + val - 1.0) <= 1e-8, type(fam).__name__

    def test_soft_chi_fold_normalization_and_infinite_zeta(self):
        for zeta in (-2.0, -0.5, 0.0, 0.5, 2.0):
            fam = lm.SoftChiFold(zeta, 4)
            val, _ = integrate.quad(fam.ac_density, -12.0, 12.0, limit=300,
                                    points=[0.0, -zeta])
            assert abs(fam.atom_weight + val - 1.0) <= 1e-8
        # |zeta| = inf: no atom, pure half density
        fam = lm.SoftChiFold(INF, 4)
        assert fam.atom_weight == 0.0
        assert abs(fam.cdf(-1.0) - (1.0 - sf.rho_cdf(4, 1.0))) <= 1e-12
        assert fam.cdf(0.0) == 1.0

    def test_adaptive_chi_jump_height(self):
        for zeta in (-1.5, -0.5, 0.5, 1.0, 2.0):
            fam = lm.AdaptiveChiCdf(zeta, 4)
            loc = fam.atom_location
            eps = 1e-12 * max(1.0, abs(loc))
            assert abs((fam.cdf(loc) - fam.cdf(loc - eps)) - fam.atom_weight) <= 1e-8

    def test_smoothed_families_match_finite_sample_exactly(self):
        # the same substitution that freezes the known-variance law onto its
        # limit freezes the estimated-variance law onto the smoothed family
        nu, e, m = 1.0, 1.95996, 4
        fams = {fd.HARD: lm.HardSmoothed(nu, e, m), fd.SOFT: lm.SoftSmoothed(nu, e, m),
                fd.ADAPTIVE: lm.AdaptiveSmoothed(nu, e, m)}
        mode = fd.VarianceMode.unknown_sigma(m)
        for n in (64, 4096):
            spec = fd.ComponentSpec(n, 1.0, nu / math.sqrt(n), 1.0, e / math.sqrt(n))
            for kind, fam in fams.items():
                for x in np.linspace(-5.0, 5.0, 21):
                    assert abs(fd.cdf(kind, mode, spec, float(x))
                               - fam.cdf(float(x))) <= 1e-8, (kind, n, x)

    def test_oracle_hard_boundary_masses(self):
        phi_r = float(sf.normal_cdf(0.2))
        # zeta = 1: deletion mass escapes to -inf, evaluator starts at Phi(r)
        fam = lm.OracleHardBoundary(1.0, 0.2)
        assert abs(fam.total_mass - (1.0 - phi_r)) <= 1e-14
        assert abs(fam.cdf(-30.0) - phi_r) <= 1e-12
        assert abs(fam.cdf(0.1) - phi_r) <= 1e-14       # flat below r
        assert abs(fam.cdf(30.0) - 1.0) <= 1e-12
        vals = [fam.cdf(float(x)) for x in np.linspace(-10, 10, 81)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        # zeta = -1: deletion mass escapes to +inf, evaluator tops out early
        fam = lm.OracleHardBoundary(-1.0, 0.2)
        assert abs(fam.total_mass - (1.0 - phi_r)) <= 1e-14
        assert fam.cdf(-30.0) <= 1e-12
        assert abs(fam.cdf(30.0) - fam.total_mass) <= 1e-14


class TestOracleLimits:
    def test_catalog(self):
        assert isinstance(lm.oracle_limit("hard", P(zeta=2.0)), lm.StdNormal)
        assert lm.oracle_limit("soft", P(nu=0.5)) == lm.PointMass(-0.5)
        fam = lm.oracle_limit("adaptive", P(zeta=INF, w=0.7))
        assert fam == lm.ShiftedNormal(0.7)
        assert abs(fam.cdf(0.0) - float(sf.normal_cdf(0.7))) <= 1e-14
        assert lm.oracle_limit("adaptive", P(zeta=0.0, nu=1.2)) == lm.PointMass(-1.2)

    def test_escapes(self):
        fam = lm.oracle_limit("soft", P(nu=INF))
        assert fam == lm.EscapesToInfinity(-1)
        with pytest.raises(lm.RegimeNotCoveredError):
            fam.cdf(0.0)
        assert lm.oracle_limit("adaptive", P(zeta=-0.5)) == lm.EscapesToInfinity(1)
        assert lm.oracle_limit("adaptive", P(zeta=0.5)) == lm.EscapesToInfinity(-1)
        assert lm.oracle_limit("adaptive", P(zeta=INF, w=INF)) == lm.EscapesToInfinity(-1)
        assert lm.oracle_limit("hard", P(zeta=0.5)) == lm.EscapesToInfinity(-1)

    def test_boundary_case_and_reduction(self):
        fam = lm.oracle_limit("hard", P(zeta=1.0, r=0.2))
        assert isinstance(fam, lm.OracleHardBoundary)
        assert isinstance(lm.oracle_limit("hard", P(zeta=1.0, r=-INF)), lm.StdNormal)

    def test_inconsistent_inputs_rejected(self):
        with pytest.raises(lm.RegimeNotCoveredError):
            lm.oracle_limit("hard", P(zeta=0.5, nu=-INF))  # nu must be sign(zeta)*inf
        with pytest.raises(lm.RegimeNotCoveredError):
            lm.oracle_limit("adaptive", P(zeta=INF, w=-0.3))  # sign mismatch
        with pytest.raises(lm.RegimeNotCoveredError):
            lm.oracle_limit("adaptive", P(zeta=INF))  # w missing


class TestUniformRate:
    def test_examples(self):
        assert lm.uniform_rate(100, 1.0, 0.5) == 2.0
        assert abs(lm.uniform_rate(8, 2.0, 0.1) - math.sqrt(8) / 2.0) <= 1e-15

    def test_conservative_rule_gives_root_n(self):
        for n in (16, 100, 1024):
            eta = 0.8 / math.sqrt(n)
            assert lm.uniform_rate(n, 1.0, eta) == math.sqrt(n)

    def test_validation(self):
        for n, xi, eta in [(0, 1.0, 0.5), (math.nan, 1.0, 0.5), (100, math.nan, 0.1),
                           (100, 1.0, math.nan), (100, math.inf, 0.1)]:
            with pytest.raises(ValueError):
                lm.uniform_rate(n, xi, eta)


class TestTvDistance:
    def test_zero_for_identical(self):
        import threshdist.simulate as mc
        spec = fd.ComponentSpec(8, 1.0, 0.0, 1.0, mc.default_eta(8))
        mix = fd.as_mixture(fd.SOFT, fd.KNOWN, spec)
        assert lm.tv_distance(mix, mix, window=(-12.0, 12.0)) <= 1e-9

    def test_definitional_example(self):
        # pure atom (weight 1) against a unit-mass density: 1 + 1 = 2
        a = fd.MixtureDistribution(0.0, 1.0, lambda x: float(x >= 0.0), lambda x: 0.0)
        b = fd.MixtureDistribution(
            0.0, 0.0, lambda x: float(sf.normal_cdf(x)), lambda x: float(sf.normal_pdf(x)))
        assert abs(lm.tv_distance(a, b, window=(-12.0, 12.0)) - 2.0) <= 1e-6

    def test_atom_location_mismatch_rejected(self):
        a = fd.MixtureDistribution(0.0, 1.0, lambda x: float(x >= 0.0), lambda x: 0.0)
        b = fd.MixtureDistribution(1.0, 1.0, lambda x: float(x >= 1.0), lambda x: 0.0)
        with pytest.raises(ValueError):
            lm.tv_distance(a, b)

    def test_known_unknown_distance_shrinks_with_n(self):
        def tv_at(n, kind):
            eta = n ** -0.25
            spec = fd.ComponentSpec(n, 1.0, 0.0, 1.0, eta)
            known = fd.as_mixture(kind, fd.KNOWN, spec)
            unknown = fd.as_mixture(kind, fd.VarianceMode.unknown_sigma(n // 2), spec)
            b = math.sqrt(n) * eta
            return lm.tv_distance(known, unknown, window=(-b - 9.0, b + 9.0),
                                  breakpoints=(-b, 0.0, b))

        assert tv_at(100, fd.HARD) < tv_at(20, fd.HARD)
