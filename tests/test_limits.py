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

    @pytest.mark.parametrize("zeta", [0.0, INF, -INF])
    def test_adaptive_chi_family_needs_finite_nonzero_zeta(self, zeta):
        with pytest.raises(ValueError, match="finite nonzero zeta"):
            lm.AdaptiveChiCdf(zeta, 4)

    @pytest.mark.parametrize("nu", [INF, -INF])
    def test_adaptive_conservative_families_need_finite_nu(self, nu):
        with pytest.raises(ValueError, match="defined for finite nu only"):
            lm.AdaptiveKnown(nu, 1.0)
        with pytest.raises(ValueError, match="defined for finite nu only"):
            lm.AdaptiveSmoothed(nu, 1.0, 4)

    def test_smoothed_families_normalize(self):
        for fam in (lm.HardSmoothed(0.8, 1.5, 4), lm.SoftSmoothed(0.8, 1.5, 4),
                    lm.AdaptiveSmoothed(0.8, 1.5, 4)):
            val, _ = integrate.quad(fam.ac_density, -30.0, 30.0, limit=400,
                                    points=[fam.atom_location])
            assert abs(fam.atom_weight + val - 1.0) <= 1e-8, type(fam).__name__

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_adaptive_chi_density_at_zero_is_cdf_slope(self, m):
        # for zeta < 0 the density starts at x = 0; its value there is the
        # right-hand slope of the cdf (|zeta| at m = 2, 0 for m > 2)
        h = 1e-9
        for zeta in (-1.0, -0.5):
            fam = lm.AdaptiveChiCdf(zeta, m)
            slope = (fam.cdf(h) - fam.cdf(0.0)) / h
            assert abs(fam.ac_density(0.0) - slope) <= 1e-3, (zeta, slope)

    def test_smoothed_families_match_finite_sample_exactly(self):
        # the same substitution that freezes the known-variance law onto its
        # limit freezes the estimated-variance law onto the smoothed family
        nu, e = 1.0, 1.95996
        x = np.linspace(-5.0, 5.0, 21)
        for m in (1, 4, 40):
            fams = {fd.HARD: lm.HardSmoothed(nu, e, m), fd.SOFT: lm.SoftSmoothed(nu, e, m),
                    fd.ADAPTIVE: lm.AdaptiveSmoothed(nu, e, m)}
            mode = fd.VarianceMode.unknown_sigma(m)
            for n in (64, 4096):
                spec = fd.ComponentSpec(n, 1.0, nu / math.sqrt(n), 1.0, e / math.sqrt(n))
                for kind, fam in fams.items():
                    assert np.abs(fd.cdf(kind, mode, spec, x) - fam.cdf(x)).max() <= 1e-8, \
                        (kind, m, n)
                    assert np.abs(fd.ac_density(kind, mode, spec, x)
                                  - fam.ac_density(x)).max() <= 1e-8, (kind, m, n)
                    assert abs(fd.deletion_probability(spec, mode)
                               - fam.atom_weight) <= 1e-8, (kind, m, n)

    def test_adaptive_smoothed_next_to_atom_at_one_dof(self):
        # at one dof the known law at x turns at s = |x + nu| / (2e), here a
        # few 1e-10; the reference integrates it against the chi_1 density on
        # panels graded geometrically toward that point
        def reference(nu, e, x, density):
            u = x + nu
            side = 1.0 if u >= 0.0 else -1.0

            def law(s):
                half = math.hypot(0.5 * u, s * e)
                z = 0.5 * (x - nu) + side * half
                if density:
                    pdf = math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
                    return 0.5 * pdf * (1.0 + side * u / (2.0 * half))
                return 0.5 * math.erfc(-z / math.sqrt(2.0))

            def weighted(s):
                return law(s) * math.sqrt(2.0 / math.pi) * math.exp(-0.5 * s * s)

            turn = abs(u) / (2.0 * e)
            edges = [0.0, *(turn * 2.0 ** k for k in range(-20, 60) if turn * 2.0 ** k < 12.0),
                     12.0]
            return sum(integrate.quad(weighted, a, b, epsabs=1e-14, epsrel=1e-12)[0]
                       for a, b in zip(edges, edges[1:]))

        for nu, e in ((0.0, 1.5), (-0.4, 1.5), (0.7, 0.3), (0.7, 1.5)):
            fam = lm.AdaptiveSmoothed(nu, e, 1)
            for x in (-nu - 1e-9, -nu + 1e-9):
                assert abs(fam.ac_density(x) - reference(nu, e, x, True)) <= 1e-10, (nu, e, x)
                assert abs(fam.cdf(x) - reference(nu, e, x, False)) <= 1e-10, (nu, e, x)

    def test_conservative_families_scalar_matches_array(self):
        # for every catalog family, a float or numpy scalar gives the float at
        # the matching array element
        x = np.concatenate([np.linspace(-4.0, 4.0, 9), [-0.7 - 1e-9, -0.7, -0.7 + 1e-9]])
        families = [lm.ExcisedNormal(0.7, 1.5), lm.SoftShiftNormal(0.7, 1.5),
                    lm.AdaptiveKnown(0.7, 1.5), lm.HardSmoothed(0.7, 1.5, 40),
                    lm.SoftSmoothed(0.7, 1.5, 4), lm.AdaptiveSmoothed(0.7, 1.5, 1),
                    lm.StdNormal(), lm.PointMass(-0.7), lm.TwoPointMixture(0.4, -0.7, 0.0),
                    lm.SoftChiFold(0.7, 4), lm.SoftChiFold(-0.7, 2), lm.SoftChiFold(INF, 3),
                    lm.AdaptiveChiCdf(0.7, 4), lm.AdaptiveChiCdf(-0.7, 2),
                    lm.OracleHardBoundary(1.0, 0.2), lm.OracleHardBoundary(-1.0, 0.2),
                    lm.ShiftedNormal(0.7)]
        for fam in families:
            for method in (fam.cdf, fam.ac_density):
                values = method(x)
                assert np.array_equal(method(x.reshape(3, 4)), values.reshape(3, 4))
                for point, value in zip(x, values):
                    for scalar in (float(point), np.float64(point)):
                        out = method(scalar)
                        assert type(out) is float and out == value, (fam, point)
            ends = fam.cdf(np.array([-INF, INF]))
            assert [fam.cdf(-INF), fam.cdf(INF)] == list(ends), fam

    def test_oracle_hard_boundary_masses(self):
        phi_r = float(sf.normal_cdf(0.2))
        # zeta = 1: deletion mass escapes to -inf, evaluator starts at Phi(r)
        fam = lm.OracleHardBoundary(1.0, 0.2)
        assert abs(fam.total_mass - (1.0 - phi_r)) <= 1e-14
        assert abs(fam.cdf(-30.0) - phi_r) <= 1e-12
        assert abs(fam.cdf(0.1) - phi_r) <= 1e-14       # flat below r
        assert abs(fam.cdf(30.0) - 1.0) <= 1e-12
        assert (fam.cdf(-INF), fam.cdf(INF)) == (phi_r, 1.0)
        vals = [fam.cdf(float(x)) for x in np.linspace(-10, 10, 81)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        # zeta = -1: deletion mass escapes to +inf, evaluator tops out early
        fam = lm.OracleHardBoundary(-1.0, 0.2)
        assert abs(fam.total_mass - (1.0 - phi_r)) <= 1e-14
        assert fam.cdf(-30.0) <= 1e-12
        assert abs(fam.cdf(30.0) - fam.total_mass) <= 1e-14
        assert fam.cdf(-INF) == 0.0 and abs(fam.cdf(INF) - fam.total_mass) <= 1e-14


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


# The paper's case table, one row per merged branch of the dispatchers:
# (call, expected), where expected is a probability, a family, or the
# exception and the message fragment it must raise.
PHI = stats.norm.cdf
SELPROB, LIMIT, ORACLE = (lm.limit_selection_probability, lm.limit_distribution,
                          lm.oracle_limit)
CASE_TABLE = {
    # |zeta| = 1 under consistent tuning: Phi(r) for known sigma is the d = 0
    # case of Phi(r / sqrt(1 + d^2)) at diverging dof, and Phi(r') at d = inf
    "known-boundary": (lambda: SELPROB(P(e=INF, zeta=1.0, r=0.4), "known"), PHI(0.4)),
    "known-boundary-neg": (lambda: SELPROB(P(e=INF, zeta=-1.0, r=-0.3), "known"), PHI(-0.3)),
    "div-d0": (lambda: SELPROB(P(e=INF, zeta=1.0, dof=INF, d=0.0, r=0.4), "unknown"), PHI(0.4)),
    "div-d1.5": (lambda: SELPROB(P(e=INF, zeta=-1.0, dof=INF, d=1.5, r=0.4), "unknown"),
                 PHI(0.4 / math.sqrt(3.25))),
    "div-dinf": (lambda: SELPROB(P(e=INF, zeta=1.0, dof=INF, d=INF, r=0.4, r_prime=-0.4),
                                 "unknown"), PHI(-0.4)),
    "known-inside": (lambda: SELPROB(P(e=INF, zeta=-0.5), "known"), 1.0),
    "div-outside": (lambda: SELPROB(P(e=INF, zeta=2.0, dof=INF), "unknown"), 0.0),
    "hard-div-boundary": (lambda: LIMIT("hard", "unknown", P(e=INF, zeta=1.0, dof=INF, d=0.0,
                                                             r=0.4)),
                          lm.TwoPointMixture(PHI(0.4), -1.0, 0.0)),
    # fixed dof: deletion mass Pr(chi2_m > m zeta^2), nothing left at zeta = +-inf
    "fixed-zeta1": (lambda: SELPROB(P(e=INF, zeta=1.0, dof=4), "unknown"), 3.0 * math.exp(-2.0)),
    "fixed-zeta+inf": (lambda: SELPROB(P(e=INF, zeta=INF, dof=4), "unknown"), 0.0),
    "fixed-zeta-inf": (lambda: SELPROB(P(e=INF, zeta=-INF, dof=4), "unknown"), 0.0),
    "fixed-hard-inf": (lambda: LIMIT("hard", "unknown", P(e=INF, zeta=-INF, dof=4)),
                       lm.PointMass(0.0)),
    "fixed-soft-inf": (lambda: LIMIT("soft", "unknown", P(e=INF, zeta=INF, dof=4)),
                       lm.SoftChiFold(INF, 4)),
    "fixed-adaptive-inf": (lambda: LIMIT("adaptive", "unknown", P(e=INF, zeta=-INF, dof=4)),
                           lm.PointMass(0.0)),
    # oracle scaling: all mass at -nu, escaping when nu = +-inf
    "soft-nu+inf": (lambda: ORACLE("soft", P(nu=INF)), lm.EscapesToInfinity(-1)),
    "soft-nu-inf": (lambda: ORACLE("soft", P(nu=-INF)), lm.EscapesToInfinity(1)),
    "soft-nu": (lambda: ORACLE("soft", P(nu=1.2)), lm.PointMass(-1.2)),
    "hard-zeta+": (lambda: ORACLE("hard", P(zeta=0.5)), lm.EscapesToInfinity(-1)),
    "hard-zeta-": (lambda: ORACLE("hard", P(zeta=-0.5, nu=-INF)), lm.EscapesToInfinity(1)),
    "hard-nu": (lambda: ORACLE("hard", P(zeta=0.0, nu=-0.7)), lm.PointMass(0.7)),
    "adaptive-nu+inf": (lambda: ORACLE("adaptive", P(zeta=0.0, nu=INF)),
                        lm.EscapesToInfinity(-1)),
    "adaptive-nu-inf": (lambda: ORACLE("adaptive", P(zeta=0.0, nu=-INF)),
                        lm.EscapesToInfinity(1)),
    "adaptive-nu": (lambda: ORACLE("adaptive", P(zeta=0.0, nu=1.2)), lm.PointMass(-1.2)),
    # zeta = +-inf: N(-w, 1) for finite w of the sign of zeta, escaping for
    # infinite w; a w of the other sign is outside the catalog
    "w-finite": (lambda: ORACLE("adaptive", P(zeta=-INF, w=-0.2)), lm.ShiftedNormal(-0.2)),
    "w-zero": (lambda: ORACLE("adaptive", P(zeta=-INF, w=0.0)), lm.ShiftedNormal(0.0)),
    "w-infinite": (lambda: ORACLE("adaptive", P(zeta=-INF, w=-INF)), lm.EscapesToInfinity(1)),
    "w-finite-wrong-sign": (lambda: ORACLE("adaptive", P(zeta=INF, w=-0.2)),
                            (lm.RegimeNotCoveredError, "sign incompatible")),
    "w-infinite-wrong-sign": (lambda: ORACLE("adaptive", P(zeta=-INF, w=INF)),
                              (lm.RegimeNotCoveredError, "sign incompatible")),
    # the variance regime is read before the boundary limits
    "dof-before-d": (lambda: SELPROB(P(e=INF, zeta=1.0), "unknown"),
                     (lm.RegimeNotCoveredError, "'dof'")),
    "dof-before-d-hard": (lambda: LIMIT("hard", "unknown", P(e=INF, zeta=1.0)),
                          (lm.RegimeNotCoveredError, "'dof'")),
}


@pytest.mark.parametrize("call,expected", list(CASE_TABLE.values()), ids=list(CASE_TABLE))
def test_case_table(call, expected):
    if isinstance(expected, tuple):
        with pytest.raises(expected[0], match=expected[1]):
            call()
    elif isinstance(expected, float):
        assert abs(call() - expected) <= 1e-15
    else:
        got = call()
        assert type(got) is type(expected) and got == expected
        if isinstance(got, lm.TwoPointMixture):
            assert abs(got.weight_at_loc1 - expected.weight_at_loc1) <= 1e-15


@pytest.mark.parametrize("e", [1.5, INF])
@pytest.mark.parametrize("kind", ["hard", "soft", "adaptive"])
@pytest.mark.parametrize("mode, dof", [("known", None), ("unknown", 4), ("unknown", INF),
                                       ("oracle", None)],
                         ids=["known", "dof-4", "dof-inf", "oracle"])
def test_no_atom_at_negative_zero(mode, dof, kind, e):
    params = P(e=e, nu=0.0, zeta=0.0, dof=dof)
    law = (lm.oracle_limit(kind, params) if mode == "oracle"
           else lm.limit_distribution(kind, mode, params))
    assert law.atom_location == 0.0
    assert math.copysign(1.0, law.atom_location) == 1.0


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
        a, b = lm.PointMass(0.0), lm.ExcisedNormal(0.0, 0.0)
        assert abs(lm.tv_distance(a, b, window=(-12.0, 12.0)) - 2.0) <= 1e-6

    def test_kink_off_every_breakpoint(self):
        # the soft law at (nu, e) against N(0, 1) with an empty atom at -nu:
        # right of the atom the densities phi(x + e) and phi(x) cross at
        # -e/2, a kink of |f_a - f_b| that no panel edge is placed on.  The
        # distance is w + integral |f_a - f_b| = 2 (2 Phi(e/2) - 1 + Phi(-nu) - Phi(-nu - e))
        nu, e = 1.0, 0.8
        a, b = lm.SoftShiftNormal(nu, e), lm.ExcisedNormal(nu, 0.0)
        phi = stats.norm.cdf
        want = 2.0 * (2.0 * phi(e / 2.0) - 1.0 + phi(-nu) - phi(-nu - e))
        assert abs(lm.tv_distance(a, b, window=(-12.0, 12.0)) - want) <= 1e-9

    @pytest.mark.parametrize("n", [80, 320])
    def test_jumps_found_without_breakpoints(self, n):
        # the known-variance hard law jumps at the band edges -+ sqrt(n) eta;
        # the distance reads the same whether or not they are passed
        eta = n ** -0.25
        b = math.sqrt(n) * eta
        spec = fd.ComponentSpec(n, 1.0, 0.0, 1.0, eta)
        known = fd.as_mixture(fd.HARD, fd.KNOWN, spec)
        unknown = fd.as_mixture(fd.HARD, fd.VarianceMode.unknown_sigma(n // 2), spec)
        window = (-b - 9.0, b + 9.0)
        given = lm.tv_distance(known, unknown, window=window, breakpoints=(-b, 0.0, b))
        assert abs(lm.tv_distance(known, unknown, window=window) - given) <= lm.TV_TOL

    def test_excised_band_edges_found(self):
        # the two bands differ on 1 <= |x| < 1.2: 2 (2 Phi(1.2) - 2 Phi(1)) in all
        a, b = lm.ExcisedNormal(0.0, 1.0), lm.ExcisedNormal(0.0, 1.2)
        want = 4.0 * (stats.norm.cdf(1.2) - stats.norm.cdf(1.0))
        assert abs(lm.tv_distance(a, b, window=(-12.0, 12.0)) - want) <= lm.TV_TOL
        given = lm.tv_distance(a, b, window=(-12.0, 12.0), breakpoints=(-1.2, -1.0, 1.0, 1.2))
        assert abs(lm.tv_distance(a, b, window=(-12.0, 12.0)) - given) <= lm.TV_TOL
        # the oracle boundary laws keep the normal density above r only
        a, b = lm.OracleHardBoundary(-1.0, 0.3), lm.OracleHardBoundary(-1.0, 0.5)
        want = stats.norm.cdf(0.5) - stats.norm.cdf(0.3)
        assert abs(lm.tv_distance(a, b) - want) <= lm.TV_TOL

    @pytest.mark.parametrize("window", [(12.0, -12.0), (1.0, 1.0), (-math.inf, 12.0),
                                        (-12.0, math.inf), (math.nan, 12.0)])
    def test_bad_window_rejected(self, window):
        # a reversed or empty window would read 0.0, an infinite one NaN nodes
        with pytest.raises(ValueError, match="window"):
            lm.tv_distance(lm.StdNormal(), lm.ShiftedNormal(0.5), window=window)

    def test_atom_location_mismatch_rejected(self):
        a, b = lm.PointMass(0.0), lm.PointMass(1.0)
        with pytest.raises(ValueError):
            lm.tv_distance(a, b)

    def test_laws_without_an_atom(self):
        # N(0, 1) against N(-w, 1): no atom to cut at, and the densities
        # cross at -w/2, a kink off every panel edge
        w = 0.1
        want = 2.0 * (2.0 * stats.norm.cdf(w / 2.0) - 1.0)
        assert abs(lm.tv_distance(lm.StdNormal(), lm.ShiftedNormal(w)) - want) <= 1e-9
        for a, b in ((lm.StdNormal(), lm.PointMass(0.0)), (lm.PointMass(0.0), lm.StdNormal())):
            with pytest.raises(ValueError):
                lm.tv_distance(a, b)
