import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import integrate, stats

from threshdist import special as sf


class TestNormal:
    def test_cdf_center_and_conventions(self):
        assert sf.normal_cdf(0.0) == 0.5
        assert sf.normal_cdf(math.inf) == 1.0
        assert sf.normal_cdf(-math.inf) == 0.0

    def test_cdf_against_erfc_oracle(self):
        # oracle: Phi(x) = erfc(-x/sqrt(2))/2 evaluated through math.erfc
        for x in (-3.7, -1.0, -0.2, 0.9, 2.5):
            oracle = 0.5 * math.erfc(-x / math.sqrt(2.0))
            assert abs(float(sf.normal_cdf(x)) - oracle) <= 1e-14
        assert abs(float(sf.normal_cdf(-1.0)) - 0.15865525393145707) <= 1e-14

    def test_pdf_values(self):
        assert abs(sf.normal_pdf(0.0) - 1.0 / math.sqrt(2.0 * math.pi)) <= 1e-16
        assert abs(sf.normal_pdf(2.0) - 0.05399096651318806) <= 1e-16

    @given(st.floats(-8.0, 8.0))
    def test_pdf_even(self, x):
        assert sf.normal_pdf(x) == sf.normal_pdf(-x)

    def test_quantile_values(self):
        assert sf.normal_quantile(0.5) == 0.0
        assert abs(sf.normal_quantile(0.975) - 1.959963984540054) <= 1e-12

    def test_quantile_against_bisection_oracle(self):
        def bisect(p, lo=-10.0, hi=10.0):
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                if float(sf.normal_cdf(mid)) < p:
                    lo = mid
                else:
                    hi = mid
            return 0.5 * (lo + hi)

        for p in (0.025, 0.31, 0.5, 0.841344746, 0.975, 0.999):
            assert abs(sf.normal_quantile(p) - bisect(p)) <= 1e-10

    @given(st.floats(1e-6, 1.0 - 1e-6))
    def test_quantile_inverts_cdf_and_mirrors(self, p):
        x = sf.normal_quantile(p)
        assert abs(float(sf.normal_cdf(x)) - p) <= 1e-12
        assert abs(x + sf.normal_quantile(1.0 - p)) <= 1e-9 * max(1.0, abs(x))

    def test_quantile_domain(self):
        for p in (0.0, 1.0, -0.3, 1.7):
            with pytest.raises(ValueError):
                sf.normal_quantile(p)


class TestRho:
    def test_zero_on_negative_axis(self):
        assert sf.rho_density(4, -1.0) == 0.0
        assert sf.rho_density(4, 0.0) == 0.0

    def test_two_dof_closed_form(self):
        # rho_2(s) = 2 s exp(-s^2) via the exponential chi-square density
        assert abs(sf.rho_density(2, 1.0) - 2.0 * math.exp(-1.0)) <= 1e-15

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 8, 16, 32, 64])
    def test_normalization(self, m):
        assert abs(sf.integrate_rho(m, lambda s: 1.0) - 1.0) <= 1e-10

    def test_second_moment_is_one(self):
        for m in (1, 5, 12):
            assert abs(sf.integrate_rho(m, lambda s: s * s) - 1.0) <= 1e-9

    def test_first_moment_gamma_formula(self):
        # E sqrt(chi2_m/m) = sqrt(2/m) * Gamma((m+1)/2) / Gamma(m/2)
        expected = math.sqrt(0.5) * math.gamma(2.5) / math.gamma(2.0)
        assert abs(sf.integrate_rho(4, lambda s: s) - expected) <= 1e-9
        assert abs(expected - 0.9399856029866254) <= 1e-12

    def test_invalid_dof(self):
        for bad in (0, -3, 2.5):
            with pytest.raises(ValueError):
                sf.rho_density(bad, 1.0)

    def test_breakpoint_handling(self):
        # indicator integrand: exact mass above the split point
        for b in (0.3, 0.9, 1.4):
            val = sf.integrate_rho(4, lambda s: 1.0 if s >= b else 0.0, breakpoints=[b])
            assert abs(val - sf.chi_square_tail(4, 4.0 * b * b)) <= 1e-10

    def test_quadrature_failure_reports_estimate(self):
        # absurd tolerance cannot be met; the error carries the estimate
        with pytest.raises(sf.QuadratureError) as exc:
            sf.integrate_rho(4, lambda s: math.sin(1000.0 * s), tol=1e-300)
        assert exc.value.error is not None


class TestChiSquareTail:
    def test_full_mass_at_zero(self):
        for m in (1, 4, 7):
            assert sf.chi_square_tail(m, 0.0) == 1.0

    def test_two_dof_exponential(self):
        assert abs(sf.chi_square_tail(2, 4.0) - math.exp(-2.0)) <= 1e-15

    def test_four_dof_closed_form(self):
        # Pr(chi2_4 > x) = exp(-x/2) (1 + x/2)
        for x in (0.5, 1.0, 4.0, 9.0):
            oracle = math.exp(-0.5 * x) * (1.0 + 0.5 * x)
            assert abs(sf.chi_square_tail(4, x) - oracle) <= 1e-13

    def test_quadrature_cross_check(self):
        # integrate the chi-square density with 4 dof directly
        val, _ = integrate.quad(lambda t: 0.25 * t * math.exp(-0.5 * t), 4.0, 200.0)
        assert abs(sf.chi_square_tail(4, 4.0) - val) <= 1e-10

    def test_monotone_decreasing(self):
        xs = np.linspace(0.0, 50.0, 101)
        vals = [sf.chi_square_tail(6, float(x)) for x in xs]
        assert all(b <= a for a, b in zip(vals, vals[1:]))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            sf.chi_square_tail(4, -0.1)


class TestNoncentralT:
    def test_central_symmetric_case(self):
        assert abs(sf.noncentral_t_cdf(4, 0.0, 0.0) - 0.5) <= 1e-10

    def test_conventions_at_infinity(self):
        assert sf.noncentral_t_cdf(5, 1.3, math.inf) == 1.0
        assert sf.noncentral_t_cdf(5, 1.3, -math.inf) == 0.0

    @pytest.mark.parametrize("m,c,x", [
        (4, 1.0, 2.0), (4, -2.0, 0.5), (1, 0.7, -1.1), (12, 3.0, 2.8),
        (2, 0.0, -0.4), (64, -1.5, 1.5),
    ])
    def test_against_series_oracle(self, m, c, x):
        # independent oracle: the incomplete-beta series implementation
        assert abs(sf.noncentral_t_cdf(m, c, x) - stats.nct.cdf(x, m, c)) <= 1e-8

    def test_monotone_in_x(self):
        vals = [sf.noncentral_t_cdf(4, 1.0, float(x)) for x in np.linspace(-8, 8, 65)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_invalid_dof(self):
        with pytest.raises(ValueError):
            sf.noncentral_t_cdf(0, 1.0, 0.5)
