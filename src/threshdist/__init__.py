"""Distribution theory for thresholding estimators in Gaussian regression.

Modules
-------
special        normal / chi / non-central t routines and rho-weighted quadrature
distributions  exact finite-sample mixed laws of the six estimator variants
limits         moving-parameter limit catalog, selection-probability limits,
               uniform rates, total-variation diagnostics
estimators     least squares, thresholding rules, lasso and adaptive lasso by
               coordinate descent, benchmark design generators
simulate       seeded Monte Carlo harness and the benchmark histogram study
cli            command-line front end (``threshdist ...``)
"""

from .distributions import (ADAPTIVE, HARD, KINDS, KNOWN, SOFT, ComponentSpec,
                            MixtureDistribution, VarianceMode, ac_density,
                            as_mixture, cdf, deletion_probability,
                            inverse_xi_eta, root_n_over_xi, t_factor, z_bounds)
from .estimators import (DesignSpec, LassoConfig, NonConvergenceError,
                         RegressionData, SingularDesignError, adaptive_lasso,
                         lasso, least_squares, make_design, psi_values,
                         threshold_estimate, xi_values)
from .limits import (RegimeNotCoveredError, RegimeParams, limit_distribution,
                     limit_selection_probability, oracle_limit, tv_distance,
                     uniform_rate)
from .simulate import (SimConfig, SimResult, default_eta, empirical_mixed_cdf,
                       ks_distance, reproduce_figures, run_study,
                       sample_component)
from .special import (QuadratureError, chi_square_tail, integrate_rho,
                      noncentral_t_cdf, normal_cdf, normal_pdf,
                      normal_quantile, rho_average, rho_density)

__version__ = "0.1.0"
