"""Distribution theory for thresholding estimators in Gaussian regression.

Modules
-------
special        normal, chi and rho routines and rho-weighted quadrature
distributions  exact finite-sample mixed laws of the six estimator variants,
               as the conservative limit families at (shift, sqrt(n)*eta)
limits         moving-parameter limit catalog, selection-probability limits,
               uniform rates, total-variation diagnostics
estimators     least squares, thresholding rules, lasso and adaptive lasso by
               an exact homotopy, benchmark design generators
simulate       seeded Monte Carlo harness and the benchmark histogram study
cli            command-line front end (``threshdist ...``)
"""

from .distributions import (ADAPTIVE, HARD, KINDS, KNOWN, SOFT, ComponentSpec,
                            MixtureDistribution, VarianceMode, ac_density,
                            as_mixture, cdf, deletion_probability,
                            inverse_xi_eta, root_n_over_xi, z_bounds)
from .estimators import (DesignSpec, LassoConfig, NonConvergenceError,
                         RegressionData, SingularDesignError, adaptive_lasso,
                         lasso, least_squares, make_design, psi_values,
                         threshold_estimate, xi_values)
from .limits import (RegimeNotCoveredError, RegimeParams, limit_distribution,
                     limit_selection_probability, oracle_limit, tv_distance,
                     uniform_rate)
from .simulate import (SimConfig, SimResult, default_eta, empirical_mixed_cdf,
                       ks_distance, reproduce_figures, run_study,
                       sample_component, write_study)
from .special import (QuadratureError, chi_square_tail, integrate_rho,
                      normal_cdf, normal_pdf, normal_quantile, rho_average,
                      rho_density)

__version__ = "0.1.0"
