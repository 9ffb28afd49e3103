import numpy as np
import pytest

from threshdist import cli
from threshdist import distributions as fd
from threshdist import estimators as est
from threshdist import limits as lm
from threshdist import simulate as mc
from threshdist import special as sf


def command(*argv):
    """Run one subcommand with its exceptions propagating, as ``main`` does
    before it maps them to exit codes."""
    args = cli.build_parser().parse_args(list(argv))
    return args.fn(args)


SPEC = fd.ComponentSpec(8, 1.0, 0.5, 1.0, 0.7)


@pytest.mark.parametrize("call, error, fragment", [
    (lambda: command("selprob", "--n", "8", "--eta", "0.5", "--eta-rule", "default"),
     ValueError, "give either --eta or --eta-rule"),
    (lambda: command("design", "--variant", "II", "--n", "8", "--k", "4"),
     ValueError, "variant II needs --c"),
    (lambda: fd.as_mixture("firm", fd.KNOWN, SPEC), ValueError, "estimator kind must be one of"),
    (lambda: fd.z_bounds(SPEC, 0.3, -1.0), ValueError, "y must be nonnegative"),
    (lambda: est.DesignSpec("III", 8, 4, rho=0.3), ValueError, "variant must be 'I' or 'II'"),
    (lambda: est.DesignSpec("II", 4, 8, c=0.2), ValueError, "need 1 <= k <= n"),
    (lambda: est.RegressionData(np.eye(4, 2), np.ones(3)), ValueError, "shape mismatch"),
    (lambda: est.xi_values(np.ones(3)), ValueError, "design X must be 2-D, got shape (3,)"),
    (lambda: est.LassoConfig.eta_xi_inverse(0.5).penalties(np.ones((2, 2, 2))),
     ValueError, "design X must be 2-D, got shape (2, 2, 2)"),
    (lambda: est.LassoConfig("ridge", 0.5), ValueError, "rule must be one of"),
    (lambda: est.LassoConfig.per_component([0.1, 0.2]).penalties(np.eye(4, 3)),
     ValueError, "need 3 per-component penalties"),
    (lambda: lm.TwoPointMixture(1.5, -1.0, 0.0), ValueError, "mixture weight must lie in [0, 1]"),
    (lambda: lm.OracleHardBoundary(0.5, 0.0), ValueError, "boundary family needs zeta = +-1"),
    (lambda: lm.EscapesToInfinity(0), ValueError, "direction must be +1 or -1"),
    (lambda: lm.limit_selection_probability(lm.RegimeParams(e=1.0, nu=0.0), "guessed"),
     ValueError, "mode must be 'known' or 'unknown'"),
    (lambda: mc.EmpiricalMixedCdf(np.array([]), 0.0), ValueError, "need at least one sample"),
    (lambda: sf.rho_quantile(4, 1.0), ValueError, "quantile argument must lie strictly in (0, 1)"),
    (lambda: sf.integrate_rho(4, lambda s: s, tol=0.0), ValueError, "tol must be positive"),
])
def test_input_check_raises(call, error, fragment):
    with pytest.raises(error) as info:
        call()
    assert fragment in str(info.value)


def test_eta_psi_constructor():
    assert est.LassoConfig.eta_psi(0.5) == est.LassoConfig("eta_psi", 0.5)
