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
INFINITE = np.array([[1.0, 0.0], [0.0, np.inf], [1.0, 1.0]])
#: variant II at c just above -1/k = -0.25, where cond(X'X) = (1 + 4c)^-2
C_EDGE = -0.2499999999


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
    # one shape check serves every design reader; explicit ids keep the
    # repeated messages from renumbering the rows above
    pytest.param(lambda: est.xi_values(np.ones((3, 0))), ValueError,
                 "design X must have at least one column, got shape (3, 0)", id="xi-no-columns"),
    pytest.param(lambda: est.RegressionData(np.ones((3, 0)), np.ones(3)), ValueError,
                 "design X must have at least one column, got shape (3, 0)",
                 id="data-no-columns"),
    pytest.param(lambda: est.LassoConfig.constant(0.5).penalties(np.ones(3)), ValueError,
                 "design X must be 2-D, got shape (3,)", id="constant-penalties-1d"),
    pytest.param(lambda: est.LassoConfig.eta_psi(0.5).penalties(np.ones(3)), ValueError,
                 "design X must be 2-D, got shape (3,)", id="eta-psi-penalties-1d"),
    pytest.param(lambda: est.psi_values(np.ones(3)), ValueError,
                 "design X must be 2-D, got shape (3,)", id="psi-1d"),
    # psi and the penalty levels get the design check of the solvers
    pytest.param(lambda: est.psi_values(np.ones((0, 3))), est.SingularDesignError,
                 "design has n = 0 rows, fewer than its k = 3 columns", id="psi-no-rows"),
    pytest.param(lambda: est.LassoConfig.constant(0.5).penalties(np.ones((0, 3))),
                 est.SingularDesignError, "design has n = 0 rows, fewer than its k = 3 columns",
                 id="constant-penalties-no-rows"),
    pytest.param(lambda: est.LassoConfig.eta_psi(0.5).penalties(np.ones((0, 3))),
                 est.SingularDesignError, "design has n = 0 rows, fewer than its k = 3 columns",
                 id="eta-psi-penalties-no-rows"),
    pytest.param(lambda: est.psi_values(INFINITE), ValueError,
                 "design X must be finite", id="psi-not-finite"),
    pytest.param(lambda: est.LassoConfig.constant(0.5).penalties(INFINITE), ValueError,
                 "design X must be finite", id="constant-penalties-not-finite"),
    pytest.param(lambda: est.LassoConfig.eta_psi(0.5).penalties(INFINITE), ValueError,
                 "design X must be finite", id="eta-psi-penalties-not-finite"),
    # cond(X'X) = 6.25e18 passes the rank test, but the Gram inverse gives no
    # xi: at n = 404 its diagonal is not positive, at n = 8 it is singular
    pytest.param(lambda: est.xi_values(est.make_design(est.DesignSpec("II", 404, 4, c=C_EDGE))),
                 est.SingularDesignError, "xi is not computable", id="xi-gram-not-positive"),
    pytest.param(lambda: est.xi_values(est.make_design(est.DesignSpec("II", 8, 4, c=C_EDGE))),
                 est.SingularDesignError, "xi is not computable", id="xi-gram-singular"),
    (lambda: est.LassoConfig("ridge", 0.5), ValueError, "rule must be one of"),
    (lambda: est.LassoConfig.per_component([0.1, 0.2]).penalties(np.eye(4, 3)),
     ValueError, "need 3 per-component penalties"),
    (lambda: lm.TwoPointMixture(1.5, -1.0, 0.0), ValueError, "mixture weight must lie in [0, 1]"),
    (lambda: lm.OracleHardBoundary(0.5, 0.0), ValueError, "boundary family needs zeta = +-1"),
    (lambda: lm.EscapesToInfinity(0), ValueError, "direction must be +1 or -1"),
    (lambda: lm.limit_selection_probability(lm.RegimeParams(e=1.0, nu=0.0), "guessed"),
     ValueError, "mode must be 'known' or 'unknown'"),
    # the conservative families take the checks of RegimeParams
    pytest.param(lambda: lm.ExcisedNormal(0.3, -1.0), ValueError,
                 "e must be nonnegative, got -1.0", id="excised-negative-e"),
    pytest.param(lambda: lm.ExcisedNormal(0.3, np.nan).cdf(0.1), ValueError,
                 "e must not be NaN", id="excised-nan-e"),
    pytest.param(lambda: lm.HardSmoothed(0.3, np.nan, 4), ValueError, "e must not be NaN",
                 id="hard-smoothed-nan-e"),
    pytest.param(lambda: lm.SoftSmoothed(0.3, -1.0, 4), ValueError,
                 "e must be nonnegative, got -1.0", id="soft-smoothed-negative-e"),
    pytest.param(lambda: lm.SoftShiftNormal(np.nan, 1.0), ValueError, "nu must not be NaN",
                 id="soft-nan-nu"),
    pytest.param(lambda: lm.AdaptiveSmoothed(np.nan, 1.0, 4), ValueError, "nu must not be NaN",
                 id="adaptive-smoothed-nan-nu"),
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
