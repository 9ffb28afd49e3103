"""Every check of the selfcheck registry, each run once as its own test."""

import pytest

from threshdist import selfcheck, special as sf


@pytest.mark.parametrize("check", list(selfcheck._CHECKS.values()),
                         ids=list(selfcheck._CHECKS))
def test_check(check):
    check()


def test_rho_normalization_sees_the_engine(monkeypatch):
    # every law integrates through rho_average, so a 1e-8 error in it, two
    # orders past the 1e-10 contract, must fail the check that QUADPACK alone
    # would pass
    exact = sf.rho_average
    monkeypatch.setattr(sf, "rho_average", lambda *args: exact(*args) * (1.0 + 1e-8))
    with pytest.raises(AssertionError, match="rho_average"):
        selfcheck.rho_normalization()
