"""Every check of the selfcheck registry, each run once as its own test."""

import pytest

from threshdist import selfcheck


@pytest.mark.parametrize("check", list(selfcheck._CHECKS.values()),
                         ids=list(selfcheck._CHECKS))
def test_check(check):
    check()
