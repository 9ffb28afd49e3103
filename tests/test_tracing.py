"""perfbench's tracer wraps library names from outside; a refactor that moves
one of them must fail here rather than zero that layer's metrics."""

from pathlib import Path

import pytest

from threshdist import cli
from threshdist import distributions as fd
from threshdist import limits as lm

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    yield tracer
    tracer.uninstall()


def test_traced_names_record_calls(tracer, tmp_path):
    tracer.begin_round()
    assert cli.main(["dist", "--kind", "soft", "--n", "8", "--out", str(tmp_path / "dist.csv")]) == 0
    law = lm.limit_distribution("hard", "unknown", lm.RegimeParams(e=1.5, nu=0.3, dof=4))
    law.cdf(0.2)
    mix = fd.as_mixture(fd.HARD, fd.KNOWN, fd.ComponentSpec(8, 1.0, 0.0, 1.0, 0.5))
    lm.tv_distance(mix, mix, window=(-12.0, 12.0))
    tracer.end_round(1.0)
    summary = tracer.summary()
    for name in ("distributions.cdf", "limits.LimitDistribution.cdf", "limits.tv_distance"):
        assert summary.get(f"{name}.calls", 0.0) >= 1.0, name
