"""The repository's pytest settings report every test of a run."""

import subprocess
import sys
import textwrap
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_failing_property_test_does_not_end_the_run(tmp_path):
    # under "error", a warning raised in hypothesis's report hook for a
    # failing @given test became an INTERNALERROR, and later tests never ran
    (tmp_path / "test_pair.py").write_text(textwrap.dedent("""
        from hypothesis import given, strategies as st


        @given(st.integers())
        def test_fails(x):
            assert x != x


        def test_passes():
            pass
    """))
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "test_pair.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert "1 failed, 1 passed" in result.stdout, result.stdout + result.stderr
