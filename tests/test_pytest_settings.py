"""The suite's own pytest settings: a failing property test is reported as
one failure, and the run goes on."""
import subprocess
import sys
from pathlib import Path

CONFIG = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING = """
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_fails(x):
    assert x < 0


def test_after():
    pass
"""


def test_a_failing_property_test_does_not_end_the_run(tmp_path):
    """Reporting a falsified @given test imports hypothesis modules that
    raise a DeprecationWarning at import.  Under the suite's warnings-as-errors
    filter that warning must not become an INTERNALERROR, which ends the
    session before the tests after the failure run."""
    (tmp_path / "test_failing.py").write_text(FAILING)
    run = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-c", str(CONFIG), "--rootdir", str(tmp_path),
            "-p", "no:cacheprovider", "-q", str(tmp_path / "test_failing.py"),
        ],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout, run.stdout[-2000:]
