"""The repository's pytest configuration reports a failing test as a failure."""

import subprocess
import sys
from pathlib import Path

CONFIG = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY_TEST = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_small(n):
    assert n < 10
"""


def test_a_failing_hypothesis_test_is_reported_without_an_internal_error(tmp_path):
    (tmp_path / "test_generated.py").write_text(FAILING_PROPERTY_TEST)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(CONFIG),
         "--rootdir", str(tmp_path), "test_generated.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    output = run.stdout + run.stderr
    assert run.returncode == 1, output
    assert "INTERNALERROR" not in output
    assert "1 failed" in run.stdout
