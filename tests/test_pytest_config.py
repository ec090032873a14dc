"""The suite's own pytest configuration, run on a throwaway test file."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

FAILING = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_small(x):
    assert x < 5
'''


def test_failing_hypothesis_test_is_reported_as_a_failure(tmp_path):
    """Warnings are errors in this suite, and Hypothesis's failure report
    must not trip one: the session ends with a failure (exit 1) and its
    summary, not an internal error (exit 3)."""
    (tmp_path / "test_failing.py").write_text(FAILING)
    done = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-c", os.path.join(ROOT, "pyproject.toml"), "--rootdir", str(tmp_path),
            "test_failing.py",
        ],
        cwd=tmp_path, capture_output=True, text=True,
    )
    assert done.returncode == 1, done.stdout + done.stderr
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert "1 failed" in done.stdout
