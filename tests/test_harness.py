"""The test suite's own settings: a failing property test must be reported."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = """
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(derandomize=True, database=None, max_examples=50, deadline=None)
@given(st.integers(0, 100))
def test_small(x):
    assert x < 10
"""


def test_failing_given_test_reports_its_example(tmp_path):
    # under the repo's filterwarnings, a failing @given test must end the
    # session with exit 1 and its falsifying example, not an INTERNALERROR
    (tmp_path / "test_tiny.py").write_text(FAILING_PROPERTY)
    proc = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_tiny.py",
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    output = proc.stdout + proc.stderr
    assert proc.returncode == 1, output
    assert "Falsifying example" in output, output
    assert "INTERNALERROR" not in output, output
