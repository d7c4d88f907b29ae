"""The suite's own pytest settings keep a failing test readable."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_below_ten(x):
    assert x < 10
'''


def test_failing_property_reports_its_example(tmp_path):
    # On failure Hypothesis imports code that may warn while it builds the
    # report; with warnings as errors that must not end the session.
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    pytest = [sys.executable, "-m", "pytest", "-p", "no:cacheprovider", "-c", str(PYPROJECT)]
    result = subprocess.run(
        [*pytest, "--rootdir", str(tmp_path), "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    output = result.stdout + result.stderr
    assert result.returncode == 1, output
    assert "Falsifying example" in output
    assert "INTERNALERROR" not in output
