"""The suite's own pytest settings, run on a throwaway test file."""

import subprocess
import sys
from pathlib import Path

_PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

_FAILING_PROPERTY_THEN_PLAIN = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 0


def test_plain():
    pass
'''


def test_a_failing_property_test_fails_alone(tmp_path):
    # With warnings as errors, a warning raised while hypothesis reports a
    # failing example must not abort the run: the plain test after it runs.
    (tmp_path / "test_throwaway.py").write_text(_FAILING_PROPERTY_THEN_PLAIN)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-c", str(_PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "test_throwaway.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert run.returncode == 1, run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
