"""The suite's pytest configuration keeps a failing property readable."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# A failing property, then a passing test that must still run.
TWO_TESTS = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=20, deadline=None, database=None)
@given(st.integers())
def test_fails(n):
    assert n < 5


def test_passes():
    pass
'''


def test_a_failing_hypothesis_property_reads_as_a_failure(tmp_path):
    # On a failure hypothesis explains the example with libcst, whose import raises
    # a DeprecationWarning that the suite's "error" filter would turn into an
    # INTERNALERROR ending the session.
    (tmp_path / "test_two.py").write_text(TWO_TESTS)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    out = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in out
    assert "1 failed, 1 passed" in out.splitlines()[-1]
