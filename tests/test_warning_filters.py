"""pytest turns every warning into an error, but one from a third party."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

_TWO_TESTS = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 0


def test_passes():
    pass
'''


def test_a_failing_given_test_lets_the_session_run_on(tmp_path):
    # where mypy_extensions is installed, hypothesis's pytest plugin reads
    # its deprecated TypedDict while it reports a failing @given test; as
    # an error, that warning ended the session there (INTERNALERROR), and
    # no test after it ran
    (tmp_path / "test_two.py").write_text(_TWO_TESTS, encoding="utf-8")
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT),
         "-p", "no:cacheprovider", "-q", "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    out = done.stdout + done.stderr
    assert "INTERNALERROR" not in out, out
    assert "1 failed, 1 passed" in out, out
