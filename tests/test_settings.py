"""The repository's pytest settings keep a failing run reportable."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_a_failing_property_test_is_reported_and_the_session_goes_on(tmp_path):
    """Under the repository's warning filters a failing ``@given`` test
    prints its falsifying example and fails alone, and the tests after it
    still run. Hypothesis imports libcst to write the failure's patch, and
    that import warns DeprecationWarning (mypy_extensions.TypedDict); were
    it an error, pytest would end the session with INTERNALERROR, exit
    code 3, and print no example."""
    (tmp_path / "test_throwaway.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_fails(n):\n"
        "    assert n < 5\n\n\n"
        "def test_passes():\n"
        "    pass\n")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), str(tmp_path)],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert run.returncode == 1, run.stdout + run.stderr
    assert "Falsifying example" in run.stdout
    assert "1 failed, 1 passed" in run.stdout
