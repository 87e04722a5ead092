"""The repository's pytest settings, run on a scratch suite in a subprocess.

Warnings are errors, so a numpy RuntimeWarning fails the test that raised
it.  A failing hypothesis test must still be reported as one failure: while
writing the failing example's patch, hypothesis imports libcst and with it
``mypy_extensions.TypedDict``, whose DeprecationWarning, raised as an error
in the plugin's report hook, would end the session with INTERNALERROR and
hide every later result.
"""

import subprocess
import sys
import textwrap
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

SUITE = '''
import numpy as np
from hypothesis import given, strategies as st


@given(st.integers())
def test_a_failing_property(x):
    assert x < 10


def test_b_numpy_overflow():
    np.float64(1e308) * 10.0


def test_c_passes():
    assert True
'''


def test_failing_property_leaves_the_session_running(tmp_path):
    (tmp_path / "test_scratch.py").write_text(textwrap.dedent(SUITE))
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-p", "no:cacheprovider",
         "-q", "-rf", "test_scratch.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    output = result.stdout + result.stderr
    assert "INTERNALERROR" not in output, output
    # node ids are relative to the repository, the rootdir of its pyproject.toml
    failed = sorted(line.split(" - ")[0].rsplit("::", 1)[-1] for line in output.splitlines()
                    if line.startswith("FAILED "))
    assert failed == ["test_a_failing_property", "test_b_numpy_overflow"], output
    assert "2 failed, 1 passed" in output, output
    assert result.returncode == 1
