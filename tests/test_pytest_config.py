"""The test configuration reports every test, even after a failing one.

``pyproject.toml`` turns warnings into errors. When a Hypothesis test
fails, its report hook touches the deprecated ``mypy_extensions.TypedDict``;
as an error, that warning stopped the session with an INTERNALERROR, so no
later test was reported. The configuration ignores that one message and
no other. A probe file runs in a subprocess under the repo's own
``pyproject.toml``: a failing ``@given`` test, then a passing test, then
a test that raises some other ``DeprecationWarning``.
"""

import os
import subprocess
import sys
from pathlib import Path

CONFIG = Path(__file__).resolve().parent.parent / "pyproject.toml"

PROBE = '''
import warnings

from hypothesis import given, settings, strategies as st


@settings(database=None, max_examples=5)
@given(st.integers(0, 3))
def test_given_fails(x):
    assert x < 0


def test_later_passes():
    pass


def test_other_deprecation_fails():
    warnings.warn("some other name is deprecated", DeprecationWarning)
'''


def test_failing_given_test_does_not_end_the_session(tmp_path):
    (tmp_path / "test_probe.py").write_text(PROBE)
    # Only the Hypothesis plugin is loaded, which halves the start-up time.
    env = dict(os.environ, PYTEST_DISABLE_PLUGIN_AUTOLOAD="1")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(CONFIG), "--rootdir", str(tmp_path),
         "-p", "_hypothesis_pytestplugin", "-p", "no:cacheprovider", "-q", "-rA", "test_probe.py"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    out = run.stdout + run.stderr
    # Exit code 3 is pytest's INTERNALERROR; 1 means some tests failed.
    assert run.returncode == 1, out
    assert "INTERNALERROR" not in out
    assert "FAILED test_probe.py::test_given_fails" in out
    assert "PASSED test_probe.py::test_later_passes" in out
    assert "FAILED test_probe.py::test_other_deprecation_fails - DeprecationWarning" in out
