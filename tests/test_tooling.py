import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = '''
from hypothesis import given, seed, settings
from hypothesis import strategies as st


@seed(0)
@settings(database=None)
@given(st.integers())
def test_fails(x):
    assert x < 5


def test_runs_after():
    pass
'''


def test_failing_property_test_is_reported_not_fatal(tmp_path):
    # under the repo's warning filters, a failing hypothesis test fails alone
    # (exit 1); it must not end the session as an INTERNALERROR (exit 3)
    (tmp_path / "test_prop.py").write_text(FAILING_PROPERTY)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), str(tmp_path / "test_prop.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert run.returncode == 1, run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
