import importlib.util
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
PERFBENCH = PYPROJECT.parent / "perfbench"
DIGEST = PYPROJECT.parent / "scripts" / "digest.py"

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


def test_benchmark_span_targets_resolve(monkeypatch):
    # perfbench/spans.py wraps these names only in traced runs (--trace 1);
    # a renamed or deleted target must fail here, not first in a traced run
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    targets = [(owner, attr) for owner, attr, *_ in spans.SPANS + spans.COUNTED]
    missing = ["%s.%s" % (owner.__name__, attr) for owner, attr in targets
               if not callable(vars(owner).get(attr))]
    assert targets and not missing, missing


def test_digest_script_is_reproducible():
    # scripts/digest.py hashes the numbers a refactoring must keep; two runs
    # on the same tree print the same digest
    cmd = [sys.executable, str(DIGEST), "--no-cases", "--domain", "grid", "2", "--domain",
           "tdomain", "--degrees", "1", "--refinements", "0"]
    runs = [subprocess.run(cmd, capture_output=True, text=True, timeout=120) for _ in range(2)]
    for run in runs:
        assert run.returncode == 0, run.stderr
    lines = runs[0].stdout.splitlines()
    assert [line.split("  ")[1] for line in lines] == ["grid 2 p1 r0", "tdomain p1 r0", "2 items"]
    assert all(len(line.split("  ")[0]) == 64 for line in lines)
    assert runs[0].stdout == runs[1].stdout
