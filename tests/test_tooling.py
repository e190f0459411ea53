import importlib.util
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
PERFBENCH = PYPROJECT.parent / "perfbench"
DIGEST = PYPROJECT.parent / "scripts" / "digest.py"
PAIRS = PYPROJECT.parent / "scripts" / "pairs.py"

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


def test_public_names_resolve():
    # `from ietidg import *` raises on a name in __all__ that the package no longer binds
    import ietidg

    missing = [name for name in ietidg.__all__ if not hasattr(ietidg, name)]
    assert ietidg.__all__ and not missing, missing


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


def test_pair_summary_on_synthetic_runs():
    # scripts/pairs.py pairs the runs by index: an unpaired run and the traced
    # series stay out of the medians and win counts, a failed run does not
    spec = importlib.util.spec_from_file_location("pairs_script", PAIRS)
    pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(pairs)

    def run(version, pair, setup, series="final", failed=0):
        return {"series": series, "workload": "w", "seed": pair, "version": version, "pair": pair,
                "order": 0, "correct": failed == 0, "attempted": 3, "failed": failed,
                "metrics": {"setup_s": setup, "pcg_iterations": 8.0, "assembly.volume_s": setup}}

    runs = [run("parent", i, s) for i, s in enumerate([1.0, 2.0, 3.0, 4.0, 0.1])]
    runs += [run("change", i, s) for i, s in enumerate([0.5, 2.5, 2.0, 3.5])]
    runs[-1]["failed"], runs[-1]["correct"] = 1, False
    runs += [run(v, 0, 9.0, series="traced") for v in ("parent", "change")]
    summary = pairs.summarize(runs, metrics=("setup_s", "pcg_iterations"))
    w = summary["w"]
    assert (w["seeds"], w["failed"], w["all_correct"]) == ([0, 1, 2, 3, 4], 1, False)
    setup = w["metrics"]["setup_s"]
    assert setup["parent"] == {"median": 2.5, "q1": 1.75, "q3": 3.25}
    assert setup["change"] == {"median": 2.25, "q1": 1.625, "q3": 2.75}
    assert (setup["change_lower"], setup["change_higher"], setup["pairs"]) == (3, 1, 4)
    iters = w["metrics"]["pcg_iterations"]
    assert (iters["change_lower"], iters["change_higher"], iters["pairs"]) == (0, 0, 4)
    layers = pairs.traced_layers(runs, names=("assembly.volume_s", "absent"))
    assert layers == {"w": {"parent": {"assembly.volume_s": 9.0},
                            "change": {"assembly.volume_s": 9.0}}}


def test_digest_diff_of_a_tree_with_itself_is_zero():
    # --diff loads a second copy of the package under another name and
    # compares every array family; a tree against itself differs nowhere
    src = PYPROJECT.parent / "src"
    run = subprocess.run([sys.executable, str(DIGEST), "--no-cases", "--domain", "grid", "2",
                          "--degrees", "1", "--refinements", "0", "--diff", str(src)],
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    families = [line.split()[0] for line in lines[:-1]]
    assert {"local", "oracle", "S", "psi", "u"} & set(families) == {"local", "oracle", "S", "psi"}
    assert all(" 0.000e+00  (" in line for line in lines[:-1])
    assert lines[-1] == "0.000e+00  largest over 1 items"
