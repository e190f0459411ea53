"""Tests of the benchmark's correctness gate and metric lists.

    python3 -m pytest perfbench -q
"""

import json
import signal
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

SMALL = [run.Case("tdomain", (), 2, 1, 1e-6), run.Case("tdomain", (), 2, 1, 1e-6, jump=2)]


def _references(records):
    return {r["case"]: {"iterations": r["iterations"], "kappa": r["kappa"], "u_norm": r["u_norm"]}
            for r in records}


def test_wrong_reference_counts_only_that_case_as_failed():
    references = _references(run.run_pass(SMALL, {}))
    assert all(not r["problems"] for r in run.run_pass(SMALL, references))

    references[SMALL[1].key]["iterations"] += 1
    records = run.run_pass(SMALL, references)
    assert [bool(r["problems"]) for r in records] == [False, True]
    assert "iterations" in records[1]["problems"][0]


def test_oracle_and_reference_checks_run():
    records = run.run_pass(SMALL, {})
    assert records[0]["oracle_rel_err"] <= run.ORACLE_PER_TOL * SMALL[0].tol
    assert "oracle_rel_err" not in records[1]
    bad = _references(records)
    bad[SMALL[0].key]["u_norm"] *= 1.0 + 1e-5
    bad[SMALL[1].key]["kappa"] *= 1.01
    assert all(r["problems"] for r in run.run_pass(SMALL, bad))


def test_seed_zero_is_the_study_lists_and_other_seeds_repeat():
    assert [c.jump for c in run.make_cases("jump-sweep", 0)] == [0, 1, 2, 3, 4]
    assert [c.args[1] for c in run.make_cases("slide-sweep", 0)] == [
        0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
    for workload in run.WORKLOADS:
        assert run.make_cases(workload, 7) == run.make_cases(workload, 7)
    drawn = run.make_cases("jump-sweep", 7)
    assert len({c.jump for c in drawn}) == 5 and all(-4 <= c.jump <= 4 for c in drawn)
    assert all(0.05 <= c.args[1] <= 0.95 for c in run.make_cases("slide-sweep", 7))


def test_references_cover_every_seed_zero_case():
    references = json.loads(run.REFERENCES.read_text())
    for workload in run.WORKLOADS:
        assert all(c.key in references for c in run.make_cases(workload, 0))


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)


def test_tracer_records_nested_spans_and_restores_the_package():
    from ietidg import ieti, linalg

    originals = (ieti.factorize, linalg.factorize, ieti.IetiOperator.apply_F)
    tracer = run.spans.Tracer()
    tracer.install()
    try:
        assert ieti.factorize is linalg.factorize is not originals[0]
        run.run_pass(SMALL[:1], {})
    finally:
        tracer.uninstall()
    assert (ieti.factorize, linalg.factorize, ieti.IetiOperator.apply_F) == originals

    metrics = tracer.metrics()
    assert metrics["ieti.solve_calls"] == 1 and metrics["refsolver.assemble_calls"] == 1
    assert metrics["ieti.apply_F_calls"] >= 1 and metrics["bspline.eval_basis_calls"] > 0
    assert metrics["assembly.volume_elements"] == 2 * 5 * 4  # 5 patches, once each way
    assert 0 < metrics["ieti.pcg_self_s"] < metrics["ieti.pcg_s"]
    names = {name for name, _, _, _ in tracer.spans}
    assert {"domains.build", "ieti.psi", "linalg.fact_solve"} <= names


def test_host_clock_weights_time_by_probe_speed_and_skips_probes():
    clock = run.hostclock.HostClock(reference=1.0, exponent=1.0)
    # Probes at [0, 1] and [3, 5] s, one at the reference speed, one half as fast.
    clock.starts, clock.ends, clock.times = [0.0, 3.0], [1.0, 5.0], [1.0, 2.0]
    assert clock.measure(1.0, 3.0) == 2.0 / 1.5
    clock.exponent = 2.0
    assert abs(clock.measure(1.0, 3.0) - 2.0 / 1.5 ** 2) < 1e-12
    clock.exponent = 1.0
    assert clock.measure(0.0, 3.0) == clock.measure(1.0, 3.0)
    assert clock.measure(5.0, 7.0) == 1.0
    assert clock.measure(-1.0, 0.0) == 1.0
    assert abs(clock.measure(0.5, 6.0) - (2.0 / 1.5 + 0.5)) < 1e-12


@pytest.mark.parametrize("blocked", [False, True])
def test_host_clock_probes_while_running(blocked):
    # A harness can start the benchmark with SIGALRM blocked; the clock must probe anyway.
    old = signal.pthread_sigmask(signal.SIG_BLOCK if blocked else signal.SIG_UNBLOCK,
                                 {signal.SIGALRM})
    try:
        clock = run.hostclock.HostClock(interval=0.01)
        clock.start()
        try:
            t0 = time.perf_counter()
            while time.perf_counter() - t0 < 0.2:
                pass
        finally:
            clock.stop()
        assert clock.blocked_at_start == blocked
        assert (signal.SIGALRM in signal.pthread_sigmask(signal.SIG_BLOCK, [])) == blocked
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, old)
    assert len(clock.times) >= 5
    assert clock.probed_enough(t0, t0 + 0.2) and not clock.probed_enough(t0, t0 + 100.0)
    fastest = (clock.reference / min(clock.times)) ** clock.exponent
    assert 0 < clock.measure(t0, t0 + 0.2) < 0.2 * fastest
