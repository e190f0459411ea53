"""Benchmark of ietidg's three condition-number studies.

    python3 perfbench/run.py --workload jump-sweep --seed 0 --seconds 40 --trace 0

A *pass* runs every case of the workload once: build the domain, solve
with IETI-DP, and on the first case also assemble and solve the untorn
global system (the direct oracle).  A run repeats passes while another
one fits in ``--seconds``, checks every solve, and prints as its last
line one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones;
each time is the sum over the cases of the case's median over the passes.
With ``--trace 1`` passes alternate between untraced and traced; the
metrics are the per-layer ones of the traced passes (see ``spans.py``) and
the tracing overhead.  Every reported time is in reference seconds,
corrected for the shared host's speed (see ``hostclock.py``); the log
lines also give the plain seconds.  Each run also writes its environment,
per-case records, host probes and spans to ``perfbench/out/``.
See ``perfbench/README.md`` for why each workload exists.
"""

import os

# Fixed before numpy loads (threadpoolctl is not available to change it
# later): unpinned BLAS threads let one co-tenant on a 2-core host move
# wall times by tens of percent.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import gc
import json
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
try:
    from ietidg import domains, ieti, refsolver
    from ietidg.errors import ConfigError, NumericalError
except ImportError as exc:
    raise SystemExit("perfbench: cannot import ietidg from %s: %s" % (ROOT / "src", exc))
if Path(domains.__file__).resolve().parent != ROOT / "src" / "ietidg":
    raise SystemExit("perfbench: imported ietidg from %s, not from %s"
                     % (domains.__file__, ROOT / "src"))

import hostclock  # noqa: E402  (perfbench/hostclock.py)
import spans  # noqa: E402  (perfbench/spans.py; needs ietidg on the path)

WORKLOADS = ("refine-oracle", "jump-sweep", "slide-sweep")
DELTA = 12.0
# IETI and the oracle agree to this many times the PCG tolerance (relative,
# max norm): 1e-6 at tol=1e-8.  At tol=1e-6 the two measure 1e-7 to 3e-6 apart
# for jump exponents -4..4, so 1e-6 there would fail correct solves.
ORACLE_PER_TOL = 100
NORM_RTOL = 1e-6
REFERENCES = BENCH_DIR / "references.json"
OUT_DIR = BENCH_DIR / "out"

# (name, unit) of every metric, in print order; BENCHMARK.json lists the same.
END_TO_END = (
    ("wall_s", "s"), ("setup_s", "s"), ("solve_s", "s"), ("oracle_s", "s"),
    ("peak_rss_mb", "MB"), ("pcg_iterations", "count"),
)
PER_LAYER = spans.METRICS + (
    ("ieti.multipliers", "count"), ("ieti.primal_dofs", "count"),
    ("ieti.extended_dofs", "count"),
    ("trace.top_level_share", "%"), ("trace.overhead_s", "s"),
)


@dataclass(frozen=True)
class Case:
    """One solve: a built-in domain family, its arguments and the PCG tolerance."""

    family: str
    args: tuple
    degree: int
    refinement: int
    tol: float
    jump: int = None

    @property
    def key(self):
        """Identifies the inputs; references are looked up by it."""
        name = self.family + ("(%s)" % ",".join(repr(a) for a in self.args) if self.args else "")
        jump = "" if self.jump is None else " j%d" % self.jump
        return "%s p%d r%d tol%g%s" % (name, self.degree, self.refinement, self.tol, jump)


def make_cases(workload, seed):
    """The workload's case list: the studies' fixed lists for seed 0, drawn otherwise."""
    rng = np.random.default_rng(seed)
    if workload == "refine-oracle":
        return [Case("tdomain", (), 2, 6, 1e-8)]
    if workload == "jump-sweep":
        exponents = range(5) if seed == 0 else rng.choice(np.arange(-4, 5), 5, replace=False)
        return [Case("tdomain", (), 2, 5, 1e-6, jump=int(j)) for j in exponents]
    if workload == "slide-sweep":
        offsets = [i / 10 for i in range(1, 10)] if seed == 0 else rng.uniform(0.05, 0.95, 9)
        return [Case("slider", (4, float(s)), 2, 3, 1e-6) for s in offsets]
    raise ValueError("unknown workload %r" % workload)


def run_case(case, reference, with_oracle):
    """Solve one case and check it; the record's ``problems`` lists failed checks.

    ``intervals`` maps each timed stage (``build``, ``setup``, ``solve``,
    ``oracle``) to its ``(start, end)`` perf_counter readings.  ``setup``
    and ``solve`` are placed from ``SolveReport.setup_seconds`` and
    ``solve_seconds``, which ``solve_ieti`` measures back to back from its
    start.
    """
    record = {"case": case.key, "iterations": 0, "intervals": {}, "problems": []}
    problems, intervals = record["problems"], record["intervals"]
    try:
        t0 = time.perf_counter()
        domain = domains.builtin_domain(case.family, case.args, degree=case.degree,
                                        refinements=case.refinement, jump_exponent=case.jump)
        t1 = time.perf_counter()
        intervals["build"] = (t0, t1)
        sol = ieti.solve_ieti(domain, delta=DELTA, tol=case.tol, workers=1,
                              refinement=case.refinement)
        rep = sol.report
        intervals["setup"] = (t1, t1 + rep.setup_seconds)
        intervals["solve"] = (t1 + rep.setup_seconds, t1 + rep.setup_seconds + rep.solve_seconds)
        record.update(
            iterations=rep.iterations, converged=rep.converged, kappa=rep.kappa,
            u_norm=float(np.linalg.norm(np.concatenate(sol.u_patches))),
            multipliers=rep.multipliers, primal_dofs=rep.primal_dofs,
            extended_dofs=rep.extended_dofs,
        )
        if with_oracle:
            t2 = time.perf_counter()
            system = refsolver.assemble_global(domain, DELTA)
            direct = refsolver.split_solution(system, refsolver.direct_solve(system))
            intervals["oracle"] = (t2, time.perf_counter())
            scale = max(float(np.abs(x).max()) for x in direct if x.size)
            diff = max(float(np.abs(a - b).max()) for a, b in zip(sol.u_patches, direct) if a.size)
            record["oracle_rel_err"] = diff / scale
    except (ConfigError, NumericalError) as exc:
        problems.append("raised %s: %s" % (type(exc).__name__, exc))
        return record
    if not rep.converged:
        problems.append("PCG did not converge in %d iterations" % rep.iterations)
    if reference is not None:
        if rep.iterations != reference["iterations"]:
            problems.append("iterations %d, reference %d" % (rep.iterations, reference["iterations"]))
        if "%.4g" % rep.kappa != "%.4g" % reference["kappa"]:
            problems.append("kappa %.4g, reference %.4g" % (rep.kappa, reference["kappa"]))
        if abs(record["u_norm"] - reference["u_norm"]) > NORM_RTOL * abs(reference["u_norm"]):
            problems.append("|u| %.12g, reference %.12g" % (record["u_norm"], reference["u_norm"]))
    if with_oracle and not record["oracle_rel_err"] <= ORACLE_PER_TOL * case.tol:
        problems.append("IETI differs from the oracle by %.3e relative" % record["oracle_rel_err"])
    return record


def run_pass(cases, references):
    """Run every case once, the first with the oracle; returns the case records.

    Garbage from the previous case is collected outside the timed region,
    so that peak memory is that of one case, not of when the collector ran.
    """
    records = []
    for i, case in enumerate(cases):
        gc.collect()
        t0 = time.perf_counter()
        record = run_case(case, references.get(case.key), i == 0)
        record["intervals"]["wall"] = (t0, time.perf_counter())
        records.append(record)
    return records


# The intervals of a case record that each time metric adds up.
CASE_TIMES = {
    "wall_s": ("wall",),
    "setup_s": ("build", "setup"),
    "solve_s": ("solve",),
    "oracle_s": ("oracle",),
}


def end_to_end(passes, measure=hostclock.raw):
    """End-to-end metrics of a run from its passes' case records, but peak memory.

    ``measure(start, end)`` gives the seconds of an interval: plain, or
    host-normalized by a :class:`hostclock.HostClock`.  Each time is the
    sum over the cases of that case's median over the passes; a per-case
    median filters a slow spell shorter than a pass, which a median of
    pass totals does not.
    """
    def seconds(record, names):
        return sum(measure(*record["intervals"][n]) for n in names if n in record["intervals"])

    out = {name: sum(statistics.median(seconds(records[i], names) for records in passes)
                     for i in range(len(passes[0])))
           for name, names in CASE_TIMES.items()}
    out["pcg_iterations"] = statistics.median(sum(r["iterations"] for r in records)
                                              for records in passes)
    return out


def size_metrics(records):
    return {"ieti." + key: sum(r.get(key, 0) for r in records)
            for key in ("multipliers", "primal_dofs", "extended_dofs")}


def _openblas(config):
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return "%s %s" % (blas.get("name", "?"), blas.get("version", "?"))


def _commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment():
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _openblas(np.__config__.CONFIG),
        "scipy_blas": _openblas(scipy.__config__.CONFIG),
        "blas_threads": BLAS_THREADS,
        "commit": _commit(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    cases = make_cases(args.workload, args.seed)
    references = json.loads(REFERENCES.read_text())
    env = environment()
    print(json.dumps({"environment": env}), flush=True)
    print("workload %s seed %d: %d cases per pass" % (args.workload, args.seed, len(cases)))

    # Passes repeat while another one fits in --seconds; a traced run needs
    # one untraced and one traced pass at least.
    clock = hostclock.HostClock()
    clock.start()
    try:
        start = time.perf_counter()
        passes = []  # (tracer of a traced pass or None, case records)
        while True:
            tracer = spans.Tracer() if args.trace and len(passes) % 2 else None
            if tracer:
                tracer.install()
            try:
                records = run_pass(cases, references)
            finally:
                if tracer:
                    tracer.uninstall()
            passes.append((tracer, records))
            if len(passes) == 1:
                # Later passes only add allocator fragmentation to the peak.
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            next_end = (time.perf_counter() - start) * (len(passes) + 1) / len(passes)
            if next_end > args.seconds and len(passes) > args.trace:
                break
        end = time.perf_counter()
    finally:
        clock.stop()
    if not clock.probed_enough(start, end):
        raise SystemExit("perfbench: only %d host probes in %.1f s; the SIGALRM timer did not "
                         "run, so times cannot be corrected for the host's speed"
                         % (len(clock.times), end - start))
    measure = clock.measure

    attempted = sum(len(records) for _, records in passes)
    failed = sum(bool(r["problems"]) for _, records in passes for r in records)
    for i, (_, records) in enumerate(passes):
        for r in records:
            if r["problems"]:
                print("FAILED pass %d %s: %s" % (i, r["case"], "; ".join(r["problems"])))
    print("failed_cases %d count (of %d attempted)" % (failed, attempted))

    untraced = [records for tracer, records in passes if not tracer]
    if args.trace:
        traced = [(tracer, records) for tracer, records in passes if tracer]
        layers = []
        for tracer, records in traced:
            layer = tracer.metrics(measure)
            layer.update(size_metrics(records))
            wall = sum(measure(*r["intervals"]["wall"]) for r in records)
            layer["trace.top_level_share"] = 100.0 * tracer.top_level_seconds(measure) / wall
            layers.append(layer)
        values = {name: statistics.median(m.get(name, 0) for m in layers) for name, _ in PER_LAYER}
        traced_wall = end_to_end([records for _, records in traced], measure)["wall_s"]
        values["trace.overhead_s"] = traced_wall - end_to_end(untraced, measure)["wall_s"]
        units = PER_LAYER
    else:
        values = end_to_end(untraced, measure)
        values["peak_rss_mb"] = peak_rss_mb
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units}
    print("%d passes, %d traced; %d host probes, median %.4g s (reference %.4g s)%s"
          % (len(passes), sum(t is not None for t, _ in passes), len(clock.times),
             statistics.median(clock.times), clock.reference,
             "; SIGALRM was blocked at start" if clock.blocked_at_start else ""))
    plain = {} if args.trace else end_to_end(untraced)
    for name, unit in units:
        note = "  (plain %.6g)" % plain[name] if unit == "s" and plain else ""
        print("%-32s %14.6g %s%s" % (name, values[name], unit, note))

    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / ("%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    out.write_text(json.dumps({
        "environment": env, "workload": args.workload, "seed": args.seed,
        "metrics": metrics,
        "probes": [clock.starts, clock.times],
        "sigalrm_blocked_at_start": clock.blocked_at_start,
        "passes": [{"traced": tracer is not None, "cases": records,
                    "spans": tracer.spans if tracer else []}
                   for tracer, records in passes],
    }))
    print("wrote %s" % out.relative_to(ROOT))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
