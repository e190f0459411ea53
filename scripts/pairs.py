"""Alternating parent/change pairs of the benchmark, summarized into ``BENCH_<name>.json``.

    python scripts/pairs.py --name sum_factorization --parent f1e5a9f --change HEAD

Each side runs ``perfbench/run.py`` (every workload of ``BENCHMARK.json``,
its ``run_seconds`` per run) from its own ``git archive`` copy of the
committed files of its revision, in a temporary directory removed at the
end, so neither run sees the working tree.  Each workload gets 10 pairs;
pair i runs seed i on both sides, the parent first for even i and the
change first for odd i.  One more pair per workload runs with ``--trace 1``
at seed 0, and the file lists a few of its per-layer metrics.

The file has the keys ``what``, ``command``, ``method``, ``environment``,
``versions``, ``series``, ``summary``, ``traced_layers`` and ``runs``.  Per
workload and end-to-end metric (``BENCHMARK.json``), the summary gives the
median and quartiles of either side and in how many pairs the change read
lower and higher.  The file is rewritten after every run, so an interrupted
series keeps what it measured.
"""

import argparse
import io
import json
import os
import platform
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np
import scipy

ROOT = Path(__file__).resolve().parents[1]
PAIRS = 10
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = [m["name"] for m in BENCHMARK["end_to_end"]]
LAYERS = ("domains.build_s", "geometry.validate_s",
          "assembly.volume_s", "assembly.volume_calls", "assembly.volume_elements",
          "assembly.local_system_s", "assembly.interface_s", "assembly.interface_side_s",
          "assembly.interface_side_calls", "linalg.sparse_build_s", "refsolver.assemble_s",
          "refsolver.direct_solve_s", "ieti.primal_jumps_s", "ieti.operator_s", "ieti.psi_s",
          "linalg.factorize_s", "ieti.pcg_s", "ieti.apply_F_s", "ieti.apply_MsD_s",
          "ieti.recover_s", "linalg.fact_solve_calls")
METHOD = ("alternating pairs (the parent first for even pair indices, the change first for odd "
          "ones), each side run from its own git archive copy of the committed files; times in "
          "host-normalized reference seconds; medians and quartiles (numpy linear percentiles) "
          "over the pairs; change_lower/change_higher count the pairs in which the change read "
          "lower/higher")


def archive(rev, dest):
    """Extract the committed files of `rev` into `dest`; returns the full commit hash."""
    commit = subprocess.run(["git", "rev-parse", rev + "^{commit}"], cwd=ROOT, check=True,
                            capture_output=True, text=True).stdout.strip()
    tar = subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT, check=True,
                         capture_output=True).stdout
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(tar)) as tf:
        tf.extractall(dest, filter="data")
    return commit


def run_once(tree, workload, seed, trace):
    """One ``perfbench/run.py`` run in `tree`: its last output line, each metric its value."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(BENCHMARK["run_seconds"]), "--trace", str(trace)]
    run = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if run.returncode != 0 or not run.stdout.strip():
        raise RuntimeError("%s in %s failed:\n%s" % (" ".join(cmd), tree, run.stderr[-2000:]))
    res = json.loads(run.stdout.strip().splitlines()[-1])
    res["metrics"] = {name: m["value"] for name, m in res["metrics"].items()}
    return res


def quartiles(values):
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3)}


def summarize(runs, metrics=END_TO_END):
    """Per-workload summary of the ``series == "final"`` runs, paired by ``pair`` index."""
    summary = {}
    final = [r for r in runs if r["series"] == "final"]
    for workload in dict.fromkeys(r["workload"] for r in final):
        mine = [r for r in final if r["workload"] == workload]
        side = {v: {r["pair"]: r for r in mine if r["version"] == v} for v in ("parent", "change")}
        pairs = sorted(set(side["parent"]) & set(side["change"]))
        entry = {"seeds": sorted({r["seed"] for r in mine}),
                 "failed": sum(r["failed"] for r in mine),
                 "all_correct": all(r["correct"] for r in mine), "metrics": {}}
        for name in metrics:
            old = np.array([side["parent"][i]["metrics"][name] for i in pairs], dtype=float)
            new = np.array([side["change"][i]["metrics"][name] for i in pairs], dtype=float)
            entry["metrics"][name] = {
                "parent": quartiles(old) if pairs else None,
                "change": quartiles(new) if pairs else None,
                "change_lower": int(np.sum(new < old)),
                "change_higher": int(np.sum(new > old)),
                "pairs": len(pairs)}
        summary[workload] = entry
    return summary


def traced_layers(runs, names=LAYERS):
    """The `names` metrics of each traced run, by workload and version."""
    out = {}
    for r in runs:
        if r["series"] == "traced":
            out.setdefault(r["workload"], {})[r["version"]] = {
                n: r["metrics"][n] for n in names if n in r["metrics"]}
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--name", required=True, help="writes BENCH_<name>.json at the repository root")
    ap.add_argument("--parent", default="HEAD~1", help="parent revision (default HEAD~1)")
    ap.add_argument("--change", default="HEAD", help="changed revision (default HEAD)")
    ap.add_argument("--what", default="", help="what the change does, for the file's 'what'")
    args = ap.parse_args(argv)

    workloads = [w["name"] for w in BENCHMARK["workloads"]]
    out = ROOT / ("BENCH_%s.json" % args.name)
    record = {
        "what": args.what,
        "command": "python3 perfbench/run.py --workload W --seed S --trace 0 --seconds %g; pair i "
                   "runs seed i on both sides; the traced series adds --trace 1 at seed 0"
                   % BENCHMARK["run_seconds"],
        "method": METHOD,
        "environment": {"nproc": os.cpu_count(), "python": platform.python_version(),
                        "numpy": np.__version__, "scipy": scipy.__version__, "blas_threads": 1},
        "versions": {},
        "series": {"final": "%d pairs on each of %s, seeds 0-%d"
                            % (PAIRS, ", ".join(workloads), PAIRS - 1),
                   "traced": "one traced pair per workload (--trace 1, seed 0)"},
    }
    plan = [("final", w, i, 0) for w in workloads for i in range(PAIRS)]
    plan += [("traced", w, 0, 1) for w in workloads]
    runs = []
    with tempfile.TemporaryDirectory(prefix="pairs-") as tmp:
        trees = {v: Path(tmp) / v for v in ("parent", "change")}
        for version, rev in (("parent", args.parent), ("change", args.change)):
            record["versions"][version] = archive(rev, trees[version])
        for series, workload, pair, trace in plan:
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for k, version in enumerate(order):
                res = run_once(trees[version], workload, pair, trace)
                runs.append({"series": series, "workload": workload, "seed": pair,
                             "version": version, "pair": pair, "order": k, **res})
                print("%s %s pair %d %s: %s" % (series, workload, pair, version, json.dumps(
                    {m: res["metrics"][m] for m in ("setup_s", "solve_s", "assembly.volume_s")
                     if m in res["metrics"]})), flush=True)
                out.write_text(json.dumps(dict(record, summary=summarize(runs),
                                               traced_layers=traced_layers(runs), runs=runs),
                                          indent=1) + "\n")
    print("wrote %s" % out)


if __name__ == "__main__":
    main()
