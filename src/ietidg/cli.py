"""Command line driver: single solves, coefficient-jump and growth studies.

Results stream to CSV (one row per case, stable schema) and optionally to
JSON; any failure exits nonzero while keeping the rows written so far.
Exit codes: 0 ok, 2 configuration error or unwritable output, 3 numerical failure.
"""

import argparse
import contextlib
import csv
import json
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import refsolver
from .domains import builtin_domain, load_domain
from .errors import ConfigError, NumericalError
from .ieti import SolveReport, solve_ieti


@dataclass
class ExperimentSpec:
    """Everything one experiment run needs."""

    builtin: tuple = ("tdomain",)
    config_path: str = None
    degrees: list = None  # [2] unless a config file fixes it
    refinements: list = None  # [1]; a config file's is unknown and reported as -1
    delta: float = 12.0
    tol: float = 1e-6
    max_iter: int = 1000
    jump_exponents: list = None
    slide_offsets: list = None
    check_oracle: bool = False
    manufactured: bool = False
    csv_path: str = None
    json_path: str = None

    def __post_init__(self):
        if self.config_path:
            if (self.degrees, self.refinements) != (None, None):
                raise ConfigError("config-file domains fix degree and refinement; give neither")
            self.degrees, self.refinements = [None], [-1]
        self.degrees = [2] if self.degrees is None else self.degrees
        self.refinements = [1] if self.refinements is None else self.refinements
        if not self.degrees or not self.refinements:
            raise ConfigError("degree and refinement lists must be non-empty")
        if not 0 < self.delta < np.inf:
            raise ConfigError("penalty parameter must be positive and finite")
        if not 0.0 < self.tol < 1.0:
            raise ConfigError("tolerance must lie in (0, 1)")
        if self.max_iter < 1:
            raise ConfigError("maximum iteration count must be at least 1, got %d" % self.max_iter)
        if self.manufactured and self.jump_exponents:
            raise ConfigError("the manufactured solution assumes a unit coefficient; "
                              "drop the jump exponents")
        if self.slide_offsets and (self.config_path or self.builtin[0] != "slider"):
            raise ConfigError("slide offsets only apply to the slider family")
        if self.slide_offsets and len(self.builtin) > 2:
            raise ConfigError("slide offsets replace the slider's offset argument %r"
                              % (self.builtin[2],))
        if self.jump_exponents and self.config_path:
            raise ConfigError("jump exponents do not apply to config-file domains")

    def make_domain(self, degree, refinement, jump_exponent=None, slide=None):
        if self.config_path:
            return load_domain(self.config_path)
        name, *args = self.builtin
        if slide is not None:
            args = [args[0] if args else 3, slide]
        return builtin_domain(name, args, degree=degree, refinements=refinement,
                              jump_exponent=jump_exponent)


def _manufactured():
    u = lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)
    grad = lambda x, y: np.stack(
        [np.pi * np.cos(np.pi * x) * np.sin(np.pi * y),
         np.pi * np.sin(np.pi * x) * np.cos(np.pi * y)], axis=-1)
    f = lambda x, y: 2.0 * np.pi**2 * np.sin(np.pi * x) * np.sin(np.pi * y)
    return u, grad, f


def _json_file(path):
    """The JSON output, opened before the first case so that a bad path fails at once."""
    return open(path, "w") if path else contextlib.nullcontext()


class _CsvSink:
    def __init__(self, path):
        self.handle = open(path, "w", newline="") if path else None
        if self.handle:
            self.writer = csv.writer(self.handle)
            self.writer.writerow(SolveReport.CSV_COLUMNS)
            self.handle.flush()

    def write(self, report):
        if self.handle:
            self.writer.writerow(report.csv_row())
            self.handle.flush()

    def close(self):
        if self.handle:
            self.handle.close()


def _run_case(spec, degree, refinement, jump_exponent=None, slide=None):
    domain = spec.make_domain(degree, refinement, jump_exponent, slide)
    if spec.manufactured:
        u_star, grad_star, f = _manufactured()
    else:
        u_star = grad_star = None
        f = 1.0
    sol = solve_ieti(domain, delta=spec.delta, tol=spec.tol, max_iter=spec.max_iter,
                     source=f, refinement=refinement)
    if not sol.report.converged:
        raise NumericalError("PCG did not converge in %d iterations" % sol.report.iterations)
    extra = {}
    if jump_exponent is not None:
        extra["jump_exponent"] = jump_exponent
    if slide is not None:
        extra["slide_offset"] = slide
    if spec.check_oracle:
        system = refsolver.assemble_global(domain, spec.delta, source=f)
        direct = refsolver.split_solution(system, refsolver.direct_solve(system))
        scale = max(np.abs(np.concatenate(direct)).max(initial=0.0), 1e-300)
        diff = max(np.abs(a - b).max(initial=0.0) for a, b in zip(sol.u_patches, direct))
        extra["oracle_rel_inf_error"] = diff / scale
    if spec.manufactured:
        l2, h1, jump = refsolver.measure_error(domain, sol.u_patches, u_star, grad_star)
        extra.update({"l2_error": l2, "h1_error": h1, "max_interface_jump": jump})
    return sol.report, extra


def run_solve(spec):
    """Solve every requested (degree, refinement[, jump]) case; stream CSV rows."""
    cases = [
        (p, r, j, s)
        for p in spec.degrees
        for r in spec.refinements
        for j in (spec.jump_exponents if spec.jump_exponents else [None])
        for s in (spec.slide_offsets if spec.slide_offsets else [None])
    ]
    with _json_file(spec.json_path) as fh:
        sink = _CsvSink(spec.csv_path)
        results = []
        try:
            for case in cases:
                report, extra = _run_case(spec, *case)
                sink.write(report)
                entry = report.to_json_dict()
                entry.update(extra)
                results.append(entry)
        finally:
            sink.close()
        if fh:
            json.dump(results, fh, indent=2)
    return results


def largest_rise(ratios):
    """Largest ``ratios[j] / ratios[i]`` over ``i < j``; needs two or more ratios."""
    ratios = np.asarray(ratios, dtype=float)
    return float(np.max(ratios[1:] / np.minimum.accumulate(ratios[:-1])))


def run_growth_study(spec):
    """Compare the condition estimates with the theoretical growth factor.

    The paper bounds kappa from above by C p Lambda^2, so the ratio
    kappa / (p Lambda^2) may fall freely with refinement but not grow:
    ``largest_rise``, the largest ``ratios[j] / ratios[i]`` over levels
    i < j, is the statistic the bound speaks to.  Also reports the
    least-squares constant c of kappa ~ c p Lambda^2.

    Each degree must give one series: four or more refinement levels, each
    given once, and at most one jump exponent and one slide offset.
    """
    if spec.config_path:
        raise ConfigError("growth study needs a built-in family: "
                          "a config file fixes the refinement")
    levels = spec.refinements
    if len(levels) < 4 or len(set(levels)) < len(levels):
        raise ConfigError("growth study needs four or more refinement levels, each once, got %s"
                          % levels)
    if len(set(spec.degrees)) < len(spec.degrees):
        raise ConfigError("growth study follows one series per degree; give each degree once, "
                          "got %s" % spec.degrees)
    if len(spec.jump_exponents or []) > 1 or len(spec.slide_offsets or []) > 1:
        raise ConfigError("growth study follows one series per degree; "
                          "give at most one jump exponent and one slide offset")
    with _json_file(spec.json_path) as fh:
        results = run_solve(replace(spec, json_path=None))  # the study writes the JSON
        by_degree = {}
        for entry in results:
            by_degree.setdefault(entry["p"], []).append(entry)
        study = []
        for p, entries in sorted(by_degree.items()):
            entries.sort(key=lambda e: e["r"])
            kappas = np.array([e["kappa"] for e in entries])
            bounds = np.array([e["lambda_bound"] for e in entries])
            ratios = kappas / bounds
            fit = float(np.sum(kappas * bounds) / np.sum(bounds * bounds))
            study.append(
                {
                    "p": p,
                    "refinements": [e["r"] for e in entries],
                    "kappas": kappas.tolist(),
                    "bounds": bounds.tolist(),
                    "ratios": ratios.tolist(),
                    "fit_constant": fit,
                    "largest_rise": largest_rise(ratios),
                }
            )
        if fh:
            json.dump({"cases": results, "growth": study}, fh, indent=2)
    return study


def _parse_number_list(text, cast):
    try:
        return [cast(tok) for tok in text.replace(",", " ").split()]
    except ValueError as exc:
        raise ConfigError("cannot parse list %r" % text) from exc


def build_parser():
    ap = argparse.ArgumentParser(
        prog="ietidg",
        description="Tearing/interconnecting solver for dG-coupled multi-patch "
                    "spline discretizations; reproduces condition-number studies "
                    "at desk scale.",
    )
    src = ap.add_mutually_exclusive_group()
    src.add_argument("--config", metavar="PATH", help="domain config JSON")
    src.add_argument("--builtin", nargs="+", metavar="NAME",
                     default=["tdomain"],
                     help="built-in family with args: grid N | tdomain | slider M S")
    ap.add_argument("--degree",
                    help="spline degrees, e.g. '1 2 3' (default 2; not with --config)")
    ap.add_argument("--refine",
                    help="refinement levels, e.g. '1 2 3' (default 1; not with --config)")
    ap.add_argument("--delta", type=float, default=12.0, help="penalty parameter")
    ap.add_argument("--tol", type=float, default=1e-6, help="PCG residual reduction")
    ap.add_argument("--max-iter", type=int, default=1000)
    ap.add_argument("--jump-exponents", default=None,
                    help="coefficient exponents j (alpha = 10^j on designated patches)")
    ap.add_argument("--slide-offsets", default=None,
                    help="offsets s for a slider sweep, each in (0, 1)")
    ap.add_argument("--check-oracle", action="store_true",
                    help="cross-check against the direct global solve")
    ap.add_argument("--manufactured", action="store_true",
                    help="use the sin*sin manufactured solution and report errors")
    ap.add_argument("--growth", action="store_true", help="run the growth-law study")
    ap.add_argument("--csv", metavar="PATH", help="CSV output path")
    ap.add_argument("--json", metavar="PATH", help="JSON output path")
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        spec = ExperimentSpec(
            builtin=tuple(args.builtin),
            config_path=args.config,
            degrees=None if args.degree is None else _parse_number_list(args.degree, int),
            refinements=None if args.refine is None else _parse_number_list(args.refine, int),
            delta=args.delta,
            tol=args.tol,
            max_iter=args.max_iter,
            jump_exponents=(_parse_number_list(args.jump_exponents, int)
                            if args.jump_exponents else None),
            slide_offsets=(_parse_number_list(args.slide_offsets, float)
                           if args.slide_offsets else None),
            check_oracle=args.check_oracle,
            manufactured=args.manufactured,
            csv_path=args.csv,
            json_path=args.json,
        )
        if args.growth:
            study = run_growth_study(spec)
            for row in study:
                print("p=%d rise=%.3f fit=%.4g kappas=%s"
                      % (row["p"], row["largest_rise"], row["fit_constant"],
                         ["%.4g" % k for k in row["kappas"]]))
        else:
            for entry in run_solve(spec):
                line = "%s p=%d r=%d K=%d dofs=%d mult=%d it=%d kappa=%.4g" % (
                    entry["domain"], entry["p"], entry["r"], entry["K"],
                    entry["dofs"], entry["multipliers"], entry["iterations"],
                    entry["kappa"])
                if "oracle_rel_inf_error" in entry:
                    line += " oracle_err=%.3e" % entry["oracle_rel_inf_error"]
                if "l2_error" in entry:
                    line += " l2=%.3e" % entry["l2_error"]
                print(line)
    except ConfigError as exc:
        print("configuration error: %s" % exc, file=sys.stderr)
        return 2
    except NumericalError as exc:
        print("numerical failure: %s" % exc, file=sys.stderr)
        return 3
    except OSError as exc:  # an unwritable --csv or --json path
        print("cannot write output: %s" % exc, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
