"""One sha256 over the numbers a refactoring must leave bit-identical.

    python scripts/digest.py                      # the full check, about 4 s
    python scripts/digest.py --src OTHER/src      # the same check on another tree
    python scripts/digest.py --domain grid 2 --degrees 1 --refinements 0 --no-cases

The digest covers two groups of arrays, hashed as their dtype, shape and
bytes:

* the 15 seed-0 cases of ``perfbench/run.py`` (tdomain p=2 r=6 at tol 1e-8,
  tdomain p=2 r=5 with jump exponents 0..4, slider(4, s) p=2 r=3 for
  s = 0.1..0.9): the solution ``u``, the iteration count, ``repr(kappa)``
  and the FD block count of each solve;
* every ``--domain`` at every degree and refinement (by default grid(2),
  tdomain, slider(3, 0.3) and slider(4, 0.37) at p=1..3, r=0..2): each
  block's local ``A`` and ``f``, the copy map and the (I, Delta, Pi)
  partition, ``B_gamma``, ``D``, ``S``, ``psi`` and the FD flag, and the
  oracle's global matrix and load from ``refsolver.assemble_global``.

Run it on the parent commit (``--src`` pointing into a ``git archive``
copy) and on the change; a refactoring that claims bit-identical results
prints the same last line on both.  The lines before it give one digest per
case and domain, to find the first that differs.
"""

import os

# One BLAS thread, so that no reduction order depends on the thread count.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
DOMAINS = (("grid", "2"), ("tdomain",), ("slider", "3", "0.3"), ("slider", "4", "0.37"))
DELTA = 12.0


def seed0_cases():
    """(label, builtin args, degree, refinement, tol, jump exponent) of perfbench's seed-0 cases."""
    cases = [("refine-oracle", ("tdomain",), 2, 6, 1e-8, None)]
    cases += [("jump-sweep j%d" % j, ("tdomain",), 2, 5, 1e-6, j) for j in range(5)]
    cases += [("slide-sweep s%g" % (i / 10), ("slider", "4", str(i / 10)), 2, 3, 1e-6, None)
              for i in range(1, 10)]
    return cases


def _update(h, *arrays):
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(("%s%s" % (a.dtype.str, a.shape)).encode())
        h.update(a.tobytes())


def _update_csr(h, m):
    _update(h, m.data, m.indices, m.indptr, np.array(m.shape))


def case_arrays(h, ieti, domains, refsolver, builtin, degree, refinement, tol, jump):
    domain = domains.builtin_domain(builtin[0], builtin[1:], degree=degree,
                                    refinements=refinement, jump_exponent=jump)
    sol = ieti.solve_ieti(domain, delta=DELTA, tol=tol, refinement=refinement)
    rep = sol.report
    _update(h, np.concatenate(sol.u_patches), np.array([rep.iterations, rep.fd_interior_blocks]))
    h.update(repr(rep.kappa).encode())


def domain_arrays(h, ieti, domains, refsolver, builtin, degree, refinement):
    domain = domains.builtin_domain(builtin[0], builtin[1:], degree=degree,
                                    refinements=refinement)
    op = ieti.setup_operator(domain, DELTA)
    part = op.partition
    _update(h, part.copies)
    for k, (sysk, blk) in enumerate(zip(op.locals, op.blocks)):
        _update_csr(h, sysk.A.csr)
        _update_csr(h, op.jumps.B_gamma[k])
        _update(h, sysk.f, part.interior[k], part.dual[k], part.primal[k], part.primal_global[k],
                op.jumps.D[k], blk.S, blk.psi, np.array([blk.interior_fd]))
    oracle = refsolver.assemble_global(domain, DELTA)
    _update_csr(h, oracle.matrix.csr)
    _update(h, oracle.rhs)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", type=Path, default=ROOT / "src",
                    help="source tree to import ietidg from (default: this repository's)")
    ap.add_argument("--domain", nargs="+", action="append", metavar="ARG",
                    help="a built-in domain with its arguments, e.g. 'slider 4 0.37'; repeatable")
    ap.add_argument("--degrees", nargs="+", type=int, default=[1, 2, 3])
    ap.add_argument("--refinements", nargs="+", type=int, default=[0, 1, 2])
    ap.add_argument("--no-cases", action="store_true", help="skip the 15 seed-0 solves")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(args.src.resolve()))
    from ietidg import domains, ieti, refsolver

    items = [] if args.no_cases else [(label, case_arrays, c) for label, *c in seed0_cases()]
    items += [("%s p%d r%d" % (" ".join(d), p, r), domain_arrays, (d, p, r))
              for d in map(tuple, args.domain or DOMAINS)
              for p in args.degrees for r in args.refinements]
    total = hashlib.sha256()
    for label, fn, params in items:
        h = hashlib.sha256()
        fn(h, ieti, domains, refsolver, *params)
        total.update(h.digest())
        print("%s  %s" % (h.hexdigest(), label))
    print("%s  %d items" % (total.hexdigest(), len(items)))


if __name__ == "__main__":
    main()
