"""One sha256 over the numbers a refactoring must leave bit-identical.

    python scripts/digest.py                      # the full check, about 4 s
    python scripts/digest.py --src OTHER/src      # the same check on another tree
    python scripts/digest.py --diff OTHER/src     # largest relative difference per array family
    python scripts/digest.py --domain grid 2 --degrees 1 --refinements 0 --no-cases
    python scripts/digest.py --config curved.json --no-cases

The digest covers two groups of arrays, hashed as their dtype, shape and
bytes:

* the 15 seed-0 cases of ``perfbench/run.py`` (tdomain p=2 r=6 at tol 1e-8,
  tdomain p=2 r=5 with jump exponents 0..4, slider(4, s) p=2 r=3 for
  s = 0.1..0.9): the solution ``u``, the iteration count, ``repr(kappa)``
  and the FD block count of each solve;
* every ``--domain`` at every degree and refinement (by default grid(2),
  tdomain, slider(3, 0.3) and slider(4, 0.37) at p=1..3, r=0..2), and
  every ``--config`` file as saved: the vertices (see ``vertex_arrays``),
  each block's local ``A`` and ``f``,
  the copy map and the (I, Delta, Pi) partition, the jump matrix over the
  skeleton (see ``jump_matrix``), ``D``, ``S``, ``psi`` and the FD flag, and
  the oracle's global matrix and load from ``refsolver.assemble_global``.

Run it on the parent commit (``--src`` pointing into a ``git archive``
copy) and on the change; a refactoring that claims bit-identical results
prints the same last line on both.  The lines before it give one digest per
case and domain, to find the first that differs.

A change that rounds differently cannot keep the digest.  ``--diff OTHER/src``
computes the same arrays with both trees in one process and prints, per
array family, the largest relative difference ``max|a - b| / max|b|`` with
the item where it occurs, and for sparse matrices how many store a
different pattern.
"""

import os

# One BLAS thread, so that no reduction order depends on the thread count.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import scipy.sparse

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


def load_package(src, name):
    """Import the ``ietidg`` package under `src` as `name`, so two trees load side by side."""
    pkg = Path(src).resolve() / "ietidg"
    spec = importlib.util.spec_from_file_location(name, pkg / "__init__.py",
                                                  submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def case_arrays(pkg, builtin, degree, refinement, tol, jump):
    """(family, value) pairs of one benchmark case, in hashing order."""
    domain = pkg.domains.builtin_domain(builtin[0], builtin[1:], degree=degree,
                                        refinements=refinement, jump_exponent=jump)
    sol = pkg.ieti.solve_ieti(domain, delta=DELTA, tol=tol, refinement=refinement)
    rep = sol.report
    return [("u", np.concatenate(sol.u_patches)),
            ("iterations, FD blocks", np.array([rep.iterations, rep.fd_interior_blocks])),
            ("kappa", repr(rep.kappa))]


def jump_matrix(jumps, k):
    """Block k's jump matrix over its skeleton as a CSR, built from the skeleton-vector positions
    ``plus`` and ``minus`` of every multiplier's +1 and -1."""
    block, n = jumps.block(k), jumps.plus.size
    pos = np.concatenate([jumps.plus, jumps.minus])
    inside = np.flatnonzero((pos >= block.start) & (pos < block.stop))
    rows, cols, signs = inside % n, pos[inside] - block.start, np.where(inside < n, 1.0, -1.0)
    return scipy.sparse.csr_matrix((signs, (rows, cols)), shape=(n, block.stop - block.start))


def local_systems(pkg, domain, copies):
    """Every block's extended local matrix (CSR) and load.

    The solver forms no extended matrix (``build_local_system`` returns only
    the (I, Gamma) blocks), so it is rebuilt from the volume rows of
    ``band_rows`` and the interface blocks in the one sparse construction
    that earlier trees made: ``local A`` compares byte for byte with theirs.
    """
    asm = pkg.assembly
    block, idx, mats = asm.assemble_interface_terms(domain, copies, DELTA)
    out = []
    for k, patch in enumerate(domain.patches):
        space = patch.space
        band, load = asm.assemble_volume(patch)
        n = space.dimension + np.count_nonzero(copies[:, 3] == k)
        data, indices, indptr = asm.band_rows(space, band, np.arange(space.dimension))
        vals, (rows, cols) = pkg.linalg.block_triplets(idx[block == k], mats[block == k])
        rows = np.concatenate([np.repeat(np.arange(space.dimension), np.diff(indptr)), rows])
        A = pkg.linalg.SparseSym(scipy.sparse.coo_matrix(
            (np.concatenate([data, vals]), (rows, np.concatenate([indices, cols]))), shape=(n, n)))
        out.append((A.csr, np.concatenate([load[space.free_mask], np.zeros(n - space.dimension)])))
    return out


def vertex_arrays(vertices):
    """A domain's vertices as ``(point, (vertex, patch, long_), uv)``, one row of the last two per
    (vertex, adjacent patch) pair, from the vertex table or, in earlier trees, from the list of
    ``Vertex`` records with their ``point``, sorted ``adjacency`` and ``long_patches``."""
    if not isinstance(vertices, list):
        t = vertices
        return t.point, np.column_stack([t.vertex, t.patch, t.long_]).astype(int), t.uv
    rows = [(v, k, k in vertex.long_patches, *loc) for v, vertex in enumerate(vertices)
            for k, loc in vertex.adjacency]
    return (np.array([vertex.point for vertex in vertices], dtype=float).reshape(-1, 2),
            np.array([r[:3] for r in rows], dtype=int).reshape(-1, 3),
            np.array([r[3:] for r in rows], dtype=float).reshape(-1, 2))


def domain_arrays(pkg, domain):
    """(family, value) pairs of one domain's vertices, blocks and oracle, in hashing order."""
    op = pkg.ieti.setup_operator(domain, DELTA)
    part = op.partition
    out = [("vertices", a) for a in vertex_arrays(domain.vertices)] + [("copy map", part.copies)]
    for k, (blk, (A, f)) in enumerate(zip(op.blocks, local_systems(pkg, domain, part.copies))):
        out += [("local A", A), ("jump B", jump_matrix(op.jumps, k)), ("local f", f),
                ("interior", part.interior[k]), ("dual", part.dual[k]),
                ("primal", part.gamma[k][part.dual[k].size:]),
                ("primal_global", part.primal_global[k]), ("D", op.jumps.D[op.jumps.block(k)]),
                ("S", blk.S), ("psi", blk.psi), ("FD flag", np.array([blk.interior_fd]))]
    oracle = pkg.refsolver.assemble_global(domain, DELTA)
    return out + [("oracle A", oracle.matrix.csr), ("oracle f", oracle.rhs)]


def _update(h, a):
    a = np.ascontiguousarray(a)
    h.update(("%s%s" % (a.dtype.str, a.shape)).encode())
    h.update(a.tobytes())


def digest(h, pairs):
    for _, value in pairs:
        if isinstance(value, str):
            h.update(value.encode())
        elif scipy.sparse.issparse(value):
            for a in (value.data, value.indices, value.indptr, np.array(value.shape)):
                _update(h, a)
        else:
            _update(h, value)


def relative_difference(a, b):
    """(max|a - b| / max|b|, whether a sparse pattern differs); inf for a shape mismatch."""
    if isinstance(a, str):
        a, b = np.array(float(a)), np.array(float(b))
    if a.shape != b.shape:
        return np.inf, True
    pattern = False
    if scipy.sparse.issparse(a):
        pattern = not (np.array_equal(a.indptr, b.indptr) and np.array_equal(a.indices, b.indices))
        diff, b = (a - b).data, b.data
    else:
        diff = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
    diff, scale = np.abs(diff).max(initial=0.0), np.abs(b).max(initial=0.0)
    return (diff / scale if scale > 0 else diff), pattern


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", type=Path, default=ROOT / "src",
                    help="source tree to import ietidg from (default: this repository's)")
    ap.add_argument("--diff", type=Path, metavar="OTHER_SRC",
                    help="compare with the tree OTHER_SRC instead of hashing")
    ap.add_argument("--domain", nargs="+", action="append", metavar="ARG",
                    help="a built-in domain with its arguments, e.g. 'slider 4 0.37'; repeatable")
    ap.add_argument("--config", action="append", type=Path, default=[],
                    help="a domain config file (JSON, as domains.save_domain writes); repeatable; "
                         "without --domain, the built-in domains are skipped")
    ap.add_argument("--degrees", nargs="+", type=int, default=[1, 2, 3])
    ap.add_argument("--refinements", nargs="+", type=int, default=[0, 1, 2])
    ap.add_argument("--no-cases", action="store_true", help="skip the 15 seed-0 solves")
    args = ap.parse_args(argv)

    trees = [load_package(args.src, "ietidg_this")]
    if args.diff:
        trees.append(load_package(args.diff, "ietidg_other"))

    def builtin(d, p, r):
        return lambda pkg: domain_arrays(pkg, pkg.domains.builtin_domain(
            d[0], d[1:], degree=p, refinements=r))

    def config(path):
        return lambda pkg: domain_arrays(pkg, pkg.domains.load_domain(path))

    def case(c):
        return lambda pkg: case_arrays(pkg, *c)

    domains = [] if args.domain is None and args.config else (args.domain or DOMAINS)
    items = [] if args.no_cases else [(label, case(c)) for label, *c in seed0_cases()]
    items += [("%s p%d r%d" % (" ".join(d), p, r), builtin(tuple(d), p, r))
              for d in domains for p in args.degrees for r in args.refinements]
    items += [("config %s" % path.name, config(path)) for path in args.config]

    if args.diff:
        worst = {}
        for label, fn in items:
            ours, theirs = (fn(pkg) for pkg in trees)
            if [f for f, _ in ours] != [f for f, _ in theirs]:
                raise SystemExit("%s: the two trees give different arrays" % label)
            for (family, a), (_, b) in zip(ours, theirs):
                rel, pattern = relative_difference(a, b)
                w = worst.setdefault(family, [-1.0, "", 0, 0])
                if rel > w[0]:
                    w[0], w[1] = rel, label
                w[2] += pattern
                w[3] += 1
        for family, (rel, label, patterns, count) in worst.items():
            extra = ", pattern differs in %d of %d" % (patterns, count) if patterns else ""
            print("%-22s %.3e  (%s%s)" % (family, rel, label, extra))
        print("%.3e  largest over %d items" % (max(w[0] for w in worst.values()), len(items)))
        return

    total = hashlib.sha256()
    for label, fn in items:
        h = hashlib.sha256()
        digest(h, fn(trees[0]))
        total.update(h.digest())
        print("%s  %s" % (h.hexdigest(), label))
    print("%s  %d items" % (total.hexdigest(), len(items)))


if __name__ == "__main__":
    main()
