"""Dual-primal tearing and interconnecting solver for the torn patch systems.

Per patch, the dofs split into interior (I), dual (Delta) and primal (Pi)
sets.  Primal dofs follow the fat-vertex rule: at every vertex, all basis
functions that do not vanish there are primal, together with every
artificial copy of them; at a regular corner this reduces to the classic
single corner function per patch, at a T-junction the long side
contributes up to p + 1 functions.  Dual dofs are coupled in matched
pairs (+1/-1 rows of the jump matrix B).  The split, the copies of each
primal dof, B and its scaling D are all read off one copy map: which
artificial dof copies which patch dof.  The primal coefficients are
eliminated through the energy-minimizing basis Psi and a global coarse
problem.

Everything after setup lives on each block's skeleton Gamma = (Delta, Pi):
the dense Schur complement ``S = A_GG - A_GI A_II^{-1} A_IG``, formed once
per block from its interior solver, serves the solver and the
preconditioner alike.  One solve with the primal-constrained Schur
complement S~ (a dense Cholesky of ``S_DD`` plus one coarse correction)
serves F, d and the recovery: ``F = B_Gamma S~^{-1} B_Gamma^T``,
``d = B_Gamma S~^{-1} g`` with the condensed load
``g = f_G - A_GI A_II^{-1} f_I``, and ``u_Gamma = S~^{-1} (g - B_Gamma^T lambda)``,
to which one interior solve per block adds ``u_I``.  The multipliers solve
F lambda = d by PCG with the coefficient-scaled Dirichlet preconditioner
``M_sD = B_Gamma D^{-1} S D^{-1} B_Gamma^T``.
"""

import logging
import time
from collections import namedtuple
from dataclasses import dataclass, field, fields

import numpy as np
import scipy.sparse

from .assembly import assemble_interface_terms, build_local_system, copy_map
from .errors import NumericalError
from .linalg import Factorization, cholesky, factorize, pcg

log = logging.getLogger(__name__)


PrimalSources = namedtuple("PrimalSources", "vertex patch dof")  # see select_primal


def select_primal(domain):
    """Fat-vertex primal dof selection: the sources as a `PrimalSources` of int arrays.

    For every vertex and every adjacent patch, all basis functions with a
    positive value at the vertex become primal sources (Dirichlet-constrained
    candidates are dropped with one log note each).  A source claimed by
    several vertices belongs to the first.  The sources are sorted by
    ``(patch, dof)``, and the position of a source is its coarse index.
    All of it is read off the vertex table ``domain.vertices``.
    """
    t = domain.vertices
    # the candidates in loop order: adjacency, then u-index, then v-index
    r, a, b = np.nonzero(t.positive[:, 0, :, None] & t.positive[:, 1, None, :])
    i, j, owner, dof = t.index[r, 0, a], t.index[r, 1, b], t.patch[r], np.empty(r.size, dtype=int)
    for k in np.unique(owner):
        dof[owner == k] = domain.patches[k].space.dof_map[i[owner == k], j[owner == k]]
    for q in np.flatnonzero(dof < 0):
        log.info("patch %d: basis (%d, %d) at vertex %s is Dirichlet-constrained, not a primal dof",
                 owner[q], i[q], j[q], t.point[t.vertex[r[q]]])
    keep = dof >= 0
    v, owner, dof = t.vertex[r[keep]], owner[keep], dof[keep]
    _, first = np.unique(owner * (dof.max(initial=0) + 1) + dof, return_index=True)  # by source
    return PrimalSources(v[first], owner[first], dof[first])


def degenerate_tjunction_count(domain):
    """Number of T-junction sides whose fat vertex degenerates to one function."""
    t = domain.vertices
    return int(np.count_nonzero(t.long_ & (t.positive.sum(axis=2).prod(axis=1) == 1)))


@dataclass
class DofPartition:
    """Per-block interior/dual/primal index sets over the extended dofs.

    `gamma` holds every block's skeleton, Delta then Pi, `primal_global`
    the coarse index of every Pi dof in `gamma` order, `copies` the
    :func:`~ietidg.assembly.copy_map` the sets are read from, and `offsets`
    the start of every block in the concatenation of all extended dofs,
    plus the total.
    """

    interior: list
    dual: list
    gamma: list
    primal_global: list
    copies: np.ndarray
    offsets: np.ndarray


def build_partition(domain, copies, sources):
    """Split every block's dofs into (I, Delta, Pi) off the copy map `copies`.

    A block's extended size is its patch dimension plus its copy-map rows.
    The skeleton (Delta and Pi) of block k is its artificial dofs plus the
    patch dofs that some block copies; a dof is primal when it is one of the
    `sources` (:func:`select_primal`) or a copy of one.
    """
    _, src, sdof, blk, cdof = copies.T
    dims = [patch.space.dimension for patch in domain.patches]
    ext = np.concatenate([[0], np.cumsum(np.bincount(blk, minlength=len(dims)) + dims)])
    coarse = np.full(ext[-1], -1)  # coarse index of every extended dof, -1 off Pi
    coarse[ext[sources.patch] + sources.dof] = np.arange(sources.dof.size)
    coarse[ext[blk] + cdof] = coarse[ext[src] + sdof]
    skeleton = np.zeros(ext[-1], dtype=bool)
    skeleton[ext[src] + sdof] = True
    skeleton[ext[blk] + cdof] = True
    outside = np.flatnonzero((coarse >= 0) & ~skeleton)
    if outside.size:
        k = int(np.searchsorted(ext, outside[0], side="right")) - 1
        raise NumericalError("block %d: primal dof outside the trace-active set" % k)
    interior, dual, gamma, primal_global = [], [], [], []
    for c, sk in zip(np.split(coarse, ext[1:-1]), np.split(skeleton, ext[1:-1])):
        primal = np.flatnonzero(c >= 0)
        dual.append(np.flatnonzero(sk & (c < 0)))
        gamma.append(np.concatenate([dual[-1], primal]))
        interior.append(np.flatnonzero(~sk))
        primal_global.append(c[primal])
    return DofPartition(interior, dual, gamma, primal_global, copies, ext)


@dataclass
class JumpMatrices:
    """Signed matching constraints and the coefficient scaling on the skeleton vector.

    The skeleton vector holds block k's skeleton at ``offsets[k]:offsets[k + 1]``
    (`block`), in ``gamma[k]`` order.  Row r of B is +1 at ``plus[r]``
    (a patch trace dof) and -1 at ``minus[r]`` (its artificial copy), and
    every dual dof lies in one row; only `apply` and `transpose` read them.
    `D` holds the diagonal scaling ``(alpha_k + alpha_l) / alpha_l`` over the
    vector.  Row r is the r-th copy-map row whose copy is dual.
    """

    plus: np.ndarray
    minus: np.ndarray
    D: np.ndarray
    offsets: np.ndarray

    def block(self, k):
        """Block k's slice of the skeleton vector."""
        return slice(self.offsets[k], self.offsets[k + 1])

    def apply(self, u):
        """``B u`` for a skeleton vector `u`."""
        return u[self.plus] - u[self.minus]

    def transpose(self, lam):
        """The skeleton vector ``B^T lam``, zero on Pi."""
        t = np.zeros(self.offsets[-1])
        t[self.plus] = lam
        t[self.minus] = -lam
        return t


def build_jump_matrices(domain, partition):
    """One row per non-primal copy-map row: +1 at the source, -1 at the copy.

    The scaling neighbor ``l`` of a copy is its source patch; that of a
    patch dof is the smallest block that copies it.
    """
    ext = partition.offsets
    _, src, sdof, blk, cdof = partition.copies.T
    source, copy = ext[src] + sdof, ext[blk] + cdof
    gamma = [ext[k] + g for k, g in enumerate(partition.gamma)]
    offsets = np.concatenate([[0], np.cumsum([g.size for g in gamma])])
    gamma = np.concatenate(gamma)
    position = np.full(ext[-1], -1)  # of every skeleton dof in the skeleton vector
    position[gamma] = np.arange(gamma.size)
    dual = np.concatenate([ext[k] + d for k, d in enumerate(partition.dual)])
    jump = np.isin(copy, dual)  # a copy is dual exactly when its source is
    if np.unique(source[jump]).size < np.count_nonzero(jump):
        raise NumericalError("dof matched by two constraints; primal selection missed a vertex")

    neighbor = np.full(ext[-1], domain.num_patches)
    np.minimum.at(neighbor, source, blk)
    neighbor[copy] = src
    alpha = np.array([patch.alpha for patch in domain.patches])
    alpha_k, alpha_l = np.repeat(alpha, np.diff(offsets)), alpha[neighbor[gamma]]
    return JumpMatrices(position[source[jump]], position[copy[jump]],
                        (alpha_k + alpha_l) / alpha_l, offsets)


def build_psi(local_system, partition):
    """One block's skeleton record from its split system: its Schur complement, the S_DD factor and Psi.

    The interior solver is the system's fast diagonalization `fd`, or else SuperLU's
    factorization of its ``A_II``.  ``S = A_GG - A_GI A_II^{-1} A_IG`` is formed densely by the
    solver's ``schur(A_IG)``; ``S_DD`` gets a dense Cholesky factorization.  `psi` has one column
    per local primal dof: the identity on the Pi rows and ``-S_DD^{-1} S_DP`` on the Delta rows,
    so the Delta rows of ``S psi`` vanish.  The condensed load is ``g = f_G - A_GI A_II^{-1} f_I``.
    Raises when ``S_DD``, and with it the torn (I, Delta) block, is not SPD.
    """
    k, A_IG, f_I, fd = local_system.k, local_system.A_IG, local_system.f_I, local_system.fd
    nd = partition.dual[k].size
    aii_fac = fd or factorize(local_system.A_II.csr, name="patch %d interior block" % k)
    S = local_system.A_GG - aii_fac.schur(A_IG)
    try:
        dual_fac = cholesky(S[:nd, :nd], name="patch %d S_DD" % k)
    except NumericalError as exc:
        raise NumericalError(
            "patch %d: torn block is not SPD; either the penalty is too "
            "small for coercivity or a floating patch lacks primal "
            "constraints (%s)" % (k, exc)
        ) from exc
    psi = np.vstack([-dual_fac.solve(S[:nd, nd:]), np.eye(S.shape[0] - nd)])
    g = local_system.f_G - A_IG.T @ aii_fac.solve(f_I)
    return OperatorBlock(S, dual_fac, psi, aii_fac, A_IG, g, f_I, fd is not None)


@dataclass
class OperatorBlock:
    """One block on its skeleton ``gamma[k]`` of the partition: Delta first, then Pi.

    `S` is the dense Schur complement over the skeleton, `dual_fac` the
    Cholesky factor of its (Delta, Delta) block, `psi` the energy-minimizing
    primal basis on the skeleton and `g` the condensed load (see `build_psi`).
    `aii_fac` solves the interior block, which ``A_IG`` couples to the
    skeleton; `f_I` is the load on I.
    """

    S: np.ndarray
    dual_fac: Factorization
    psi: np.ndarray
    aii_fac: Factorization
    A_IG: scipy.sparse.csr_matrix
    g: np.ndarray
    f_I: np.ndarray
    interior_fd: bool  # aii_fac is fast diagonalization, not SuperLU


class IetiOperator:
    """Per-block skeleton data plus the coarse problem; applies F and M_sD.

    Reduces every one of `local_systems` (split systems with their interior solvers, consumed
    once) to its skeleton and keeps none of them.  F, d, M_sD and the recovery work on the
    skeleton vector of `jumps`, with the condensed loads `g` and Psi as one CSR matrix `psi`
    onto the coarse coefficients; every index set is read from `partition`.  Immutable;
    applications are read-only and safe to call concurrently.
    """

    def __init__(self, local_systems, partition, jumps):
        self.partition = partition
        self.jumps = jumps
        self.n_rows = jumps.plus.size
        gk = np.concatenate(partition.primal_global)  # R: every block's Pi onto the coarse indices
        self.n_primal = int(gk.max(initial=-1)) + 1
        self.blocks = [build_psi(sysk, partition) for sysk in local_systems]

        coarse = np.zeros((self.n_primal, self.n_primal))
        for blk, at in zip(self.blocks, partition.primal_global):
            np.add.at(coarse, (at[:, None], at[None, :]), blk.psi.T @ (blk.S @ blk.psi))
        self.coarse_fac = cholesky(coarse, name="coarse problem")
        R = scipy.sparse.csr_matrix((np.ones(gk.size), (np.arange(gk.size), gk)), (gk.size, self.n_primal))
        self.psi = scipy.sparse.block_diag([blk.psi for blk in self.blocks], format="csr") @ R
        self.psi_t = self.psi.T.tocsr()
        self.g = np.concatenate([blk.g for blk in self.blocks])
        self._gamma = [jumps.block(k) for k in range(len(self.blocks))]
        self._dual = [slice(sl.start, sl.start + d.size) for sl, d in zip(self._gamma, partition.dual)]

    # -- the primal-constrained solve: F, d and recovery -------------------

    def solve_constrained(self, r):
        """``u = S~^{-1} r`` for a skeleton vector `r`: the coarse correction ``Psi mu``, ``mu``
        solving the coarse problem for ``Psi^T r``, plus a Cholesky solve on every block's Delta."""
        u = self.psi @ self.coarse_fac.solve(self.psi_t @ r)
        for sl, blk in zip(self._dual, self.blocks):
            u[sl] += blk.dual_fac.solve(r[sl])
        return u

    def apply_F(self, lam):
        return self.jumps.apply(self.solve_constrained(self.jumps.transpose(lam)))

    def compute_d(self):
        return self.jumps.apply(self.solve_constrained(self.g))

    # -- preconditioner ----------------------------------------------------

    def apply_MsD(self, mu):
        x = self.jumps.transpose(mu) / self.jumps.D
        for sl, blk in zip(self._gamma, self.blocks):
            x[sl] = blk.S @ x[sl]
        return self.jumps.apply(x / self.jumps.D)

    # -- solution recovery -------------------------------------------------

    def recover_solution(self, lam):
        """Per-block coefficient vectors over the extended dofs from the converged multipliers."""
        u_gamma = self.solve_constrained(self.g - self.jumps.transpose(lam))
        u_blocks = [np.empty(n) for n in np.diff(self.partition.offsets)]
        for k, (u, sl, blk) in enumerate(zip(u_blocks, self._gamma, self.blocks)):
            u[self.partition.gamma[k]] = u_gamma[sl]
            u[self.partition.interior[k]] = blk.aii_fac.solve(blk.f_I - blk.A_IG @ u_gamma[sl])
        return u_blocks


@dataclass
class SolveReport:
    """Iteration counts, condition estimate and bookkeeping of one solve."""

    domain: str
    p: int
    refinement: int
    num_patches: int
    dofs: int
    extended_dofs: int
    multipliers: int
    primal_dofs: int
    iterations: int
    converged: bool
    kappa: float
    lambda_factor: float
    residuals: list = field(default_factory=list, repr=False)
    setup_seconds: float = 0.0
    solve_seconds: float = 0.0
    degenerate_tjunctions: int = 0
    fd_interior_blocks: int = 0

    CSV_COLUMNS = (
        "domain", "p", "r", "K", "dofs", "multipliers", "it",
        "kappa", "lambda_bound", "kappa_over_bound",
    )

    @property
    def bound(self):
        return self.p * self.lambda_factor**2

    def csv_row(self):
        return [
            self.domain, self.p, self.refinement, self.num_patches, self.dofs,
            self.multipliers, self.iterations,
            "%.6g" % self.kappa, "%.6g" % self.bound, "%.6g" % (self.kappa / self.bound),
        ]

    def to_json_dict(self):
        """The fields in order, `refinement` as ``r``, `num_patches` as ``K``, and the bound."""
        out, keys = {}, {"refinement": "r", "num_patches": "K"}
        for f in fields(self):
            out[keys.get(f.name, f.name)] = getattr(self, f.name)
            if f.name == "lambda_factor":
                out.update(lambda_bound=self.bound, kappa_over_bound=self.kappa / self.bound)
        out["residuals"] = list(self.residuals)
        return out


@dataclass
class IetiSolution:
    u_patches: list
    u_blocks: list
    multipliers: np.ndarray
    report: SolveReport


def lambda_factor(domain):
    """1 + log p + max_k log(H_k / h_k); the square times p bounds the condition number."""
    hhat = domain.metrics["hhat"]
    return float(1.0 + np.log(domain.degree) + np.log(1.0 / hhat.min()))


def setup_operator(domain, delta=12.0, source=1.0):
    """Decide the partition and jumps from the domain, then assemble and reduce one block at a time."""
    copies = copy_map(domain)
    partition = build_partition(domain, copies, select_primal(domain))
    jumps = build_jump_matrices(domain, partition)
    terms = assemble_interface_terms(domain, copies, delta)
    local_systems = (build_local_system(domain, k, terms, partition, source=source)
                     for k in range(domain.num_patches))
    return IetiOperator(local_systems, partition, jumps)


def pcg_solve(operator, d, tol=1e-6, max_iter=1000):
    """PCG on F lambda = d with the scaled Dirichlet preconditioner."""
    result = pcg(operator.apply_F, operator.apply_MsD, d, tol=tol, max_iter=max_iter)
    if not result.converged and d.size:
        log.warning("PCG stopped after %d iterations without convergence", result.iterations)
    return result


def solve_ieti(domain, delta=12.0, tol=1e-6, max_iter=1000, source=1.0, workers=1,
               refinement=-1):
    """Full pipeline: assemble, set up, solve the multiplier system, recover.

    `workers` is accepted and ignored: ``perfbench/run.py`` passes it, so
    removing it is a change on the benchmark side.
    """
    t0 = time.perf_counter()
    op = setup_operator(domain, delta, source=source)
    d = op.compute_d()
    t1 = time.perf_counter()
    result = pcg_solve(op, d, tol=tol, max_iter=max_iter)
    u_blocks = op.recover_solution(result.x)
    t2 = time.perf_counter()
    report = SolveReport(
        domain=domain.name,
        p=domain.degree,
        refinement=refinement,
        num_patches=domain.num_patches,
        dofs=sum(p.space.dimension for p in domain.patches),
        extended_dofs=int(op.partition.offsets[-1]),
        multipliers=op.n_rows,
        primal_dofs=op.n_primal,
        iterations=result.iterations,
        converged=result.converged,
        kappa=result.kappa,
        lambda_factor=lambda_factor(domain),
        residuals=result.residuals,
        setup_seconds=t1 - t0,
        solve_seconds=t2 - t1,
        degenerate_tjunctions=degenerate_tjunction_count(domain),
        fd_interior_blocks=sum(blk.interior_fd for blk in op.blocks),
    )
    u_patches = [u[:patch.space.dimension] for patch, u in zip(domain.patches, u_blocks)]
    return IetiSolution(u_patches, u_blocks, result.x, report)
