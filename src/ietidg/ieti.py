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
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse

from .assembly import build_local_system, univariate_matrices
from .bspline import nonzero_at_point
from .errors import NumericalError
from .linalg import Factorization, cholesky, factorize, fast_diagonalization, pcg

log = logging.getLogger(__name__)


@dataclass
class PrimalGroup:
    """One primal coefficient: a source basis function ``(patch, dof)`` and all its copies.

    The copies are the copy-map rows whose source it is; all of them share
    one global coefficient, indexed by `index`.
    """

    vertex: int
    source: tuple
    index: int = -1


def select_primal(domain):
    """Fat-vertex primal dof selection.

    For every vertex and every adjacent patch, all basis functions with a
    positive value at the vertex become primal sources (Dirichlet-constrained
    candidates are dropped with a log note).  A source claimed by several
    vertices joins one group only.
    """
    groups = []
    claimed = set()
    for v_idx, vertex in enumerate(domain.vertices):
        for patch, (u0, v0) in vertex.adjacency:
            space = domain.patches[patch].space
            js = nonzero_at_point(space.kv_v, v0)
            for i in nonzero_at_point(space.kv_u, u0):
                for j in js:
                    dof = int(space.dof_map[i, j])
                    if dof < 0:
                        log.info(
                            "patch %d: basis (%d, %d) at vertex %s is Dirichlet-constrained, "
                            "not a primal dof", patch, i, j, vertex.point,
                        )
                        continue
                    key = (patch, dof)
                    if key in claimed:
                        continue
                    claimed.add(key)
                    groups.append(PrimalGroup(v_idx, key))
    groups.sort(key=lambda g: g.source)
    for gi, g in enumerate(groups):
        g.index = gi
    return groups


def degenerate_tjunction_count(domain):
    """Number of T-junction sides whose fat vertex degenerates to one function."""
    count = 0
    for vertex in domain.vertices:
        if vertex.kind != "tjunction":
            continue
        for patch in vertex.long_patches:
            loc = dict(vertex.adjacency)[patch]
            space = domain.patches[patch].space
            n_pos = len(nonzero_at_point(space.kv_u, loc[0])) * len(
                nonzero_at_point(space.kv_v, loc[1])
            )
            if n_pos == 1:
                count += 1
    return count


def copy_map(domain, local_systems):
    """Which artificial dof copies which patch dof, as an ``(n, 5)`` int array.

    One row ``(interface, source patch, source dof, block, copy dof)`` per
    artificial dof.  Rows run by interface, then the ``k -> l`` side (copies
    of patch ``k`` in block ``l``) before ``l -> k``, then by position in the
    artificial block: the multiplier order.
    """
    rows = sorted(
        (ab.iface_index, ab.owner == domain.interfaces[ab.iface_index].k, pos,
         ab.neighbor, sdof, ab.owner, ab.offset + pos)
        for sysk in local_systems for ab in sysk.artificial
        for pos, (_, sdof) in enumerate(ab.sources)
    )
    return np.array([r[:1] + r[3:] for r in rows], dtype=int).reshape(-1, 5)


@dataclass
class DofPartition:
    """Per-block interior/dual/primal index sets over the extended dofs.

    `primal_global` holds the coarse index of every dof in `primal`, and
    `copies` the `copy_map` the sets are read from.
    """

    interior: list
    dual: list
    primal: list
    primal_global: list
    copies: np.ndarray

    def gamma_index(self, k):
        return np.concatenate([self.dual[k], self.primal[k]]).astype(int)


def _extended_offsets(local_systems):
    """Start of every block in the concatenation of all extended dofs, plus the total."""
    return np.cumsum([0] + [s.n_total for s in local_systems])


def build_partition(domain, local_systems, groups):
    """Split every block's dofs into (I, Delta, Pi) off the copy map.

    The skeleton (Delta and Pi) of block k is its artificial dofs plus the
    patch dofs that some block copies; a dof is primal when it is a group
    source or a copy of one.
    """
    copies = copy_map(domain, local_systems)
    _, src, sdof, blk, cdof = copies.T
    ext = _extended_offsets(local_systems)
    coarse = np.full(ext[-1], -1)  # coarse index of every extended dof, -1 off Pi
    for g in groups:
        coarse[ext[g.source[0]] + g.source[1]] = g.index
    coarse[ext[blk] + cdof] = coarse[ext[src] + sdof]
    skeleton = np.zeros(ext[-1], dtype=bool)
    skeleton[ext[src] + sdof] = True
    skeleton[ext[blk] + cdof] = True
    outside = np.flatnonzero((coarse >= 0) & ~skeleton)
    if outside.size:
        k = int(np.searchsorted(ext, outside[0], side="right")) - 1
        raise NumericalError("block %d: primal dof outside the trace-active set" % k)
    interior, dual, primal, primal_global = [], [], [], []
    for c, sk in zip(np.split(coarse, ext[1:-1]), np.split(skeleton, ext[1:-1])):
        primal.append(np.flatnonzero(c >= 0))
        dual.append(np.flatnonzero(sk & (c < 0)))
        interior.append(np.flatnonzero(~sk))
        primal_global.append(c[primal[-1]])
    return DofPartition(interior, dual, primal, primal_global, copies)


@dataclass
class JumpMatrices:
    """Signed matching constraints and the coefficient scaling.

    Every row carries exactly one +1 (a patch trace dof) and one -1 (its
    artificial copy); no dof appears in two rows.  B touches dual dofs
    only, so ``B_gamma[k]`` holds block k's columns over its skeleton
    ``gamma_index(k)`` (Delta, then Pi; the Pi columns are zero).  `D`
    holds the diagonal coefficient scaling ``(alpha_k + alpha_l) / alpha_l``
    per block over the same dofs.
    """

    n_rows: int
    B_gamma: list
    D: list
    pairs: list  # (row, block_k, dof_k, block_l, dof_l, iface_index)


def build_jump_matrices(domain, local_systems, partition):
    """One row per non-primal copy-map row: +1 at the source, -1 at the copy.

    The scaling neighbor ``l`` of a copy is its source patch; that of a
    patch dof is the smallest block that copies it.
    """
    ext = _extended_offsets(local_systems)
    _, src, sdof, blk, cdof = partition.copies.T
    source, copy = ext[src] + sdof, ext[blk] + cdof
    is_dual = np.zeros(ext[-1], dtype=bool)
    for k, dual in enumerate(partition.dual):
        is_dual[ext[k] + dual] = True
    jump = is_dual[copy]  # a copy is dual exactly when its source is
    n_rows = int(jump.sum())
    if np.unique(source[jump]).size < n_rows:
        raise NumericalError("dof matched by two constraints; primal selection missed a vertex")
    B = scipy.sparse.csr_matrix(
        (np.tile([1.0, -1.0], n_rows),
         (np.repeat(np.arange(n_rows), 2), np.column_stack([source[jump], copy[jump]]).ravel())),
        shape=(n_rows, ext[-1]),
    )
    pairs = [(r,) + tuple(row)
             for r, row in enumerate(partition.copies[jump][:, [1, 2, 3, 4, 0]].tolist())]

    neighbor = np.full(ext[-1], len(local_systems))
    np.minimum.at(neighbor, source, blk)
    neighbor[copy] = src
    alpha = np.array([patch.alpha for patch in domain.patches])
    B_gamma, D = [], []
    for k in range(len(local_systems)):
        gamma = ext[k] + partition.gamma_index(k)
        B_gamma.append(B[:, gamma])
        alpha_l = alpha[neighbor[gamma]]
        D.append((alpha[k] + alpha_l) / alpha_l)
    return JumpMatrices(n_rows, B_gamma, D, pairs)


def build_psi(local_system, partition, aii_fac, interior_fd=False):
    """One block's skeleton record: its Schur complement, the S_DD factor and Psi.

    ``S = A_GG - A_GI A_II^{-1} A_IG`` is formed densely over
    ``gamma_index(k)`` by ``aii_fac.schur(A_IG)``; ``S_DD`` gets a dense
    Cholesky factorization.  `psi` has one column per local primal dof:
    the identity on the Pi rows and ``-S_DD^{-1} S_DP`` on the Delta rows,
    so the Delta rows of ``S psi`` vanish.  The condensed load is ``g = f_G - A_GI A_II^{-1} f_I``.
    Raises when ``S_DD``, and with it the torn (I, Delta) block, is not SPD.
    """
    k = local_system.k
    A = local_system.A.csr
    I, gamma = partition.interior[k], partition.gamma_index(k)
    nd = partition.dual[k].size
    A_IG = A[I][:, gamma]
    S = A[gamma][:, gamma].toarray() - aii_fac.schur(A_IG)
    try:
        dual_fac = cholesky(S[:nd, :nd], name="patch %d S_DD" % k)
    except NumericalError as exc:
        raise NumericalError(
            "patch %d: torn block is not SPD; either the penalty is too "
            "small for coercivity or a floating patch lacks primal "
            "constraints (%s)" % (k, exc)
        ) from exc
    psi = np.vstack([-dual_fac.solve(S[:nd, nd:]), np.eye(gamma.size - nd)])
    f = local_system.f
    g = f[gamma] - A_IG.T @ aii_fac.solve(f[I])
    return OperatorBlock(S, dual_fac, psi, aii_fac, A_IG, g, I, gamma, nd, interior_fd)


def kronecker_interior(patch, A_II, interior, univariate, name=""):
    """Fast-diagonalization factorization of `A_II` if it is exactly a Kronecker sum, else None.

    Requires the `interior` patch dofs to form a tensor lattice ``I_u x I_v``
    in flat-lattice order and a diagonal Jacobian J at the corner (0, 0); then
    every stored entry of `A_II` must match ``c_u K_u (x) M_v + c_v M_u (x) K_v``,
    ``c_u = alpha |J_22 / J_11| = alpha^2 / c_v``, to 1e-13 of ``max |A_II|``,
    and that sum's Frobenius norm must put no mass outside `A_II`'s pattern.
    `univariate` maps knot bytes to the 1D ``(K, M)``.
    """
    space = patch.space
    lat = np.flatnonzero(space.free_mask)[interior]
    iu, iv = np.divmod(lat, space.n_v)
    geo = patch.geometry  # Jacobian at the corner (0, 0): end derivatives of p-open B-splines
    J = np.column_stack([kv.p / kv.knots[kv.p + 1] * (geo.control[e] - geo.control[0, 0])
                         for kv, e in ((geo.kv_u, (1, 0)), (geo.kv_v, (0, 1)))])
    if not lat.size or J[0, 1] != 0.0 or J[1, 0] != 0.0:
        return None
    n_v = int(np.argmax(iu != iu[0])) or lat.size
    I_u, I_v = iu[::n_v], iv[:n_v]
    if not np.array_equal(lat, (I_u[:, None] * space.n_v + I_v).ravel()):
        return None
    (K_u, M_u), (K_v, M_v) = [[m[idx][:, idx] for m in univariate[kv.knots.tobytes()]]
                              for kv, idx in ((space.kv_u, I_u), (space.kv_v, I_v))]
    aspect = abs(J[1, 1] / J[0, 0])
    c_u, c_v = patch.alpha * aspect, patch.alpha / aspect
    a, b = np.divmod(np.repeat(np.arange(lat.size), np.diff(A_II.indptr)), n_v)
    c, d = np.divmod(A_II.indices, n_v)
    kron = c_u * K_u[a, c] * M_v[b, d] + c_v * M_u[a, c] * K_v[b, d]
    norm2 = (c_u**2 * np.vdot(K_u, K_u) * np.vdot(M_v, M_v)
             + c_v**2 * np.vdot(M_u, M_u) * np.vdot(K_v, K_v)
             + 2 * c_u * c_v * np.vdot(K_u, M_u) * np.vdot(M_v, K_v))
    exact = (np.abs(kron - A_II.data).max() <= 1e-13 * np.abs(A_II.data).max()
             and norm2 - kron @ kron <= 1e-12 * norm2)
    return fast_diagonalization(K_u, M_u, K_v, M_v, c_u, c_v, name) if exact else None


@dataclass
class OperatorBlock:
    """One block on its skeleton, with index sets over its extended dofs.

    `gamma` lists the skeleton dofs, the `n_dual` Delta dofs first, then
    Pi; `interior` the I dofs.  `S` is the dense Schur complement over
    `gamma`, `dual_fac` the Cholesky factor of its (Delta, Delta) block,
    `psi` the energy-minimizing primal basis on `gamma` and `g` the
    condensed load (see `build_psi`).  `aii_fac` solves the interior block,
    which ``A_IG`` couples to the skeleton.
    """

    S: np.ndarray
    dual_fac: Factorization
    psi: np.ndarray
    aii_fac: Factorization
    A_IG: scipy.sparse.csr_matrix
    g: np.ndarray
    interior: np.ndarray
    gamma: np.ndarray
    n_dual: int
    interior_fd: bool  # aii_fac is from kronecker_interior, not SuperLU


class IetiOperator:
    """Per-block skeleton data plus the coarse problem; applies F and M_sD.

    Immutable after construction; applications are read-only and safe to
    call concurrently.
    """

    def __init__(self, domain, local_systems, groups, partition, jumps):
        self.domain = domain
        self.locals = local_systems
        self.groups = groups
        self.partition = partition
        self.jumps = jumps
        self.n_rows = jumps.n_rows
        self.n_primal = len(groups)
        self.primal_global = partition.primal_global

        # 1D matrices of the fast-diagonalization check, once per distinct knot vector
        kvs = {kv.knots.tobytes(): kv for patch in domain.patches
               for kv in (patch.space.kv_u, patch.space.kv_v)}
        univariate = {key: univariate_matrices(kv) for key, kv in kvs.items()}

        self.blocks = []
        for k, sysk in enumerate(local_systems):
            I = partition.interior[k]
            A_II = sysk.A.csr[I][:, I]
            name = "patch %d interior block" % k
            fd = kronecker_interior(domain.patches[k], A_II, I, univariate, name)
            aii_fac = fd or factorize(A_II, name=name).assert_spd()
            self.blocks.append(build_psi(sysk, partition, aii_fac, fd is not None))

        coarse = np.zeros((self.n_primal, self.n_primal))
        for blk, gk in zip(self.blocks, self.primal_global):
            np.add.at(coarse, (gk[:, None], gk[None, :]), blk.psi.T @ (blk.S @ blk.psi))
        self.coarse_fac = cholesky(coarse, name="coarse problem")

    # -- the primal-constrained solve: F, d and recovery -------------------

    def solve_constrained(self, rhs_blocks):
        """Per-block ``u = S~^{-1} r`` for per-block skeleton right-hand sides `rhs_blocks`.

        A Cholesky solve on the Delta dofs of every block, plus the
        correction ``Psi_k mu[R_k]`` from one coarse solve with the
        right-hand side ``sum_k R_k^T Psi_k^T r_k``.
        """
        u_blocks = []
        w = np.zeros(self.n_primal)
        for blk, gk, r in zip(self.blocks, self.primal_global, rhs_blocks):
            u = np.zeros(r.shape)
            u[:blk.n_dual] = blk.dual_fac.solve(r[:blk.n_dual])
            u_blocks.append(u)
            np.add.at(w, gk, blk.psi.T @ r)
        mu = self.coarse_fac.solve(w)
        for u, blk, gk in zip(u_blocks, self.blocks, self.primal_global):
            u += blk.psi @ mu[gk]
        return u_blocks

    def _jump(self, u_blocks):
        """``B u = sum_k B_k u_k`` over the skeleton of all blocks."""
        return sum((B @ u for B, u in zip(self.jumps.B_gamma, u_blocks)), np.zeros(self.n_rows))

    def apply_F(self, lam):
        return self._jump(self.solve_constrained([B.T @ lam for B in self.jumps.B_gamma]))

    def compute_d(self):
        return self._jump(self.solve_constrained([blk.g for blk in self.blocks]))

    # -- preconditioner ----------------------------------------------------

    def apply_MsD(self, mu):
        y = np.zeros(self.n_rows)
        for blk, Bg, D in zip(self.blocks, self.jumps.B_gamma, self.jumps.D):
            y += Bg @ ((blk.S @ ((Bg.T @ mu) / D)) / D)
        return y

    # -- solution recovery -------------------------------------------------

    def recover_solution(self, lam):
        """Per-block coefficient vectors over the extended dofs from the converged multipliers."""
        u_gamma = self.solve_constrained(
            [blk.g - B.T @ lam for blk, B in zip(self.blocks, self.jumps.B_gamma)])
        u_blocks = []
        for blk, sysk, ug in zip(self.blocks, self.locals, u_gamma):
            u = np.empty(sysk.n_total)
            u[blk.gamma] = ug
            u[blk.interior] = blk.aii_fac.solve(sysk.f[blk.interior] - blk.A_IG @ ug)
            u_blocks.append(u)
        return u_blocks

    def patch_solutions(self, u_blocks):
        return [u[: self.locals[k].n_patch] for k, u in enumerate(u_blocks)]


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
        return {
            "domain": self.domain,
            "p": self.p,
            "r": self.refinement,
            "K": self.num_patches,
            "dofs": self.dofs,
            "extended_dofs": self.extended_dofs,
            "multipliers": self.multipliers,
            "primal_dofs": self.primal_dofs,
            "iterations": self.iterations,
            "converged": self.converged,
            "kappa": self.kappa,
            "lambda_factor": self.lambda_factor,
            "lambda_bound": self.bound,
            "kappa_over_bound": self.kappa / self.bound,
            "residuals": list(self.residuals),
            "setup_seconds": self.setup_seconds,
            "solve_seconds": self.solve_seconds,
            "degenerate_tjunctions": self.degenerate_tjunctions,
            "fd_interior_blocks": self.fd_interior_blocks,
        }


@dataclass
class IetiSolution:
    u_patches: list
    u_blocks: list
    multipliers: np.ndarray
    report: SolveReport
    operator: IetiOperator


def lambda_factor(domain):
    """1 + log p + max_k log(H_k / h_k); the square times p bounds the condition number."""
    hhat = domain.metrics["hhat"]
    return float(1.0 + np.log(domain.degree) + np.log(1.0 / hhat.min()))


def setup_operator(domain, delta=12.0, source=1.0, vector_source=None):
    """Assemble all extended local systems and build the IETI operator."""
    local_systems = [build_local_system(domain, k, delta, source=source,
                                        vector_source=vector_source)
                     for k in range(domain.num_patches)]
    groups = select_primal(domain)
    partition = build_partition(domain, local_systems, groups)
    jumps = build_jump_matrices(domain, local_systems, partition)
    return IetiOperator(domain, local_systems, groups, partition, jumps)


def pcg_solve(operator, d, tol=1e-6, max_iter=1000):
    """PCG on F lambda = d with the scaled Dirichlet preconditioner."""
    result = pcg(operator.apply_F, operator.apply_MsD, d, tol=tol, max_iter=max_iter)
    if not result.converged and d.size:
        log.warning("PCG stopped after %d iterations without convergence", result.iterations)
    return result


def solve_ieti(domain, delta=12.0, tol=1e-6, max_iter=1000, source=1.0,
               vector_source=None, workers=1, refinement=-1):
    """Full pipeline: assemble, set up, solve the multiplier system, recover.

    `workers` is accepted and ignored: ``perfbench/run.py`` passes it, so
    removing it is a change on the benchmark side.
    """
    t0 = time.perf_counter()
    op = setup_operator(domain, delta, source=source, vector_source=vector_source)
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
        extended_dofs=sum(s.n_total for s in op.locals),
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
    return IetiSolution(op.patch_solutions(u_blocks), u_blocks, result.x, report, op)
