"""Shared numerical kernels: sparse symmetric storage, factorization, PCG.

One sparse backend serves every block, the coarse problem and the oracle:
SuperLU in symmetric mode with a minimum-degree ordering and pivot monitoring,
inertia from the U-diagonal signs; Kronecker sums use fast diagonalization.
PCG estimates the condition number from the eigenvalues of its Lanczos
tridiagonal matrix.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg
from scipy.linalg.lapack import dsygv

from .errors import NumericalError, SingularMatrixError

_PIVOT_RTOL = 1e-14


class SparseSym:
    """Compressed-row symmetric matrix built from triplets or dense blocks.

    Duplicate triplets are summed and explicit zeros dropped.  The values
    are verified to be symmetric up to 1e-12 relative in the max norm.
    """

    def __init__(self, matrix):
        csr = scipy.sparse.csr_matrix(matrix)
        csr.sum_duplicates()
        csr.eliminate_zeros()
        self.csr = csr
        self.n = csr.shape[0]
        if self.n:
            scale = max(abs(csr.max()), abs(csr.min()), 1e-300)
            asym = abs(csr - csr.T)
            worst = asym.max() if asym.nnz else 0.0
            if worst > 1e-12 * scale:
                raise NumericalError(
                    "symmetric matrix has asymmetry %.3e (scale %.3e)" % (worst, scale)
                )

    @classmethod
    def from_triplets(cls, n, rows, cols, values):
        return cls(scipy.sparse.coo_matrix((values, (rows, cols)), shape=(n, n)))

    @classmethod
    def from_blocks(cls, n, blocks):
        """Sum of dense blocks ``(idx, mats)``: ``mats[b]`` adds onto rows and columns ``idx[b]``.

        Each block pairs a (B, s) index array with (B, s, s) matrices;
        entries whose row or column index is -1 are dropped.
        """
        rows = np.concatenate([np.repeat(idx, idx.shape[1], axis=1).ravel() for idx, _ in blocks])
        cols = np.concatenate([np.tile(idx, idx.shape[1]).ravel() for idx, _ in blocks])
        vals = np.concatenate([mats.ravel() for _, mats in blocks])
        keep = (rows >= 0) & (cols >= 0)
        return cls.from_triplets(n, rows[keep], cols[keep], vals[keep])

    @property
    def shape(self):
        return self.csr.shape

    def toarray(self):
        return self.csr.toarray()


def write_triplets(path, matrix):
    """Dump a matrix as plain text, one ``row col value`` triplet per line."""
    coo = scipy.sparse.coo_matrix(matrix)
    with open(path, "w") as fh:
        for r, c, v in zip(coo.row, coo.col, coo.data):
            fh.write("%d %d %.17g\n" % (r, c, v))


class Factorization:
    """Symmetric factorization with ``solve`` and pivot inertia.

    ``inertia`` is the triple (positive, negative, zero) of pivot signs;
    an SPD matrix yields ``(n, 0, 0)``.  Solves accept vector or matrix
    right-hand sides and are safe to call concurrently.
    """

    def __init__(self, n, solver, inertia, name=""):
        self.n = n
        self._solver = solver
        self.inertia = inertia
        self.name = name

    def solve(self, rhs):
        rhs = np.asarray(rhs, dtype=float)
        if rhs.shape[0] != self.n:
            raise ValueError("rhs has leading dimension %d, expected %d" % (rhs.shape[0], self.n))
        return self._solver(rhs)

    def assert_spd(self):
        npos, nneg, nzero = self.inertia
        if nneg or nzero:
            raise NumericalError(
                "%s: expected SPD matrix but inertia is (%d, %d, %d)"
                % (self.name or "factorization", npos, nneg, nzero)
            )
        return self


def factorize(A, name=""):
    """Factorize a symmetric matrix for repeated solves.

    Every matrix, sparse, :class:`SparseSym` or dense ``ndarray``, goes
    through SuperLU in symmetric mode (diagonal pivots only, minimum-degree
    ordering on A^T + A), and the inertia is read off the signs of the U
    diagonal.  Raises :class:`SingularMatrixError` on zero pivots (tolerance
    ``1e-14 * max|A|``) and :class:`NumericalError` when the matrix needs
    off-diagonal pivoting, as a symmetric indefinite matrix with a zero
    diagonal does.
    """
    mat = A.csr if isinstance(A, SparseSym) else A
    n = mat.shape[0]
    label = name or "splu"
    if n == 0:
        return Factorization(0, lambda rhs: rhs, (0, 0, 0), name)
    csc = scipy.sparse.csc_matrix(mat, dtype=float)
    try:
        lu = scipy.sparse.linalg.splu(
            csc,
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        )
    except RuntimeError as exc:  # SuperLU reports exactly singular matrices this way
        raise SingularMatrixError("%s: %s" % (label, exc)) from exc
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise NumericalError(
            "%s: unsymmetric pivoting kicked in; matrix is not factorizable "
            "as symmetric quasi-definite" % label
        )
    diag = lu.U.diagonal()
    tol = _PIVOT_RTOL * max(np.abs(csc).max(), 1e-300)
    small = np.abs(diag) <= tol
    if np.any(small):
        index = int(np.argmax(small))
        raise SingularMatrixError("%s: zero pivot at index %d" % (label, index), index=index)
    npos = int(np.sum(diag > 0))
    return Factorization(n, lu.solve, (npos, n - npos, 0), name)


def fast_diagonalization(K_u, M_u, K_v, M_v, c_u, c_v, name=""):
    """Exact SPD solver of the Kronecker sum ``c_u K_u (x) M_v + c_v M_u (x) K_v``.

    Fast diagonalization (Lynch, Rice and Thomas, 1964): with the generalized
    eigenpairs ``K U = M U diag(lam)``, ``U^T M U = 1`` of both directions and
    ``D = c_u lam_u (x) 1 + c_v 1 (x) lam_v``, a solve is ``U_u (U_u^T X U_v / D)
    U_v^T`` on the ``(n_u, n_v)`` reshape X of a right-hand side.  The inertia is
    that of D; raises :class:`NumericalError` if an eigenproblem fails or D is not positive.
    """
    (lam_u, U_u, info_u), (lam_v, U_v, info_v) = dsygv(K_u, M_u), dsygv(K_v, M_v)
    if info_u or info_v:
        raise NumericalError("%s: 1D eigensolver failed" % (name or "fast diagonalization"))
    D = c_u * lam_u[:, None] + c_v * lam_v

    def solve(rhs):
        matrix = rhs.ndim > 1
        X = rhs.reshape(*D.shape, -1).transpose(2, 0, 1) if matrix else rhs.reshape(D.shape)
        Y = U_u @ ((U_u.T @ X @ U_v) / D) @ U_v.T
        return (Y.transpose(1, 2, 0) if matrix else Y).reshape(rhs.shape)

    inertia = (int(np.sum(D > 0)), int(np.sum(D < 0)), int(np.sum(D == 0)))
    return Factorization(D.size, solve, inertia, name).assert_spd()


@dataclass
class PcgResult:
    """Outcome of a preconditioned conjugate gradient run."""

    x: np.ndarray
    iterations: int
    residuals: list
    converged: bool
    kappa: float
    alphas: list = field(default_factory=list)
    betas: list = field(default_factory=list)


def lanczos_condition(alphas, betas):
    """Condition estimate from the Lanczos tridiagonal built out of PCG coefficients."""
    m = len(alphas)
    if m == 0:
        return 1.0
    diag = np.empty(m)
    diag[0] = 1.0 / alphas[0]
    for i in range(1, m):
        diag[i] = 1.0 / alphas[i] + betas[i - 1] / alphas[i - 1]
    if m == 1:
        return 1.0
    off = np.array([np.sqrt(betas[i]) / alphas[i] for i in range(m - 1)])
    ev = scipy.linalg.eigvalsh_tridiagonal(diag, off)
    lo, hi = ev[0], ev[-1]
    if lo <= 0:
        raise NumericalError("Lanczos tridiagonal has non-positive eigenvalue %.3e" % lo)
    return float(hi / lo)


def pcg(apply_A, apply_M, b, tol=1e-6, max_iter=500):
    """Preconditioned CG from the zero initial vector.

    Stops once the l2-norm of the (unpreconditioned) residual has dropped
    below ``tol`` times the l2-norm of `b`.  Raises
    :class:`NumericalError` on a non-positive curvature direction, which
    signals an indefinite operator.
    """
    b = np.asarray(b, dtype=float)
    x = np.zeros_like(b)
    nb = float(np.linalg.norm(b))
    if nb == 0.0:
        return PcgResult(x, 0, [0.0], True, 1.0)
    r = b.copy()
    z = apply_M(r)
    p = z.copy()
    rz = float(r @ z)
    if rz <= 0.0:
        raise NumericalError("preconditioner produced non-positive inner product")
    residuals = [nb]
    alphas, betas = [], []
    converged = False
    for _ in range(max_iter):
        q = apply_A(p)
        pq = float(p @ q)
        if pq <= 0.0:
            raise NumericalError("PCG hit non-positive curvature p^T F p = %.3e" % pq)
        alpha = rz / pq
        alphas.append(alpha)
        x += alpha * p
        r -= alpha * q
        rn = float(np.linalg.norm(r))
        residuals.append(rn)
        if rn <= tol * nb:
            converged = True
            break
        z = apply_M(r)
        rz_new = float(r @ z)
        if rz_new <= 0.0:
            raise NumericalError("preconditioner produced non-positive inner product")
        beta = rz_new / rz
        betas.append(beta)
        rz = rz_new
        p = z + beta * p
    kappa = lanczos_condition(alphas, betas)
    return PcgResult(x, len(alphas), residuals, converged, kappa, alphas, betas)
