"""Shared numerical kernels: sparse symmetric storage, factorization, PCG.

Every factorization is of an SPD matrix or raises :class:`NumericalError`
naming the matrix.  One sparse backend serves the interior blocks that are
no Kronecker sum and the oracle: SuperLU in symmetric mode with a
minimum-degree ordering, whose U-diagonal pivots must all be positive.
Kronecker sums use fast diagonalization, whose 1D eigenbases also give the
Schur complements of the skeleton; the dense skeleton blocks and the coarse
problem use a dense Cholesky factorization.
PCG estimates the condition number from the eigenvalues of its Lanczos
tridiagonal matrix.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg
from scipy.linalg.lapack import dpotrs, dsygv

from .errors import NumericalError

_PIVOT_RTOL = 1e-14


class SparseSym:
    """Compressed-row symmetric matrix from a sparse or dense matrix: duplicate triplets summed,
    explicit zeros dropped, the values verified finite and symmetric (see `check_symmetric`)."""

    def __init__(self, matrix):
        csr = scipy.sparse.csr_matrix(matrix)
        csr.sum_duplicates()
        csr.eliminate_zeros()
        self.csr = csr
        self.n = csr.shape[0]
        check_symmetric([csr.data], self._asymmetry())

    def _asymmetry(self):
        csr = self.csr
        T = csr.T.tocsr()  # canonical, so a symmetric pattern stores the same index arrays
        same = np.array_equal(T.indptr, csr.indptr) and np.array_equal(T.indices, csr.indices)
        yield T.data - csr.data if same else (csr - T).data

    def toarray(self):
        return self.csr.toarray()


def check_symmetric(values, differences):
    """Raise :class:`NumericalError` unless every array of `values` is finite and then every array
    of `differences`, entries minus their transposed partners, within 1e-12 of the largest value."""
    if not all(np.isfinite(v).all() for v in values):
        raise NumericalError("symmetric matrix has non-finite entries")
    scale = max(max(np.abs(v).max(initial=0.0) for v in values), 1e-300)
    worst = max((np.abs(d).max(initial=0.0) for d in differences), default=0.0)
    if worst > 1e-12 * scale:
        raise NumericalError("symmetric matrix has asymmetry %.3e (scale %.3e)" % (worst, scale))


def block_triplets(idx, mats):
    """Triplets ``(vals, (rows, cols))`` of the (B, s, s) `mats`: ``mats[b]`` on the rows and
    columns ``idx[b]`` of the (B, s) `idx`, leaving out entries whose row or column index is -1."""
    rows, cols = np.repeat(idx, idx.shape[1], axis=1).ravel(), np.tile(idx, idx.shape[1]).ravel()
    keep = (rows >= 0) & (cols >= 0)
    return mats.ravel()[keep], (rows[keep], cols[keep])


class Factorization:
    """Factorization of an SPD matrix with ``solve``.

    Solves accept vector or matrix right-hand sides and are safe to call
    concurrently.
    """

    def __init__(self, n, solver):
        self.n = n
        self._solver = solver

    def solve(self, rhs):
        rhs = np.asarray(rhs, dtype=float)
        if rhs.shape[0] != self.n:
            raise ValueError("rhs has leading dimension %d, expected %d" % (rhs.shape[0], self.n))
        return self._solver(rhs)

    def schur(self, B):
        """``B^T A^{-1} B`` as a dense array, for a sparse `B` with n rows."""
        return B.T @ self.solve(B.toarray())


def factorize(A, name=""):
    """Factorize an SPD matrix, sparse or dense ``ndarray``, for repeated solves.

    SuperLU in symmetric mode: diagonal pivots only, minimum-degree ordering
    on A^T + A.  Raises :class:`NumericalError` when a pivot is not positive
    (tolerance ``1e-14 * max|A|``), when SuperLU finds the matrix exactly
    singular, and when it needs off-diagonal pivoting, as a matrix with a
    zero diagonal does.
    """
    n = A.shape[0]
    label = name or "splu"
    if n == 0:
        return Factorization(0, lambda rhs: rhs)
    csc = scipy.sparse.csc_matrix(A, dtype=float)
    try:
        lu = scipy.sparse.linalg.splu(
            csc,
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        )
    except RuntimeError as exc:  # SuperLU reports exactly singular matrices this way
        raise NumericalError("%s: expected SPD matrix: %s" % (label, exc)) from exc
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise NumericalError(
            "%s: unsymmetric pivoting kicked in; matrix is not factorizable "
            "as symmetric quasi-definite" % label
        )
    bad = ~(lu.U.diagonal() > _PIVOT_RTOL * max(np.abs(csc).max(), 1e-300))  # NaN too
    if np.any(bad):
        raise NumericalError("%s: expected SPD matrix, %d of %d pivots not positive (first at %d)"
                             % (label, np.count_nonzero(bad), n, np.argmax(bad)))
    return Factorization(n, lu.solve)


def cholesky(A, name=""):
    """Dense Cholesky factorization of an SPD ``ndarray`` (``scipy.linalg.cho_factor``).

    Solves call LAPACK ``dpotrs``, as ``cho_solve`` does after its argument checks.  Raises
    :class:`NumericalError` when `A` is not finite or not positive definite.
    """
    n = A.shape[0]
    if n == 0:
        return Factorization(0, lambda rhs: rhs)
    try:
        c, lower = scipy.linalg.cho_factor(A)
    except (ValueError, np.linalg.LinAlgError) as exc:  # ValueError: not finite
        raise NumericalError("%s: expected SPD matrix, Cholesky failed: %s"
                             % (name or "cholesky", exc)) from exc
    return Factorization(n, lambda rhs: dpotrs(c, rhs, lower=lower)[0])


def generalized_eigh(K, M, name=""):
    """Pairs ``(lam, U)`` of ``K U = M U diag(lam)``, ``U^T M U = 1``, M SPD (LAPACK dsygv)."""
    lam, U, info = dsygv(K, M)
    if info:
        raise NumericalError("%s: 1D eigensolver failed" % (name or "fast diagonalization"))
    return lam, U


def fast_diagonalization(eig_u, eig_v, c_u, c_v, name=""):
    """Exact SPD solver of the Kronecker sum ``c_u K_u (x) M_v + c_v M_u (x) K_v``.

    Fast diagonalization (Lynch, Rice and Thomas, 1964): with the
    :func:`generalized_eigh` pairs ``(lam_u, U_u)``, ``(lam_v, U_v)`` of both
    directions and ``D = c_u lam_u (x) 1 + c_v 1 (x) lam_v``, a solve is ``U_u
    (U_u^T X U_v / D) U_v^T`` on the ``(n_u, n_v)`` reshape X of a right-hand
    side.  Raises :class:`NumericalError` if D is not positive.
    """
    (lam_u, U_u), (lam_v, U_v) = eig_u, eig_v
    D = c_u * lam_u[:, None] + c_v * lam_v
    if not D.min() > 0:  # also catches NaN
        raise NumericalError("%s: expected SPD matrix, smallest eigenvalue %.3e"
                             % (name or "fast diagonalization", D.min()))
    return _FastDiagonalization(U_u, U_v, D)


class _FastDiagonalization(Factorization):
    """`fast_diagonalization`'s factor: ``A^{-1} = (U_u (x) U_v) D^{-1} (U_u (x) U_v)^T``."""

    def __init__(self, U_u, U_v, D):
        self.U_u, self.U_v, self.D = U_u, U_v, D
        super().__init__(D.size, self._solve)

    def _solve(self, rhs):
        U_u, U_v, D = self.U_u, self.U_v, self.D
        matrix = rhs.ndim > 1
        X = rhs.reshape(*D.shape, -1).transpose(2, 0, 1) if matrix else rhs.reshape(D.shape)
        Y = U_u @ ((U_u.T @ X @ U_v) / D) @ U_v.T
        return (Y.transpose(1, 2, 0) if matrix else Y).reshape(rhs.shape)

    def schur(self, B):
        """``B^T A^{-1} B`` from the boundary band of the lattice that holds B's nonzero rows.

        Row ``a n_v + b`` of B sits at lattice point (a, b).  With K one more
        than the deepest nonzero row's distance to the lattice boundary, the
        n_u rows ``B_b`` at each b in the band (b < K or b >= n_v - K) give
        ``P_b = U_u^T B_b``, and the other rows, n_v at each a in the band,
        give ``Q_a = U_v^T B_a``.  Then ``(U_u (x) U_v)^T B`` is
        ``sum_b P_b (x) U_v[b] + sum_a U_u[a] (x) Q_a``, and its D-weighted
        Gram matrix splits into P-P, Q-Q and P-Q products that cost
        O(n_u K m^2) for m columns, instead of one solve per column.  The
        generic formula runs whenever its flop count is the lower one.
        """
        U_u, U_v, D = self.U_u, self.U_v, self.D
        (n_u, n_v), m = D.shape, B.shape[1]
        B = B.tocsr()
        a, b = np.divmod(np.repeat(np.arange(n_u * n_v), np.diff(B.indptr)), n_v)
        depth_u, depth_v = np.minimum(a, n_u - 1 - a), np.minimum(b, n_v - 1 - b)
        K = 1 + np.minimum(depth_u, depth_v).max(initial=-1)
        nb, na = min(2 * K, n_v), min(2 * K, n_u)
        # multiply-adds: the band transforms and products below, against the
        # four dense FD products of a solve per column
        separable = m * (n_u * nb * (n_u + m) + n_v * na * (n_v + m) + n_u * n_v * nb * na)
        if 2 * n_u * n_v * m * (n_u + n_v) <= separable:
            return super().schur(B)
        vb, ua = (np.flatnonzero(np.minimum(np.arange(n), n - 1 - np.arange(n)) < K)
                  for n in (n_v, n_u))
        rows = depth_v < K  # corner rows go to the row groups
        cp, cq = np.unique(B.indices[rows]), np.unique(B.indices[~rows])
        P = np.zeros((n_u, nb, cp.size))
        np.add.at(P, (a[rows], np.searchsorted(vb, b[rows]),
                      np.searchsorted(cp, B.indices[rows])), B.data[rows])
        Q = np.zeros((n_v, na, cq.size))
        np.add.at(Q, (b[~rows], np.searchsorted(ua, a[~rows]),
                      np.searchsorted(cq, B.indices[~rows])), B.data[~rows])
        P = (U_u.T @ P.reshape(n_u, -1)).reshape(P.shape)  # P[i, b, c]
        Q = (U_v.T @ Q.reshape(n_v, -1)).reshape(Q.shape)  # Q[j, a, c]
        F = U_v[vb] / D[:, None, :]  # F[i, b, j] = U_v[b, j] / D[i, j]
        G = U_u[ua] / D.T[:, None, :]  # G[j, a, i] = U_u[a, i] / D[i, j]
        H = (F.reshape(-1, n_v) @ Q.reshape(n_v, -1)).reshape(n_u, nb, na, cq.size)
        # explicit sizes: cp or cq is empty when the skeleton lies on the
        # south/north or the east/west sides only
        Pf, Qf = P.reshape(n_u * nb, cp.size), Q.reshape(n_v * na, cq.size)
        cross = Pf.T @ np.einsum("ai,ibac->ibc", U_u[ua], H).reshape(n_u * nb, cq.size)
        S = np.zeros((m, m))
        S[np.ix_(cp, cp)] = Pf.T @ (F @ U_v[vb].T @ P).reshape(Pf.shape)
        S[np.ix_(cq, cq)] += Qf.T @ (G @ U_u[ua].T @ Q).reshape(Qf.shape)
        S[np.ix_(cp, cq)] += cross
        S[np.ix_(cq, cp)] += cross.T
        return S


@dataclass
class PcgResult:
    """Outcome of a preconditioned conjugate gradient run."""

    x: np.ndarray
    iterations: int
    residuals: list
    converged: bool
    kappa: float


def lanczos_condition(alphas, betas):
    """Condition estimate from the Lanczos tridiagonal built out of PCG coefficients."""
    m = len(alphas)
    if m < 2:
        return 1.0
    a, b = np.asarray(alphas, dtype=float), np.asarray(betas[: m - 1], dtype=float)
    diag = 1.0 / a + np.concatenate([[0.0], b / a[:-1]])
    off = np.sqrt(b) / a[:-1]
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
    return PcgResult(x, len(alphas), residuals, converged, kappa)
