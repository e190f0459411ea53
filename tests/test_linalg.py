import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

from ietidg.assembly import univariate_matrices
from ietidg.bspline import KnotVector, refine_uniform
from ietidg.errors import NumericalError
from ietidg.linalg import (
    Factorization,
    SparseSym,
    cholesky,
    factorize,
    fast_diagonalization,
    generalized_eigh,
    lanczos_condition,
    pcg,
)

from conftest import extended_matrix

NO_ROWS = (np.zeros(0), np.zeros(0, dtype=int), np.zeros(1, dtype=int))  # CSR arrays of no row


def random_spd(rng, n, cond=None):
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    if cond is None:
        d = rng.uniform(0.5, 5.0, n)
    else:
        d = np.logspace(0, np.log10(cond), n)
    return (Q * d) @ Q.T


class TestSparseSym:
    def test_duplicates_summed_zeros_dropped(self):
        A = SparseSym(scipy.sparse.coo_matrix(
            ([1.0, 2.0, 0.5, 0.5, 4.0, -0.5, -0.5],
             ([0, 0, 0, 1, 1, 0, 1], [0, 0, 1, 0, 1, 1, 0])),
            shape=(2, 2),
        ))
        assert A.csr[0, 0] == 3.0
        assert A.csr.nnz == 2  # the (0,1)/(1,0) pair cancelled to exact zero
        np.testing.assert_allclose(A.toarray(), [[3.0, 0.0], [0.0, 4.0]])

    def test_asymmetry_detected(self):
        with pytest.raises(NumericalError):
            SparseSym(scipy.sparse.coo_matrix(([1.0, 1.0 + 1e-6], ([0, 1], [1, 0])), shape=(2, 2)))

    # the blocks' sparse construction, kept in tests/conftest.py as the
    # reference for every block's full extended matrix

    def test_blocks_summed_and_dropped_indices_skipped(self):
        # dof 1 is shared by the first two blocks, dof 0 by the first and
        # third; every entry in a row or column mapped to -1 (the 5s, 6 and 9s)
        # is dropped
        idx = np.array([[0, 1, -1], [1, -1, -1], [2, 0, -1]])
        mats = np.array([[[1.0, 2.0, 9.0], [2.0, 3.0, 9.0], [9.0, 9.0, 9.0]],
                         [[4.0, 5.0, 9.0], [5.0, 6.0, 9.0], [9.0, 9.0, 9.0]],
                         [[7.0, 1.0, 9.0], [1.0, 8.0, 9.0], [9.0, 9.0, 9.0]]])
        A = extended_matrix(3, NO_ROWS, idx, mats)
        np.testing.assert_array_equal(A.toarray(),
                                      [[9.0, 2.0, 1.0], [2.0, 7.0, 0.0], [1.0, 0.0, 7.0]])

    def test_blocks_added_to_base(self):
        base = scipy.sparse.csr_matrix(np.array([[2.0, 1.0, 0.0],
                                                 [1.0, 2.0, 0.0],
                                                 [0.0, 0.0, 1.0]]))
        arrays = (base.data, base.indices, base.indptr)
        no_blocks = (np.zeros((0, 2), dtype=int), np.zeros((0, 2, 2)))
        assert np.array_equal(extended_matrix(3, arrays, *no_blocks).toarray(),
                              base.toarray())
        A = extended_matrix(3, arrays, np.array([[2, 0]]),
                            np.array([[[3.0, 1.0], [1.0, -2.0]]]))
        np.testing.assert_array_equal(A.toarray(),
                                      [[0.0, 1.0, 1.0], [1.0, 2.0, 0.0], [1.0, 0.0, 4.0]])
        assert A.csr.nnz == 6  # the cancelled (0, 0) entry is dropped
        # the leading block of an (n, n) matrix: rows and columns past the base stay empty
        B = extended_matrix(4, arrays, *no_blocks)
        assert B.csr.shape == (4, 4) and B.csr[3].nnz == 0

    def test_asymmetric_block_rejected(self):
        with pytest.raises(NumericalError):
            extended_matrix(2, NO_ROWS, np.array([[0, 1]]),
                            np.array([[[1.0, 2.0], [3.0, 1.0]]]))

    def test_asymmetric_pattern_rejected(self):
        # an entry whose mirror is not stored: the patterns differ
        with pytest.raises(NumericalError, match="asymmetry 1.000e"):
            SparseSym(np.array([[2.0, 0.0], [1.0, 2.0]]))

    def test_non_finite_rejected(self):
        with pytest.raises(NumericalError, match="non-finite"):
            SparseSym(np.array([[2.0, np.nan], [np.nan, 2.0]]))

    def test_infinite_entry_does_not_hide_asymmetry(self):
        # an infinite entry made the asymmetry tolerance 1e-12 * scale infinite
        with pytest.raises(NumericalError, match="non-finite"):
            SparseSym(np.array([[np.inf, 1.0], [2.0, 2.0]]))


class TestFactorize:
    def test_identity(self):
        fac = factorize(np.eye(4))
        np.testing.assert_allclose(fac.solve(np.arange(4.0)), np.arange(4.0))

    def test_diagonal(self):
        fac = factorize(np.diag([2.0, 3.0]))
        np.testing.assert_allclose(fac.solve(np.array([2.0, 3.0])), [1.0, 1.0])

    def test_random_spd_residual(self, rng):
        A = random_spd(rng, 50)
        b = rng.standard_normal(50)
        fac = factorize(A)
        x = fac.solve(b)
        assert np.linalg.norm(A @ x - b) <= 1e-10 * np.linalg.norm(b)

    @pytest.mark.parametrize("n", [5, 60, 200, 500])
    def test_roundtrip_sizes(self, rng, n):
        A = random_spd(rng, n)
        B = rng.standard_normal((n, 3))
        X = factorize(A).solve(B)
        assert np.linalg.norm(A @ X - B) <= 1e-10 * np.linalg.norm(B)

    def test_banded_scipy_sparse_n800(self, rng):
        n = 800
        main = 2.0 * np.ones(n)
        off = -np.ones(n - 1)
        A = scipy.sparse.diags([off, main, off], [-1, 0, 1], format="csr")
        fac = factorize(A)
        b = rng.standard_normal(n)
        x = fac.solve(b)
        assert np.linalg.norm(A @ x - b) <= 1e-10 * np.linalg.norm(b)

    def test_indefinite_raises(self):
        with pytest.raises(NumericalError, match="expected SPD"):
            factorize(np.diag([3.0, -2.0, 1.0, -4.0]))

    def test_dense_and_csr_input_agree(self, rng):
        A = random_spd(rng, 30)
        A[np.abs(A) < 0.1] = 0.0  # some structural zeros for the CSR copy
        b = rng.standard_normal(30)
        dense, sparse = factorize(A), factorize(scipy.sparse.csr_matrix(A))
        np.testing.assert_array_equal(dense.solve(b), sparse.solve(b))

    def test_two_by_two_pivot_rejected(self):
        # symmetric indefinite with a zero diagonal: it needs a 2x2 pivot or
        # an off-diagonal row swap, and the factorization takes diagonal
        # pivots only
        with pytest.raises(NumericalError):
            factorize(np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_singular_raises_with_index(self):
        A = np.zeros((3, 3))
        A[0, 0] = 1.0
        A[1, 1] = 1.0
        with pytest.raises(NumericalError):
            factorize(A)


class TestCholesky:
    def test_solves_spd(self, rng):
        A = random_spd(rng, 25)
        fac = cholesky(A)
        B = rng.standard_normal((25, 3))
        for rhs in (B[:, 0], B):
            np.testing.assert_allclose(A @ fac.solve(rhs), rhs, atol=1e-12)

    def test_solves_equal_cho_solve(self, rng):
        # the solves call dpotrs directly: the bits of cho_solve, for a vector, a matrix
        # and a non-contiguous matrix right-hand side
        A = random_spd(rng, 30)
        fac, factor = cholesky(A), scipy.linalg.cho_factor(A)
        B = rng.standard_normal((34, 9))
        for rhs in (B[:30, 0], B[:30], B[2:32, 1:8]):
            assert np.array_equal(fac.solve(rhs), scipy.linalg.cho_solve(factor, rhs))

    def test_empty(self):
        assert cholesky(np.zeros((0, 0))).solve(np.zeros(0)).shape == (0,)

    @pytest.mark.parametrize("A", [np.diag([3.0, -2.0, 1.0]), np.full((2, 2), np.nan)],
                             ids=["indefinite", "nan"])
    def test_not_spd_raises_numerical_error(self, A):
        with pytest.raises(NumericalError, match="S_DD: expected SPD matrix"):
            cholesky(A, name="S_DD")


class TestFastDiagonalization:
    @staticmethod
    def _pair(kv, inner):
        return [m[inner][:, inner] for m in univariate_matrices(kv)]

    def test_matches_dense_kronecker_solve(self, rng):
        # non-uniform knots, different sizes per direction, anisotropic weights
        K_u, M_u = self._pair(KnotVector(2, [0, 0, 0, 0.2, 0.35, 0.8, 1, 1, 1]), slice(1, -1))
        K_v, M_v = self._pair(KnotVector(3, [0, 0, 0, 0, 0.5, 0.6, 1, 1, 1, 1]), slice(1, None))
        c_u, c_v = 0.3, 7.0
        A = c_u * np.kron(K_u, M_v) + c_v * np.kron(M_u, K_v)
        fac = fast_diagonalization(generalized_eigh(K_u, M_u), generalized_eigh(K_v, M_v), c_u, c_v)
        B = rng.standard_normal((A.shape[0], 4))
        for rhs in (B[:, 0], B):
            x = fac.solve(rhs)
            assert x.shape == rhs.shape
            np.testing.assert_allclose(x, np.linalg.solve(A, rhs), rtol=0,
                                       atol=1e-12 * np.abs(x).max())

    @pytest.mark.parametrize("band", ["both", "v", "u"])
    @pytest.mark.parametrize("n_u, n_v, K, separable", [
        (24, 18, 2, True), (40, 16, 3, True), (6, 5, 2, False)])
    def test_schur_of_band_supported_matrix(self, rng, monkeypatch, n_u, n_v, K, separable, band):
        # B's rows lie within K lattice rows or columns of the boundary:
        # anywhere in that band, corners included ("both"), only next to
        # b = 0 and b = n_v - 1 ("v", no Q group), or only next to a = 0 and
        # a = n_u - 1 away from the corners ("u", no P group); the flop rule
        # takes the separable form on the large lattices and the generic
        # formula on the small one
        (K_u, M_u), (K_v, M_v) = (
            self._pair(KnotVector(2, np.r_[0, 0, np.linspace(0, 1, n + 1), 1, 1]), slice(1, -1))
            for n in (n_u, n_v))
        fac = fast_diagonalization(generalized_eigh(K_u, M_u), generalized_eigh(K_v, M_v), 0.3, 7.0)
        a, b = np.divmod(np.arange(n_u * n_v), n_v)
        du, dv = np.minimum(a, n_u - 1 - a), np.minimum(b, n_v - 1 - b)
        inside, deepest = {
            "both": (np.minimum(du, dv) < K, np.minimum(du, dv) == K - 1),
            "v": (dv < K, (dv == K - 1) & (du >= K - 1)),
            "u": ((du < K) & (dv >= K), (du == K - 1) & (dv >= K)),
        }[band]
        m, nnz = 30, 240
        rows = np.r_[np.flatnonzero(deepest)[:1], rng.choice(np.flatnonzero(inside), nnz - 1)]
        B = scipy.sparse.csr_matrix((rng.standard_normal(nnz), (rows, rng.integers(0, m, nnz))),
                                    shape=(n_u * n_v, m))
        generic = []
        formula = Factorization.schur
        monkeypatch.setattr(Factorization, "schur", lambda f, B: generic.append(f) or formula(f, B))
        S = fac.schur(B)
        assert bool(generic) != separable
        reference = formula(fac, B)
        assert np.abs(S - reference).max() <= 1e-13 * np.abs(reference).max()

    def test_negative_weight_raises(self):
        K, M = self._pair(refine_uniform(KnotVector.bernstein(2), 2), slice(1, -1))
        with pytest.raises(NumericalError, match="fd block: expected SPD matrix"):
            fast_diagonalization(generalized_eigh(K, M), generalized_eigh(K, M), -1.0, 1.0,
                                 name="fd block")

    def test_indefinite_mass_raises(self):
        K, M = self._pair(refine_uniform(KnotVector.bernstein(2), 2), slice(1, -1))
        with pytest.raises(NumericalError, match="fd block: 1D eigensolver failed"):
            generalized_eigh(K, -M, name="fd block")


class TestPcg:
    def test_zero_rhs(self):
        res = pcg(lambda x: x, lambda x: x, np.zeros(5))
        assert res.iterations == 0
        assert res.converged
        assert res.kappa == 1.0
        np.testing.assert_allclose(res.x, 0.0)

    def test_perfect_preconditioner_one_iteration(self, rng):
        M = random_spd(rng, 12)
        apply_A = lambda x: np.linalg.solve(M, x)
        apply_M = lambda x: M @ x
        b = rng.standard_normal(12)
        res = pcg(apply_A, apply_M, b, tol=1e-12)
        assert res.iterations == 1
        assert res.kappa == pytest.approx(1.0)
        np.testing.assert_allclose(apply_A(res.x), b, atol=1e-10)

    def test_indefinite_detected(self, rng):
        A = np.diag([1.0, -1.0, 2.0])
        b = np.array([0.0, 1.0, 0.0])
        with pytest.raises(NumericalError):
            pcg(lambda x: A @ x, lambda x: x, b)

    def test_kappa_estimate_matches_dense(self, rng):
        A = random_spd(rng, 30, cond=200.0)
        M_diag = 1.0 / np.diag(A)
        b = rng.standard_normal(30)
        res = pcg(lambda x: A @ x, lambda x: M_diag * x, b, tol=1e-14, max_iter=60)
        prec = (np.sqrt(M_diag)[:, None] * A) * np.sqrt(M_diag)[None, :]
        ev = np.linalg.eigvalsh(prec)
        exact = ev[-1] / ev[0]
        assert res.kappa == pytest.approx(exact, rel=0.05)

    def test_residual_reduction_criterion(self, rng):
        A = random_spd(rng, 25)
        b = rng.standard_normal(25)
        res = pcg(lambda x: A @ x, lambda x: x, b, tol=1e-8, max_iter=100)
        assert res.converged
        assert res.residuals[-1] <= 1e-8 * np.linalg.norm(b)

    def test_max_iter_flagged(self, rng):
        A = random_spd(rng, 40, cond=1e6)
        b = rng.standard_normal(40)
        res = pcg(lambda x: A @ x, lambda x: x, b, tol=1e-14, max_iter=3)
        assert not res.converged
        assert res.iterations == 3

    def test_lanczos_condition_edge_cases(self):
        assert lanczos_condition([], []) == 1.0
        assert lanczos_condition([0.5], []) == 1.0

    @pytest.mark.parametrize("extra_beta", [0, 1], ids=["converged", "stopped"])
    def test_lanczos_condition_matches_loop_form(self, rng, extra_beta):
        # the entrywise loop form of the tridiagonal, as a reference: PCG
        # leaves m - 1 betas when it converges and m when it stops at max_iter
        alphas = list(rng.uniform(0.2, 2.0, 9))
        betas = list(rng.uniform(0.01, 0.9, 8 + extra_beta))
        diag = [1.0 / alphas[0]] + [1.0 / alphas[i] + betas[i - 1] / alphas[i - 1]
                                    for i in range(1, 9)]
        off = [np.sqrt(betas[i]) / alphas[i] for i in range(8)]
        ev = scipy.linalg.eigvalsh_tridiagonal(np.array(diag), np.array(off))
        assert lanczos_condition(alphas, betas) == ev[-1] / ev[0]
