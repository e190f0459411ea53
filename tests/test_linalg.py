import numpy as np
import pytest
import scipy.sparse

from ietidg.assembly import univariate_matrices
from ietidg.bspline import KnotVector, refine_uniform
from ietidg.errors import NumericalError, SingularMatrixError
from ietidg.linalg import (
    SparseSym,
    factorize,
    fast_diagonalization,
    lanczos_condition,
    pcg,
    write_triplets,
)


def random_spd(rng, n, cond=None):
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    if cond is None:
        d = rng.uniform(0.5, 5.0, n)
    else:
        d = np.logspace(0, np.log10(cond), n)
    return (Q * d) @ Q.T


class TestSparseSym:
    def test_duplicates_summed_zeros_dropped(self):
        A = SparseSym.from_triplets(
            2,
            [0, 0, 0, 1, 1, 0, 1],
            [0, 0, 1, 0, 1, 1, 0],
            [1.0, 2.0, 0.5, 0.5, 4.0, -0.5, -0.5],
        )
        assert A.csr[0, 0] == 3.0
        assert A.csr.nnz == 2  # the (0,1)/(1,0) pair cancelled to exact zero
        np.testing.assert_allclose(A.toarray(), [[3.0, 0.0], [0.0, 4.0]])

    def test_asymmetry_detected(self):
        with pytest.raises(NumericalError):
            SparseSym.from_triplets(2, [0, 1], [1, 0], [1.0, 1.0 + 1e-6])

    def test_blocks_summed_and_dropped_indices_skipped(self):
        # dof 1 is shared by the first two blocks, dof 0 by the first and
        # third; every entry in a row or column mapped to -1 (the 5s, 6 and 9s)
        # is dropped
        first = (np.array([[0, 1], [1, -1]]),
                 np.array([[[1.0, 2.0], [2.0, 3.0]], [[4.0, 5.0], [5.0, 6.0]]]))
        second = (np.array([[2, 0, -1]]),
                  np.array([[[7.0, 1.0, 9.0], [1.0, 8.0, 9.0], [9.0, 9.0, 9.0]]]))
        A = SparseSym.from_blocks(3, [first, second])
        np.testing.assert_array_equal(A.toarray(),
                                      [[9.0, 2.0, 1.0], [2.0, 7.0, 0.0], [1.0, 0.0, 7.0]])

    def test_asymmetric_block_rejected(self):
        with pytest.raises(NumericalError):
            SparseSym.from_blocks(2, [(np.array([[0, 1]]), np.array([[[1.0, 2.0], [3.0, 1.0]]]))])

    def test_triplet_dump_roundtrip(self, tmp_path, rng):
        A = scipy.sparse.random(8, 8, density=0.4, random_state=7)
        A = A + A.T
        path = tmp_path / "mat.txt"
        write_triplets(path, A)
        rows, cols, vals = [], [], []
        for line in path.read_text().splitlines():
            r, c, v = line.split()
            rows.append(int(r))
            cols.append(int(c))
            vals.append(float(v))
        B = scipy.sparse.coo_matrix((vals, (rows, cols)), shape=(8, 8))
        assert np.abs((A - B).toarray()).max() == 0.0


class TestFactorize:
    def test_identity(self):
        fac = factorize(np.eye(4))
        np.testing.assert_allclose(fac.solve(np.arange(4.0)), np.arange(4.0))
        assert fac.inertia == (4, 0, 0)

    def test_diagonal(self):
        fac = factorize(np.diag([2.0, 3.0]))
        np.testing.assert_allclose(fac.solve(np.array([2.0, 3.0])), [1.0, 1.0])

    def test_random_spd_residual(self, rng):
        A = random_spd(rng, 50)
        b = rng.standard_normal(50)
        fac = factorize(A)
        assert fac.inertia == (50, 0, 0)
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
        assert fac.inertia == (n, 0, 0)
        b = rng.standard_normal(n)
        x = fac.solve(b)
        assert np.linalg.norm(A @ x - b) <= 1e-10 * np.linalg.norm(b)

    def test_indefinite_inertia(self):
        A = np.diag([3.0, -2.0, 1.0, -4.0])
        fac = factorize(A)
        assert fac.inertia == (2, 2, 0)
        with pytest.raises(NumericalError):
            fac.assert_spd()

    def test_dense_and_csr_input_agree(self, rng):
        A = random_spd(rng, 30)
        A[np.abs(A) < 0.1] = 0.0  # some structural zeros for the CSR copy
        A[0, 0] = -10.0  # indefinite, but diagonal pivots still suffice
        b = rng.standard_normal(30)
        dense, sparse = factorize(A), factorize(scipy.sparse.csr_matrix(A))
        assert dense.inertia == sparse.inertia
        assert dense.inertia[1] >= 1
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
        with pytest.raises(SingularMatrixError):
            factorize(A)

    def test_accepts_sparsesym(self, rng):
        A = random_spd(rng, 20)
        wrapped = SparseSym(scipy.sparse.csr_matrix(A))
        x = factorize(wrapped).solve(np.ones(20))
        np.testing.assert_allclose(A @ x, np.ones(20), atol=1e-9)


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
        fac = fast_diagonalization(K_u, M_u, K_v, M_v, c_u, c_v)
        assert fac.inertia == (A.shape[0], 0, 0)
        B = rng.standard_normal((A.shape[0], 4))
        for rhs in (B[:, 0], B):
            x = fac.solve(rhs)
            assert x.shape == rhs.shape
            np.testing.assert_allclose(x, np.linalg.solve(A, rhs), rtol=0,
                                       atol=1e-12 * np.abs(x).max())

    def test_negative_weight_raises(self):
        K, M = self._pair(refine_uniform(KnotVector.bernstein(2), 2), slice(1, -1))
        with pytest.raises(NumericalError, match="fd block: expected SPD matrix but inertia"):
            fast_diagonalization(K, M, K, M, -1.0, 1.0, name="fd block")

    def test_indefinite_mass_raises(self):
        K, M = self._pair(refine_uniform(KnotVector.bernstein(2), 2), slice(1, -1))
        with pytest.raises(NumericalError, match="fd block: 1D eigensolver failed"):
            fast_diagonalization(K, M, K, -M, 1.0, 1.0, name="fd block")


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
