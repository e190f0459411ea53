import numpy as np
import pytest

from ietidg.assembly import (
    _side_quadrature,
    assemble_interface_terms,
    assemble_volume,
    build_local_system,
    extended_layout,
    interface_side_terms,
    trace_basis_on_edge,
    univariate_matrices,
)
from ietidg.bspline import KnotVector, TensorSplineSpace, gauss_rule, greville_points, refine_uniform
from ietidg.domains import t_domain
from ietidg.errors import ConfigError, NumericalError
from ietidg.geometry import GeometryMap, MultiPatchDomain, Patch
from ietidg.linalg import SparseSym

from conftest import two_patch_domain, unit_square_patch


def block_to_dense(block, n):
    return SparseSym.from_blocks(n, [block]).toarray()


def q1_stiffness_oracle():
    """Independent hand assembly of the bilinear element Laplacian on [0,1]^2.

    Basis ordered (i, j) with flat = 2 i + j: (1-u)(1-v), (1-u)v, u(1-v), uv.
    2x2 Gauss rule, exact for these integrands.
    """
    g = np.array([0.5 - 0.5 / np.sqrt(3), 0.5 + 0.5 / np.sqrt(3)])
    w = np.array([0.5, 0.5])
    funcs = [
        lambda u, v: np.array([-(1 - v), -(1 - u)]),
        lambda u, v: np.array([-v, (1 - u)]),
        lambda u, v: np.array([(1 - v), -u]),
        lambda u, v: np.array([v, u]),
    ]
    K = np.zeros((4, 4))
    for a, ga in enumerate(g):
        for b, gb in enumerate(g):
            for i in range(4):
                for j in range(4):
                    K[i, j] += w[a] * w[b] * funcs[i](ga, gb) @ funcs[j](ga, gb)
    return K


def trace_mass_oracle(kv, weight):
    """Independent 1D quadrature of weight * int B_i B_j over [0, 1]."""
    n = kv.n
    M = np.zeros((n, n))
    nodes, wts = np.polynomial.legendre.leggauss(kv.p + 2)
    from ietidg.bspline import eval_matrix

    for lo, hi in zip(kv.breakpoints[:-1], kv.breakpoints[1:]):
        pts = 0.5 * (lo + hi) + 0.5 * (hi - lo) * nodes
        B = eval_matrix(kv, pts)
        for q in range(pts.size):
            M += 0.5 * (hi - lo) * wts[q] * np.outer(B[q], B[q])
    return weight * M


class TestTraceBasis:
    def test_examples(self):
        kv2 = KnotVector(2, [0, 0, 0, 0.5, 1, 1, 1])
        space = TensorSplineSpace(kv2, kv2)
        entries = trace_basis_on_edge(space, "south", (0.0, 0.5))
        assert [e for e, _ in entries] == [0, 1, 2]
        entries = trace_basis_on_edge(space, "south", (0.0, 1.0))
        assert [e for e, _ in entries] == [0, 1, 2, 3]
        kv1 = KnotVector(1, [0, 0, 0.5, 1, 1])
        space1 = TensorSplineSpace(kv1, kv1)
        entries = trace_basis_on_edge(space1, "south", (0.5, 1.0))
        assert [e for e, _ in entries] == [1, 2]

    def test_dirichlet_functions_excluded(self):
        kv = KnotVector(2, [0, 0, 0, 0.5, 1, 1, 1])
        space = TensorSplineSpace(kv, kv, {"west"})
        entries = trace_basis_on_edge(space, "south", (0.0, 1.0))
        assert [e for e, _ in entries] == [1, 2, 3]

    def test_degenerate_interface_error(self):
        kv = KnotVector(1, [0, 0, 1, 1])
        space = TensorSplineSpace(kv, kv, {"west", "east"})
        with pytest.raises(ConfigError):
            trace_basis_on_edge(space, "west", (0.0, 1.0))


class TestVolume:
    def test_q1_unit_square(self):
        patch = unit_square_patch(0, 1, 0, 1, 1, 0, set())
        block, load = assemble_volume(patch, source=1.0)
        A = block_to_dense(block, 4)
        np.testing.assert_allclose(A, q1_stiffness_oracle(), atol=1e-14)
        assert A[0, 0] == pytest.approx(2.0 / 3.0)
        np.testing.assert_allclose(A.sum(axis=1), 0.0, atol=1e-14)
        np.testing.assert_allclose(load, 0.25, atol=1e-15)

    def test_constants_in_kernel(self, rng):
        patch = unit_square_patch(0, 1, 0, 1, 2, 2, set())
        block, _ = assemble_volume(patch)
        n = patch.space.dimension
        A = block_to_dense(block, n)
        np.testing.assert_allclose(A @ np.ones(n), 0.0, atol=1e-13)

    def test_alpha_linearity(self):
        p1 = unit_square_patch(0, 1, 0, 1, 2, 1, set(), alpha=1.0)
        p10 = unit_square_patch(0, 1, 0, 1, 2, 1, set(), alpha=10.0)
        n = p1.space.n_u * p1.space.n_v
        A1 = block_to_dense(assemble_volume(p1)[0], n)
        A10 = block_to_dense(assemble_volume(p10)[0], n)
        np.testing.assert_allclose(A10, 10.0 * A1, rtol=0, atol=1e-13 * np.abs(A1).max())

    def test_vector_source_zero_for_constant_field(self):
        # int W . grad(v) vanishes for all-Dirichlet test functions, W constant
        patch = unit_square_patch(0, 1, 0, 1, 2, 2, {"west", "east", "south", "north"})
        _, load = assemble_volume(patch, vector_source=lambda x, y: np.stack(
            [np.full_like(x, 0.7), np.full_like(x, -1.3)], axis=-1))
        free = patch.space.free_mask.ravel()
        np.testing.assert_allclose(load[free], 0.0, atol=1e-14)

    @staticmethod
    def _quad_patch(corners, p=2, r=2):
        kv = refine_uniform(KnotVector.bernstein(p), r)
        return Patch(GeometryMap.bilinear(*corners), 1.0, TensorSplineSpace(kv, kv))

    def test_vector_source_full_lattice_sums_to_zero(self):
        # the basis sums to 1, so int W . grad(sum_i B_i) = 0 for any W
        patch = self._quad_patch([(0.0, 0.0), (2.0, 0.3), (-0.2, 1.1), (1.7, 1.9)])
        _, load = assemble_volume(patch, vector_source=lambda x, y: np.stack(
            [np.full_like(x, 0.7), np.full_like(x, -1.3)], axis=-1))
        assert abs(load.sum()) <= 1e-13 * np.abs(load).max()

    def test_vector_source_against_linear_function(self):
        # on an affine patch u = x has the Greville x-coordinates as lattice
        # coefficients, and int W . grad(u) with W = (1, 0) is the patch area
        sw, se, nw = np.array([0.5, 0.2]), np.array([2.0, 0.6]), np.array([0.9, 1.4])
        patch = self._quad_patch([sw, se, nw, se + nw - sw])
        g = greville_points(patch.space.kv_u)
        coeffs = patch.geometry.eval_grid(g, g)[..., 0].ravel()
        _, load = assemble_volume(patch, vector_source=lambda x, y: np.stack(
            [np.ones_like(x), np.zeros_like(x)], axis=-1))
        area = abs(np.linalg.det(np.column_stack([se - sw, nw - sw])))
        assert load @ coeffs == pytest.approx(area, rel=1e-13)

    def test_vector_source_components_first_rejected(self):
        # np.stack([W1, W2]) puts the components first; reshaping it to
        # (..., 2) would scramble the field, so the shape is an input error
        patch = unit_square_patch(0, 1, 0, 1, 2, 1, set())
        with pytest.raises(ConfigError, match=r"vector_source shape \(2, 4, 9\), expected \(4, 9, 2\)"):
            assemble_volume(patch, vector_source=lambda x, y: np.stack(
                [np.ones_like(x), np.zeros_like(x)]))

    def test_univariate_matrices_reproduce_the_volume_term(self):
        # on a rectangle the volume stiffness is (H/W) K_u (x) M_v + (W/H) M_u (x) K_v
        kv_u = KnotVector(2, [0, 0, 0, 0.3, 0.7, 1, 1, 1])
        kv_v = refine_uniform(KnotVector.bernstein(2), 2)
        K_u, M_u = univariate_matrices(kv_u)
        K_v, M_v = univariate_matrices(kv_v)
        np.testing.assert_allclose(K_u.sum(axis=1), 0.0, atol=1e-13)
        assert M_u.sum() == pytest.approx(1.0, rel=1e-14)
        patch = Patch(GeometryMap.bilinear((0, 0), (2, 0), (0, 0.5), (2, 0.5)), 1.0,
                      TensorSplineSpace(kv_u, kv_v))
        A = block_to_dense(assemble_volume(patch)[0], kv_u.n * kv_v.n)
        kron = 0.25 * np.kron(K_u, M_v) + 4.0 * np.kron(M_u, K_v)
        np.testing.assert_allclose(A, kron, rtol=0, atol=1e-14 * np.abs(A).max())

    @pytest.mark.parametrize("corners", [
        [(1.0, 1.0)] * 4,                                   # collapsed to a point
        [(0.0, 0.0), (1.0, 0.0), (0.0, 0.0), (1.0, 0.0)],   # collapsed to a segment
    ], ids=["point", "segment"])
    def test_singular_jacobian_names_patch_and_first_point(self, corners):
        patch = self._quad_patch(corners, p=2, r=1)
        u0 = gauss_rule(3).mapped(0.0, 0.5)[0][0]  # first Gauss point of element (0, 0)
        with pytest.raises(NumericalError) as err:
            assemble_volume(patch, source=1.0, label="patch 0")
        assert str(err.value) == "singular Jacobian at parameter (%.6g, %.6g), patch 0" % (u0, u0)

    def test_spd_on_dirichlet_patch(self, rng):
        patch = unit_square_patch(0, 1, 0, 1, 2, 2, {"west", "east", "south", "north"})
        (lat, elem), _ = assemble_volume(patch)
        A = block_to_dense((patch.space.dof_map.ravel()[lat], elem), patch.space.dimension)
        ev = np.linalg.eigvalsh(A)
        assert ev[0] > 0


class TestInterfaceTerms:
    def test_penalty_block_is_scaled_trace_mass(self):
        # two unit squares, p = 1, single span: the artificial-artificial
        # penalty block is (delta p^2 / min(h_k, h_l)) times the 1D mass matrix
        dom = two_patch_domain(p=1, r=0, dirichlet=False)
        # owner functions map to -1, so only the edge-edge part is kept
        own_index = np.full(dom.patches[0].space.n_u * dom.patches[0].space.n_v, -1)
        block = interface_side_terms(dom, dom.interfaces[0], 12.0, own_index, np.arange(2),
                                     include_m=False)
        Raa = block_to_dense(block, 2)
        h = dom.metrics["h"][0]
        assert h == pytest.approx(np.sqrt(2.0), rel=1e-9)
        expected = trace_mass_oracle(KnotVector(1, [0, 0, 1, 1]), 12.0 * 1.0 / h)
        np.testing.assert_allclose(Raa, expected, rtol=1e-12)

    def test_matched_function_no_penalty_energy(self):
        # equal trace and artificial coefficients: zero jump, zero r-energy
        dom = two_patch_domain(p=2, r=1, dirichlet=False)
        n_patch, artificial = extended_layout(dom, 0)
        n_total = n_patch + sum(ab.size for ab in artificial)
        ab = artificial[0]
        edge_index = np.full(dom.patches[1].space.edge_kv("west").n, -1)
        edge_index[[e for e, _ in ab.sources]] = ab.offset + np.arange(ab.size)
        R = block_to_dense(interface_side_terms(dom, dom.interfaces[0], 12.0,
                                                dom.patches[0].space.dof_map.ravel(), edge_index,
                                                include_m=False), n_total)
        M = block_to_dense(assemble_interface_terms(dom, ab, 12.0), n_total) - R
        v = np.zeros(n_total)
        for pos, (edge, _) in enumerate(ab.sources):
            v[dom.patches[0].space.edge_dofs("east")[edge]] = 2.5
            v[ab.offset + pos] = 2.5
        assert abs(v @ R @ v) <= 1e-12
        # constants: both the consistency and penalty terms annihilate them
        ones = np.ones(n_total)
        np.testing.assert_allclose(R @ ones, 0.0, atol=1e-12)
        np.testing.assert_allclose(M @ ones, 0.0, atol=1e-12)

    def test_quadrature_consistency_polynomial(self):
        # the merged-breakpoint rule integrates a degree-2p+1 polynomial exactly
        dom = two_patch_domain(p=2, r=2)
        sq = _side_quadrature(dom, dom.interfaces[0], 3)
        for deg in range(6):
            approx = np.sum(sq.weights * sq.ts**deg)
            exact = 1.0 / (deg + 1)  # unit-length straight edge
            assert approx == pytest.approx(exact, abs=1e-12)

    def test_normals_point_outward(self):
        dom = t_domain(degree=1, refinements=1)
        fixed = {"west": (0, 0.0), "east": (0, 1.0), "south": (1, 0.0), "north": (1, 1.0)}
        seen = set()
        for idx, g in enumerate(dom.interfaces):
            for ori in (g, g.flipped()):
                sq = _side_quadrature(dom, ori, 2)
                np.testing.assert_allclose(np.linalg.norm(sq.normals, axis=1), 1.0, rtol=1e-12)
                # each side is evaluated at its own parameter points, the fixed coordinate exact
                axis, value = fixed[ori.side_k]
                assert np.all(sq.uv[:, axis] == value)
                assert np.array_equal(sq.uv[:, 1 - axis], sq.ts)
                seen.add(ori.side_k)
        assert seen == set(fixed)


class TestLocalSystem:
    def test_no_neighbors_equals_volume(self):
        patch = unit_square_patch(0, 1, 0, 1, 2, 1, {"west", "east", "south", "north"})
        dom = MultiPatchDomain([patch], []).validate()
        sysk = build_local_system(dom, 0, 12.0)
        assert sysk.n_total == sysk.n_patch == patch.space.dimension
        ev = np.linalg.eigvalsh(sysk.A.toarray())
        assert ev[0] > 0

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_symmetry_on_tdomain(self, p):
        dom = t_domain(degree=p, refinements=1)
        for k in range(dom.num_patches):
            sysk = build_local_system(dom, k, 12.0)
            A = sysk.A.csr
            asym = abs(A - A.T).max()
            assert asym <= 1e-12 * max(abs(A.max()), abs(A.min()))

    def test_floating_patch_constant_kernel(self):
        dom = two_patch_domain(p=2, r=1, dirichlet=False)
        sysk = build_local_system(dom, 0, 12.0)
        ones = np.ones(sysk.n_total)
        scale = abs(sysk.A.csr.max())
        np.testing.assert_allclose(sysk.A.csr @ ones, 0.0, atol=1e-12 * scale)

    def test_load_on_patch_dofs_only(self):
        dom = t_domain(degree=2, refinements=1)
        sysk = build_local_system(dom, 0, 12.0, source=1.0)
        assert np.all(sysk.f[sysk.n_patch:] == 0.0)
        assert np.any(sysk.f[: sysk.n_patch] != 0.0)

    def test_artificial_rows_have_no_volume_coupling(self):
        # artificial-artificial coupling comes from the interface block alone,
        # whose artificial-artificial part is the penalty term
        dom = two_patch_domain(p=2, r=1)
        sysk = build_local_system(dom, 0, 12.0)
        R = block_to_dense(assemble_interface_terms(dom, sysk.artificial[0], 12.0), sysk.n_total)
        A = sysk.A.toarray()
        art = slice(sysk.n_patch, sysk.n_total)
        np.testing.assert_allclose(A[art, art], R[art, art], atol=1e-13 * np.abs(A).max())

    def test_alpha_scaling_equivariance(self):
        dom1 = two_patch_domain(p=2, r=1, alphas=(1.0, 3.0))
        dom2 = two_patch_domain(p=2, r=1, alphas=(5.0, 15.0))
        A1 = build_local_system(dom1, 0, 12.0).A.toarray()
        A2 = build_local_system(dom2, 0, 12.0).A.toarray()
        np.testing.assert_allclose(A2, 5.0 * A1, atol=1e-12 * np.abs(A2).max())

    @pytest.mark.parametrize("factory,label", [
        (lambda: t_domain(degree=2, refinements=1), "tdomain"),
        (lambda: two_patch_domain(p=3, r=1, dirichlet=False), "floating"),
    ])
    def test_coercivity_probe(self, rng, factory, label):
        dom = factory()
        for k in range(dom.num_patches):
            sysk = build_local_system(dom, k, 12.0)
            A = sysk.A.csr
            scale = max(abs(A.max()), abs(A.min()))
            for _ in range(50):
                v = rng.standard_normal(sysk.n_total)
                quad = v @ (A @ v)
                assert quad >= -1e-10 * scale * (v @ v)
