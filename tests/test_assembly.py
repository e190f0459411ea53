import numpy as np
import pytest
import scipy.sparse

from ietidg import assembly, linalg, refsolver
from ietidg.assembly import (
    _side_points,
    _sum_factorized,
    assemble_interface_terms,
    assemble_volume,
    build_local_system,
    copy_map,
    interface_side_terms,
    univariate_matrices,
)
from ietidg.bspline import KnotVector, TensorSplineSpace, eval_matrices, gauss_rule, refine_uniform
from ietidg.domains import (builtin_domain, domain_from_config, domain_to_config, grid_domain,
                            slider_domain, t_domain)
from ietidg.errors import ConfigError, NumericalError
from ietidg.geometry import GeometryMap, Interface, MultiPatchDomain, Patch, side_normal_hat
from ietidg.ieti import build_partition, degenerate_tjunction_count, select_primal, setup_operator
from ietidg.linalg import block_triplets

from conftest import (curved_geometry, curved_two_patch_domain, extended_matrix, local_systems,
                      map_param, mirrored_two_patch_domain, nonuniform_config_domain, oriented_interfaces,
                      volume_arrays, reference_copy_map, reference_interface_dofs,
                      reference_degenerate_tjunction_count, reference_interface_side_terms,
                      reference_lattice_side_terms, reference_merged_partition,
                      reference_select_primal, reference_side_points, reversed_two_patch_domain,
                      trace_dofs, two_patch_domain, unit_square_patch)
from test_bspline import scalar_cox_de_boor
from test_ieti import fd_against_superlu, partial_interface_domain

NO_ROWS = (np.zeros(0), np.zeros(0, dtype=int), np.zeros(1, dtype=int))  # CSR arrays of no row


def block_to_dense(block, n):
    return extended_matrix(n, NO_ROWS, *block).csr.toarray()


def volume_matrix(patch, **kwargs):
    """`assemble_volume`'s stiffness as a CSR matrix, with its load."""
    arrays, load = volume_arrays(patch, **kwargs)
    return scipy.sparse.csr_matrix(arrays, shape=(patch.space.dimension,) * 2), load


def side_rows(dom, delta, s, own_index, nbr_index):
    """The `interface_side_terms` rows of oriented side `s` as an ``(idx, mats)`` block, the
    owner's dof d at ``own_index[d]`` and the neighbor's at ``nbr_index[d]``; a constrained
    function (-1) and a dof mapped to -1 are dropped."""
    side, own, nbr, mats = interface_side_terms(dom, delta)
    at = side == s
    return np.concatenate([np.append(own_index, -1)[own[at]], np.append(nbr_index, -1)[nbr[at]]],
                          axis=1), mats[at]


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
    from ietidg.bspline import eval_matrices

    for lo, hi in zip(kv.breakpoints[:-1], kv.breakpoints[1:]):
        pts = 0.5 * (lo + hi) + 0.5 * (hi - lo) * nodes
        B = eval_matrices(kv, pts)[0]
        for q in range(pts.size):
            M += 0.5 * (hi - lo) * wts[q] * np.outer(B[q], B[q])
    return weight * M


def gauss_grid(kv, ng):
    """Gauss points and weights of `ng` points on every nonzero span of `kv`."""
    x, w = np.polynomial.legendre.leggauss(ng)
    lo, hi = kv.breakpoints[:-1, None], kv.breakpoints[1:, None]
    return (0.5 * (lo + hi) + 0.5 * (hi - lo) * x).ravel(), (0.5 * (hi - lo) * w).ravel()


def brute_force_volume(patch, source):
    """Dense stiffness and load of one patch over its free dofs, by quadrature
    on the full tensor Gauss grid with every lattice function evaluated."""
    space, geo = patch.space, patch.geometry
    ng = max(space.degree, geo.kv_u.p, geo.kv_v.p) + 1
    (pu, wu), (pv, wv) = gauss_grid(space.kv_u, ng), gauss_grid(space.kv_v, ng)
    Bu, Bv = eval_matrices(space.kv_u, pu, 1), eval_matrices(space.kv_v, pv, 1)
    pts, jac = geo.jacobian_grid(pu, pv)
    ghat = np.stack([np.einsum("ai,bj->abij", Bu[1], Bv[0]),
                     np.einsum("ai,bj->abij", Bu[0], Bv[1])], axis=2)
    JinvT = np.swapaxes(np.linalg.inv(jac), -1, -2)
    grads = np.einsum("abxy,abyij->abxij", JinvT, ghat).reshape(pu.size, pv.size, 2, -1)
    w = np.outer(wu, wv) * np.abs(np.linalg.det(jac))
    A = patch.alpha * np.einsum("ab,abxi,abxj->ij", w, grads, grads)
    f = np.einsum("ab,ai,bj->ij", w * source(pts[..., 0], pts[..., 1]), Bu[0], Bv[0]).ravel()
    free = space.free_mask.ravel()
    return A[np.ix_(free, free)], f[free]


def assert_canonical(A):
    """Sorted column indices and no duplicates: the (row, column) keys strictly increase."""
    rows = np.repeat(np.arange(A.shape[0]), np.diff(A.indptr))
    assert np.all(np.diff(rows * A.shape[1] + A.indices) > 0)


def edge_positions(space, side, dofs):
    """Edge index of each of the `dofs` on `side`, read off `edge_dofs`."""
    return [int(np.flatnonzero(space.edge_dofs(side) == d)[0]) for d in dofs]


# (kv_u, kv_v, geometry or None for an affine rectangle, Dirichlet sides) of the volume tests
VOLUME_CASES = [
    *[(refine_uniform(KnotVector.bernstein(p), 2), refine_uniform(KnotVector.bernstein(p), 1),
       GeometryMap.bilinear((0, 0), (2, 0.2), (0.3, 1), (1.8, 1.4)), {"west", "north"})
      for p in (1, 2, 3)],
    (KnotVector(2, [0, 0, 0, 0.4, 0.4, 0.7, 1, 1, 1]),
     KnotVector(2, [0, 0, 0, 0.5, 0.5, 1, 1, 1]), None, {"south"}),
    (KnotVector(3, [0, 0, 0, 0, 0.5, 0.5, 0.5, 0.75, 1, 1, 1, 1]),
     refine_uniform(KnotVector.bernstein(3), 1), None, {"east", "south"}),
    (KnotVector.bernstein(2), KnotVector.bernstein(2), None, {"west"}),
    (KnotVector.bernstein(3), refine_uniform(KnotVector.bernstein(3), 1), None, set()),
    (refine_uniform(KnotVector.bernstein(3), 2), KnotVector.bernstein(3), None, {"north"}),
    *[(refine_uniform(KnotVector.bernstein(p), 1), refine_uniform(KnotVector.bernstein(p), 2),
       curved_geometry(), {"west", "south"}) for p in (1, 2, 3, 4, 6)],
    # a 4-fold interior knot in u only: the u-spans' first functions jump by 4
    (KnotVector(4, [0] * 5 + [0.5] * 4 + [1] * 5), refine_uniform(KnotVector.bernstein(4), 1),
     GeometryMap.bilinear((0, 0), (2, 0.2), (0.3, 1), (1.8, 1.4)), {"north"}),
]
VOLUME_IDS = ["quad-p1", "quad-p2", "quad-p3", "repeated-p2", "repeated-p3", "n3-p2", "n4n5-p3",
              "n7n4-p3", "curved-p1", "curved-p2", "curved-p3", "curved-p4", "curved-p6",
              "fourfold-u-n9n6-p4"]


class TestTraceBasis:
    def test_examples(self):
        kv2 = KnotVector(2, [0, 0, 0, 0.5, 1, 1, 1])
        space = TensorSplineSpace(kv2, kv2)
        dofs = trace_dofs(space, "south", (0.0, 0.5))
        assert dofs.tolist() == space.edge_dofs("south")[:3].tolist()
        assert edge_positions(space, "south", dofs) == [0, 1, 2]
        dofs = trace_dofs(space, "south", (0.0, 1.0))
        assert edge_positions(space, "south", dofs) == [0, 1, 2, 3]
        kv1 = KnotVector(1, [0, 0, 0.5, 1, 1])
        space1 = TensorSplineSpace(kv1, kv1)
        dofs = trace_dofs(space1, "south", (0.5, 1.0))
        assert edge_positions(space1, "south", dofs) == [1, 2]

    def test_dirichlet_functions_excluded(self):
        kv = KnotVector(2, [0, 0, 0, 0.5, 1, 1, 1])
        space = TensorSplineSpace(kv, kv, {"west"})
        dofs = trace_dofs(space, "south", (0.0, 1.0))
        assert np.all(dofs >= 0)
        assert edge_positions(space, "south", dofs) == [1, 2, 3]

    def test_degenerate_interface_error(self):
        kv = KnotVector(1, [0, 0, 1, 1])
        space = TensorSplineSpace(kv, kv, {"west", "east"})
        with pytest.raises(ConfigError):
            trace_dofs(space, "west", (0.0, 1.0))


class TestVolume:
    def test_q1_unit_square(self):
        patch = unit_square_patch(0, 1, 0, 1, 1, 0, set())
        A, load = volume_matrix(patch, source=1.0)
        A = A.toarray()
        np.testing.assert_allclose(A, q1_stiffness_oracle(), atol=1e-14)
        assert A[0, 0] == pytest.approx(2.0 / 3.0)
        np.testing.assert_allclose(A.sum(axis=1), 0.0, atol=1e-14)
        np.testing.assert_allclose(load, 0.25, atol=1e-15)

    def test_constants_in_kernel(self, rng):
        patch = unit_square_patch(0, 1, 0, 1, 2, 2, set())
        n = patch.space.dimension
        A = volume_matrix(patch)[0].toarray()
        np.testing.assert_allclose(A @ np.ones(n), 0.0, atol=1e-13)

    def test_alpha_linearity(self):
        p1 = unit_square_patch(0, 1, 0, 1, 2, 1, set(), alpha=1.0)
        p10 = unit_square_patch(0, 1, 0, 1, 2, 1, set(), alpha=10.0)
        A1 = volume_matrix(p1)[0].toarray()
        A10 = volume_matrix(p10)[0].toarray()
        np.testing.assert_allclose(A10, 10.0 * A1, rtol=0, atol=1e-13 * np.abs(A1).max())

    @staticmethod
    def _quad_patch(corners, p=2, r=2):
        kv = refine_uniform(KnotVector.bernstein(p), r)
        return Patch(GeometryMap.bilinear(*corners), 1.0, TensorSplineSpace(kv, kv))

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
        A = volume_matrix(patch)[0].toarray()
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

    @pytest.mark.parametrize("kv_u,kv_v,geo,dirichlet", VOLUME_CASES, ids=VOLUME_IDS)
    def test_matches_brute_force_quadrature(self, kv_u, kv_v, geo, dirichlet):
        geo = geo or GeometryMap.bilinear((0, 0), (1.5, 0), (0, 0.5), (1.5, 0.5))
        patch = Patch(geo, 2.5, TensorSplineSpace(kv_u, kv_v, dirichlet))
        source = lambda x, y: 1.0 + x * y**2
        A, f = volume_matrix(patch, source=source)
        A_ref, f_ref = brute_force_volume(patch, source)
        assert A.shape == A_ref.shape == (patch.space.dimension,) * 2
        assert_canonical(A)
        assert np.abs(A.toarray() - A_ref).max() <= 1e-13 * np.abs(A_ref).max()
        assert np.abs(f - f_ref).max() <= 1e-13 * np.abs(f_ref).max()

    def test_spd_on_dirichlet_patch(self, rng):
        patch = unit_square_patch(0, 1, 0, 1, 2, 2, {"west", "east", "south", "north"})
        A = volume_matrix(patch)[0].toarray()
        ev = np.linalg.eigvalsh(A)
        assert ev[0] > 0


def quadrature_route(patch, source=1.0):
    """`assemble_volume`'s arrays from `_sum_factorized`, whatever the map: the route
    every non-affine map takes, here with the affine test switched off."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(patch.geometry, "affine_diagonal", None)
        return volume_arrays(patch, source=source)


def assert_kronecker_matches_quadrature(patch, source=1.0):
    """The affine route's CSR arrays and load against the quadrature route's, to 1e-13 relative."""
    assert patch.geometry.affine_diagonal is not None
    (data, indices, indptr), load = volume_arrays(patch, source=source)
    (data_q, indices_q, indptr_q), load_q = quadrature_route(patch, source)
    assert np.array_equal(indices, indices_q) and np.array_equal(indptr, indptr_q)
    assert np.abs(data - data_q).max() <= 1e-13 * np.abs(data_q).max()
    assert np.abs(load - load_q).max() <= 1e-13 * np.abs(load_q).max()


def routes(monkeypatch, patches):
    """Whether each patch's `assemble_volume` ran `_sum_factorized`."""
    calls = []
    quadrature = assembly._sum_factorized
    monkeypatch.setattr(assembly, "_sum_factorized",
                        lambda patch, *args: calls.append(patch) or quadrature(patch, *args))
    for patch in patches:
        assemble_volume(patch)
    return [any(patch is c for c in calls) for patch in patches]


def single_patch(geometry, p=2, r=2):
    kv = refine_uniform(KnotVector.bernstein(p), r)
    return Patch(geometry, 1.0, TensorSplineSpace(kv, kv, {"west", "east", "south", "north"}))


class TestKroneckerVolume:
    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("factory", [
        lambda p: grid_domain(2, degree=p, refinements=1),
        lambda p: t_domain(degree=p, refinements=1, alphas=[1, 10, 100, 1, 10]),
        lambda p: slider_domain(3, 0.3, degree=p, refinements=1),
        lambda p: slider_domain(4, 0.37, degree=p, refinements=1),
        lambda p: nonuniform_config_domain(p, r=1),
    ], ids=["grid2x2", "tdomain", "slider(3,0.3)", "slider(4,0.37)", "nonuniform"])
    def test_every_builtin_patch(self, factory, p):
        for patch in factory(p).patches:
            assert_kronecker_matches_quadrature(patch)

    @pytest.mark.parametrize("kv_u,kv_v,geo,dirichlet", VOLUME_CASES, ids=VOLUME_IDS)
    def test_knot_and_dirichlet_cases(self, kv_u, kv_v, geo, dirichlet):
        # the knot vectors and Dirichlet sides of the volume tests on a rectangle
        rect = GeometryMap.bilinear((0.5, -1), (2, -1), (0.5, -0.5), (2, -0.5))
        patch = Patch(rect, 2.5, TensorSplineSpace(kv_u, kv_v, dirichlet))
        assert_kronecker_matches_quadrature(patch)
        assert_kronecker_matches_quadrature(patch, source=lambda x, y: 1.0 + x * y**2)

    @pytest.mark.parametrize("corners", [
        [(2, 0), (0, 0), (2, 1), (0, 1)],          # x = 2 (1 - u), y = v
        [(0, 3), (1, 3), (0, 0), (1, 0)],          # x = u, y = 3 (1 - v)
        [(2, 3), (0, 3), (2, 0), (0, 0)],          # both reversed: det J > 0 again
    ], ids=["mirrored-x", "mirrored-y", "half-turn"])
    def test_negative_jacobian_entries(self, corners):
        patch = single_patch(GeometryMap.bilinear(*corners), p=3)
        assert_kronecker_matches_quadrature(patch)
        assert_kronecker_matches_quadrature(patch, source=lambda x, y: np.cos(x) + y)

    @pytest.mark.parametrize("factory", [lambda: t_domain(degree=2, refinements=2),
                                         lambda: nonuniform_config_domain(2)])
    def test_univariate_bands_once_per_knot_vector(self, monkeypatch, factory):
        # on affine patches with a constant source, only the 1D bands take a span quadrature:
        # the volumes and the FD eigenpairs of a setup and the oracle's volumes share them
        dom = factory()
        kvs = {id(kv): kv for patch in dom.patches for kv in (patch.space.kv_u, patch.space.kv_v)}
        computed, quadrature = [], assembly.span_quadrature
        monkeypatch.setattr(assembly, "span_quadrature",
                            lambda kv, n: computed.append(id(kv)) or quadrature(kv, n))
        op = setup_operator(dom)
        refsolver.assemble_global(dom, 12.0)
        assert any(blk.interior_fd for blk in op.blocks)
        assert sorted(computed) == sorted(kvs)
        for kv in kvs.values():
            bands = assembly._univariate_bands(kv)
            assert not bands.flags.writeable
            with pytest.raises(ValueError):
                bands[0, 0, 0] = 0.0
            K, M = univariate_matrices(kv)
            assert K.flags.writeable and M.flags.writeable

    @pytest.mark.parametrize("factory", [lambda: t_domain(degree=2, refinements=2),
                                         lambda: nonuniform_config_domain(2)],
                             ids=["tdomain", "nonuniform"])
    def test_bands_verified_once_where_built(self, monkeypatch, factory):
        # on affine patches K and M are verified once per knot vector, where they are computed,
        # and each block checks only what it forms, A_GG and its interface blocks: no setup
        # compares a lattice band offset by offset, and a second setup verifies no 1D band
        dom = factory()
        kvs = {id(kv): kv for patch in dom.patches for kv in (patch.space.kv_u, patch.space.kv_v)}
        calls, check = [], linalg.check_symmetric

        def recording(values, differences):
            calls.append((values, list(differences)))
            return check(*calls[-1])

        monkeypatch.setattr(linalg, "check_symmetric", recording)
        for per_kv in (2, 0):
            calls.clear()
            setup_operator(dom)
            bands = [values[0] for values, _ in calls if len(values) == 1 and values[0].ndim == 2]
            blocks = [(values, diffs) for values, diffs in calls if len(values) == 2]
            assert len(blocks) == dom.num_patches and len(bands) + len(blocks) == len(calls)
            for (band, mats), (gg, mats_t) in blocks:
                assert band.ndim == 4 and gg.shape == gg.shape[::-1] and mats_t.shape == mats.shape
            assert len(bands) == per_kv * len(kvs)
            for kv in kvs.values():  # K and M, each verified in one call
                assert sum(np.shares_memory(m, kv._bands) for m in bands) == per_kv

    @pytest.mark.parametrize("factory, calls", [
        (lambda: t_domain(degree=2, refinements=2), 1),
        (lambda: slider_domain(4, 0.3, degree=2, refinements=2), 1),
        # a config's equal knot vectors are one object, as in the built-ins
        (lambda: domain_from_config(domain_to_config(t_domain(degree=2, refinements=2))), 1),
        (lambda: domain_from_config(domain_to_config(slider_domain(4, 0.3, degree=2, refinements=2))), 1),
        (lambda: nonuniform_config_domain(2), 4),
    ], ids=["tdomain", "slider(4,0.3)", "tdomain-config", "slider(4,0.3)-config", "nonuniform"])
    def test_interior_eigenpairs_once_per_index_set(self, monkeypatch, rng, factory, calls):
        # one generalized_eigh per distinct (knot vector, interior index set), kept on the knot
        # vector, read-only, and shared by every FD block: a second setup computes none
        dom = factory()
        computed, eigh = [], linalg.generalized_eigh
        monkeypatch.setattr(linalg, "generalized_eigh",
                            lambda K, M, name="": computed.append(name) or eigh(K, M, name))
        op = setup_operator(dom)
        assert all(blk.interior_fd for blk in op.blocks)
        assert len(computed) == calls
        assert fd_against_superlu(dom, setup_operator(dom), rng) <= 1e-12
        for k, (patch, blk) in enumerate(zip(dom.patches, op.blocks)):
            space = patch.space
            lat = np.flatnonzero(space.free_mask)[op.partition.interior[k]]
            for kv, idx, U in ((space.kv_u, np.unique(lat // space.n_v), blk.aii_fac.U_u),
                               (space.kv_v, np.unique(lat % space.n_v), blk.aii_fac.U_v)):
                lam, kept = assembly._interior_eigenpairs(kv, idx)
                assert kept is U
                for a in (lam, U):
                    assert not a.flags.writeable
                    with pytest.raises(ValueError):
                        a[0] = 0.0
        assert len(computed) == calls

    @pytest.mark.parametrize("corners", [
        [(1.0, 1.0)] * 4,                                   # collapsed to a point
        [(0.0, 0.0), (1.0, 0.0), (0.0, 0.0), (1.0, 0.0)],   # collapsed to a segment
        [(0.0, 0.0), (1.0, 0.0), (0.0, 1e-13), (1.0, 1e-13)],  # J_y 1e-13 of J_x
    ], ids=["point", "segment", "thin"])
    def test_singular_affine_maps_take_quadrature(self, corners):
        assert GeometryMap.bilinear(*corners).affine_diagonal is None

    @pytest.mark.parametrize("rel, affine", [(1e-12, False), (1e-16, True)])
    def test_predicate_tolerance(self, monkeypatch, rel, affine):
        # the middle control point of a degree-2 rectangle map moved by rel |J|
        kv = KnotVector.bernstein(2)
        control = np.stack(np.meshgrid([0.0, 1.0, 2.0], [0.0, 0.5, 1.0], indexing="ij"), axis=-1)
        control[1, 1, 1] += rel * 2.0
        geo = GeometryMap(kv, kv, control)
        assert (geo.affine_diagonal is not None) is affine
        patch = single_patch(geo)
        assert routes(monkeypatch, [patch]) == [not affine]
        assert setup_operator(MultiPatchDomain([patch], []).validate()).blocks[0].interior_fd is affine

    def test_routes_follow_the_fd_decision(self, monkeypatch):
        # curved and perturbed maps take quadrature and no FD; the partial
        # interface's patch 0 is affine (Kronecker volume) but its interior
        # is no tensor lattice (no FD)
        perturbed = GeometryMap.bilinear((0, 0), (1, 0), (0, 1), (1 + 1e-9, 1 + 1e-9))
        for geo in (curved_geometry(), perturbed):
            patch = single_patch(geo)
            assert routes(monkeypatch, [patch]) == [True]
            assert not setup_operator(MultiPatchDomain([patch], []).validate()).blocks[0].interior_fd
        dom = partial_interface_domain()
        assert routes(monkeypatch, dom.patches) == [False, False]
        assert [blk.interior_fd for blk in setup_operator(dom).blocks] == [False, True]

    def test_sum_factorization_on_an_affine_patch(self):
        # the private quadrature helper runs on any map: its lattice band and
        # load give the brute-force volume on an affine patch as well
        patch = nonuniform_config_domain(2).patches[1]
        band, load = _sum_factorized(patch, 1.0)
        space = patch.space
        assert band.shape == (space.n_u, space.n_v, 5, 5) and load.shape == (space.n_u, space.n_v)
        A_ref, f_ref = brute_force_volume(patch, lambda x, y: np.ones_like(x))
        A, f = quadrature_route(patch)
        A = scipy.sparse.csr_matrix(A, shape=A_ref.shape).toarray()
        assert np.abs(A - A_ref).max() <= 1e-13 * np.abs(A_ref).max()
        np.testing.assert_array_equal(f, load[space.free_mask])


def reference_side_blocks(dom, delta, s):
    """Oriented side `s`'s matrices, one per merged sub-interval, point by point.

    Independent of the batched pass: the merged breakpoints and Gauss points
    are recomputed here, the basis comes from `scalar_cox_de_boor` and the
    map from one-point `jacobian_grid` calls.  Each matrix is dense over the
    owner's flat lattice followed by the neighbor's edge functions, with
    every owner function active at the point (not only the two layers).
    """
    ori = oriented_interfaces(dom)[s]
    own, nb = dom.patches[ori.k], dom.patches[ori.l]
    p, space, geo = dom.degree, own.space, own.geometry
    nb_kv = nb.space.edge_kv(ori.side_l)
    n_lat = space.n_u * space.n_v
    h = dom.metrics["h"]
    rho = own.alpha * delta * p * p / min(h[ori.k], h[ori.l])
    (a, b), (c, d) = ori.range_k, sorted(ori.range_l)
    mapped = [a + (b - a) * ((x - ori.range_l[0]) / (ori.range_l[1] - ori.range_l[0]))
              for x in nb_kv.breakpoints if c < x < d]
    if ori.reversed_:
        mapped = [a + b - m for m in mapped]
    breaks = sorted({a, b, *[x for x in space.edge_kv(ori.side_k).breakpoints if a < x < b]})
    breaks = sorted(breaks + [m for m in mapped if min(abs(m - x) for x in breaks) > 1e-12])
    x_g, w_g = np.polynomial.legendre.leggauss(max(p, geo.kv_u.p, geo.kv_v.p) + 1)
    n_hat = side_normal_hat(ori.side_k)

    blocks = []
    for lo, hi in zip(breaks[:-1], breaks[1:]):
        M = np.zeros((n_lat + nb_kv.n,) * 2)
        for xg, wg in zip(x_g, w_g):
            t = 0.5 * (lo + hi) + 0.5 * (hi - lo) * xg
            u, v = {"west": (0.0, t), "east": (1.0, t), "south": (t, 0.0), "north": (t, 1.0)}[ori.side_k]
            J = geo.jacobian_grid([u], [v])[1][0, 0]
            JinvT = np.linalg.inv(J).T
            normal = JinvT @ n_hat / np.linalg.norm(JinvT @ n_hat)
            w = 0.5 * (hi - lo) * wg * np.linalg.norm(J[:, 0 if n_hat[0] == 0 else 1])
            jump, flux = np.zeros(M.shape[0]), np.zeros(M.shape[0])
            (fu, Bu), (fv, Bv) = (scalar_cox_de_boor(kv, x, 1)
                                  for kv, x in ((space.kv_u, u), (space.kv_v, v)))
            for i in range(p + 1):
                for j in range(p + 1):
                    lat = (fu + i) * space.n_v + fv + j
                    jump[lat] = Bu[0, i] * Bv[0, j]
                    flux[lat] = normal @ JinvT @ [Bu[1, i] * Bv[0, j], Bu[0, i] * Bv[1, j]]
            s_nb = float(map_param(ori, t))
            fs, Bs = scalar_cox_de_boor(nb_kv, s_nb, 0)
            jump[n_lat + fs + np.arange(p + 1)] = -Bs[0]
            M += rho * w * np.outer(jump, jump)
            M -= 0.5 * own.alpha * w * (np.outer(flux, jump) + np.outer(jump, flux))
        blocks.append(M)
    return blocks


class TestInterfaceTerms:
    def test_penalty_block_is_scaled_trace_mass(self):
        # two unit squares, p = 1, single span: the artificial-artificial
        # penalty block is (delta p^2 / min(h_k, h_l)) times the 1D mass matrix
        dom = two_patch_domain(p=1, r=0, dirichlet=False)
        # owner functions map to -1, so only the edge-edge part is kept
        # (the consistency part vanishes there: the flux is zero on edge columns)
        own_index = np.full(dom.patches[0].space.dimension, -1)
        nbr_index = np.full(dom.patches[1].space.dimension, -1)
        nbr_index[dom.patches[1].space.edge_dofs("west")] = np.arange(2)
        block = side_rows(dom, 12.0, 0, own_index, nbr_index)
        Raa = block_to_dense(block, 2)
        h = dom.metrics["h"][0]
        assert h == pytest.approx(np.sqrt(2.0), rel=1e-9)
        expected = trace_mass_oracle(KnotVector(1, [0, 0, 1, 1]), 12.0 * 1.0 / h)
        np.testing.assert_allclose(Raa, expected, rtol=1e-12)

    def test_matched_function_no_penalty_energy(self):
        # equal trace and artificial coefficients: zero jump, zero r-energy
        dom = two_patch_domain(p=2, r=1, dirichlet=False)
        copies = copy_map(dom)
        rows = copies[copies[:, 3] == 0]
        n_total = dom.patches[0].space.dimension + len(rows)
        sources = trace_dofs(dom.patches[1].space, "west", (0.0, 1.0))
        assert rows[:, 2].tolist() == sources.tolist()
        edges = edge_positions(dom.patches[1].space, "west", sources)
        copy_of = np.full(dom.patches[1].space.dimension, -1)
        copy_of[sources] = rows[:, 4]
        # the penalty is linear in delta and the consistency term does not
        # depend on it, so T(24) - T(12) is the penalty part at delta = 12
        R = np.subtract(*[block_to_dense(side_rows(
            dom, delta, 0, np.arange(dom.patches[0].space.dimension), copy_of), n_total)
            for delta in (24.0, 12.0)])
        block, idx, mats = assemble_interface_terms(dom, copies, 12.0)
        M = block_to_dense((idx[block == 0], mats[block == 0]), n_total) - R
        v = np.zeros(n_total)
        for edge, copy in zip(edges, rows[:, 4]):
            v[dom.patches[0].space.edge_dofs("east")[edge]] = 2.5
            v[copy] = 2.5
        assert abs(v @ R @ v) <= 1e-12
        # constants: both the consistency and penalty terms annihilate them
        ones = np.ones(n_total)
        np.testing.assert_allclose(R @ ones, 0.0, atol=1e-12)
        np.testing.assert_allclose(M @ ones, 0.0, atol=1e-12)

    def test_one_block_per_sub_interval_over_the_edge_layers(self):
        # the reversed domain's sides break at 0.5 (owner) and 0.7 (neighbor's
        # 0.3): three sub-intervals, each over the owner's two layers next to
        # the edge and the neighbor's p + 1 edge functions, as patch dofs with
        # -1 for the south and north ones of the constrained ends
        dom = reversed_two_patch_domain(p=2)
        side, own, nbr, mats = interface_side_terms(dom, 12.0)
        own, nbr, mats = own[side == 0], nbr[side == 0], mats[side == 0]
        assert own.shape == (3, 2 * 3) and nbr.shape == (3, 3) and mats.shape == (3, 9, 9)
        layers, edge = dom.patches[0].space.dof_map[-2:], dom.patches[1].space.edge_dofs("east")
        assert np.all(np.isin(own, layers)) and np.all(np.isin(nbr, edge))
        assert np.array_equal(own[0], layers[:, :3].ravel()) and np.array_equal(nbr[0], edge[-3:])
        assert np.array_equal(mats, np.swapaxes(mats, 1, 2))

    @pytest.mark.parametrize("factory", [lambda: t_domain(degree=2, refinements=1),
                                         lambda: slider_domain(3, 0.3, degree=2, refinements=1)],
                             ids=["tdomain", "slider(3,0.3)"])
    def test_constrained_functions_are_minus_one_and_free_ones_find_copies(self, factory):
        # Dirichlet sides reach interface ends on both domains: their constrained
        # functions are -1 on both sides, every other entry is a dof of its patch,
        # and the copy lookup finds a copy for exactly the free neighbor dofs
        dom = factory()
        side, own, nbr, _ = interface_side_terms(dom, 12.0)
        assert np.any(own == -1) and np.any(nbr == -1)
        dims = np.array([patch.space.dimension for patch in dom.patches])
        for dofs, patch in ((own, dom.sides.owner[side]), (nbr, dom.sides.neighbor[side])):
            assert np.all((dofs == -1) | ((dofs >= 0) & (dofs < dims[patch, None])))
        _, idx, _ = assemble_interface_terms(dom, copy_map(dom), 12.0)
        assert np.array_equal(idx[:, own.shape[1]:] >= 0, nbr >= 0)

    @pytest.mark.parametrize("factory", [
        lambda: reversed_two_patch_domain(p=2),
        lambda: curved_two_patch_domain(p=3, r=1),
        lambda: mirrored_two_patch_domain(p=2),
        lambda: slider_domain(3, 0.3, degree=2, refinements=1),
        lambda: nonuniform_config_domain(2),
        # the curved side takes 3 Gauss points per sub-interval, its flip 2
        lambda: curved_two_patch_domain(p=1, r=1),
    ], ids=["reversed", "curved", "mirrored", "slider(3,0.3)", "nonuniform", "curved-p1"])
    def test_batched_pass_matches_point_by_point_reference(self, factory):
        # every side's sub-interval matrices against the point-by-point
        # reference over every active function, placed by the reference
        # pass's owner lattice and neighbor edge indices, which the patch
        # dofs must match through the owner's dof_map and the neighbor's
        # edge_dofs
        dom = factory()
        side, own, nbr, mats = interface_side_terms(dom, 12.0)
        _, lattice, edge, _ = reference_lattice_side_terms(dom, 12.0)
        assert np.array_equal(side, np.sort(side))
        for s, ori in enumerate(oriented_interfaces(dom)):
            space, nb = dom.patches[ori.k].space, dom.patches[ori.l].space
            n_lat = space.n_u * space.n_v
            reference = reference_side_blocks(dom, 12.0, s)
            at = np.flatnonzero(side == s)
            assert at.size == len(reference)
            assert np.array_equal(own[at], space.dof_map.ravel()[lattice[at]])
            assert np.array_equal(nbr[at], nb.edge_dofs(ori.side_l)[edge[at]])
            scale = max(np.abs(R).max() for R in reference)
            for j, R in zip(at, reference):
                idx = np.concatenate([lattice[j], n_lat + edge[j]])
                M = np.zeros_like(R)
                M[np.ix_(idx, idx)] = mats[j]
                assert np.abs(M - R).max() <= 1e-13 * scale, (s, j)

    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("r", [0, 1, 2])
    def test_side_points_match_per_side_reference(self, p, r):
        # one sort for all sides' partitions and one map evaluation change no bit
        doms = [grid_domain(2, degree=p, refinements=r), t_domain(degree=p, refinements=r),
                slider_domain(3, 0.3, degree=p, refinements=r),
                slider_domain(4, 0.37, degree=p, refinements=r),
                nonuniform_config_domain(p, r)]
        if r == 2:
            doms += [curved_two_patch_domain(p), reversed_two_patch_domain(p),
                     mirrored_two_patch_domain(p)]
        for dom in doms:
            new, ref = _side_points(dom), reference_side_points(dom)
            for field, a, b in zip(new._fields, new, ref):
                assert a.dtype == b.dtype and np.array_equal(a, b), (dom.name, field)

    def test_singular_side_jacobian_names_patch_and_first_point(self):
        # patch 1's south side collapses to a point: J is singular along it
        sides = {"west", "east", "south", "north"}
        collapsed = Patch(GeometryMap.bilinear((0.5, 1), (0.5, 1), (0, 2), (1, 2)), 1.0,
                          unit_square_patch(0, 1, 0, 1, 2, 1, sides).space)
        dom = MultiPatchDomain([unit_square_patch(0, 1, 0, 1, 2, 1, sides), collapsed],
                               [Interface(0, "north", (0.0, 1.0), 1, "south", (0.0, 1.0))])
        u0 = gauss_rule(3).mapped(0.0, 0.5)[0][0]  # the first Gauss point of the side
        for fn in (_side_points, reference_side_points):
            with pytest.raises(NumericalError) as err:
                fn(dom)
            assert str(err.value) == "singular Jacobian at parameter (%.6g, 0), patch 1" % u0

    def test_quadrature_consistency_polynomial(self):
        # the merged-breakpoint rule integrates a degree-2p+1 polynomial exactly
        dom = two_patch_domain(p=2, r=2)
        sp = _side_points(dom)
        at = sp.side == 0
        ts = sp.uv[at, sp.axis[at][0]]
        for deg in range(6):
            approx = np.sum(sp.weights[at] * ts**deg)
            exact = 1.0 / (deg + 1)  # unit-length straight edge
            assert approx == pytest.approx(exact, abs=1e-12)

    def test_normals_point_outward(self):
        dom = t_domain(degree=1, refinements=1)
        fixed = {"west": (0, 0.0), "east": (0, 1.0), "south": (1, 0.0), "north": (1, 1.0)}
        sp = _side_points(dom)
        seen = set()
        for s, ori in enumerate(oriented_interfaces(dom)):
            at = sp.side == s
            np.testing.assert_allclose(np.linalg.norm(sp.normals[at], axis=1), 1.0, rtol=1e-12)
            # each side is evaluated at its own parameter points, the fixed coordinate exact
            axis, value = fixed[ori.side_k]
            assert np.all(sp.uv[at, axis] == value) and np.all(sp.axis[at] == 1 - axis)
            breaks = reference_merged_partition(dom, ori)
            ts = gauss_rule(2).mapped(breaks[:-1, None], breaks[1:, None])[0].ravel()
            assert np.array_equal(sp.uv[at, 1 - axis], ts)
            assert np.array_equal(sp.ss[at], map_param(ori, ts))
            seen.add(ori.side_k)
        assert seen == set(fixed)

    @pytest.mark.parametrize("factory", [
        lambda: curved_two_patch_domain(p=3),
        lambda: reversed_two_patch_domain(p=3),
        lambda: mirrored_two_patch_domain(p=3),
        lambda: t_domain(degree=3, refinements=1),
        lambda: slider_domain(4, 0.37, degree=3, refinements=1),
    ], ids=["curved", "reversed", "mirrored", "tdomain", "slider(4,0.37)"])
    def test_inward_step_opposes_normal(self, factory):
        # at every quadrature point of every side, a step into the patch maps
        # to a physical step against the normal J^-T n_hat
        dom = factory()
        eps = 1e-3
        sp = _side_points(dom)
        for s, ori in enumerate(oriented_interfaces(dom)):
            geo = dom.patches[ori.k].geometry
            at = sp.side == s
            inward = sp.uv[at] - eps * side_normal_hat(ori.side_k)
            step = np.array([geo.jacobian_grid([a], [b])[0][0, 0] - geo.jacobian_grid([u], [v])[0][0, 0]
                             for (a, b), (u, v) in zip(inward, sp.uv[at])])
            cosine = np.sum(step * sp.normals[at], axis=1) / np.linalg.norm(step, axis=1)
            assert cosine.max() <= -0.9, (ori, cosine.max())


class TestLocalSystem:
    def test_no_neighbors_equals_volume(self):
        patch = unit_square_patch(0, 1, 0, 1, 2, 1, {"west", "east", "south", "north"})
        dom = MultiPatchDomain([patch], []).validate()
        sysk = local_systems(dom)[0]
        assert sysk.A.n == patch.space.dimension
        ev = np.linalg.eigvalsh(sysk.A.csr.toarray())
        assert ev[0] > 0

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_symmetry_on_tdomain(self, p):
        dom = t_domain(degree=p, refinements=1)
        for k in range(dom.num_patches):
            sysk = local_systems(dom)[k]
            A = sysk.A.csr
            asym = abs(A - A.T).max()
            assert asym <= 1e-12 * max(abs(A.max()), abs(A.min()))

    def test_floating_patch_constant_kernel(self):
        dom = two_patch_domain(p=2, r=1, dirichlet=False)
        sysk = local_systems(dom)[0]
        ones = np.ones(sysk.A.n)
        scale = abs(sysk.A.csr.max())
        np.testing.assert_allclose(sysk.A.csr @ ones, 0.0, atol=1e-12 * scale)

    def test_load_on_patch_dofs_only(self):
        dom = t_domain(degree=2, refinements=1)
        sysk = local_systems(dom, source=1.0)[0]
        n_patch = dom.patches[0].space.dimension
        assert sysk.f.size > n_patch
        assert np.all(sysk.f[n_patch:] == 0.0)
        assert np.any(sysk.f[:n_patch] != 0.0)

    def test_artificial_rows_have_no_volume_coupling(self):
        # artificial-artificial coupling comes from the interface block alone,
        # whose artificial-artificial part is the penalty term
        dom = two_patch_domain(p=2, r=1)
        copies = copy_map(dom)
        sysk = local_systems(dom)[0]
        block, idx, mats = assemble_interface_terms(dom, copies, 12.0)
        R = block_to_dense((idx[block == 0], mats[block == 0]), sysk.A.n)
        A = sysk.A.csr.toarray()
        art = slice(dom.patches[0].space.dimension, sysk.A.n)
        np.testing.assert_allclose(A[art, art], R[art, art], atol=1e-13 * np.abs(A).max())

    def test_alpha_scaling_equivariance(self):
        dom1 = two_patch_domain(p=2, r=1, alphas=(1.0, 3.0))
        dom2 = two_patch_domain(p=2, r=1, alphas=(5.0, 15.0))
        A1 = local_systems(dom1)[0].A.csr.toarray()
        A2 = local_systems(dom2)[0].A.csr.toarray()
        np.testing.assert_allclose(A2, 5.0 * A1, atol=1e-12 * np.abs(A2).max())

    @pytest.mark.parametrize("factory,label", [
        (lambda: t_domain(degree=2, refinements=1), "tdomain"),
        (lambda: two_patch_domain(p=3, r=1, dirichlet=False), "floating"),
    ])
    def test_coercivity_probe(self, rng, factory, label):
        dom = factory()
        for k in range(dom.num_patches):
            sysk = local_systems(dom)[k]
            A = sysk.A.csr
            scale = max(abs(A.max()), abs(A.min()))
            for _ in range(50):
                v = rng.standard_normal(sysk.A.n)
                quad = v @ (A @ v)
                assert quad >= -1e-10 * scale * (v @ v)


def split_systems(dom, terms=None):
    """The partition of `dom` and every block's `build_local_system` over it."""
    copies = copy_map(dom)
    partition = build_partition(dom, copies, select_primal(dom))
    terms = terms or assemble_interface_terms(dom, copies, 12.0)
    return partition, [build_local_system(dom, k, terms, partition) for k in range(dom.num_patches)]


def relative_gap(a, b):
    """max |a - b| / max |b| of two dense or sparse arrays of one shape; 0 for empty ones."""
    assert a.shape == b.shape
    a, b = (x.toarray() if scipy.sparse.issparse(x) else x for x in (a, b))
    return np.abs(a - b).max(initial=0.0) / max(np.abs(b).max(initial=0.0), 1e-300)


SPLIT_DOMAINS = [
    pytest.param(lambda a=args, p=p, r=r: builtin_domain(a[0], a[1:], degree=p, refinements=r),
                 id="%s-p%d-r%d" % (" ".join(args), p, r))
    for args in (("grid", "2"), ("tdomain",), ("slider", "3", "0.3"), ("slider", "4", "0.37"))
    for p in (1, 2, 3) for r in (0, 1, 2)
] + [
    pytest.param(lambda: MultiPatchDomain([single_patch(GeometryMap.bilinear(
        (2, 0), (0, 0), (2, 1), (0, 1)))], []).validate(), id="mirrored-patch"),
    pytest.param(mirrored_two_patch_domain, id="mirrored-two-patch"),
    pytest.param(lambda: nonuniform_config_domain(2, r=1), id="nonuniform"),
    pytest.param(curved_two_patch_domain, id="curved"),
    pytest.param(partial_interface_domain, id="partial"),
]


class TestSplitSystem:
    @pytest.mark.parametrize("factory", SPLIT_DOMAINS)
    def test_blocks_match_slices_of_the_extended_system(self, factory):
        # the blocks built straight onto (I, Gamma) are the index-set slices of
        # the full extended matrix that the solver no longer forms
        dom = factory()
        partition, splits = split_systems(dom)
        for k, (split, ref) in enumerate(zip(splits, local_systems(dom))):
            A, I, gamma = ref.A.csr, partition.interior[k], partition.gamma[k]
            assert split.k == k
            assert relative_gap(split.A_IG, A[I][:, gamma]) <= 1e-13
            assert relative_gap(split.A_GG, A[gamma][:, gamma].toarray()) <= 1e-13
            np.testing.assert_array_equal(split.f_I, ref.f[I])
            np.testing.assert_array_equal(split.f_G, ref.f[gamma])
            # the FD decision: an affine-diagonal map and an interior that is a full tensor lattice
            patch, lat = dom.patches[k], np.flatnonzero(dom.patches[k].space.free_mask)[I]
            rows, cols = np.divmod(lat, patch.space.n_v)
            lattice = (patch.geometry.affine_diagonal is not None and lat.size > 0
                       and np.unique(rows).size * np.unique(cols).size == lat.size)
            assert (split.A_II is None) == (split.fd is not None) == lattice
            if split.A_II is not None:
                assert relative_gap(split.A_II, A[I][:, I]) <= 1e-13

    @pytest.mark.parametrize("factory", SPLIT_DOMAINS)
    def test_no_interface_entry_couples_two_interior_dofs(self, factory):
        dom = factory()
        copies = copy_map(dom)
        partition = build_partition(dom, copies, select_primal(dom))
        block, idx, mats = assemble_interface_terms(dom, copies, 12.0)
        for k, I in enumerate(partition.interior):
            vals, (rows, cols) = block_triplets(idx[block == k], mats[block == k])
            interior = np.zeros(partition.offsets[k + 1] - partition.offsets[k], dtype=bool)
            interior[I] = True
            assert not np.any(vals[interior[rows] & interior[cols]])

    @pytest.mark.parametrize("where", ["interior", "edge", "corner"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_bad_band_entry_raises(self, monkeypatch, where, bad):
        # one band entry of patch 0, at every offset but the diagonal, made non-finite: in an
        # interior row (I rows only), at the edge or at the corner of the lattice
        dom = two_patch_domain(p=2, r=2)
        space, p = dom.patches[0].space, 2
        copies = copy_map(dom)
        partition = build_partition(dom, copies, select_primal(dom))
        terms = assemble_interface_terms(dom, copies, 12.0)
        i, j = {"interior": (space.n_u // 2, space.n_v // 2), "edge": (0, space.n_v // 2),
                "corner": (space.n_u - 1, space.n_v - 1)}[where]
        volume = assembly.assemble_volume
        for offset in np.ndindex(2 * p + 1, 2 * p + 1):
            if offset == (p, p):
                continue
            # the offset's partner row must lie in the lattice: mirror it where it does not
            a, b = (o if 0 <= x + o - p < n else 2 * p - o
                    for o, x, n in zip(offset, (i, j), (space.n_u, space.n_v)))

            def corrupted(patch, *args, **kwargs):
                band, load = volume(patch, *args, **kwargs)
                band[i, j, a, b] = bad
                return band, load

            monkeypatch.setattr(assembly, "assemble_volume", corrupted)
            with pytest.raises(NumericalError, match="symmetric matrix has non-finite entries"):
                build_local_system(dom, 0, terms, partition)

    @pytest.mark.parametrize("where", ["interior", "edge"])
    @pytest.mark.parametrize("which", [0, 1], ids=["K", "M"])
    def test_asymmetric_univariate_band_entry_raises(self, monkeypatch, which, where):
        # one entry of a knot vector's K or M, at every offset but the diagonal, moved off its
        # transposed partner as the 1D bands are computed: in an interior row or in the first
        p, fold = 2, assembly._span_fold
        n = refine_uniform(KnotVector.bernstein(p), 2).n
        i = {"interior": n // 2, "edge": 0}[where]
        for offset in range(2 * p + 1):
            if offset == p:
                continue
            d = offset if 0 <= i + offset - p < n else 2 * p - offset  # the partner row exists

            def corrupted(*args):
                out = fold(*args)
                out[which, i, d] += 1e-9 * np.abs(out[which]).max()
                return out

            monkeypatch.setattr(assembly, "_span_fold", corrupted)
            kv = refine_uniform(KnotVector.bernstein(p), 2)
            for _ in range(2):  # the knot vector keeps no unverified band: the second call raises too
                with pytest.raises(NumericalError, match="symmetric matrix has asymmetry"):
                    assembly._univariate_bands(kv)

    @pytest.mark.parametrize("where", ["interior", "edge", "corner"])
    def test_asymmetric_sum_factorized_band_entry_raises(self, monkeypatch, where):
        # one band entry of the curved patch, at every offset but the diagonal, moved off its
        # transposed partner as the band is contracted in v, where entry (i, j, a, b) is
        # (j, b, i (2p + 1) + a): in an interior row, at the edge or at the corner
        patch, p, fold = curved_two_patch_domain(p=2, r=2).patches[0], 2, assembly._span_fold
        n_u, n_v, bw = patch.space.n_u, patch.space.n_v, 2 * p + 1
        i, j = {"interior": (n_u // 2, n_v // 2), "edge": (0, n_v // 2),
                "corner": (n_u - 1, n_v - 1)}[where]
        for offset in np.ndindex(bw, bw):
            if offset == (p, p):
                continue
            a, b = (o if 0 <= x + o - p < n else 2 * p - o
                    for o, x, n in zip(offset, (i, j), (n_u, n_v)))

            def corrupted(*args):
                out = fold(*args)
                if out.ndim == 3 and out.shape[1] == bw:  # the band's v fold, not the load's
                    out[j, b, i * bw + a] += 1e-9 * np.abs(out).max()
                return out

            monkeypatch.setattr(assembly, "_span_fold", corrupted)
            with pytest.raises(NumericalError, match="symmetric matrix has asymmetry"):
                assemble_volume(patch)

    @pytest.mark.parametrize("factory", SPLIT_DOMAINS)
    def test_only_the_oracle_builds_a_sparse_sym(self, monkeypatch, factory):
        # a SuperLU block's A_II is a plain CSR of band rows verified where the band was built
        dom = factory()
        built, init = [], linalg.SparseSym.__init__
        monkeypatch.setattr(linalg.SparseSym, "__init__",
                            lambda self, matrix: built.append(matrix.shape) or init(self, matrix))
        setup_operator(dom)
        assert built == []
        refsolver.assemble_global(dom, 12.0)
        assert len(built) == 1

    def test_non_finite_interface_entry_raises(self):
        dom = two_patch_domain(p=2, r=1)
        block, idx, mats = assemble_interface_terms(dom, copy_map(dom), 12.0)
        mats = mats.copy()
        mats[np.flatnonzero(block == 1)[0], 0, 0] = np.nan
        with pytest.raises(NumericalError, match="symmetric matrix has non-finite entries"):
            split_systems(dom, (block, idx, mats))

    @pytest.mark.parametrize("row", ["interior", "skeleton"])
    def test_asymmetric_interface_entry_raises(self, row):
        # an interface entry that couples an interior dof with a skeleton dof, or its partner,
        # moved off the other: neither reaches the dense A_GG, whose check sees only Gamma rows
        dom = t_domain(degree=2, refinements=2)
        copies = copy_map(dom)
        partition = build_partition(dom, copies, select_primal(dom))
        block, idx, mats = assemble_interface_terms(dom, copies, 12.0)
        build_local_system(dom, 0, (block, idx, mats), partition)
        interior = np.zeros(partition.offsets[1], dtype=bool)
        interior[partition.interior[0]] = True
        at = np.flatnonzero(block == 0)
        rows, cols = idx[at, :, None], idx[at, None, :]
        j, a, b = np.argwhere((rows >= 0) & (cols >= 0) & interior[rows] & ~interior[cols]
                              & (mats[at] != 0))[0]
        j = at[j]
        if row == "skeleton":
            a, b = b, a
        mats = mats.copy()
        mats[j, a, b] *= 1.5
        with pytest.raises(NumericalError, match="symmetric matrix has asymmetry"):
            build_local_system(dom, 0, (block, idx, mats), partition)


def whole_domain_cases():
    """The built-ins at p=1..3, r=0..2 and the special domains, as pytest params."""
    cases = [pytest.param(lambda name=name, args=args, p=p, r=r: builtin_domain(name, args, p, r),
                          id="%s%s-p%d-r%d" % (name, args, p, r))
             for name, args in (("grid", (2,)), ("tdomain", ()), ("slider", (4, 0.3)))
             for p in (1, 2, 3) for r in (0, 1, 2)]
    return cases + [pytest.param(f, id=i) for f, i in (
        (lambda: reversed_two_patch_domain(p=2), "reversed"),
        (lambda: mirrored_two_patch_domain(p=2), "mirrored"),
        (lambda: curved_two_patch_domain(p=3, r=1), "curved"),
        # the curved side takes 3 Gauss points per sub-interval, its flip 2
        (lambda: curved_two_patch_domain(p=1, r=1), "curved-p1"),
        (lambda: nonuniform_config_domain(2, 1), "nonuniform"),
        (lambda: partial_interface_domain(), "partial"))]


class TestWholeDomainPasses:
    """The whole-domain passes against the loops they replaced (conftest)."""

    @pytest.mark.parametrize("factory", whole_domain_cases())
    def test_passes_match_loop_references(self, factory):
        dom = factory()
        new, ref = interface_side_terms(dom, 12.0), reference_interface_side_terms(dom, 12.0)
        for a, b in zip(new[:3], ref[:3]):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        mats, expected = new[3], ref[3]
        assert mats.shape == expected.shape and np.array_equal(mats, np.swapaxes(mats, 1, 2))
        assert np.all(np.abs(mats - expected).max(axis=(1, 2)) <= 1e-14 * np.abs(expected).max(axis=(1, 2)))
        copies = copy_map(dom)
        assert copies.dtype == reference_copy_map(dom).dtype and np.array_equal(copies, reference_copy_map(dom))
        block, idx, _ = assemble_interface_terms(dom, copies, 12.0)
        for a, b in zip((block, idx), reference_interface_dofs(dom, copies, *ref[:3])):
            assert np.array_equal(a, b)
        for a, b in zip(select_primal(dom), reference_select_primal(dom)):
            assert a.dtype == b.dtype and np.array_equal(a, b)

    @pytest.mark.parametrize("factory", whole_domain_cases())
    def test_degenerate_tjunctions_match_scalar_rule(self, factory):
        dom = factory()
        assert degenerate_tjunction_count(dom) == reference_degenerate_tjunction_count(dom)

    @pytest.mark.parametrize("offset,r", [(0.5, 1), (0.25, 2)])
    def test_degenerate_tjunctions_on_p1_sliders(self, offset, r):
        # the sliding line's T-junctions fall on knots of the long side, where one p = 1
        # function alone is positive
        dom = slider_domain(3, offset, degree=1, refinements=r)
        assert degenerate_tjunction_count(dom) == reference_degenerate_tjunction_count(dom) == 3

    def test_singular_on_two_owners_names_lowest_patch_first_point(self):
        # both sides of the interface collapse to the point (0.5, 1); side 0 is owned by patch 1,
        # so its points come first, but the error names patch 0's first bad point
        space = unit_square_patch(0, 1, 0, 1, 2, 1, set()).space
        low = Patch(GeometryMap.bilinear((0, 0), (1, 0), (0.5, 1), (0.5, 1)), 1.0, space)
        high = Patch(GeometryMap.bilinear((0.5, 1), (0.5, 1), (0, 2), (1, 2)), 1.0, space)
        dom = MultiPatchDomain([low, high], [Interface(1, "south", (0.0, 1.0), 0, "north", (0.0, 1.0))])
        u0 = gauss_rule(3).mapped(0.0, 0.5)[0][0]
        for fn in (_side_points, reference_side_points):
            with pytest.raises(NumericalError) as err:
                fn(dom)
            assert str(err.value) == "singular Jacobian at parameter (%.6g, 1), patch 0" % u0

    @pytest.mark.parametrize("factory", [lambda: t_domain(degree=2, refinements=1),
                                         lambda: slider_domain(4, 0.3, degree=3, refinements=2)],
                             ids=["tdomain", "slider(4,0.3)"])
    def test_one_note_per_dirichlet_candidate(self, caplog, factory):
        dom, notes = factory(), []
        reference_select_primal(dom, lambda *args: notes.append(
            "patch %d: basis (%d, %d) at vertex %s is Dirichlet-constrained, not a primal dof" % args))
        with caplog.at_level("INFO", logger="ietidg.ieti"):
            select_primal(dom)
        assert notes and [r.getMessage() for r in caplog.records] == notes
