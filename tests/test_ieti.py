import numpy as np
import pytest
import scipy.sparse

from ietidg.assembly import assemble_interface_terms, build_local_system, copy_map, univariate_matrices
from ietidg.bspline import (KnotVector, TensorSplineSpace, eval_basis, greville_points,
                            refine_uniform)
from ietidg.domains import builtin_domain, grid_domain, slider_domain, t_domain
from ietidg.errors import NumericalError
from ietidg.geometry import GeometryMap, Interface, MultiPatchDomain, Patch
from ietidg.ieti import (
    PrimalSources,
    build_jump_matrices,
    build_partition,
    build_psi,
    degenerate_tjunction_count,
    lambda_factor,
    pcg_solve,
    select_primal,
    setup_operator,
    solve_ieti,
)
from ietidg import refsolver
from ietidg.linalg import Factorization, factorize

from conftest import (NO_PRIMAL, ReferenceSolvePhase, at, check_lemma_bbt, curved_geometry,
                      curved_two_patch_domain, dual_rows, full_jump_columns, jump_matrix,
                      local_systems, nonuniform_config_domain, primal_dofs, project_wtilde,
                      psi_residual, reversed_two_patch_domain, trace_dofs, two_patch_domain,
                      unit_square_patch, vertex_records)


def build_stack(domain):
    """The primal sources, the partition and the jump matrices of `domain`; nothing assembled."""
    sources = select_primal(domain)
    partition = build_partition(domain, copy_map(domain), sources)
    return sources, partition, build_jump_matrices(domain, partition)


def members(domain, sources):
    """(block, extended dof) pairs that share each source's coarse coefficient."""
    partition = build_partition(domain, copy_map(domain), sources)
    return [[(k, int(d)) for k, gk in enumerate(partition.primal_global)
             for d in primal_dofs(partition, k)[gk == gi]] for gi in range(sources.dof.size)]


def dense_F(op):
    n = op.n_rows
    return np.column_stack([op.apply_F(np.eye(n)[:, i]) for i in range(n)])


def dense_MsD(op):
    n = op.n_rows
    return np.column_stack([op.apply_MsD(np.eye(n)[:, i]) for i in range(n)])


def dense_schur(op, sysk):
    """The Schur complement of block ``sysk.k`` by dense elimination of its interior."""
    A = sysk.A.csr.toarray()
    gam, I = op.partition.gamma[sysk.k], op.partition.interior[sysk.k]
    return A[np.ix_(gam, gam)] - A[np.ix_(gam, I)] @ np.linalg.solve(
        A[np.ix_(I, I)], A[np.ix_(I, gam)])


def constrained_system(dom, op):
    """The primal-constrained system ``(A~, B~, f~)``, assembled densely from the local systems.

    Its unknowns are every block's (I, Delta) dofs, block after block, then
    the global primal dofs; each copy of a primal dof maps onto its coarse index.
    """
    part = op.partition
    tilde = [np.concatenate([I, dual]) for I, dual in zip(part.interior, part.dual)]
    offsets = np.cumsum([0] + [t.size for t in tilde])
    n = offsets[-1] + op.n_primal
    A, B, f = np.zeros((n, n)), np.zeros((op.n_rows, n)), np.zeros(n)
    locals_ = local_systems(dom)
    for k, (sysk, Bk) in enumerate(zip(locals_, full_jump_columns(op.jumps, part))):
        col = np.empty(sysk.A.n, dtype=int)
        col[tilde[k]] = offsets[k] + np.arange(tilde[k].size)
        col[primal_dofs(part, k)] = offsets[-1] + part.primal_global[k]
        R = np.eye(n)[col]
        A += R.T @ sysk.A.csr.toarray() @ R
        B += Bk @ R
        f += R.T @ sysk.f
    return A, B, f


class TestSelectPrimal:
    def test_regular_four_patch_corner(self):
        dom = grid_domain(2, degree=2, refinements=1)
        sources = select_primal(dom)
        # one source per patch at the single interior vertex, each shared by >= 2 dofs
        assert sources.dof.size == 4
        assert set(sources.patch.tolist()) == {0, 1, 2, 3}
        for group_members in members(dom, sources):
            assert len(group_members) >= 2

    def test_tjunction_fat_vertex(self):
        # long side contributes the functions positive at the junction
        # parameter, computed by evaluation; the two short sides contribute
        # their corner functions
        dom = t_domain(degree=2, refinements=2)
        sources = select_primal(dom)
        tj_vertex = next(i for i, v in enumerate(vertex_records(dom.vertices)) if v.long_patches)
        tj = sources.vertex == tj_vertex
        long_side = np.flatnonzero(tj & (sources.patch == 0))
        space = dom.patches[0].space
        _, (tab,) = eval_basis(space.kv_u, [0.4])
        expected_long = int(np.sum(tab[0] > 0.0))
        assert len(long_side) == expected_long == space.degree + 1
        short = np.flatnonzero(tj & np.isin(sources.patch, (1, 2)))
        assert len(short) == 2
        # long-side sources have copies on both sub-interfaces
        group_members = members(dom, sources)
        for gi in long_side:
            assert len(group_members[gi]) == 3

    def test_single_patch_empty(self):
        patch = unit_square_patch(0, 1, 0, 1, 2, 1, {"west", "east", "south", "north"})
        dom = MultiPatchDomain([patch], []).validate()
        assert [a.size for a in select_primal(dom)] == [0, 0, 0]

    def test_dirichlet_candidates_dropped(self, caplog):
        # at refinement 1 the long-side function at the west edge is
        # constrained and must not become primal
        dom = t_domain(degree=2, refinements=1)
        sources = select_primal(dom)
        assert np.all(sources.dof >= 0)
        tj_vertex = next(i for i, v in enumerate(vertex_records(dom.vertices)) if v.long_patches)
        long_side = (sources.vertex == tj_vertex) & (sources.patch == 0)
        assert np.count_nonzero(long_side) == 2  # one of the three candidates is constrained

    def test_groups_disjoint(self):
        for factory in (lambda: t_domain(degree=3, refinements=1),
                        lambda: slider_domain(3, 0.3, degree=2, refinements=1)):
            dom = factory()
            sources = select_primal(dom)
            seen = set()
            for source, group_members in zip(zip(sources.patch.tolist(), sources.dof.tolist()),
                                             members(dom, sources)):
                assert source in group_members
                for member in group_members:
                    assert member not in seen
                    seen.add(member)

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_primal_members_positive_at_vertex(self, p):
        dom = t_domain(degree=p, refinements=2)
        for v_idx, patch, dof in zip(*(a.tolist() for a in select_primal(dom))):
            vertex = vertex_records(dom.vertices)[v_idx]
            loc = dict(vertex.adjacency)[patch]
            space = dom.patches[patch].space
            i, j = np.argwhere(space.dof_map == dof)[0]
            (fu,), (tu,) = eval_basis(space.kv_u, [loc[0]])
            (fv,), (tv,) = eval_basis(space.kv_v, [loc[1]])
            val_u = tu[0][i - fu] if fu <= i <= fu + space.degree else 0.0
            val_v = tv[0][j - fv] if fv <= j <= fv + space.degree else 0.0
            assert val_u * val_v > 0.0


class TestCopyMap:
    @pytest.mark.parametrize("factory", [
        lambda: t_domain(degree=2, refinements=1),
        lambda: slider_domain(3, 0.3, degree=3, refinements=1),
        lambda: reversed_two_patch_domain(p=2),
    ])
    def test_one_row_per_artificial_dof(self, factory):
        # every artificial dof appears once, paired with the neighbor's trace
        # on that side in trace_dofs order; each block numbers its
        # copies on from its dimension, one contiguous run per interface in
        # increasing interface order
        dom = factory()
        copies = copy_map(dom)
        dims = [patch.space.dimension for patch in dom.patches]
        for k, n_patch in enumerate(dims):
            mine = copies[copies[:, 3] == k]
            np.testing.assert_array_equal(mine[:, 4], n_patch + np.arange(len(mine)))
            assert np.all(np.diff(mine[:, 0]) >= 0)
            touching = [i for i, g in enumerate(dom.interfaces) if k in (g.k, g.l)]
            assert np.unique(mine[:, 0]).tolist() == touching
            for i in touching:
                g = dom.interfaces[i]
                src, side, prange = (g.l, g.side_l, g.range_l) if g.k == k else (g.k, g.side_k, g.range_k)
                rows = mine[mine[:, 0] == i]
                assert np.all(rows[:, 1] == src)
                sources = trace_dofs(dom.patches[src].space, side, prange).tolist()
                assert rows[:, 2].tolist() == sources
                assert np.all(rows[:, 2] < dims[src])

    def test_primal_source_off_the_skeleton_rejected(self):
        # an interior function cannot be a fat-vertex dof
        dom = two_patch_domain(p=2, r=2)
        copies = copy_map(dom)
        interior = build_partition(dom, copies, NO_PRIMAL).interior[0]
        source = PrimalSources(np.array([0]), np.array([0]), interior[:1])
        with pytest.raises(NumericalError, match="block 0: primal dof outside the trace-active set"):
            build_partition(dom, copies, source)


class TestJumpMatrices:
    def test_two_patch_structure_without_primal(self):
        # every matched (trace, copy) pair gets one +1/-1 row; each side of
        # the interface contributes its own pairs
        dom = two_patch_domain(p=1, r=0, dirichlet=False)
        partition = build_partition(dom, copy_map(dom), NO_PRIMAL)
        jumps = build_jump_matrices(dom, partition)
        assert jumps.plus.size == 4
        B = np.hstack(full_jump_columns(jumps, partition))
        for row in B:
            assert sorted(row[row != 0]) == [-1.0, 1.0]
        col_counts = (B != 0).sum(axis=0)
        assert set(col_counts[col_counts > 0]) == {1}

    def test_two_patch_all_primal_no_rows(self):
        # p = 1, one span: all trace dofs sit at the corners, so the fat
        # vertices swallow every pair and no multipliers remain
        dom = two_patch_domain(p=1, r=0, dirichlet=False)
        sources, partition, jumps = build_stack(dom)
        assert sources.dof.size == 4
        assert jumps.plus.size == 0

    def test_thin_vertex_rejected(self):
        # without primal dofs, the corner functions at the cross point are
        # copied across two interfaces each and would sit in two rows
        dom = grid_domain(2, degree=2, refinements=1)
        partition = build_partition(dom, copy_map(dom), NO_PRIMAL)
        with pytest.raises(NumericalError, match="dof matched by two constraints"):
            build_jump_matrices(dom, partition)

    @pytest.mark.parametrize("factory", [
        lambda: t_domain(degree=2, refinements=2),
        lambda: slider_domain(3, 0.3, degree=2, refinements=2),
        lambda: reversed_two_patch_domain(p=2),
    ])
    def test_multiplier_order(self, factory):
        # each row pairs a source with its copy in the neighbor's block;
        # rows run by interface, the k -> l side first, then by position in
        # the source side's trace_dofs order
        dom = factory()
        _, partition, jumps = build_stack(dom)
        Bs = full_jump_columns(jumps, partition)
        keys = []
        for row, (iface, src, sdof, dst, copy) in enumerate(dual_rows(partition)):
            assert Bs[src][row, sdof] == 1.0 and Bs[dst][row, copy] == -1.0
            g = dom.interfaces[iface]
            side, prange, nb = (g.side_k, g.range_k, g.l) if src == g.k else (g.side_l, g.range_l, g.k)
            assert dst == nb
            sources = trace_dofs(dom.patches[src].space, side, prange).tolist()
            keys.append((iface, src != g.k, sources.index(sdof)))
        assert len(keys) == jumps.plus.size > 0
        assert keys == sorted(keys)

    def test_coefficient_scaling_entries(self):
        dom = two_patch_domain(p=1, r=1, alphas=(1.0, 1e4))
        _, partition, jumps = build_stack(dom)
        assert jumps.D.size == jumps.offsets[-1] == sum(partition.gamma[k].size for k in range(2))
        for k, expected in ((0, (1.0 + 1e4) / 1e4), (1, (1e4 + 1.0) / 1.0)):
            D = jumps.D[jumps.block(k)]
            assert D.size == partition.gamma[k].size > 0
            np.testing.assert_allclose(D, expected)

    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("factory", [
        lambda p: grid_domain(2, degree=p, refinements=2),
        lambda p: t_domain(degree=p, refinements=2),
        lambda p: slider_domain(3, 0.3, degree=p, refinements=2),
    ])
    def test_structure_invariants_all_builtins(self, p, factory):
        dom = factory(p)
        _, partition, jumps = build_stack(dom)
        Bs = full_jump_columns(jumps, partition)
        B = np.hstack(Bs)
        for row in B:
            nz = row[row != 0]
            assert sorted(nz) == [-1.0, 1.0]
        col_counts = (B != 0).sum(axis=0)
        assert np.all(col_counts <= 1)
        # interior and primal columns are structurally zero
        for k in range(dom.num_patches):
            full = Bs[k]
            for dof in partition.interior[k]:
                assert not full[:, dof].any()
            for dof in primal_dofs(partition, k):
                assert not full[:, dof].any()
            # every dual column carries exactly one entry
            for dof in partition.dual[k]:
                assert (full[:, dof] != 0).sum() == 1

    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("factory", [
        lambda p: grid_domain(2, degree=p, refinements=2),
        lambda p: t_domain(degree=p, refinements=2),
        lambda p: slider_domain(3, 0.3, degree=p, refinements=2),
        lambda p: nonuniform_config_domain(p),
    ])
    def test_rows_and_signs_pair_patch_dof_with_copy(self, rng, p, factory):
        # every multiplier meets two dual dofs of the skeleton vector: +1 (plus)
        # on a patch dof, -1 (minus) on a copy in another block; apply and
        # transpose equal the products with the materialized B_k
        dom = factory(p)
        _, partition, jumps = build_stack(dom)
        assert jumps.minus.size == jumps.plus.size > 0
        gammas = [partition.gamma[k] for k in range(dom.num_patches)]
        assert np.array_equal(jumps.offsets, np.cumsum([0] + [g.size for g in gammas]))
        on_patch = np.concatenate([g < patch.space.dimension for g, patch in zip(gammas, dom.patches)])
        dual = np.concatenate([np.arange(g.size) < partition.dual[k].size
                               for k, g in enumerate(gammas)])
        assert np.array_equal(np.bincount(np.concatenate([jumps.plus, jumps.minus]),
                                          minlength=dual.size), dual)
        assert on_patch[jumps.plus].all() and not on_patch[jumps.minus].any()
        owner = np.repeat(np.arange(dom.num_patches), np.diff(jumps.offsets))
        assert np.all(owner[jumps.plus] != owner[jumps.minus])
        Bs = [jump_matrix(jumps, k) for k in range(dom.num_patches)]
        u = rng.standard_normal(jumps.offsets[-1])
        lam = rng.standard_normal(jumps.plus.size)
        assert np.array_equal(jumps.apply(u), sum((B @ u[jumps.block(k)] for k, B in enumerate(Bs)),
                                                  np.zeros(jumps.plus.size)))
        t = jumps.transpose(lam)
        for k, B in enumerate(Bs):
            assert np.array_equal(t[jumps.block(k)], B.T @ lam)

    @pytest.mark.parametrize("factory", [
        lambda: t_domain(degree=2, refinements=2),
        lambda: slider_domain(3, 0.3, degree=2, refinements=2),
    ])
    def test_column_slices_match_direct_build(self, factory):
        # jump_matrix equals the matrix built straight from the constraint pairs
        # over the (Delta, Pi) columns
        dom = factory()
        _, partition, jumps = build_stack(dom)
        entries = [[] for _ in range(dom.num_patches)]
        for row, (_, k, dof_k, l, dof_l) in enumerate(dual_rows(partition)):
            entries[k].append((row, dof_k, 1.0))
            entries[l].append((row, dof_l, -1.0))
        for k in range(dom.num_patches):
            index, sliced = partition.gamma[k], jump_matrix(jumps, k)
            pos = -np.ones(partition.offsets[k + 1] - partition.offsets[k], dtype=int)
            pos[index] = np.arange(index.size)
            rr, cc, vv = zip(*[(r, pos[d], s) for r, d, s in entries[k]])
            direct = scipy.sparse.csr_matrix((vv, (rr, cc)), shape=(jumps.plus.size, index.size))
            assert sliced.shape == direct.shape
            assert sliced.nnz == direct.nnz
            assert (sliced != direct).nnz == 0


class TestOperator:
    def test_build_psi_standalone(self):
        dom = t_domain(degree=2, refinements=1)
        _, partition, jumps = build_stack(dom)
        split = build_local_system(dom, 0, assemble_interface_terms(dom, partition.copies, 12.0),
                                   partition)
        A = local_systems(dom)[0].A.csr.toarray()
        I, dual, P = partition.interior[0], partition.dual[0], primal_dofs(partition, 0)
        blk = build_psi(split, partition)
        assert blk.psi.shape == (dual.size + P.size, P.size)
        np.testing.assert_allclose(blk.psi[dual.size:], np.eye(P.size), atol=0)
        # extend Psi by its dense interior solve: the (I, Delta) rows of A Psi vanish
        psi, gamma = np.zeros((A.shape[0], P.size)), partition.gamma[0]
        psi[gamma] = blk.psi
        psi[I] = -np.linalg.solve(A[np.ix_(I, I)], A[np.ix_(I, gamma)] @ blk.psi)
        res = (A @ psi)[np.concatenate([I, dual])]
        scale = abs(A.max())
        assert np.abs(res).max() <= 1e-9 * scale

    def test_psi_identity_rows_and_residual(self):
        dom = t_domain(degree=2, refinements=1, alphas=[1, 10, 100, 1, 10])
        op = setup_operator(dom)
        for k, blk in enumerate(op.blocks):
            P = primal_dofs(op.partition, k)
            if P.size:
                np.testing.assert_allclose(blk.psi[op.partition.dual[k].size:], np.eye(P.size), atol=0)
            assert psi_residual(op, k) <= 1e-9

    def test_psi_empty_without_primal(self):
        patch = unit_square_patch(0, 1, 0, 1, 2, 1, {"west", "east", "south", "north"})
        dom = MultiPatchDomain([patch], []).validate()
        op = setup_operator(dom)
        assert op.blocks[0].psi.shape[1] == 0
        assert op.n_rows == 0

    def test_apply_F_linear_zero(self):
        dom = t_domain(degree=2, refinements=1)
        op = setup_operator(dom)
        np.testing.assert_allclose(op.apply_F(np.zeros(op.n_rows)), 0.0)
        np.testing.assert_allclose(op.apply_MsD(np.zeros(op.n_rows)), 0.0)

    @pytest.mark.parametrize("factory", [
        lambda: two_patch_domain(p=1, r=1),
        lambda: t_domain(degree=2, refinements=1, alphas=[1, 10, 100, 1, 10]),
    ])
    def test_randomized_symmetry(self, rng, factory):
        dom = factory()
        op = setup_operator(dom)
        for _ in range(20):
            x = rng.standard_normal(op.n_rows)
            y = rng.standard_normal(op.n_rows)
            fx, fy = op.apply_F(x), op.apply_F(y)
            scale = np.linalg.norm(fx) * np.linalg.norm(y) + 1e-300
            assert abs(y @ fx - x @ fy) <= 1e-9 * scale
            mx, my = op.apply_MsD(x), op.apply_MsD(y)
            scale = np.linalg.norm(mx) * np.linalg.norm(y) + 1e-300
            assert abs(y @ mx - x @ my) <= 1e-9 * scale

    def test_dense_saddle_oracle(self):
        # eliminate the primal-constrained system assembled from the raw
        # blocks and compare column by column with the operator application
        dom = two_patch_domain(p=1, r=1)
        op = setup_operator(dom)
        A, B, f = constrained_system(dom, op)
        F_ref = B @ np.linalg.solve(A, B.T)
        np.testing.assert_allclose(dense_F(op), F_ref, atol=1e-10 * np.abs(F_ref).max())
        d_ref = B @ np.linalg.solve(A, f)
        np.testing.assert_allclose(op.compute_d(), d_ref, atol=1e-10 * np.abs(d_ref).max())

    def test_dense_saddle_oracle_with_primal(self):
        dom = t_domain(degree=2, refinements=1, alphas=[1, 10, 100, 1, 10])
        op = setup_operator(dom)
        assert op.n_primal
        A, B, _ = constrained_system(dom, op)
        F_ref = B @ np.linalg.solve(A, B.T)
        np.testing.assert_allclose(dense_F(op), F_ref, atol=1e-10 * np.abs(F_ref).max())

    @pytest.mark.parametrize("factory", [
        pytest.param(lambda f=f, p=p: f(p), id="%s-p%d" % (name, p))
        for name, f in (("grid2x2", lambda p: grid_domain(2, degree=p, refinements=2)),
                        ("tdomain", lambda p: t_domain(degree=p, refinements=2)),
                        ("slider(3,0.3)", lambda p: slider_domain(3, 0.3, degree=p, refinements=2)))
        for p in (1, 2, 3)
    ] + [
        pytest.param(lambda: curved_two_patch_domain(), id="curved"),
        pytest.param(lambda: nonuniform_config_domain(2), id="nonuniform"),
        pytest.param(lambda: partial_interface_domain(), id="partial"),
    ])
    def test_schur_against_dense_elimination(self, factory):
        dom = factory()
        op = setup_operator(dom)
        for sysk, blk in zip(local_systems(dom), op.blocks):
            S_ref = dense_schur(op, sysk)
            assert np.abs(blk.S - S_ref).max() <= 1e-12 * np.abs(S_ref).max()

    @pytest.mark.parametrize("factory", [
        pytest.param(lambda: t_domain(degree=2, refinements=4), id="tdomain-p2-r4"),
        # at r=4 the flop rule sends every p=3 block down the generic formula
        pytest.param(lambda: t_domain(degree=3, refinements=5), id="tdomain-p3-r5"),
        pytest.param(lambda: nonuniform_config_domain(2, r=2), id="nonuniform"),
        pytest.param(lambda: partial_interface_domain(r=4), id="partial"),
        # every skeleton row in the south/north band: no column group
        pytest.param(lambda: stacked_two_patch_domain(r=4), id="stacked"),
    ])
    def test_separable_schur(self, monkeypatch, factory):
        # an FD block whose factorization never reaches Factorization.schur
        # formed S from the boundary band of its 1D eigenbases
        generic = []
        formula = Factorization.schur
        monkeypatch.setattr(Factorization, "schur",
                            lambda fac, B: generic.append(fac) or formula(fac, B))
        dom = factory()
        op = setup_operator(dom)
        separable = [k for k, blk in enumerate(op.blocks)
                     if blk.interior_fd and all(fac is not blk.aii_fac for fac in generic)]
        assert separable
        locals_ = local_systems(dom)
        for k in separable:
            blk = op.blocks[k]
            S_ref = dense_schur(op, locals_[k])
            assert np.abs(blk.S - S_ref).max() <= 1e-12 * np.abs(S_ref).max()
            reference = formula(blk.aii_fac, blk.A_IG)
            assert np.abs(blk.aii_fac.schur(blk.A_IG) - reference).max() <= 1e-13 * np.abs(
                reference).max()
            gam = op.partition.gamma[k]
            S_gen = locals_[k].A.csr.toarray()[np.ix_(gam, gam)] - reference
            assert np.abs(blk.S - S_gen).max() <= 1e-13 * np.abs(S_gen).max()

    def test_equal_alpha_preconditioner_formula(self):
        # with all alphas equal, D = 2 I and M_sD = (1/4) B_Gamma S B_Gamma^T
        dom = t_domain(degree=2, refinements=1)
        op = setup_operator(dom)
        np.testing.assert_allclose(op.jumps.D, 2.0)
        n = op.n_rows
        raw = np.zeros((n, n))
        for i in range(n):
            e = np.zeros(n)
            e[i] = 1.0
            acc = np.zeros(n)
            for k in range(dom.num_patches):
                Bg = jump_matrix(op.jumps, k)
                acc += Bg @ (op.blocks[k].S @ (Bg.T @ e))
            raw[:, i] = acc
        np.testing.assert_allclose(dense_MsD(op), 0.25 * raw, atol=1e-12 * np.abs(raw).max())

    def test_primal_scaling_entries_inert(self, rng):
        # the D entries on primal columns multiply zero rows of B_Gamma
        dom = t_domain(degree=2, refinements=1, alphas=[1, 10, 100, 1, 10])
        op = setup_operator(dom)
        mu = rng.standard_normal(op.n_rows)
        before = op.apply_MsD(mu)
        for k in range(dom.num_patches):
            gam = op.partition.gamma[k]
            pg = {dof: i for i, dof in enumerate(gam)}
            for dof in primal_dofs(op.partition, k):
                op.jumps.D[op.jumps.block(k)][pg[dof]] *= 7.3
        after = op.apply_MsD(mu)
        np.testing.assert_allclose(after, before, rtol=0, atol=1e-12 * np.abs(before).max())
        # the same mutation on a Delta entry reaches apply_MsD: D is the array it reads
        k = next(k for k, dual in enumerate(op.partition.dual) if dual.size)
        op.jumps.D[op.jumps.block(k)][0] *= 7.3
        assert np.abs(op.apply_MsD(mu) - before).max() > 1e-3 * np.abs(before).max()


class TestSkeletonVector:
    """F, d, M_sD and the recovery on the skeleton vector against the per-block loops."""

    @pytest.mark.parametrize("factory", [
        pytest.param(lambda name=name, args=args, p=p, r=r: builtin_domain(
            name, args, degree=p, refinements=r), id="%s-p%d-r%d" % (label, p, r))
        for label, name, args in (("grid2", "grid", ["2"]), ("tdomain", "tdomain", []),
                                  ("slider(3,0.3)", "slider", ["3", "0.3"]),
                                  ("slider(4,0.37)", "slider", ["4", "0.37"]))
        for p in (1, 2, 3) for r in (0, 1, 2)
    ] + [
        pytest.param(lambda: nonuniform_config_domain(2, r=1), id="nonuniform"),
        pytest.param(lambda: curved_two_patch_domain(), id="curved"),
        pytest.param(lambda: t_domain(degree=2, refinements=2, jump_exponent=4), id="jump"),
    ])
    def test_matches_per_block_loops(self, rng, factory):
        op = setup_operator(factory())
        ref = ReferenceSolvePhase(op)

        def close(a, b, scale=None):
            assert a.shape == b.shape
            scale = np.abs(b).max(initial=0.0) if scale is None else scale
            assert np.abs(a - b).max(initial=0.0) <= 1e-14 * scale

        lam = rng.standard_normal(op.n_rows)
        r = rng.standard_normal(op.jumps.offsets[-1])
        close(op.solve_constrained(r), np.concatenate(ref.solve_constrained(
            [r[op.jumps.block(k)] for k in range(len(op.blocks))])))
        close(op.apply_F(lam), ref.apply_F(lam))
        close(op.apply_MsD(lam), ref.apply_MsD(lam))
        # d is the jump of the nearly continuous S~^{-1} g: compared at that function's scale
        u = ref.solve_constrained([blk.g for blk in op.blocks])
        close(op.compute_d(), ref.compute_d(), np.abs(np.concatenate(u)).max())
        close(np.concatenate(op.recover_solution(lam)), np.concatenate(ref.recover_solution(lam)))


class TestSolve:
    def test_zero_rhs_zero_iterations(self):
        dom = t_domain(degree=2, refinements=1)
        op = setup_operator(dom, source=0.0)
        d = op.compute_d()
        np.testing.assert_allclose(d, 0.0, atol=1e-14)
        res = pcg_solve(op, np.zeros(op.n_rows))
        assert res.iterations == 0
        u = op.recover_solution(res.x)
        for vec in u:
            np.testing.assert_allclose(vec, 0.0, atol=1e-12)

    @pytest.mark.parametrize("factory", [
        lambda: t_domain(degree=2, refinements=2, jump_exponent=4),
        lambda: slider_domain(3, 0.3, degree=2, refinements=2),
    ])
    def test_recovery_solves_primal_constrained_system(self, rng, factory):
        # u = A~^{-1} (f - B^T lam) for any lam: the block residuals
        # A_k u_k - f_k + B_k^T lam vanish on the (I, Delta) rows, their
        # sum over the copies of each primal dof vanishes, and u is
        # continuous at the primal dofs
        dom = factory()
        op = setup_operator(dom)
        lam = rng.standard_normal(op.n_rows)
        u = op.recover_solution(lam)
        w = np.zeros(op.n_primal)
        w_scale = np.zeros(op.n_primal)
        Bs = full_jump_columns(op.jumps, op.partition)
        for k, sysk in enumerate(local_systems(dom)):
            terms = (sysk.A.csr @ u[k], -sysk.f, Bs[k].T @ lam)
            resid = sum(terms)
            scale = sum(np.abs(t) for t in terms)
            tilde = np.concatenate([op.partition.interior[k], op.partition.dual[k]])
            assert np.abs(resid[tilde]).max() <= 1e-12 * scale.max()
            P = primal_dofs(op.partition, k)
            np.add.at(w, op.partition.primal_global[k], resid[P])
            np.add.at(w_scale, op.partition.primal_global[k], scale[P])
        assert op.n_primal and np.abs(w).max() <= 1e-12 * w_scale.max()
        for projected, uk in zip(project_wtilde(op, u), u):
            np.testing.assert_allclose(projected, uk, rtol=1e-14, atol=0)

    def test_constraint_residual_after_solve(self):
        dom = slider_domain(3, 0.3, degree=2, refinements=2)
        sol = solve_ieti(dom, tol=1e-10)
        op = setup_operator(dom)
        resid = np.zeros(op.n_rows)
        for k in range(dom.num_patches):
            gam = op.partition.gamma[k]
            resid += jump_matrix(op.jumps, k) @ sol.u_blocks[k][gam]
        scale = max(np.abs(np.concatenate(sol.u_blocks)).max(), 1.0)
        assert np.abs(resid).max() <= 1e-8 * scale

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_oracle_equivalence_tdomain(self, p):
        dom = t_domain(degree=p, refinements=1, alphas=[1, 10, 100, 1, 10])
        sol = solve_ieti(dom, tol=1e-10)
        system = refsolver.assemble_global(dom, 12.0)
        direct = refsolver.split_solution(system, refsolver.direct_solve(system))
        scale = max(np.abs(np.concatenate(direct)).max(), 1e-300)
        for a, b in zip(sol.u_patches, direct):
            assert np.abs(a - b).max() <= 1e-6 * scale

    def test_reversed_interface_solve(self):
        # orientation-reversed coupling must give the same physical solution
        kv = refine_uniform(KnotVector.bernstein(2), 1)
        flipped = GeometryMap.bilinear((1, 1), (2, 1), (1, 0), (2, 0))
        patches = [
            unit_square_patch(0, 1, 0, 1, 2, 1, {"west", "south", "north"}),
            Patch(flipped, 1.0, TensorSplineSpace(kv, kv, {"east", "south", "north"})),
        ]
        dom = MultiPatchDomain(
            patches, [Interface(0, "east", (0.0, 1.0), 1, "west", (0.0, 1.0), reversed_=True)]
        ).validate()
        sol = solve_ieti(dom, tol=1e-10)
        system = refsolver.assemble_global(dom, 12.0)
        direct = refsolver.split_solution(system, refsolver.direct_solve(system))
        scale = np.abs(np.concatenate(direct)).max()
        for a, b in zip(sol.u_patches, direct):
            assert np.abs(a - b).max() <= 1e-6 * scale

    def test_alpha_rescaling_invariance(self):
        s1 = solve_ieti(t_domain(degree=2, refinements=1, alphas=[1, 10, 100, 1, 10]), tol=1e-8)
        s2 = solve_ieti(t_domain(degree=2, refinements=1,
                                 alphas=[7, 70, 700, 7, 70]), tol=1e-8)
        assert s1.report.iterations == s2.report.iterations
        assert s1.report.kappa == pytest.approx(s2.report.kappa, rel=1e-9)

    def test_single_patch_degenerates_to_direct(self):
        patch = unit_square_patch(0, 1, 0, 1, 2, 2, {"west", "east", "south", "north"})
        dom = MultiPatchDomain([patch], []).validate()
        sol = solve_ieti(dom, tol=1e-10)
        system = refsolver.assemble_global(dom, 12.0)
        direct = refsolver.split_solution(system, refsolver.direct_solve(system))
        np.testing.assert_allclose(sol.u_patches[0], direct[0], atol=1e-10)

    def test_report_fields(self):
        dom = t_domain(degree=2, refinements=1)
        sol = solve_ieti(dom, tol=1e-8, refinement=1)
        rep = sol.report
        assert rep.iterations >= 1
        assert rep.kappa >= 1.0
        assert rep.converged
        assert rep.lambda_factor == pytest.approx(lambda_factor(dom))
        row = rep.csv_row()
        assert len(row) == len(rep.CSV_COLUMNS)
        blob = rep.to_json_dict()
        assert blob["multipliers"] == rep.multipliers


class TestLemma:
    def test_zero_for_matched_pairs(self):
        dom = t_domain(degree=2, refinements=1)
        op = setup_operator(dom)
        u = [np.ones(n) for n in np.diff(op.partition.offsets)]
        gam_vals = check_lemma_bbt(dom, op, u)
        assert gam_vals <= 1e-15

    def test_half_jump_for_equal_alpha(self, rng):
        dom = two_patch_domain(p=1, r=1)
        op = setup_operator(dom)
        u = project_wtilde(op, [rng.standard_normal(n) for n in np.diff(op.partition.offsets)])
        gam = [u[k][op.partition.gamma[k]] for k in range(2)]
        mu = sum(jump_matrix(op.jumps, k) @ gam[k] for k in range(2))
        w0 = (jump_matrix(op.jumps, 0).T @ mu) / op.jumps.D[op.jumps.block(0)]
        _, k, dof_k, l, dof_l = dual_rows(op.partition)[0]
        jump = u[k][dof_k] - u[l][dof_l]
        pos = {dof: i for i, dof in enumerate(op.partition.gamma[k])}
        assert w0[pos[dof_k]] == pytest.approx(0.5 * jump)
        assert check_lemma_bbt(dom, op, u) <= 1e-13

    @pytest.mark.parametrize("alphas", [
        [1.0, 1.0, 1.0, 1.0, 1.0],
        [1.0, 10.0, 100.0, 1.0, 10.0],
    ])
    def test_random_wtilde_deviation(self, rng, alphas):
        dom = t_domain(degree=2, refinements=1, alphas=alphas)
        op = setup_operator(dom)
        for _ in range(50):
            u = project_wtilde(op, [rng.standard_normal(n) for n in np.diff(op.partition.offsets)])
            assert check_lemma_bbt(dom, op, u) <= 1e-13


class TestDegenerateTJunction:
    def test_c0_junction_flagged_and_solvable(self):
        p = 2
        kv_std = refine_uniform(KnotVector.bernstein(p), 1)
        kv_c0 = KnotVector(p, [0, 0, 0, 0.4, 0.4, 1, 1, 1])
        patches = [
            Patch(GeometryMap.bilinear((0, 1), (2, 1), (0, 2), (2, 2)), 1.0,
                  TensorSplineSpace(kv_c0, kv_std, {"west", "north", "east"})),
            Patch(GeometryMap.bilinear((0, 0), (0.8, 0), (0, 1), (0.8, 1)), 1.0,
                  TensorSplineSpace(kv_std, kv_std, {"west", "south"})),
            Patch(GeometryMap.bilinear((0.8, 0), (2, 0), (0.8, 1), (2, 1)), 1.0,
                  TensorSplineSpace(kv_std, kv_std, {"south", "east"})),
        ]
        ifaces = [
            Interface(0, "south", (0.0, 0.4), 1, "north", (0.0, 1.0)),
            Interface(0, "south", (0.4, 1.0), 2, "north", (0.0, 1.0)),
            Interface(1, "east", (0.0, 1.0), 2, "west", (0.0, 1.0)),
        ]
        dom = MultiPatchDomain(patches, ifaces).validate()
        assert degenerate_tjunction_count(dom) == 1
        sol = solve_ieti(dom, tol=1e-10)
        assert sol.report.degenerate_tjunctions == 1
        system = refsolver.assemble_global(dom, 12.0)
        direct = refsolver.split_solution(system, refsolver.direct_solve(system))
        scale = np.abs(np.concatenate(direct)).max()
        for a, b in zip(sol.u_patches, direct):
            assert np.abs(a - b).max() <= 1e-6 * scale


class TestReducedSmoothness:
    def test_interior_c0_knots_with_nonmatching_grids(self):
        # repeated interior knots in the discretization spaces, different
        # knot lines on the two sides of the interface, and a coefficient
        # jump: the solver must still match the direct solve
        p = 2
        kv_c0 = KnotVector(p, [0, 0, 0, 0.25, 0.25, 0.5, 0.75, 0.75, 1, 1, 1])
        kv_smooth = refine_uniform(KnotVector.bernstein(p), 2)
        patches = [
            Patch(GeometryMap.bilinear((0, 0), (1, 0), (0, 1), (1, 1)), 1.0,
                  TensorSplineSpace(kv_c0, kv_smooth, {"west", "south", "north"})),
            Patch(GeometryMap.bilinear((1, 0), (2, 0), (1, 1), (2, 1)), 4.0,
                  TensorSplineSpace(kv_smooth, kv_c0, {"east", "south", "north"})),
        ]
        dom = MultiPatchDomain(
            patches, [Interface(0, "east", (0.0, 1.0), 1, "west", (0.0, 1.0))]
        ).validate()
        sol = solve_ieti(dom, tol=1e-10)
        system = refsolver.assemble_global(dom, 12.0)
        direct = refsolver.split_solution(system, refsolver.direct_solve(system))
        scale = np.abs(np.concatenate(direct)).max()
        for a, b in zip(sol.u_patches, direct):
            assert np.abs(a - b).max() <= 1e-6 * scale


def interior_matrix(dom, op, k):
    """Block k's assembled A_II."""
    I = op.partition.interior[k]
    return local_systems(dom)[k].A.csr[I][:, I]


def fd_against_superlu(dom, op, rng):
    """Largest relative max-norm gap between each block's interior solve and SuperLU's."""
    worst = 0.0
    for k, blk in enumerate(op.blocks):
        I = op.partition.interior[k]
        reference = factorize(interior_matrix(dom, op, k))
        B = rng.standard_normal((I.size, 3))
        for rhs in (B[:, 0], B):
            x, y = blk.aii_fac.solve(rhs), reference.solve(rhs)
            assert x.shape == rhs.shape
            worst = max(worst, np.abs(x - y).max() / np.abs(y).max())
    return worst


def kronecker_gap(dom, op, k):
    """max |A_II - (c_u K_u (x) M_v + c_v M_u (x) K_v)| / max |A_II| of block k, over both
    patterns, with c_u = alpha |J_22 / J_11| = alpha^2 / c_v read off the Jacobian at the
    centre; the interior dofs must form a tensor lattice I_u x I_v."""
    patch = dom.patches[k]
    space = patch.space
    I = op.partition.interior[k]
    lat = np.flatnonzero(space.free_mask)[I]
    I_u, I_v = np.unique(lat // space.n_v), np.unique(lat % space.n_v)
    np.testing.assert_array_equal(lat, (I_u[:, None] * space.n_v + I_v).ravel())
    (K_u, M_u), (K_v, M_v) = [[m[np.ix_(idx, idx)] for m in univariate_matrices(kv)]
                              for kv, idx in ((space.kv_u, I_u), (space.kv_v, I_v))]
    J = at(patch.geometry, 0.5, 0.5)[1]
    c_u = patch.alpha * abs(J[1, 1] / J[0, 0])
    kron = np.kron(K_u, c_u * M_v) + np.kron(M_u, patch.alpha**2 / c_u * K_v)
    A_II = interior_matrix(dom, op, k).toarray()
    return np.abs(A_II - kron).max() / np.abs(A_II).max()


def partial_interface_domain(p=2, r=2):
    """Patch 0 = [0, 1]^2, its east side glued to patch 1 = [1, 2] x [0, 0.5] on
    (0, 0.5) only; the rest of that side is a natural boundary, so patch 0's
    interior dofs keep part of its east layer and are no tensor lattice."""
    patches = [unit_square_patch(0, 1, 0, 1, p, r, {"west", "south", "north"}),
               unit_square_patch(1, 2, 0, 0.5, p, r, {"east", "south", "north"})]
    ifaces = [Interface(0, "east", (0.0, 0.5), 1, "west", (0.0, 1.0))]
    return MultiPatchDomain(patches, ifaces, name="partial").validate()


def stacked_two_patch_domain(p=2, r=2):
    """Patch 0 = [0, 1]^2 below patch 1 = [0, 1] x [1, 2], glued along y = 1."""
    patches = [unit_square_patch(0, 1, 0, 1, p, r, {"west", "east", "south"}),
               unit_square_patch(0, 1, 1, 2, p, r, {"west", "east", "north"})]
    ifaces = [Interface(0, "north", (0.0, 1.0), 1, "south", (0.0, 1.0))]
    return MultiPatchDomain(patches, ifaces, name="stacked").validate()


FD_BUILTINS = {
    "grid2x2": lambda p: grid_domain(2, degree=p, refinements=2),
    "tdomain": lambda p: t_domain(degree=p, refinements=2),
    "slider(3,0.3)": lambda p: slider_domain(3, 0.3, degree=p, refinements=2),
    "slider(4,0.3)": lambda p: slider_domain(4, 0.3, degree=p, refinements=2),
    "nonuniform": nonuniform_config_domain,
}


@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(FD_BUILTINS))
def test_partition_offsets_match_local_systems(name, p):
    # the extended layout that the partition decides from the domain alone
    # is the one the assembled local systems come out with
    dom = FD_BUILTINS[name](p)
    partition = build_stack(dom)[1]
    sizes = [sysk.A.n for sysk in local_systems(dom)]
    np.testing.assert_array_equal(partition.offsets, np.cumsum([0] + sizes))


class TestFastDiagonalizationInterior:
    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("name", sorted(FD_BUILTINS))
    def test_every_patch_fd_and_equal_to_superlu(self, rng, name, p):
        dom = FD_BUILTINS[name](p)
        op = setup_operator(dom)
        assert all(blk.interior_fd for blk in op.blocks)
        assert max(kronecker_gap(dom, op, k) for k in range(len(op.blocks))) <= 1e-13
        assert fd_against_superlu(dom, op, rng) <= 1e-12

    @staticmethod
    def _single_patch(geometry, p=2):
        kv = refine_uniform(KnotVector.bernstein(p), 2)
        patch = Patch(geometry, 1.0, TensorSplineSpace(kv, kv, {"west", "east", "south", "north"}))
        return MultiPatchDomain([patch], []).validate()

    def test_mirrored_patch_takes_fd(self, rng):
        # x = 2 (1 - u), y = v: det J < 0, and c_u, c_v use |J_22 / J_11|
        geo = GeometryMap.bilinear((2, 0), (0, 0), (2, 1), (0, 1))
        dom = self._single_patch(geo)
        op = setup_operator(dom)
        assert op.blocks[0].interior_fd
        assert kronecker_gap(dom, op, 0) <= 1e-13
        assert fd_against_superlu(dom, op, rng) <= 1e-12

    def test_affine_spline_geometry_takes_fd(self, rng):
        # the rectangle [0, 2] x [0, 0.5] as a degree-2 map with different
        # interior knots per direction: its control net is the map at the
        # Greville points of the geometry knot vectors
        kv_u = KnotVector(2, [0, 0, 0, 0.3, 1, 1, 1])
        kv_v = KnotVector(2, [0, 0, 0, 0.6, 1, 1, 1])
        control = np.stack(np.meshgrid(2.0 * greville_points(kv_u), 0.5 * greville_points(kv_v),
                                       indexing="ij"), axis=-1)
        dom = self._single_patch(GeometryMap(kv_u, kv_v, control))
        op = setup_operator(dom)
        assert op.blocks[0].interior_fd
        assert kronecker_gap(dom, op, 0) <= 1e-13
        assert fd_against_superlu(dom, op, rng) <= 1e-12

    C = 1e-9
    PERTURBED = {
        # the identity Jacobian at the centre, perturbed by C elsewhere
        "centre": [(0.25 * C, 0), (1 - 0.25 * C, 0), (-0.25 * C, 1), (1 + 0.25 * C, 1)],
        # the identity at the corner (0, 0), moved by C at the opposite one: the
        # control net is off the affine map x0 + diag(J) (u, v) by C
        "corner": [(0, 0), (1, 0), (0, 1), (1 + C, 1 + C)],
    }

    @pytest.mark.parametrize("where", sorted(PERTURBED))
    def test_perturbed_bilinear_patch_falls_back(self, rng, where):
        geo = GeometryMap.bilinear(*self.PERTURBED[where])
        point = (0.5, 0.5) if where == "centre" else (0.0, 0.0)
        np.testing.assert_array_equal(at(geo, *point)[1], np.eye(2))
        dom = self._single_patch(geo)
        op = setup_operator(dom)
        assert not op.blocks[0].interior_fd
        assert fd_against_superlu(dom, op, rng) == 0.0

    def test_rotated_affine_patch_falls_back(self, rng):
        # the unit square turned by 30 degrees: affine, but J is not diagonal
        c, s = np.cos(np.pi / 6), np.sin(np.pi / 6)
        geo = GeometryMap.bilinear((0, 0), (c, s), (-s, c), (c - s, s + c))
        dom = self._single_patch(geo)
        op = setup_operator(dom)
        assert not op.blocks[0].interior_fd
        assert fd_against_superlu(dom, op, rng) == 0.0

    def test_curved_patch_falls_back(self, rng):
        geo = curved_geometry()
        for point in ((0.0, 0.0), (0.5, 0.5)):
            jac = at(geo, *point)[1]
            assert jac[0, 1] == 0.0 and jac[1, 0] == 0.0
        dom = self._single_patch(geo)
        op = setup_operator(dom)
        assert not op.blocks[0].interior_fd
        assert fd_against_superlu(dom, op, rng) == 0.0

    def test_partial_interface_mixed_solve_matches_oracle(self, capsys):
        dom = partial_interface_domain()
        sol = solve_ieti(dom, tol=1e-10)
        assert [blk.interior_fd for blk in setup_operator(dom).blocks] == [False, True]
        system = refsolver.assemble_global(dom, 12.0)
        direct = refsolver.split_solution(system, refsolver.direct_solve(system))
        scale = np.abs(np.concatenate(direct)).max()
        err = max(np.abs(a - b).max() for a, b in zip(sol.u_patches, direct)) / scale
        assert err <= 1e-6, "relative sup-norm discrepancy %.3e" % err
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("factory, count", [
        (lambda: t_domain(degree=2, refinements=2), 5),
        (lambda: slider_domain(4, 0.3, degree=2, refinements=2), 8),
        (partial_interface_domain, 1),
    ], ids=["tdomain", "slider(4,0.3)", "partial"])
    def test_report_counts_fd_blocks(self, factory, count):
        report = solve_ieti(factory(), tol=1e-8).report
        assert report.fd_interior_blocks == count
        assert report.to_json_dict()["fd_interior_blocks"] == count


class TestFailureModes:
    def test_insufficient_penalty_raises(self):
        dom = t_domain(degree=2, refinements=1)
        with pytest.raises(NumericalError):
            solve_ieti(dom, delta=0.001)

    def test_sliver_patch_raises(self):
        # the top row's first patch is [0, 0.01] x [1, 2]: the penalty, scaled
        # by the element diameter, is too weak for its thin elements, and the
        # torn block has 4 negative eigenvalues
        dom = slider_domain(3, 0.01, degree=2, refinements=2)
        with pytest.raises(NumericalError, match="patch 3: torn block is not SPD"):
            solve_ieti(dom)
