import numpy as np
import pytest
import scipy.sparse

from ietidg.assembly import build_local_system, univariate_matrices
from ietidg.bspline import (KnotVector, TensorSplineSpace, eval_basis, greville_points,
                            refine_uniform)
from ietidg.domains import (domain_from_config, domain_to_config, grid_domain, slider_domain,
                            t_domain)
from ietidg.errors import NumericalError
from ietidg.geometry import GeometryMap, Interface, MultiPatchDomain, Patch
from ietidg.ieti import (
    PrimalGroup,
    build_jump_matrices,
    build_partition,
    build_psi,
    copy_map,
    degenerate_tjunction_count,
    kronecker_interior,
    lambda_factor,
    pcg_solve,
    select_primal,
    setup_operator,
    solve_ieti,
)
from ietidg import refsolver
from ietidg.linalg import Factorization, factorize

from conftest import (check_lemma_bbt, full_jump_columns, project_wtilde, psi_residual,
                      two_patch_domain, unit_square_patch)


def build_stack(domain, delta=12.0, source=1.0):
    locals_ = [build_local_system(domain, k, delta, source=source)
               for k in range(domain.num_patches)]
    groups = select_primal(domain)
    partition = build_partition(domain, locals_, groups)
    jumps = build_jump_matrices(domain, locals_, partition)
    return locals_, groups, partition, jumps


def members(domain, groups):
    """(block, extended dof) pairs that share each group's coarse coefficient."""
    locals_ = [build_local_system(domain, k, 12.0) for k in range(domain.num_patches)]
    partition = build_partition(domain, locals_, groups)
    return [[(k, int(d)) for k, (P, gk) in enumerate(zip(partition.primal, partition.primal_global))
             for d in P[gk == g.index]] for g in groups]


def dense_F(op):
    n = op.n_rows
    return np.column_stack([op.apply_F(np.eye(n)[:, i]) for i in range(n)])


def dense_MsD(op):
    n = op.n_rows
    return np.column_stack([op.apply_MsD(np.eye(n)[:, i]) for i in range(n)])


def dense_schur(op, k):
    """Block k's Schur complement by dense elimination of its interior."""
    A = op.locals[k].A.toarray()
    gam, I = op.blocks[k].gamma, op.partition.interior[k]
    return A[np.ix_(gam, gam)] - A[np.ix_(gam, I)] @ np.linalg.solve(
        A[np.ix_(I, I)], A[np.ix_(I, gam)])


def constrained_system(op):
    """The primal-constrained system ``(A~, B~, f~)``, assembled densely from the local matrices.

    Its unknowns are every block's (I, Delta) dofs, block after block, then
    the global primal dofs; each copy of a primal dof maps onto its coarse index.
    """
    part = op.partition
    tilde = [np.concatenate([I, dual]) for I, dual in zip(part.interior, part.dual)]
    offsets = np.cumsum([0] + [t.size for t in tilde])
    n = offsets[-1] + op.n_primal
    A, B, f = np.zeros((n, n)), np.zeros((op.n_rows, n)), np.zeros(n)
    for k, (sysk, Bk) in enumerate(zip(op.locals, full_jump_columns(op.jumps, part, op.locals))):
        col = np.empty(sysk.n_total, dtype=int)
        col[tilde[k]] = offsets[k] + np.arange(tilde[k].size)
        col[part.primal[k]] = offsets[-1] + part.primal_global[k]
        R = np.eye(n)[col]
        A += R.T @ sysk.A.toarray() @ R
        B += Bk @ R
        f += R.T @ sysk.f
    return A, B, f


class TestSelectPrimal:
    def test_regular_four_patch_corner(self):
        dom = grid_domain(2, degree=2, refinements=1)
        groups = select_primal(dom)
        # one group per patch at the single interior vertex, each of size >= 2
        assert len(groups) == 4
        assert {g.source[0] for g in groups} == {0, 1, 2, 3}
        for group_members in members(dom, groups):
            assert len(group_members) >= 2

    def test_tjunction_fat_vertex(self):
        # long side contributes the functions positive at the junction
        # parameter, computed by evaluation; the two short sides contribute
        # their corner functions
        dom = t_domain(degree=2, refinements=2)
        groups = select_primal(dom)
        tj_vertex = next(i for i, v in enumerate(dom.vertices) if v.kind == "tjunction")
        tj_groups = [g for g in groups if g.vertex == tj_vertex]
        long_side = [g for g in tj_groups if g.source[0] == 0]
        space = dom.patches[0].space
        first, tab = eval_basis(space.kv_u, 0.4)
        expected_long = int(np.sum(tab[0] > 0.0))
        assert len(long_side) == expected_long == space.degree + 1
        short = [g for g in tj_groups if g.source[0] in (1, 2)]
        assert len(short) == 2
        # long-side groups have copies on both sub-interfaces
        group_members = members(dom, groups)
        for g in long_side:
            assert len(group_members[g.index]) == 3

    def test_single_patch_empty(self):
        patch = unit_square_patch(0, 1, 0, 1, 2, 1, {"west", "east", "south", "north"})
        dom = MultiPatchDomain([patch], []).validate()
        assert select_primal(dom) == []

    def test_dirichlet_candidates_dropped(self, caplog):
        # at refinement 1 the long-side function at the west edge is
        # constrained and must not become primal
        dom = t_domain(degree=2, refinements=1)
        groups = select_primal(dom)
        assert all(g.source[1] >= 0 for g in groups)
        tj_vertex = next(i for i, v in enumerate(dom.vertices) if v.kind == "tjunction")
        long_side = [g for g in groups if g.vertex == tj_vertex and g.source[0] == 0]
        assert len(long_side) == 2  # one of the three candidates is constrained

    def test_groups_disjoint(self):
        for factory in (lambda: t_domain(degree=3, refinements=1),
                        lambda: slider_domain(3, 0.3, degree=2, refinements=1)):
            dom = factory()
            groups = select_primal(dom)
            seen = set()
            for g, group_members in zip(groups, members(dom, groups)):
                assert g.source in group_members
                for member in group_members:
                    assert member not in seen
                    seen.add(member)

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_primal_members_positive_at_vertex(self, p):
        dom = t_domain(degree=p, refinements=2)
        groups = select_primal(dom)
        for g in groups:
            vertex = dom.vertices[g.vertex]
            patch, dof = g.source
            loc = dict(vertex.adjacency)[patch]
            space = dom.patches[patch].space
            i, j = np.argwhere(space.dof_map == dof)[0]
            fu, tu = eval_basis(space.kv_u, loc[0])
            fv, tv = eval_basis(space.kv_v, loc[1])
            val_u = tu[0][i - fu] if fu <= i <= fu + space.degree else 0.0
            val_v = tv[0][j - fv] if fv <= j <= fv + space.degree else 0.0
            assert val_u * val_v > 0.0


class TestCopyMap:
    @pytest.mark.parametrize("factory", [
        lambda: t_domain(degree=2, refinements=1),
        lambda: slider_domain(3, 0.3, degree=3, refinements=1),
    ])
    def test_one_row_per_artificial_dof(self, factory):
        # every artificial dof appears once, paired with the neighbor dof
        # its artificial block records, in the neighbor's trace on that side
        dom = factory()
        locals_ = [build_local_system(dom, k, 12.0) for k in range(dom.num_patches)]
        copies = copy_map(dom, locals_)
        for k, sysk in enumerate(locals_):
            mine = copies[copies[:, 3] == k]
            np.testing.assert_array_equal(np.sort(mine[:, 4]),
                                          np.arange(sysk.n_patch, sysk.n_total))
            for iface, src, sdof, _, copy in mine:
                ab = next(ab for ab in sysk.artificial if ab.iface_index == iface)
                assert (ab.neighbor, ab.sources[copy - ab.offset][1]) == (src, sdof)
                assert sdof < locals_[src].n_patch

    def test_primal_source_off_the_skeleton_rejected(self):
        # an interior function cannot be a fat-vertex dof
        dom = two_patch_domain(p=2, r=2)
        locals_ = [build_local_system(dom, k, 12.0) for k in range(2)]
        interior = build_partition(dom, locals_, []).interior[0]
        group = PrimalGroup(0, (0, int(interior[0])), 0)
        with pytest.raises(NumericalError, match="block 0: primal dof outside the trace-active set"):
            build_partition(dom, locals_, [group])


class TestJumpMatrices:
    def test_two_patch_structure_without_primal(self):
        # every matched (trace, copy) pair gets one +1/-1 row; each side of
        # the interface contributes its own pairs
        dom = two_patch_domain(p=1, r=0, dirichlet=False)
        locals_ = [build_local_system(dom, k, 12.0) for k in range(2)]
        partition = build_partition(dom, locals_, [])
        jumps = build_jump_matrices(dom, locals_, partition)
        assert jumps.n_rows == 4
        B = np.hstack(full_jump_columns(jumps, partition, locals_))
        for row in B:
            assert sorted(row[row != 0]) == [-1.0, 1.0]
        col_counts = (B != 0).sum(axis=0)
        assert set(col_counts[col_counts > 0]) == {1}

    def test_two_patch_all_primal_no_rows(self):
        # p = 1, one span: all trace dofs sit at the corners, so the fat
        # vertices swallow every pair and no multipliers remain
        dom = two_patch_domain(p=1, r=0, dirichlet=False)
        locals_, groups, partition, jumps = build_stack(dom)
        assert len(groups) == 4
        assert jumps.n_rows == 0

    def test_thin_vertex_rejected(self):
        # without primal dofs, the corner functions at the cross point are
        # copied across two interfaces each and would sit in two rows
        dom = grid_domain(2, degree=2, refinements=1)
        locals_ = [build_local_system(dom, k, 12.0) for k in range(dom.num_patches)]
        partition = build_partition(dom, locals_, [])
        with pytest.raises(NumericalError, match="dof matched by two constraints"):
            build_jump_matrices(dom, locals_, partition)

    @pytest.mark.parametrize("factory", [
        lambda: t_domain(degree=2, refinements=2),
        lambda: slider_domain(3, 0.3, degree=2, refinements=2),
    ])
    def test_multiplier_order(self, factory):
        # each row pairs a source with its copy as the artificial blocks
        # record it; rows run by interface, the k -> l side first, then by
        # position in the artificial block
        dom = factory()
        locals_, groups, partition, jumps = build_stack(dom)
        keys = []
        for expected_row, (row, src, sdof, dst, copy, iface) in enumerate(jumps.pairs):
            assert row == expected_row
            ab = next(ab for ab in locals_[dst].artificial if ab.iface_index == iface)
            assert ab.neighbor == src
            pos = copy - ab.offset
            assert 0 <= pos < ab.size and ab.sources[pos][1] == sdof
            keys.append((iface, src != dom.interfaces[iface].k, pos))
        assert len(keys) == jumps.n_rows > 0
        assert keys == sorted(keys)

    def test_coefficient_scaling_entries(self):
        dom = two_patch_domain(p=1, r=1, alphas=(1.0, 1e4))
        locals_, groups, partition, jumps = build_stack(dom)
        for k, expected in ((0, (1.0 + 1e4) / 1e4), (1, (1e4 + 1.0) / 1.0)):
            assert jumps.D[k].size > 0
            np.testing.assert_allclose(jumps.D[k], expected)

    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("factory", [
        lambda p: grid_domain(2, degree=p, refinements=2),
        lambda p: t_domain(degree=p, refinements=2),
        lambda p: slider_domain(3, 0.3, degree=p, refinements=2),
    ])
    def test_structure_invariants_all_builtins(self, p, factory):
        dom = factory(p)
        locals_, groups, partition, jumps = build_stack(dom)
        Bs = full_jump_columns(jumps, partition, locals_)
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
            for dof in partition.primal[k]:
                assert not full[:, dof].any()
            # every dual column carries exactly one entry
            for dof in partition.dual[k]:
                assert (full[:, dof] != 0).sum() == 1

    @pytest.mark.parametrize("factory", [
        lambda: t_domain(degree=2, refinements=2),
        lambda: slider_domain(3, 0.3, degree=2, refinements=2),
    ])
    def test_column_slices_match_direct_build(self, factory):
        # B_gamma equals the matrix built straight from the constraint pairs
        # over the (Delta, Pi) columns
        dom = factory()
        locals_, groups, partition, jumps = build_stack(dom)
        entries = [[] for _ in range(dom.num_patches)]
        for row, k, dof_k, l, dof_l, _ in jumps.pairs:
            entries[k].append((row, dof_k, 1.0))
            entries[l].append((row, dof_l, -1.0))
        for k in range(dom.num_patches):
            index, sliced = partition.gamma_index(k), jumps.B_gamma[k]
            pos = -np.ones(locals_[k].n_total, dtype=int)
            pos[index] = np.arange(index.size)
            rr, cc, vv = zip(*[(r, pos[d], s) for r, d, s in entries[k]])
            direct = scipy.sparse.csr_matrix((vv, (rr, cc)), shape=(jumps.n_rows, index.size))
            assert sliced.shape == direct.shape
            assert sliced.nnz == direct.nnz
            assert (sliced != direct).nnz == 0


class TestOperator:
    def test_build_psi_standalone(self):
        dom = t_domain(degree=2, refinements=1)
        locals_, groups, partition, jumps = build_stack(dom)
        A = locals_[0].A.toarray()
        I, dual, P = partition.interior[0], partition.dual[0], partition.primal[0]
        blk = build_psi(locals_[0], partition, factorize(A[np.ix_(I, I)]))
        assert blk.psi.shape == (dual.size + P.size, P.size)
        np.testing.assert_allclose(blk.psi[dual.size:], np.eye(P.size), atol=0)
        # extend Psi by its dense interior solve: the (I, Delta) rows of A Psi vanish
        psi = np.zeros((locals_[0].n_total, P.size))
        psi[blk.gamma] = blk.psi
        psi[I] = -np.linalg.solve(A[np.ix_(I, I)], A[np.ix_(I, blk.gamma)] @ blk.psi)
        res = (A @ psi)[np.concatenate([I, dual])]
        scale = abs(A.max())
        assert np.abs(res).max() <= 1e-9 * scale

    def test_psi_identity_rows_and_residual(self):
        dom = t_domain(degree=2, refinements=1, alphas=[1, 10, 100, 1, 10])
        op = setup_operator(dom)
        for k, blk in enumerate(op.blocks):
            P = op.partition.primal[k]
            if P.size:
                np.testing.assert_allclose(blk.psi[blk.n_dual:], np.eye(P.size), atol=0)
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
        op = setup_operator(two_patch_domain(p=1, r=1))
        A, B, f = constrained_system(op)
        F_ref = B @ np.linalg.solve(A, B.T)
        np.testing.assert_allclose(dense_F(op), F_ref, atol=1e-10 * np.abs(F_ref).max())
        d_ref = B @ np.linalg.solve(A, f)
        np.testing.assert_allclose(op.compute_d(), d_ref, atol=1e-10 * np.abs(d_ref).max())

    def test_dense_saddle_oracle_with_primal(self):
        op = setup_operator(t_domain(degree=2, refinements=1, alphas=[1, 10, 100, 1, 10]))
        assert op.n_primal
        A, B, _ = constrained_system(op)
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
        op = setup_operator(factory())
        for k, blk in enumerate(op.blocks):
            S_ref = dense_schur(op, k)
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
        op = setup_operator(factory())
        separable = [k for k, blk in enumerate(op.blocks)
                     if blk.interior_fd and all(fac is not blk.aii_fac for fac in generic)]
        assert separable
        for k in separable:
            blk = op.blocks[k]
            S_ref = dense_schur(op, k)
            assert np.abs(blk.S - S_ref).max() <= 1e-12 * np.abs(S_ref).max()
            reference = formula(blk.aii_fac, blk.A_IG)
            assert np.abs(blk.aii_fac.schur(blk.A_IG) - reference).max() <= 1e-13 * np.abs(
                reference).max()
            S_gen = op.locals[k].A.toarray()[np.ix_(blk.gamma, blk.gamma)] - reference
            assert np.abs(blk.S - S_gen).max() <= 1e-13 * np.abs(S_gen).max()

    def test_equal_alpha_preconditioner_formula(self):
        # with all alphas equal, D = 2 I and M_sD = (1/4) B_Gamma S B_Gamma^T
        dom = t_domain(degree=2, refinements=1)
        op = setup_operator(dom)
        for k in range(dom.num_patches):
            np.testing.assert_allclose(op.jumps.D[k], 2.0)
        n = op.n_rows
        raw = np.zeros((n, n))
        for i in range(n):
            e = np.zeros(n)
            e[i] = 1.0
            acc = np.zeros(n)
            for k in range(dom.num_patches):
                Bg = op.jumps.B_gamma[k]
                acc += Bg @ (op.blocks[k].S @ (Bg.T @ e))
            raw[:, i] = acc
        np.testing.assert_allclose(dense_MsD(op), 0.25 * raw, atol=1e-12 * np.abs(raw).max())

    def test_primal_scaling_entries_inert(self, rng):
        # the D entries on primal columns multiply zero rows of B_Gamma
        dom = t_domain(degree=2, refinements=1, alphas=[1, 10, 100, 1, 10])
        op = setup_operator(dom)
        mu = rng.standard_normal(op.n_rows)
        before = op.apply_MsD(mu)
        pos_gamma = []
        for k in range(dom.num_patches):
            gam = op.blocks[k].gamma
            pg = {dof: i for i, dof in enumerate(gam)}
            for dof in op.partition.primal[k]:
                op.jumps.D[k][pg[dof]] *= 7.3
        after = op.apply_MsD(mu)
        np.testing.assert_allclose(after, before, rtol=0, atol=1e-12 * np.abs(before).max())


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
        op = setup_operator(factory())
        lam = rng.standard_normal(op.n_rows)
        u = op.recover_solution(lam)
        w = np.zeros(op.n_primal)
        w_scale = np.zeros(op.n_primal)
        Bs = full_jump_columns(op.jumps, op.partition, op.locals)
        for k, sysk in enumerate(op.locals):
            terms = (sysk.A.csr @ u[k], -sysk.f, Bs[k].T @ lam)
            resid = sum(terms)
            scale = sum(np.abs(t) for t in terms)
            tilde = np.concatenate([op.partition.interior[k], op.partition.dual[k]])
            assert np.abs(resid[tilde]).max() <= 1e-12 * scale.max()
            P = op.partition.primal[k]
            np.add.at(w, op.primal_global[k], resid[P])
            np.add.at(w_scale, op.primal_global[k], scale[P])
        assert op.n_primal and np.abs(w).max() <= 1e-12 * w_scale.max()
        for projected, uk in zip(project_wtilde(op, u), u):
            np.testing.assert_allclose(projected, uk, rtol=1e-14, atol=0)

    def test_constraint_residual_after_solve(self):
        dom = slider_domain(3, 0.3, degree=2, refinements=2)
        sol = solve_ieti(dom, tol=1e-10)
        op = sol.operator
        resid = np.zeros(op.n_rows)
        for k in range(dom.num_patches):
            gam = op.blocks[k].gamma
            resid += op.jumps.B_gamma[k] @ sol.u_blocks[k][gam]
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
        u = [np.ones(s.n_total) for s in op.locals]
        gam_vals = check_lemma_bbt(op, u)
        assert gam_vals <= 1e-15

    def test_half_jump_for_equal_alpha(self, rng):
        dom = two_patch_domain(p=1, r=1)
        op = setup_operator(dom)
        u = project_wtilde(op, [rng.standard_normal(s.n_total) for s in op.locals])
        gam = [u[k][op.blocks[k].gamma] for k in range(2)]
        mu = sum(op.jumps.B_gamma[k] @ gam[k] for k in range(2))
        w0 = (op.jumps.B_gamma[0].T @ mu) / op.jumps.D[0]
        row, k, dof_k, l, dof_l, _ = op.jumps.pairs[0]
        jump = u[k][dof_k] - u[l][dof_l]
        pos = {dof: i for i, dof in enumerate(op.blocks[k].gamma)}
        assert w0[pos[dof_k]] == pytest.approx(0.5 * jump)
        assert check_lemma_bbt(op, u) <= 1e-13

    @pytest.mark.parametrize("alphas", [
        [1.0, 1.0, 1.0, 1.0, 1.0],
        [1.0, 10.0, 100.0, 1.0, 10.0],
    ])
    def test_random_wtilde_deviation(self, rng, alphas):
        dom = t_domain(degree=2, refinements=1, alphas=alphas)
        op = setup_operator(dom)
        for _ in range(50):
            u = project_wtilde(op, [rng.standard_normal(s.n_total) for s in op.locals])
            assert check_lemma_bbt(op, u) <= 1e-13


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


def fd_against_superlu(op, rng):
    """Largest relative max-norm gap between each block's interior solve and SuperLU's."""
    worst = 0.0
    for k, blk in enumerate(op.blocks):
        I = op.partition.interior[k]
        reference = factorize(op.locals[k].A.csr[I][:, I])
        B = rng.standard_normal((I.size, 3))
        for rhs in (B[:, 0], B):
            x, y = blk.aii_fac.solve(rhs), reference.solve(rhs)
            assert x.shape == rhs.shape
            worst = max(worst, np.abs(x - y).max() / np.abs(y).max())
    return worst


def nonuniform_config_domain(p, r=0):
    """Two patches, [0, 1] x [0, 1] and [1, 3] x [0, 1], from a config with
    non-uniform knot vectors that do not match across the interface, each
    span bisected `r` times."""
    config = domain_to_config(two_patch_domain(p, 1))
    config["patches"][1]["geometry"]["control_points"] = [[[1, 0], [1, 1]], [[3, 0], [3, 1]]]
    for patch, knots_u, knots_v in ((0, [0.3, 0.45], [0.2, 0.7]), (1, [0.6], [0.35, 0.5, 0.8])):
        space = config["patches"][patch]["space"]
        for key, knots in (("knots_u", knots_u), ("knots_v", knots_v)):
            kv = KnotVector(p, [0.0] * (p + 1) + knots + [1.0] * (p + 1))
            space[key] = refine_uniform(kv, r).knots.tolist()
    return domain_from_config(config)


def curved_geometry():
    """Degree-2 map of the unit square whose middle control point is lifted:
    diagonal Jacobian at the corners and the centre, curved everywhere else."""
    kv = KnotVector.bernstein(2)
    control = np.stack(np.meshgrid([0.0, 0.5, 1.0], [0.0, 0.5, 1.0], indexing="ij"), axis=-1)
    control[1, 1, 1] = 0.7
    return GeometryMap(kv, kv, control)


def curved_two_patch_domain(p=2, r=2):
    """The curved patch of `curved_geometry` glued along x = 1 to the square [1, 2] x [0, 1]."""
    kv = refine_uniform(KnotVector.bernstein(p), r)
    patches = [Patch(curved_geometry(), 1.0, TensorSplineSpace(kv, kv, {"west", "south", "north"})),
               unit_square_patch(1, 2, 0, 1, p, r, {"east", "south", "north"})]
    ifaces = [Interface(0, "east", (0.0, 1.0), 1, "west", (0.0, 1.0))]
    return MultiPatchDomain(patches, ifaces, name="curved").validate()


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


class TestFastDiagonalizationInterior:
    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("name", sorted(FD_BUILTINS))
    def test_every_patch_fd_and_equal_to_superlu(self, rng, name, p):
        op = setup_operator(FD_BUILTINS[name](p))
        assert all(blk.interior_fd for blk in op.blocks)
        assert fd_against_superlu(op, rng) <= 1e-12

    @staticmethod
    def _single_patch(geometry, p=2):
        kv = refine_uniform(KnotVector.bernstein(p), 2)
        patch = Patch(geometry, 1.0, TensorSplineSpace(kv, kv, {"west", "east", "south", "north"}))
        return MultiPatchDomain([patch], []).validate()

    def test_mirrored_patch_takes_fd(self, rng):
        # x = 2 (1 - u), y = v: det J < 0, and c_u, c_v use |J_22 / J_11|
        geo = GeometryMap.bilinear((2, 0), (0, 0), (2, 1), (0, 1))
        op = setup_operator(self._single_patch(geo))
        assert op.blocks[0].interior_fd
        assert fd_against_superlu(op, rng) <= 1e-12

    def test_affine_spline_geometry_takes_fd(self, rng):
        # the rectangle [0, 2] x [0, 0.5] as a degree-2 map with different
        # interior knots per direction: the corner Jacobian needs the knot spans
        kv_u = KnotVector(2, [0, 0, 0, 0.3, 1, 1, 1])
        kv_v = KnotVector(2, [0, 0, 0, 0.6, 1, 1, 1])
        control = np.stack(np.meshgrid(2.0 * greville_points(kv_u), 0.5 * greville_points(kv_v),
                                       indexing="ij"), axis=-1)
        op = setup_operator(self._single_patch(GeometryMap(kv_u, kv_v, control)))
        assert op.blocks[0].interior_fd
        assert fd_against_superlu(op, rng) <= 1e-12

    def test_kronecker_mass_outside_pattern_falls_back(self):
        # drop one symmetric pair of couplings from A_II: every stored entry
        # still matches, only the Frobenius-norm comparison sees the gap
        dom = self._single_patch(GeometryMap.bilinear((0, 0), (1, 0), (0, 1), (1, 1)))
        op = setup_operator(dom)
        I = op.partition.interior[0]
        A_II = op.locals[0].A.csr[I][:, I].tolil()
        kv = dom.patches[0].space.kv_u
        univariate = {kv.knots.tobytes(): univariate_matrices(kv)}
        assert kronecker_interior(dom.patches[0], A_II.tocsr(), I, univariate) is not None
        A_II[0, 1] = A_II[1, 0] = 0.0
        A_II = A_II.tocsr()
        A_II.eliminate_zeros()
        assert kronecker_interior(dom.patches[0], A_II, I, univariate) is None

    C = 1e-9
    PERTURBED = {
        # the identity Jacobian at the centre, perturbed by C elsewhere
        "centre": [(0.25 * C, 0), (1 - 0.25 * C, 0), (-0.25 * C, 1), (1 + 0.25 * C, 1)],
        # the identity at the corner (0, 0) where the check reads J, so only the
        # entrywise comparison with the Kronecker form can reject it
        "corner": [(0, 0), (1, 0), (0, 1), (1 + C, 1 + C)],
    }

    @pytest.mark.parametrize("where", sorted(PERTURBED))
    def test_perturbed_bilinear_patch_falls_back(self, rng, where):
        geo = GeometryMap.bilinear(*self.PERTURBED[where])
        point = (0.5, 0.5) if where == "centre" else (0.0, 0.0)
        np.testing.assert_array_equal(geo.jacobian(*point), np.eye(2))
        op = setup_operator(self._single_patch(geo))
        assert not op.blocks[0].interior_fd
        assert fd_against_superlu(op, rng) == 0.0

    def test_curved_patch_falls_back(self, rng):
        geo = curved_geometry()
        for point in ((0.0, 0.0), (0.5, 0.5)):
            jac = geo.jacobian(*point)
            assert jac[0, 1] == 0.0 and jac[1, 0] == 0.0
        op = setup_operator(self._single_patch(geo))
        assert not op.blocks[0].interior_fd
        assert fd_against_superlu(op, rng) == 0.0

    def test_partial_interface_mixed_solve_matches_oracle(self, capsys):
        dom = partial_interface_domain()
        sol = solve_ieti(dom, tol=1e-10)
        assert [blk.interior_fd for blk in sol.operator.blocks] == [False, True]
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
        # torn block has inertia (24, 4, 0)
        dom = slider_domain(3, 0.01, degree=2, refinements=2)
        with pytest.raises(NumericalError, match="patch 3: torn block is not SPD"):
            solve_ieti(dom)
