import numpy as np
import pytest
import scipy.sparse

from ietidg.assembly import copy_map
from ietidg.domains import grid_domain, slider_domain, t_domain
from ietidg.errors import NumericalError
from ietidg.linalg import SparseSym
from ietidg.refsolver import (
    GlobalSipgSystem,
    assemble_global,
    direct_solve,
    evaluate_patch,
    measure_error,
    patch_offsets,
    split_solution,
)
from ietidg.geometry import MultiPatchDomain

from conftest import (curved_two_patch_domain, glued_from_locals, local_systems, reference_max_jump,
                      reversed_two_patch_domain, two_patch_domain, unit_square_patch, volume_arrays)
from test_ieti import partial_interface_domain


def u_sin(x, y):
    return np.sin(np.pi * x) * np.sin(np.pi * y)


def grad_sin(x, y):
    return np.stack(
        [np.pi * np.cos(np.pi * x) * np.sin(np.pi * y),
         np.pi * np.sin(np.pi * x) * np.cos(np.pi * y)], axis=-1)


def f_sin(x, y):
    return 2.0 * np.pi**2 * u_sin(x, y)


class TestAssembleGlobal:
    def test_single_patch_equals_volume(self):
        patch = unit_square_patch(0, 1, 0, 1, 2, 2, {"west", "east", "south", "north"})
        dom = MultiPatchDomain([patch], []).validate()
        system = assemble_global(dom, 12.0)
        expected = SparseSym(scipy.sparse.csr_matrix(volume_arrays(patch)[0]))
        assert np.abs((system.matrix.csr - expected.csr)).max() <= 1e-14

    @pytest.mark.parametrize("factory", [
        lambda: grid_domain(2, degree=1, refinements=1),
        lambda: grid_domain(2, degree=2, refinements=1),
        lambda: t_domain(degree=2, refinements=1, alphas=[1, 10, 100, 1, 10]),
        lambda: slider_domain(3, 0.3, degree=2, refinements=1),
        lambda: two_patch_domain(p=1, r=1),
        lambda: reversed_two_patch_domain(p=2),
        lambda: MultiPatchDomain([unit_square_patch(0, 1, 0, 1, 2, 1, {"west", "south"})],
                                 []).validate(),
    ])
    def test_gluing_matches_global(self, factory):
        dom = factory()
        system = assemble_global(dom, 12.0)
        glued = glued_from_locals(dom, local_systems(dom), copy_map(dom))
        scale = max(abs(system.matrix.csr.max()), abs(system.matrix.csr.min()))
        diff = abs(system.matrix.csr - glued.csr)
        assert (diff.max() if diff.nnz else 0.0) <= 1e-12 * scale

    def test_alpha_linearity(self):
        d1 = t_domain(degree=1, refinements=1)
        d2 = t_domain(degree=1, refinements=1, alphas=[3.0] * 5)
        A1 = assemble_global(d1, 12.0).matrix.csr
        A2 = assemble_global(d2, 12.0).matrix.csr
        assert np.abs((A2 - 3.0 * A1)).max() <= 1e-12 * abs(A2.max())

    def test_global_symmetry(self):
        dom = slider_domain(3, 0.3, degree=3, refinements=1)
        A = assemble_global(dom, 12.0).matrix.csr
        asym = abs(A - A.T)
        assert (asym.max() if asym.nnz else 0.0) <= 1e-12 * abs(A.max())

    def test_dg_norm_coercivity_margin(self, rng):
        # full form against the gradient + jump Gram matrix
        dom = t_domain(degree=2, refinements=2)
        A = assemble_global(dom, 12.0).matrix.csr
        # volume of the unglued patches plus the penalty, which is linear in
        # delta while the consistency term does not depend on it
        V = assemble_global(MultiPatchDomain(dom.patches, []).validate(), 12.0).matrix.csr
        D = V + assemble_global(dom, 24.0).matrix.csr - A
        margins = []
        for _ in range(50):
            v = rng.standard_normal(A.shape[0])
            margins.append((v @ (A @ v)) / (v @ (D @ v)))
        assert min(margins) >= 0.5
        assert min(margins) <= 1.0 + 1e-12


class TestDirectSolve:
    def test_zero_rhs(self):
        dom = two_patch_domain(p=1, r=1)
        system = assemble_global(dom, 12.0, source=0.0)
        system = GlobalSipgSystem(system.matrix, np.zeros_like(system.rhs), system.offsets)
        np.testing.assert_allclose(direct_solve(system), 0.0)

    def test_against_dense_inverse(self, rng):
        M = rng.standard_normal((10, 10))
        A = M @ M.T + 10 * np.eye(10)
        b = rng.standard_normal(10)
        system = GlobalSipgSystem(SparseSym(A), b, np.array([0, 10]))
        x = direct_solve(system)
        np.testing.assert_allclose(x, np.linalg.inv(A) @ b, atol=1e-10)

    def test_non_coercive_raises(self):
        dom = two_patch_domain(p=2, r=1)
        with pytest.raises(NumericalError):
            system = assemble_global(dom, 0.001)
            direct_solve(system)

    def test_manufactured_solution_errors_shrink(self):
        errs = []
        for r in (1, 2):
            dom = grid_domain(2, degree=2, refinements=r)
            system = assemble_global(dom, 12.0, source=f_sin)
            u = split_solution(system, direct_solve(system))
            l2, h1, jump = measure_error(dom, u, u_sin, grad_sin)
            errs.append((l2, h1, jump))
        assert errs[1][0] < 0.2 * errs[0][0]
        assert errs[1][1] < 0.6 * errs[0][1]
        assert errs[1][2] < errs[0][2]


class TestMeasureError:
    @pytest.mark.parametrize("factory", [
        lambda: t_domain(degree=2, refinements=2),
        lambda: slider_domain(4, 0.37, degree=2, refinements=2),
        lambda: reversed_two_patch_domain(p=2),
        lambda: partial_interface_domain(),
        lambda: curved_two_patch_domain(),
    ], ids=["tdomain", "slider(4,0.37)", "reversed", "partial", "curved"])
    def test_max_jump_matches_interface_loop(self, rng, factory):
        # random coefficients jump on every interface; the side-table walk gives the
        # per-interface loop's largest jump bit for bit
        dom = factory()
        u = [rng.standard_normal(p.space.dimension) for p in dom.patches]
        jump = measure_error(dom, u, lambda x, y: np.zeros_like(x))[2]
        assert jump > 0.0 and jump == reference_max_jump(dom, u)

    def test_zero_against_zero(self):
        dom = two_patch_domain(p=1, r=1)
        zeros = [np.zeros(p.space.dimension) for p in dom.patches]
        l2, h1, jump = measure_error(dom, zeros, lambda x, y: np.zeros_like(x),
                                     lambda x, y: np.zeros(x.shape + (2,)))
        assert l2 == 0.0 and h1 == 0.0 and jump == 0.0

    def test_exactly_representable_solution(self):
        # u* = x(1-x) y(1-y) lies in the biquadratic space; the discrete
        # solution reproduces it and all errors vanish to rounding
        patch = unit_square_patch(0, 1, 0, 1, 2, 1, {"west", "east", "south", "north"})
        dom = MultiPatchDomain([patch], []).validate()
        u_star = lambda x, y: x * (1 - x) * y * (1 - y)
        grad_star = lambda x, y: np.stack(
            [(1 - 2 * x) * y * (1 - y), x * (1 - x) * (1 - 2 * y)], axis=-1)
        f = lambda x, y: 2 * y * (1 - y) + 2 * x * (1 - x)
        system = assemble_global(dom, 12.0, source=f)
        u = split_solution(system, direct_solve(system))
        l2, h1, jump = measure_error(dom, u, u_star, grad_star)
        assert l2 <= 1e-12
        assert h1 <= 1e-11

    def test_evaluate_patch_constant(self):
        patch = unit_square_patch(0, 1, 0, 1, 2, 1, set())
        coeffs = np.ones(patch.space.dimension)
        vals = evaluate_patch(patch, coeffs, np.linspace(0, 1, 7), np.linspace(0, 1, 5))
        np.testing.assert_allclose(vals, 1.0, atol=1e-14)

    def test_offsets(self):
        dom = t_domain(degree=1, refinements=1)
        offs = patch_offsets(dom)
        assert offs[0] == 0
        assert offs[-1] == sum(p.space.dimension for p in dom.patches)
