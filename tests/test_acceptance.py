"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the whole suite stays within a few minutes on a laptop.
"""

import time

import numpy as np
import pytest
import scipy.linalg

from ietidg import refsolver
from ietidg.cli import ExperimentSpec, run_growth_study, run_solve
from ietidg.domains import grid_domain, slider_domain, t_domain
from ietidg.ieti import lambda_factor, pcg_solve, setup_operator, solve_ieti

from conftest import (check_lemma_bbt, full_jump_columns, project_wtilde, psi_residual,
                      two_patch_domain)

BUILTINS = {
    "grid2x2": lambda p, r, alphas=None: grid_domain(2, degree=p, refinements=r, alphas=alphas),
    "tdomain": lambda p, r, alphas=None: t_domain(degree=p, refinements=r, alphas=alphas),
    "slider(3,0.3)": lambda p, r, alphas=None: slider_domain(3, 0.3, degree=p, refinements=r,
                                                             alphas=alphas),
}


def _report(line):
    print(line, flush=True)


class TestCriterion1OracleEquivalence:
    @pytest.mark.parametrize("name", sorted(BUILTINS))
    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("r", [1, 2])
    def test_ieti_matches_direct_solve(self, name, p, r):
        t0 = time.perf_counter()
        dom = BUILTINS[name](p, r)
        sol = solve_ieti(dom, tol=1e-10)
        system = refsolver.assemble_global(dom, 12.0)
        direct = refsolver.split_solution(system, refsolver.direct_solve(system))
        elapsed = time.perf_counter() - t0
        scale = max(np.abs(np.concatenate(direct)).max(), 1e-300)
        err = max(np.abs(a - b).max() for a, b in zip(sol.u_patches, direct)) / scale
        assert err <= 1e-6, "relative sup-norm discrepancy %.3e" % err
        assert elapsed <= 60.0
        _report("PASS criterion 1 [%s p=%d r=%d]: |u_ieti - u_direct| = %.2e rel (%.1fs)"
                % (name, p, r, err, elapsed))


class TestCriterion2LemmaIdentity:
    @pytest.mark.parametrize("name", sorted(BUILTINS))
    @pytest.mark.parametrize("pattern", ["flat", "geometric"])
    def test_scaled_jump_identity(self, name, pattern, rng):
        probe = BUILTINS[name](2, 2)
        if pattern == "flat":
            alphas = [1.0] * probe.num_patches
        else:
            alphas = [10.0 ** max(0, 2 * k - 1) for k in range(probe.num_patches)]
        dom = BUILTINS[name](2, 2, alphas=alphas)
        op = setup_operator(dom)
        worst = 0.0
        for _ in range(50):
            u = project_wtilde(op, [rng.standard_normal(s.n_total) for s in op.locals])
            worst = max(worst, check_lemma_bbt(op, u))
        assert worst <= 1e-12, "max coefficientwise deviation %.3e" % worst
        _report("PASS criterion 2 [%s alphas=%s]: max deviation %.2e"
                % (name, pattern, worst))


class TestCriterion3JumpRobustness:
    @pytest.mark.parametrize("p", [2, 3])
    def test_kappa_nearly_jump_independent(self, p):
        spec = ExperimentSpec(builtin=("tdomain",), degrees=[p], refinements=[3],
                              jump_exponents=[0, 1, 2, 3, 4])
        results = run_solve(spec)
        kappas = np.array([entry["kappa"] for entry in results])
        spread = kappas.max() / kappas.min()
        assert spread <= 2.0, "kappa spread %.3f over jump exponents" % spread
        _report("PASS criterion 3 [p=%d]: kappa in [%.3f, %.3f], spread %.3f"
                % (p, kappas.min(), kappas.max(), spread))


GROWTH_LEVELS = [1, 2, 3, 4, 5]
RISE_BOUND = 3.0


@pytest.fixture(scope="module")
def growth():
    t0 = time.perf_counter()
    spec = ExperimentSpec(builtin=("slider", "3", "0.3"), degrees=[2],
                          refinements=GROWTH_LEVELS)
    study = run_growth_study(spec)[0]
    study["elapsed"] = time.perf_counter() - t0
    return study


def largest_rise(ratios):
    """Largest factor by which ``ratios`` rises from one level to any later one.

    Returns ``(rise, i, j)`` with ``rise = ratios[j] / ratios[i]`` maximal over
    ``i < j``.  The bound kappa <= C p Lambda^2 allows kappa / (p Lambda^2) to
    fall freely with refinement but not to grow, so a rise above a fixed
    constant means kappa outgrows the bound.
    """
    return max((ratios[j] / ratios[i], i, j)
               for j in range(1, len(ratios)) for i in range(j))


def _dense_spectrum(op):
    """Exact eigenvalues of M_sD F, from both operators built column by column."""
    unit = np.eye(op.n_rows)
    F = np.column_stack([op.apply_F(e) for e in unit])
    M = np.column_stack([op.apply_MsD(e) for e in unit])
    L = np.linalg.cholesky(M)
    return np.sort(scipy.linalg.eigvalsh(L.T @ F @ L))


class TestCriterion4GrowthLaw:
    def test_kappa_monotone_beyond_r2(self, growth):
        assert growth["elapsed"] <= 600.0
        kappas = dict(zip(growth["refinements"], growth["kappas"]))
        assert kappas[4] >= kappas[3]
        assert kappas[5] >= kappas[4]
        _report("PASS criterion 4a: kappa monotone beyond r=2: %s (%.0fs)"
                % (["%.3f" % kappas[r] for r in (1, 2, 3, 4, 5)], growth["elapsed"]))

    def test_ratio_spread_within_three(self, growth):
        levels, ratios = growth["refinements"], growth["ratios"]
        rise, i, j = largest_rise(ratios)
        line = ("criterion 4b: kappa/(p Lambda^2) over r=%d..%d is %s; largest rise %.3f "
                "(r=%d -> r=%d)" % (levels[0], levels[-1], ["%.4f" % x for x in ratios],
                                    rise, levels[i], levels[j]))
        assert rise <= RISE_BOUND, "%s exceeds %g" % (line, RISE_BOUND)
        _report("PASS " + line)

    @pytest.mark.parametrize("model, accepted", [("flat", True), ("bound", True),
                                                 ("H/h", False)])
    def test_rise_check_separates_growth_models(self, model, accepted):
        # The 4b check on the growth fixture's own bounds, without solves:
        # kappa ~ H/h is what a coarse space without T-junction primals gives.
        bounds, h_ratios = [], []
        for r in GROWTH_LEVELS:
            dom = slider_domain(3, 0.3, degree=2, refinements=r)
            bounds.append(dom.degree * lambda_factor(dom) ** 2)
            h_ratios.append(1.0 / dom.metrics["hhat"].min())
        bounds = np.array(bounds)
        kappas = {"flat": np.ones_like(bounds), "bound": 0.1 * bounds,
                  "H/h": np.array(h_ratios)}[model]
        rise, i, j = largest_rise(kappas / bounds)
        assert (rise <= RISE_BOUND) == accepted, (
            "kappa ~ %s: rise %.3f (r=%d -> r=%d)" % (model, rise, GROWTH_LEVELS[i],
                                                      GROWTH_LEVELS[j]))
        _report("PASS criterion 4b check [kappa ~ %s]: rise %.3f, %s"
                % (model, rise, "accepted" if accepted else "rejected"))

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_dense_spectrum_matches_lanczos(self, r):
        dom = BUILTINS["slider(3,0.3)"](2, r)
        op = setup_operator(dom)
        ev = _dense_spectrum(op)
        kappa_dense = ev[-1] / ev[0]
        res = pcg_solve(op, op.compute_d(), tol=1e-6)
        rel = abs(res.kappa - kappa_dense) / kappa_dense
        assert ev[0] >= 1.0 - 1e-8, "lambda_min %.10f" % ev[0]
        assert rel <= 0.10, "estimate %.4f vs dense %.4f" % (res.kappa, kappa_dense)
        _report("PASS criterion 4 spectrum [slider(3,0.3) p=2 r=%d, %d multipliers]: "
                "lambda in [%.6f, %.4f], Lanczos %.4f vs dense %.4f (rel diff %.2e)"
                % (r, op.n_rows, ev[0], ev[-1], res.kappa, kappa_dense, rel))


DEGREES = [2, 3, 4, 5, 6]


class TestCriterion4DegreeGrowth:
    def test_ratio_rise_over_degrees_within_three(self):
        # the bound's factor p (1 + log p + log H/h)^2 over p at fixed H/h: on
        # tdomain r=2 the ratio kappa/(p Lambda^2) may not rise by more than 3
        t0 = time.perf_counter()
        spec = ExperimentSpec(builtin=("tdomain",), degrees=DEGREES, refinements=[2])
        results = run_solve(spec)
        elapsed = time.perf_counter() - t0
        assert [entry["fd_interior_blocks"] for entry in results] == [5] * len(DEGREES)
        ratios = [entry["kappa_over_bound"] for entry in results]
        rise, i, j = largest_rise(ratios)
        line = ("criterion 4 degree study: kappa/(p Lambda^2) on tdomain r=2 over p=%d..%d is "
                "%s; largest rise %.3f (p=%d -> p=%d)"
                % (DEGREES[0], DEGREES[-1], ["%.4f" % x for x in ratios], rise,
                   DEGREES[i], DEGREES[j]))
        assert rise <= RISE_BOUND, "%s exceeds %g" % (line, RISE_BOUND)
        _report("PASS %s (%.1fs)" % (line, elapsed))


class TestCriterion5ConvergenceRates:
    @pytest.mark.parametrize("p", [1, 2])
    def test_l2_rate(self, p):
        u_star = lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)
        f = lambda x, y: 2.0 * np.pi**2 * np.sin(np.pi * x) * np.sin(np.pi * y)
        refinements = [2, 3, 4, 5]
        errs = []
        for r in refinements:
            dom = t_domain(degree=p, refinements=r)
            system = refsolver.assemble_global(dom, 12.0, source=f)
            u = refsolver.split_solution(system, refsolver.direct_solve(system))
            l2, _, _ = refsolver.measure_error(dom, u, u_star)
            errs.append(l2)
        hs = [2.0**-r for r in refinements]
        rate = float(np.polyfit(np.log(hs), np.log(errs), 1)[0])
        assert p + 0.7 <= rate <= p + 1.3, "observed L2 rate %.3f" % rate
        _report("PASS criterion 5 [p=%d]: L2 rate %.3f over 4 refinements (errors %s)"
                % (p, rate, ["%.2e" % e for e in errs]))


class TestCriterion6StructuralInvariants:
    @pytest.mark.parametrize("name", sorted(BUILTINS))
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_all_invariants(self, name, p, rng):
        dom = BUILTINS[name](p, 2)
        op = setup_operator(dom)
        # jump-matrix structure
        B = np.hstack(full_jump_columns(op.jumps, op.partition, op.locals))
        for row in B:
            assert sorted(row[row != 0]) == [-1.0, 1.0]
        counts = (B != 0).sum(axis=0)
        assert np.all(counts <= 1)
        offset = 0
        for k in range(dom.num_patches):
            n_e = op.locals[k].n_total
            blk_counts = counts[offset : offset + n_e]
            for dof in op.partition.dual[k]:
                assert blk_counts[dof] == 1
            for dof in np.concatenate([op.partition.interior[k], op.partition.primal[k]]):
                assert blk_counts[int(dof)] == 0
            offset += n_e
        # energy minimality of the primal basis
        psi_res = max(psi_residual(op, k) for k in range(dom.num_patches))
        assert psi_res <= 1e-9
        # randomized symmetry of both operators
        worst = 0.0
        for _ in range(20):
            x = rng.standard_normal(op.n_rows)
            y = rng.standard_normal(op.n_rows)
            fx, fy = op.apply_F(x), op.apply_F(y)
            worst = max(worst, abs(y @ fx - x @ fy) / (np.linalg.norm(fx) * np.linalg.norm(y)))
            mx, my = op.apply_MsD(x), op.apply_MsD(y)
            worst = max(worst, abs(y @ mx - x @ my) / (np.linalg.norm(mx) * np.linalg.norm(y)))
        assert worst <= 1e-9
        # primal members evaluate positive at their vertex
        from ietidg.bspline import eval_basis

        for g in op.groups:
            vertex = dom.vertices[g.vertex]
            patch, dof = g.source
            loc = dict(vertex.adjacency)[patch]
            space = dom.patches[patch].space
            i, j = np.argwhere(space.dof_map == dof)[0]
            fu, tu = eval_basis(space.kv_u, loc[0])
            fv, tv = eval_basis(space.kv_v, loc[1])
            vu = tu[0][i - fu] if fu <= i <= fu + space.degree else 0.0
            vv = tv[0][j - fv] if fv <= j <= fv + space.degree else 0.0
            assert vu * vv > 0.0
        _report("PASS criterion 6 [%s p=%d]: B structure, psi residual %.1e, "
                "symmetry %.1e, primal positivity" % (name, p, psi_res, worst))


class TestCriterion7EstimatorValidity:
    def test_lanczos_matches_dense_eigenvalues(self, rng):
        op = setup_operator(two_patch_domain(p=1, r=2))
        ev = _dense_spectrum(op)
        kappa_dense = ev[-1] / ev[0]
        n = op.n_rows
        res = pcg_solve(op, rng.standard_normal(n), tol=1e-12, max_iter=10 * n)
        rel = abs(res.kappa - kappa_dense) / kappa_dense
        assert rel <= 0.10, "estimate %.4f vs dense %.4f" % (res.kappa, kappa_dense)
        _report("PASS criterion 7: Lanczos %.4f vs dense %.4f (rel diff %.2e)"
                % (res.kappa, kappa_dense, rel))
