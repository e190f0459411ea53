import json

import numpy as np
import pytest
import scipy.interpolate
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from ietidg.bspline import (
    KnotVector,
    TensorSplineSpace,
    eval_basis,
    eval_matrices,
    gauss_rule,
    _covering,
    greville_points,
    refine_uniform,
)
from ietidg.assembly import _trace_dofs
from ietidg.errors import ConfigError

from conftest import random_knotvector


class TestKnotVector:
    def test_basic(self):
        kv = KnotVector(2, [0, 0, 0, 0.5, 1, 1, 1])
        assert kv.n == 4
        assert kv.h_max == 0.5 == kv.__dict__["h_max"]  # computed once and kept
        assert np.diff(kv.breakpoints).min() == 0.5

    def test_rejects_non_open(self):
        with pytest.raises(ConfigError):
            KnotVector(2, [0, 0, 0.5, 1, 1, 1, 1])

    def test_rejects_excess_multiplicity(self):
        with pytest.raises(ConfigError):
            KnotVector(2, [0, 0, 0, 0.5, 0.5, 0.5, 1, 1, 1])

    def test_rejects_decreasing(self):
        with pytest.raises(ConfigError):
            KnotVector(1, [0, 0, 0.6, 0.4, 1, 1])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ConfigError, match="knots must be finite and non-decreasing"):
            KnotVector(1, [0, 0, bad, 1, 1])

    def test_rejects_degree_zero(self):
        with pytest.raises(ConfigError):
            KnotVector(0, [0, 1])

    def test_h_measures_graded(self):
        kv = KnotVector(1, [0, 0, 0.1, 0.5, 1, 1])
        h_min = np.diff(kv.breakpoints).min()
        assert h_min == pytest.approx(0.1)
        assert kv.h_max == pytest.approx(0.5)
        assert kv.h_max / h_min == pytest.approx(5.0)

    def test_json_roundtrip_binary64(self, rng):
        # domain_to_config writes the knots as a JSON list
        kv = random_knotvector(rng)
        kv2 = KnotVector(kv.p, json.loads(json.dumps(kv.knots.tolist())))
        assert kv2.p == kv.p
        assert np.array_equal(kv2.knots, kv.knots)

    def test_find_span_endpoint_convention(self):
        kv = KnotVector(2, [0, 0, 0, 0.5, 1, 1, 1])
        assert kv.find_span(1.0) == kv.n - 1
        assert kv.find_span(0.0) == kv.p
        assert kv.find_span(0.5) == 3


class TestEvalBasis:
    def test_bernstein_midpoint(self):
        kv = KnotVector(2, [0, 0, 0, 1, 1, 1])
        (first,), (tab,) = eval_basis(kv, [0.5])
        assert first == 0
        np.testing.assert_allclose(tab[0], [0.25, 0.5, 0.25])

    def test_endpoint_interpolation(self, rng):
        for _ in range(10):
            kv = random_knotvector(rng)
            (first,), (tab,) = eval_basis(kv, [0.0])
            assert first == 0
            np.testing.assert_allclose(tab[0], np.eye(kv.p + 1)[0], atol=1e-15)
            (first,), (tab,) = eval_basis(kv, [1.0])
            assert first == kv.n - kv.p - 1
            np.testing.assert_allclose(tab[0], np.eye(kv.p + 1)[-1], atol=1e-15)

    def test_partition_of_unity_and_derivative_sum(self):
        kv = KnotVector(2, [0, 0, 0, 0.5, 1, 1, 1])
        _, (tab,) = eval_basis(kv, [0.25], 1)
        assert tab[0].sum() == pytest.approx(1.0, abs=1e-14)
        assert tab[1].sum() == pytest.approx(0.0, abs=1e-13)

    def test_partition_of_unity_random(self, rng):
        for _ in range(20):
            kv = random_knotvector(rng)
            xs = rng.uniform(0, 1, 50)
            for x in xs:
                _, (tab,) = eval_basis(kv, [x])
                assert abs(tab[0].sum() - 1.0) <= 1e-12
                assert np.all(tab[0] >= -1e-14)

    def test_against_scipy(self, rng):
        # independent oracle: scipy's BSpline evaluated per basis function
        for _ in range(10):
            kv = random_knotvector(rng)
            xs = rng.uniform(0, 1, 30)
            coeffs = np.eye(kv.n)
            for d in range(2):
                ours = eval_matrices(kv, xs, d)[d]
                theirs = np.column_stack(
                    [scipy.interpolate.BSpline(kv.knots, coeffs[i], kv.p).derivative(d)(xs)
                     if d else scipy.interpolate.BSpline(kv.knots, coeffs[i], kv.p)(xs)
                     for i in range(kv.n)]
                )
                scale = max(np.abs(theirs).max(), 1.0)
                assert np.abs(ours - theirs).max() <= 1e-10 * scale

    def test_derivative_matches_central_differences(self, rng):
        h = 1e-6
        for _ in range(10):
            kv = random_knotvector(rng)
            for x in rng.uniform(0.05, 0.95, 10):
                lo = eval_matrices(kv, [x - h])[0, 0]
                hi = eval_matrices(kv, [x + h])[0, 0]
                der = eval_matrices(kv, [x], 1)[1, 0]
                fd = (hi - lo) / (2 * h)
                scale = max(np.abs(der).max(), 1.0)
                assert np.abs(der - fd).max() <= 1e-6 * scale

    def test_domain_errors(self):
        kv = KnotVector(2, [0, 0, 0, 1, 1, 1])
        with pytest.raises(ValueError):
            eval_basis(kv, [1.5])
        with pytest.raises(ValueError):
            eval_basis(kv, [0.5], max_deriv=2)
        with pytest.raises(ValueError):
            eval_basis(kv, [0.5], max_deriv=3)


def scalar_cox_de_boor(kv, x, max_deriv):
    """Reference: the one-point triangular-table recursion with derivatives, in plain loops."""
    p, U = kv.p, kv.knots
    span = min(max(int(np.searchsorted(U, x, side="right")) - 1, p), kv.n - 1)
    left, right = np.empty(p + 1), np.empty(p + 1)
    ndu = np.empty((p + 1, p + 1))
    ndu[0, 0] = 1.0
    for j in range(1, p + 1):
        left[j] = x - U[span + 1 - j]
        right[j] = U[span + j] - x
        saved = 0.0
        for r in range(j):
            ndu[j, r] = right[r + 1] + left[j - r]
            temp = ndu[r, j - 1] / ndu[j, r]
            ndu[r, j] = saved + right[r + 1] * temp
            saved = left[j - r] * temp
        ndu[j, j] = saved
    out = np.zeros((max_deriv + 1, p + 1))
    out[0] = ndu[:, p]
    a = np.empty((2, p + 1))
    for r in range(p + 1):
        s1, s2 = 0, 1
        a[0, 0] = 1.0
        for k in range(1, max_deriv + 1):
            d = 0.0
            rk, pk = r - k, p - k
            if r >= k:
                a[s2, 0] = a[s1, 0] / ndu[pk + 1, rk]
                d = a[s2, 0] * ndu[rk, pk]
            j1 = 1 if rk >= -1 else -rk
            j2 = k - 1 if r - 1 <= pk else p - r
            for j in range(j1, j2 + 1):
                a[s2, j] = (a[s1, j] - a[s1, j - 1]) / ndu[pk + 1, rk + j]
                d += a[s2, j] * ndu[rk + j, pk]
            if r <= pk:
                a[s2, k] = -a[s1, k - 1] / ndu[pk + 1, r]
                d += a[s2, k] * ndu[r, pk]
            out[k, r] = d
            s1, s2 = s2, s1
    fac = float(p)
    for k in range(1, max_deriv + 1):
        out[k] *= fac
        fac *= p - k
    return span - p, out


@st.composite
def open_knots_and_points(draw):
    """An open knot vector (p = 1..4, interior multiplicities <= p) and points on it,
    including every knot and both ends."""
    p = draw(st.integers(1, 4))
    distinct = draw(st.lists(st.floats(0.01, 0.99), max_size=4, unique_by=lambda t: round(t, 3)))
    interior = sorted(t for t in distinct for _ in range(draw(st.integers(1, p))))
    kv = KnotVector(p, [0.0] * (p + 1) + interior + [1.0] * (p + 1))
    extra = draw(st.lists(st.floats(0.0, 1.0), max_size=6))
    return kv, np.array(list(kv.knots) + [0.0, 1.0] + extra)


class TestArrayRecursion:
    @seed(20261018)
    @settings(max_examples=60, deadline=None, database=None)
    @given(open_knots_and_points(), st.integers(0, 1))
    def test_tables_match_one_point_forms(self, case, max_deriv):
        # every row of a batch equals the batch at that single point and the plain-loop recursion
        kv, points = case
        firsts, tables = eval_basis(kv, points, max_deriv)
        assert firsts.shape == points.shape
        assert tables.shape == (points.size, max_deriv + 1, kv.p + 1)
        for q, x in enumerate(points):
            (first,), (table,) = eval_basis(kv, [x], max_deriv)
            ref_first, ref_table = scalar_cox_de_boor(kv, x, max_deriv)
            assert firsts[q] == first == ref_first
            assert np.array_equal(tables[q], table)
            assert np.array_equal(tables[q], ref_table)
        assert np.all(np.abs(tables[:, 0].sum(axis=-1) - 1.0) <= 1e-12)
        # derivative rows cancel to rounding of their own magnitude
        rows = tables[:, 1:]
        scale = np.maximum(np.abs(rows).max(axis=-1), 1.0)
        assert np.all(np.abs(rows.sum(axis=-1)) <= 1e-12 * scale)


class TestGreville:
    def test_examples(self):
        np.testing.assert_allclose(
            greville_points(KnotVector(2, [0, 0, 0, 1, 1, 1])), [0, 0.5, 1]
        )
        np.testing.assert_allclose(
            greville_points(KnotVector(2, [0, 0, 0, 0.5, 1, 1, 1])), [0, 0.25, 0.75, 1]
        )
        np.testing.assert_allclose(greville_points(KnotVector(1, [0, 0, 1, 1])), [0, 1])

    def test_monotone_with_endpoints(self, rng):
        for _ in range(20):
            g = greville_points(random_knotvector(rng))
            assert g[0] == 0.0 and g[-1] == 1.0
            assert np.all(np.diff(g) >= -1e-15)


class TestRefine:
    def test_bisection(self):
        kv = refine_uniform(KnotVector(2, [0, 0, 0, 1, 1, 1]), 1)
        np.testing.assert_allclose(kv.knots, [0, 0, 0, 0.5, 1, 1, 1])

    def test_identity(self, rng):
        kv = random_knotvector(rng)
        kv0 = refine_uniform(kv, 0)
        assert np.array_equal(kv0.knots, kv.knots)

    def test_negative_level_rejected(self):
        with pytest.raises(ConfigError, match="refinement level must be non-negative"):
            refine_uniform(KnotVector.bernstein(2), -1)

    def test_two_levels(self):
        kv = refine_uniform(KnotVector(1, [0, 0, 1, 1]), 2)
        np.testing.assert_allclose(kv.knots, [0, 0, 0.25, 0.5, 0.75, 1, 1])

    def test_preserves_multiplicity(self):
        kv = refine_uniform(KnotVector(2, [0, 0, 0, 0.5, 0.5, 1, 1, 1]), 1)
        assert np.sum(kv.knots == 0.5) == 2
        np.testing.assert_allclose(kv.knots, [0, 0, 0, 0.25, 0.5, 0.5, 0.75, 1, 1, 1])

    def test_nesting(self, rng):
        # a coarse spline re-expressed on the refined basis keeps its point values
        for _ in range(5):
            kv = random_knotvector(rng)
            fine = refine_uniform(kv, 1)
            coeffs = rng.standard_normal(kv.n)
            xs = np.linspace(0, 1, 200)
            coarse_vals = eval_matrices(kv, xs)[0] @ coeffs
            B = eval_matrices(fine, xs)[0]
            fine_coeffs, *_ = np.linalg.lstsq(B, coarse_vals, rcond=None)
            assert np.abs(B @ fine_coeffs - coarse_vals).max() <= 1e-10


def support_overlap(kv, a, b):
    """The functions of `kv` whose support meets (a, b), by `_trace_dofs` on the west edge of a
    space with no Dirichlet sides, whose dofs there are the v-indices."""
    return _trace_dofs([(TensorSplineSpace(kv, kv), "west", (a, b))])[1]


def positive_functions(kv, x):
    """The functions of `kv` that `_covering` finds positive at `x`."""
    index, positive = _covering(kv, np.array([x]))
    return index[positive]


class TestActivity:
    def test_support_overlap_examples(self):
        kv = KnotVector(2, [0, 0, 0, 0.5, 1, 1, 1])
        assert support_overlap(kv, 0.0, 0.5).tolist() == [0, 1, 2]
        assert support_overlap(kv, 0.0, 1.0).tolist() == [0, 1, 2, 3]
        kv1 = KnotVector(1, [0, 0, 0.5, 1, 1])
        assert support_overlap(kv1, 0.5, 1.0).tolist() == [1, 2]

    def test_covering_positive_at_point(self):
        kv = KnotVector(2, [0, 0, 0, 0.5, 1, 1, 1])
        # derived by evaluating every function at x = 0.5 and thresholding
        vals = eval_matrices(kv, [0.5])[0, 0]
        expected = np.nonzero(vals > 0)[0].tolist()
        assert positive_functions(kv, 0.5).tolist() == expected == [1, 2]
        assert positive_functions(kv, 0.0).tolist() == [0]
        assert positive_functions(kv, 1.0).tolist() == [kv.n - 1]

    @seed(20261019)
    @settings(max_examples=60, deadline=None, database=None)
    @given(open_knots_and_points())
    def test_support_rules_match_evaluation(self, case):
        # the knot rules against their definitions: positive values of the
        # plain-loop recursion, and the support overlap tested one function at a time
        kv, points = case
        U, p = kv.knots, kv.p
        for x in points:
            first, table = scalar_cox_de_boor(kv, x, 0)
            positive = set((first + np.flatnonzero(table[0] > 0.0)).tolist())
            rule = set(positive_functions(kv, x).tolist())
            assert positive <= rule
            # the rule is exact where a value underflows: B_i(x) ~ x**p at a subnormal x
            for i in rule - positive:
                assert 0.0 < min(x - U[i], U[i + p + 1] - x) < 1e-30
        bp = kv.breakpoints
        for a in bp:
            for b in bp[bp > a]:
                loop = [i for i in range(kv.n) if U[i] < b and U[i + p + 1] > a]
                assert support_overlap(kv, a, b).tolist() == loop

    def test_nonzero_at_c0_knot(self):
        # at a knot of multiplicity p only the C^0 function survives
        kv = KnotVector(2, [0, 0, 0, 0.4, 0.4, 1, 1, 1])
        assert positive_functions(kv, 0.4).tolist() == [2]


class TestGauss:
    def test_midpoint(self):
        rule = gauss_rule(1)
        np.testing.assert_allclose(rule.nodes, [0.0])
        np.testing.assert_allclose(rule.weights, [2.0])

    def test_two_point(self):
        rule = gauss_rule(2)
        np.testing.assert_allclose(np.sort(rule.nodes), [-1 / np.sqrt(3), 1 / np.sqrt(3)])
        np.testing.assert_allclose(rule.weights, [1.0, 1.0])

    def test_exactness(self):
        rule = gauss_rule(3)
        assert np.sum(rule.weights * rule.nodes**4) == pytest.approx(2 / 5, rel=1e-14)
        for n in (1, 2, 4, 8):
            rule = gauss_rule(n)
            assert np.all(rule.weights > 0)
            assert rule.weights.sum() == pytest.approx(2.0)
            for d in range(2 * n):
                exact = 0.0 if d % 2 else 2.0 / (d + 1)
                assert np.sum(rule.weights * rule.nodes**d) == pytest.approx(exact, abs=1e-13)

    def test_range_errors(self):
        with pytest.raises(ValueError):
            gauss_rule(0)
        with pytest.raises(ValueError):
            gauss_rule(65)

    def test_mapped_interval(self):
        pts, wts = gauss_rule(4).mapped(0.25, 0.75)
        assert wts.sum() == pytest.approx(0.5)
        assert np.all((pts > 0.25) & (pts < 0.75))


class TestTensorSplineSpace:
    def test_lattice_bijection(self):
        kv = KnotVector(2, [0, 0, 0, 0.5, 1, 1, 1])
        space = TensorSplineSpace(kv, kv)
        assert space.dimension == 16
        # flat index is i * n_v + j
        assert space.dof_map[1, 2] == 1 * 4 + 2

    def test_dirichlet_removes_boundary_layer(self):
        kv = KnotVector(2, [0, 0, 0, 0.5, 1, 1, 1])
        space = TensorSplineSpace(kv, kv, {"west", "south"})
        assert space.dimension == 9
        assert np.all(space.dof_map[0, :] == -1)
        assert np.all(space.dof_map[:, 0] == -1)
        assert space.dof_map[1, 1] == 0

    def test_mixed_degree_rejected(self):
        with pytest.raises(ConfigError):
            TensorSplineSpace(KnotVector(1, [0, 0, 1, 1]), KnotVector(2, [0, 0, 0, 1, 1, 1]))

    def test_unknown_side_rejected(self):
        kv = KnotVector(1, [0, 0, 1, 1])
        with pytest.raises(ConfigError):
            TensorSplineSpace(kv, kv, {"up"})

    def test_unknown_edge_side_rejected(self):
        kv = KnotVector(1, [0, 0, 1, 1])
        with pytest.raises(ConfigError, match="unknown side 'up'"):
            TensorSplineSpace(kv, kv).edge_dofs("up")

    def test_edge_kv_orientation(self):
        kv_u = KnotVector(1, [0, 0, 0.5, 1, 1])
        kv_v = KnotVector(1, [0, 0, 1, 1])
        space = TensorSplineSpace(kv_u, kv_v)
        assert space.edge_kv("south") is kv_u
        assert space.edge_kv("west") is kv_v
        assert space.edge_dofs("east")[0] == space.dof_map[space.n_u - 1, 0]
        assert space.edge_dofs("north")[1] == space.dof_map[1, space.n_v - 1]
