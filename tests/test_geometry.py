import json
import tracemalloc

import numpy as np
import pytest

from ietidg import bspline
from ietidg.bspline import SIDES, KnotVector, TensorSplineSpace, _covering, refine_uniform
from ietidg.domains import (
    domain_from_config,
    domain_to_config,
    grid_domain,
    slider_domain,
    t_domain,
)
from ietidg import geometry
from ietidg.errors import ConfigError
from ietidg.geometry import (
    GeometryMap,
    Interface,
    MultiPatchDomain,
    Patch,
    classify_vertices,
    eval_maps,
    side_normal_hat,
    side_point,
    validate_interfaces,
)
from ietidg.ieti import setup_operator, solve_ieti
from ietidg.refsolver import assemble_global

from conftest import (at, curved_two_patch_domain, end_arrays, end_records, map_param,
                      mirrored_two_patch_domain, nonuniform_config_domain, reference_classify_vertices,
                      reference_validate, reversed_two_patch_domain, two_patch_domain, unit_square_patch,
                      vertex_records)
from test_assembly import whole_domain_cases
from test_ieti import partial_interface_domain


class TestGeometryMap:
    def test_identity(self):
        geo = GeometryMap.bilinear((0, 0), (1, 0), (0, 1), (1, 1))
        x, J = at(geo, 0.3, 0.7)
        np.testing.assert_allclose(x, [0.3, 0.7])
        np.testing.assert_allclose(eval_maps([geo], np.zeros(1, int), np.array([0.3]), np.array([0.7]))[0],
                                   [0.3, 0.7])
        np.testing.assert_allclose(J, np.eye(2))

    def test_affine_scaling(self):
        geo = GeometryMap.bilinear((0, 0), (2, 0), (0, 3), (2, 3))
        for u, v in [(0.1, 0.9), (0.5, 0.5)]:
            np.testing.assert_allclose(at(geo, u, v)[1], np.diag([2.0, 3.0]))
        assert np.linalg.det(at(geo, 0.2, 0.8)[1]) == pytest.approx(6.0)

    def test_bilinear_hand_value(self):
        # direct bilinear interpolation of the four corners
        corners = {"sw": (0, 0), "se": (1, 0), "nw": (0, 1), "ne": (2, 1)}
        geo = GeometryMap.bilinear(corners["sw"], corners["se"], corners["nw"], corners["ne"])
        u = v = 0.5
        expected = (
            np.array(corners["sw"]) * (1 - u) * (1 - v)
            + np.array(corners["se"]) * u * (1 - v)
            + np.array(corners["nw"]) * (1 - u) * v
            + np.array(corners["ne"]) * u * v
        )
        np.testing.assert_allclose(at(geo, 0.5, 0.5)[0], expected)
        np.testing.assert_allclose(at(geo, 0.5, 0.5)[0], [0.75, 0.5])

    def test_jacobian_finite_differences(self, rng):
        geo = GeometryMap.bilinear((0, 0), (1.2, -0.1), (0.2, 1.1), (1.5, 1.3))
        h = 1e-6
        for _ in range(100):
            u, v = rng.uniform(0.01, 0.99, 2)
            J = at(geo, u, v)[1]
            fd_u = (at(geo, u + h, v)[0] - at(geo, u - h, v)[0]) / (2 * h)
            fd_v = (at(geo, u, v + h)[0] - at(geo, u, v - h)[0]) / (2 * h)
            np.testing.assert_allclose(J[:, 0], fd_u, rtol=1e-5, atol=1e-8)
            np.testing.assert_allclose(J[:, 1], fd_v, rtol=1e-5, atol=1e-8)

    def test_degenerate_rejected(self):
        geo = GeometryMap.bilinear((0, 0), (1, 0), (0, 0), (1, 0))  # collapsed
        with pytest.raises(ConfigError):
            single_map_domain(geo).validate()

    def test_negative_det_allowed(self):
        # orientation-reversing but bijective map passes validation
        geo = GeometryMap.bilinear((1, 0), (0, 0), (1, 1), (0, 1))
        single_map_domain(geo).validate()
        assert np.linalg.det(at(geo, 0.5, 0.5)[1]) < 0

    @pytest.mark.parametrize("jacobian", [False, True])
    def test_eval_maps_matches_each_map(self, jacobian):
        # maps of three knot-vector pairs, one with kv_u unlike kv_v, points in mixed patch order
        kv_u, kv_v = KnotVector.bernstein(2), KnotVector(2, [0, 0, 0, 0.4, 1, 1, 1])
        control = np.stack(np.meshgrid([0.0, 0.6, 1.0], [0.0, 0.3, 0.8, 1.2], indexing="ij"), -1)
        control[1, 1] += 0.05
        maps = [p.geometry for p in curved_two_patch_domain(p=2).patches] + [
            GeometryMap.bilinear((0, 0), (2, 0), (0, 1), (3, 2)), GeometryMap(kv_u, kv_v, control)]
        rng = np.random.default_rng(7)
        patch, u, v = rng.integers(0, 4, 40), rng.uniform(0, 1, 40), rng.uniform(0, 1, 40)
        out = eval_maps(maps, patch, u, v, jacobian)
        for q in range(40):
            x, J = at(maps[patch[q]], u[q], v[q])
            np.testing.assert_allclose(out[q], J if jacobian else x, rtol=1e-14, atol=1e-14)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_control_rejected(self, bad):
        with pytest.raises(ConfigError, match="control points must be finite"):
            GeometryMap.bilinear((0, 0), (1, 0), (0, 1), (1, bad))


class TestValidateInterface:
    def test_exact_match(self):
        dom = two_patch_domain(p=1, r=1)
        report, ends = validate_interfaces(dom)
        assert report is None
        assert [(x.tolist(), patch, loc) for x, patch, loc in end_records(*ends)] == [
            ([1.0, 0.0], 0, (1.0, 0.0)), ([1.0, 0.0], 1, (0.0, 0.0)),
            ([1.0, 1.0], 0, (1.0, 1.0)), ([1.0, 1.0], 1, (0.0, 1.0)),
        ]

    def test_subinterval_match(self):
        patches = [
            unit_square_patch(0, 1, 0, 1, 1, 1, {"west", "south", "north"}),
            unit_square_patch(1, 2, 0, 1, 1, 1, {"east", "south", "north"}),
        ]
        ifaces = [Interface(0, "east", (0.0, 0.5), 1, "west", (0.0, 0.5))]
        dom = MultiPatchDomain(patches, ifaces)
        dom.metrics = dom._compute_metrics()
        report, ends = validate_interfaces(dom)
        assert report is None
        assert [(patch, loc) for _, patch, loc in end_records(*ends)] == [
            (0, (1.0, 0.0)), (1, (0.0, 0.0)), (0, (1.0, 0.5)), (1, (0.0, 0.5)),
        ]

    def test_mismatch_reported(self):
        patches = [
            unit_square_patch(0, 1, 0, 1, 1, 1, {"west"}),
            unit_square_patch(1 + 1e-3, 2, 0, 1, 1, 1, {"east"}),
        ]
        ifaces = [Interface(0, "east", (0.0, 1.0), 1, "west", (0.0, 1.0))]
        dom = MultiPatchDomain(patches, ifaces)
        dom.metrics = dom._compute_metrics()
        (index, report), _ = validate_interfaces(dom)
        assert index == 0
        assert report["max_mismatch"] == pytest.approx(1e-3, rel=1e-6)
        with pytest.raises(ConfigError):
            MultiPatchDomain(patches, ifaces).validate()

    def test_reversed_correspondence(self):
        # right patch parametrized upside down; edge parameters run opposite ways
        kv = refine_uniform(KnotVector.bernstein(1), 1)
        flipped = GeometryMap.bilinear((1, 1), (2, 1), (1, 0), (2, 0))
        patches = [
            unit_square_patch(0, 1, 0, 1, 1, 1, {"west", "south", "north"}),
            Patch(flipped, 1.0, TensorSplineSpace(kv, kv, {"east", "south", "north"})),
        ]
        ifaces = [Interface(0, "east", (0.0, 1.0), 1, "west", (0.0, 1.0), reversed_=True)]
        dom = MultiPatchDomain(patches, ifaces).validate()
        report, ends = validate_interfaces(dom)
        assert report is None
        # the start of side k meets the end of side l and vice versa
        assert [(x.tolist(), patch, loc) for x, patch, loc in end_records(*ends)] == [
            ([1.0, 0.0], 0, (1.0, 0.0)), ([1.0, 0.0], 1, (0.0, 1.0)),
            ([1.0, 1.0], 0, (1.0, 1.0)), ([1.0, 1.0], 1, (0.0, 0.0)),
        ]

    def test_each_side_sampled_once(self, monkeypatch):
        # one map evaluation each for the Jacobian samples, the metrics and the interfaces;
        # the last samples every interface side once
        dom = slider_domain(3, 0.3, degree=1, refinements=1)
        calls = []

        def counted(maps, patch, *args, **kwargs):
            calls.append(patch)
            return eval_maps(maps, patch, *args, **kwargs)

        monkeypatch.setattr(geometry, "eval_maps", counted)
        dom.validate()
        K, n = dom.num_patches, len(dom.interfaces)
        assert [c.size for c in calls] == [81 * K, 132 * K, 2 * 17 * n]
        assert np.array_equal(np.bincount(calls[2], minlength=K),
                              17 * np.bincount([p for g in dom.interfaces for p in (g.k, g.l)]))


def single_map_domain(geo):
    kv = refine_uniform(KnotVector.bernstein(1), 1)
    return MultiPatchDomain([Patch(geo, 1.0, TensorSplineSpace(kv, kv, set()))], [])


def validation_cases():
    cases = [(lambda p=p, r=r, f=f: f(p, r), "%s-p%d-r%d" % (name, p, r))
             for p in (1, 2, 3) for r in (0, 1, 2) for name, f in (
                 ("grid2x2", lambda p, r: grid_domain(2, degree=p, refinements=r)),
                 ("tdomain", lambda p, r: t_domain(degree=p, refinements=r)),
                 ("slider(3,0.3)", lambda p, r: slider_domain(3, 0.3, degree=p, refinements=r)),
                 ("slider(4,0.37)", lambda p, r: slider_domain(4, 0.37, degree=p, refinements=r)),
                 ("nonuniform", nonuniform_config_domain))]
    cases += [(lambda p=p, f=f: f(p), "%s-p%d" % (name, p)) for p in (1, 2, 3) for name, f in (
        ("curved", curved_two_patch_domain), ("reversed", reversed_two_patch_domain),
        ("mirrored", mirrored_two_patch_domain))]
    return [pytest.param(f, id=name) for f, name in cases]


def long_patch_met_twice():
    # patch 0 sits on patches 1 and 2; its two ranges leave a 1e-11 gap at x = 1, so
    # the vertex there meets patch 0 at two parameter points
    patches = [unit_square_patch(0, 2, 1, 2, 1, 1, set()), unit_square_patch(0, 1, 0, 1, 1, 1, set()),
               unit_square_patch(1, 2, 0, 1, 1, 1, set())]
    return MultiPatchDomain(patches, [
        Interface(0, "south", (0.0, 0.5), 1, "north", (0.0, 1.0)),
        Interface(0, "south", (0.5 + 1e-11, 1.0), 2, "north", (0.0, 1.0))])


def later_interface_mismatch():
    # three squares in a row, the third moved 1e-3 to the right
    patches = [unit_square_patch(0, 1, 0, 1, 1, 1, set()), unit_square_patch(1, 2, 0, 1, 1, 1, set()),
               unit_square_patch(2 + 1e-3, 3, 0, 1, 1, 1, set())]
    return MultiPatchDomain(patches, [Interface(0, "east", (0.0, 1.0), 1, "west", (0.0, 1.0)),
                                      Interface(1, "east", (0.0, 1.0), 2, "west", (0.0, 1.0))])


def second_patch_collapsed():
    patches = [unit_square_patch(0, 1, 0, 1, 1, 1, set()),
               Patch(GeometryMap.bilinear((1, 0), (2, 0), (1, 0), (2, 0)), 1.0,
                     unit_square_patch(0, 1, 0, 1, 1, 1, set()).space)]
    return MultiPatchDomain(patches, [Interface(0, "east", (0.0, 1.0), 1, "west", (0.0, 1.0))])


def overlapping_ranges():
    dom = grid_domain(2, degree=1, refinements=1)
    return MultiPatchDomain(dom.patches, dom.interfaces + [
        Interface(0, "east", (0.25, 0.75), 1, "west", (0.25, 0.75))])


class TestValidationMatchesReference:
    """`validate` against the per-patch and per-interface loops it replaced (conftest)."""

    @pytest.mark.parametrize("factory", validation_cases())
    def test_metrics_and_vertices_bit_identical(self, factory):
        dom = factory()
        metrics, vertices = reference_validate(dom)
        for key in ("H", "hhat", "h"):
            assert np.array_equal(dom.metrics[key], metrics[key]), key
        assert len(vertex_records(dom.vertices)) == len(vertices)
        for new, ref in zip(vertex_records(dom.vertices), vertices):
            assert np.array_equal(new.point, ref.point)
            assert new.adjacency == ref.adjacency and new.long_patches == ref.long_patches

    def test_H_is_the_all_pairs_maximum_on_random_nets(self, rng):
        # the samples kept for H against all pairs of the same samples, on random degree-2 nets,
        # every third rounded to one decimal so that equal distances tie
        kv = KnotVector.bernstein(2)
        s, e = np.linspace(0.0, 1.0, 33), np.zeros(33)
        u, v = np.concatenate([e, e + 1.0, s, s]), np.concatenate([s, s, e, e + 1.0])
        for trial in range(60):
            nets = rng.normal(size=(3, 3, 3, 2)) * rng.uniform(0.1, 10.0) + rng.normal(size=2)
            nets = np.round(nets, 1) if trial % 3 == 0 else nets
            dom = MultiPatchDomain([Patch(GeometryMap(kv, kv, net), 1.0, TensorSplineSpace(kv, kv))
                                    for net in nets], [])
            x = eval_maps([p.geometry for p in dom.patches], np.repeat(np.arange(3), u.size),
                          np.tile(u, 3), np.tile(v, 3)).reshape(3, -1, 2)
            H = [np.sqrt(np.max((px[:, None] - px) ** 2 + (py[:, None] - py) ** 2)) for px, py in
                 x.transpose(0, 2, 1)]
            assert np.array_equal(dom._compute_metrics()["H"], H)

    @pytest.mark.parametrize("factory, message", [
        (second_patch_collapsed,
         "patch 1: geometry map is not bijective: Jacobian determinant changes sign"),
        (later_interface_mismatch,
         "interface 1 mismatch: {'max_mismatch': 0.0009999999999998899, 'tolerance': "
         "1.4142135623730953e-09, 't': 0.0, 'point_k': [2.0, 0.0], 'point_l': [2.001, 0.0]}"),
        (long_patch_met_twice,
         "vertex at [1. 1.] lies inside an edge of patch 0 but meets that patch at 2 "
         "parameter points"),
        (overlapping_ranges, "interfaces 0 and 4 overlap on side east of patch 0"),
    ], ids=["not-bijective", "mismatch", "long-patch-twice", "overlap"])
    def test_error_texts(self, factory, message):
        for validate in (lambda dom: dom.validate(), reference_validate):
            with pytest.raises(ConfigError) as err:
                validate(factory())
            assert str(err.value) == message


def vertex_table_cases():
    return whole_domain_cases() + [pytest.param(lambda: grid_domain(24, degree=1, refinements=0),
                                                id="grid24-p1-r0")]


class TestVertexTable:
    """`domain.vertices`, the one vertex table built by `validate`."""

    @pytest.mark.parametrize("factory", vertex_table_cases())
    def test_table_matches_reference_records(self, factory):
        dom = factory()
        ends = end_records(*validate_interfaces(dom)[1])
        ref = reference_classify_vertices(ends, 1e-9 * float(np.max(dom.metrics["H"])))
        new = vertex_records(dom.vertices)
        assert len(new) == len(ref) > 0
        for a, b in zip(new, ref):
            assert np.array_equal(a.point, b.point)
            assert a.adjacency == b.adjacency and a.long_patches == b.long_patches

    def test_span_tables_per_pair(self):
        # index and positive are the covering of the pair's own patch space at its (u, v)
        dom = nonuniform_config_domain(2, 1)
        t = dom.vertices
        assert t.index.shape == t.positive.shape == (t.patch.size, 2, dom.degree + 1)
        for a, (k, (u, v)) in enumerate(zip(t.patch.tolist(), t.uv.tolist())):
            space = dom.patches[k].space
            for d, (kv, x) in enumerate(((space.kv_u, u), (space.kv_v, v))):
                index, positive = _covering(kv, np.array([x]))
                assert np.array_equal(t.index[a, d], index[0])
                assert np.array_equal(t.positive[a, d], positive[0])

    def test_arrays_read_only(self):
        dom = t_domain(degree=2, refinements=1)
        assert len(dom.vertices) == 7
        for name, a in zip(dom.vertices._fields, dom.vertices):
            assert isinstance(a, np.ndarray) and not a.flags.writeable, name
            with pytest.raises(ValueError, match="read-only"):
                a[...] = a

    @pytest.mark.parametrize("factory", [
        lambda: t_domain(degree=2, refinements=1),
        lambda: slider_domain(3, 0.3, degree=3, refinements=0),
        lambda: nonuniform_config_domain(2, 1),
    ], ids=["tdomain", "slider", "nonuniform"])
    def test_covering_runs_once_per_knot_vector_and_never_in_a_solve(self, monkeypatch, factory):
        # the factories validate as they build; validating again builds the table again
        dom, calls = factory(), []

        def counted(kv, x):
            calls.append(kv.knots.tobytes())
            return _covering(kv, x)

        for module in (bspline, geometry):
            monkeypatch.setattr(module, "_covering", counted)
        dom.validate()
        spaces = [patch.space for patch in dom.patches]
        assert sorted(calls) == sorted({kv.knots.tobytes() for space in spaces
                                        for kv in (space.kv_u, space.kv_v)})
        calls.clear()
        solve_ieti(dom, delta=12.0, tol=1e-8)
        assert calls == []

    def test_grid16_build_memory(self):
        # the clustering keeps one distance row at a time: the parent's matrix of all
        # (4n)^2 record distances took grid(16) to a 120 MB peak
        tracemalloc.start()
        try:
            grid_domain(16, degree=1, refinements=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20e6


class TestClassifyVertices:
    def test_conforming_cross(self):
        dom = grid_domain(2, degree=1, refinements=1)
        interior = [v for v in vertex_records(dom.vertices) if len({p for p, _ in v.adjacency}) == 4]
        assert len(interior) == 1
        assert interior[0].long_patches == ()
        np.testing.assert_allclose(interior[0].point, [1.0, 1.0])

    def test_tdomain_junction(self):
        dom = t_domain(degree=2, refinements=1)
        tj = [v for v in vertex_records(dom.vertices) if v.long_patches]
        assert len(tj) == 1
        np.testing.assert_allclose(tj[0].point, [0.8, 1.0])
        assert tj[0].long_patches == (0,)
        # the junction is a corner of patches 1 and 2, an edge point of patch 0
        assert {p for p, _ in tj[0].adjacency} == {0, 1, 2}
        regular4 = [v for v in vertex_records(dom.vertices) if len({p for p, _ in v.adjacency}) == 4]
        assert len(regular4) == 1
        np.testing.assert_allclose(regular4[0].point, [2.0, 1.0])

    def test_single_patch_no_vertices(self):
        patch = unit_square_patch(0, 1, 0, 1, 1, 1, {"west", "east", "south", "north"})
        dom = MultiPatchDomain([patch], []).validate()
        assert vertex_records(dom.vertices) == []
        assert [a.shape for a in dom.vertices] == [(0, 2), (0,), (0,), (0, 2), (0,), (0, 2, 2), (0, 2, 2)]

    def test_idempotent(self):
        # validating again gives equal vertices
        dom = slider_domain(3, 0.3, degree=1, refinements=1)
        first = [(v.point.tolist(), v.adjacency, v.long_patches) for v in vertex_records(dom.vertices)]
        again = [(v.point.tolist(), v.adjacency, v.long_patches)
                 for v in vertex_records(dom.validate().vertices)]
        assert first == again

    @staticmethod
    def at_origin(*records):
        return end_arrays([(np.zeros(2), patch, loc) for patch, loc in records])

    @pytest.mark.parametrize("second", [(0.0, 0.5), (0.0, 0.0)], ids=["edge_edge", "edge_corner"])
    def test_long_patch_met_twice_rejected(self, second):
        ends = self.at_origin((0, (1.0, 0.5)), (1, (0.0, 0.0)), (0, second))
        with pytest.raises(ConfigError, match="inside an edge of patch 0 but meets that "
                                              "patch at 2 parameter points"):
            classify_vertices(*ends, 1e-9)

    def test_corner_twice_accepted(self):
        ends = self.at_origin((0, (1.0, 0.0)), (1, (0.0, 0.0)), (0, (0.0, 0.0)))
        (vertex,) = vertex_records(classify_vertices(*ends, 1e-9))
        assert vertex.long_patches == ()
        assert vertex.adjacency == [(0, (0.0, 0.0)), (0, (1.0, 0.0)), (1, (0.0, 0.0))]

    def test_tjunction_from_records(self):
        # the long patch's point, seen from two interfaces, counts once
        ends = self.at_origin((0, (0.5, 1.0)), (1, (1.0, 0.0)),
                              (0, (0.5 + 1e-13, 1.0)), (2, (0.0, 0.0)))
        (vertex,) = vertex_records(classify_vertices(*ends, 1e-9))
        assert vertex.long_patches == (0,)
        assert vertex.adjacency == [(0, (0.5, 1.0)), (1, (1.0, 0.0)), (2, (0.0, 0.0))]

    def test_slider_tjunction_count(self):
        for m in (2, 3, 4):
            dom = slider_domain(m, 0.3, degree=1, refinements=1)
            tj = [v for v in vertex_records(dom.vertices) if v.long_patches]
            assert len(tj) == 2 * (m - 1)

    @staticmethod
    def scattered(seed):
        # records scattered around a few points at about the merge tolerance, so that some
        # are close to a later cluster's first record but not to the first one's: the first
        # cluster within merge_tol wins, and clusters keep the order of their first records
        rng = np.random.default_rng(seed)
        centres = rng.integers(0, 3, (60, 2)).astype(float)
        points = centres + rng.uniform(-1e-9, 1e-9, (60, 2))
        corners = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]
        return [(x, int(rng.integers(0, 50)), corners[rng.integers(0, 4)]) for x in points], 1e-9

    @staticmethod
    def same_key():
        # two clusters 2e-10 apart whose points both round to the key (0.123456789, 0.5): the
        # sort keeps the one opened first in front, though its x is the larger
        x = np.array([[0.1234567893, 0.5], [0.1234567891, 0.5]])
        return [(x[0], 0, (1.0, 0.0)), (x[1], 1, (0.0, 0.0)), (x[0], 2, (0.0, 1.0))], 1e-11

    @pytest.mark.parametrize("case", [*range(5), "same-key"])
    def test_greedy_clusters_match_reference(self, case):
        ends, merge_tol = self.same_key() if case == "same-key" else self.scattered(case)
        new = vertex_records(classify_vertices(*end_arrays(ends), merge_tol))
        ref = reference_classify_vertices(ends, merge_tol)
        assert [(v.point.tolist(), v.adjacency, v.long_patches) for v in new] == [
            (v.point.tolist(), v.adjacency, v.long_patches) for v in ref]
        if case == "same-key":
            assert [v.point[0] for v in new] == [0.1234567893, 0.1234567891]
            assert len({(round(v.point[0], 9), round(v.point[1], 9)) for v in new}) == 1


class TestPatchMetrics:
    def test_unit_square(self):
        dom = two_patch_domain(p=1, r=2)
        m = dom.metrics
        assert m["H"][0] == pytest.approx(np.sqrt(2.0), rel=1e-9)
        assert m["hhat"][0] == pytest.approx(0.25)
        assert m["h"][0] == pytest.approx(0.25 * np.sqrt(2.0), rel=1e-9)
        # quasi-uniform: the smallest span equals the largest
        space = dom.patches[0].space
        h_min = min(np.diff(kv.breakpoints).min() for kv in (space.kv_u, space.kv_v))
        assert m["hhat"][0] / h_min == pytest.approx(1.0)

    def test_affine_rectangle(self):
        kv = refine_uniform(KnotVector.bernstein(1), 1)
        geo = GeometryMap.bilinear((0, 0), (2, 0), (0, 1), (2, 1))
        patch = Patch(geo, 1.0, TensorSplineSpace(kv, kv, {"west", "east", "south", "north"}))
        dom = MultiPatchDomain([patch], []).validate()
        assert dom.metrics["H"][0] == pytest.approx(np.sqrt(5.0), rel=1e-9)
        assert dom.metrics["h"][0] == pytest.approx(0.5 * np.sqrt(5.0), rel=1e-9)


class TestInterfaceGeometry:
    @pytest.mark.parametrize("factory", [
        lambda: grid_domain(2, degree=2, refinements=1),
        lambda: t_domain(degree=2, refinements=1),
        lambda: slider_domain(3, 0.3, degree=2, refinements=1),
    ])
    def test_midpoint_pullback_agreement(self, factory):
        dom = factory()
        for g in dom.interfaces:
            t_mid = 0.5 * (g.range_k[0] + g.range_k[1])
            s_mid = float(map_param(g, t_mid))
            pk = at(dom.patches[g.k].geometry, *side_point(g.side_k, t_mid))[0]
            pl = at(dom.patches[g.l].geometry, *side_point(g.side_l, s_mid))[0]
            H = dom.metrics["H"][g.k]
            assert np.linalg.norm(pk - pl) <= 1e-9 * H

    def test_interface_validation_errors(self):
        with pytest.raises(ConfigError):
            Interface(0, "east", (0.5, 0.5), 1, "west", (0.0, 1.0))
        with pytest.raises(ConfigError):
            Interface(0, "up", (0.0, 1.0), 1, "west", (0.0, 1.0))

    def test_side_point_unknown_side(self):
        with pytest.raises(ConfigError, match="unknown side 'up'"):
            side_point("up", 0.5)


class TestDomainConfig:
    def test_json_roundtrip(self):
        dom = t_domain(degree=2, refinements=1, alphas=[1, 10, 100, 1, 10])
        blob = json.dumps(domain_to_config(dom))
        dom2 = domain_from_config(json.loads(blob))
        assert dom2.num_patches == dom.num_patches
        for p1, p2 in zip(dom.patches, dom2.patches):
            assert p1.alpha == p2.alpha
            assert np.array_equal(p1.space.kv_u.knots, p2.space.kv_u.knots)
            assert np.array_equal(p1.geometry.control, p2.geometry.control)
        assert len(dom2.vertices.point) == len(dom.vertices.point)

    @pytest.mark.parametrize("factory", [
        lambda: grid_domain(2, degree=2, refinements=2),
        lambda: t_domain(degree=2, refinements=2),
        lambda: slider_domain(3, 0.3, degree=2, refinements=2),
    ], ids=["grid", "tdomain", "slider"])
    def test_builtin_patches_share_one_knot_vector(self, factory):
        # refined once per domain, not once per patch
        dom = factory()
        assert len({id(kv) for p in dom.patches for kv in (p.space.kv_u, p.space.kv_v)}) == 1

    def test_refinements_shortcut(self):
        cfg = {
            "patches": [
                {
                    "geometry": GeometryMap.bilinear((0, 0), (1, 0), (0, 1), (1, 1)).as_dict(),
                    "alpha": 1.0,
                    "space": {"degree": 2, "refinements": 2},
                    "dirichlet_sides": ["west", "east", "south", "north"],
                }
            ],
            "interfaces": [],
        }
        dom = domain_from_config(cfg)
        assert dom.patches[0].space.kv_u.breakpoints.size == 5

    def test_alpha_positive_enforced(self):
        with pytest.raises(ConfigError):
            t_domain(degree=1, refinements=1, alphas=[1, -1, 1, 1, 1])
        for bad in (np.inf, np.nan):
            with pytest.raises(ConfigError, match="finite and positive"):
                t_domain(degree=1, refinements=1, alphas=[1, bad, 1, 1, 1])

    def test_overlapping_interfaces_rejected(self):
        dom = grid_domain(2, degree=1, refinements=1)
        g = dom.interfaces[0]
        for extra in (Interface(g.k, "east", (0.25, 0.75), g.l, "west", (0.25, 0.75)), g):
            with pytest.raises(ConfigError, match="interfaces 0 and 4 overlap"):
                MultiPatchDomain(dom.patches, dom.interfaces + [extra]).validate()

    def test_mixed_degrees_rejected(self):
        kv1 = KnotVector.bernstein(1)
        kv2 = KnotVector.bernstein(2)
        patches = [
            Patch(GeometryMap.bilinear((0, 0), (1, 0), (0, 1), (1, 1)), 1.0,
                  TensorSplineSpace(kv1, kv1, {"west", "south", "north"})),
            Patch(GeometryMap.bilinear((1, 0), (2, 0), (1, 1), (2, 1)), 1.0,
                  TensorSplineSpace(kv2, kv2, {"east", "south", "north"})),
        ]
        with pytest.raises(ConfigError):
            MultiPatchDomain(patches, [Interface(0, "east", (0.0, 1.0), 1, "west", (0.0, 1.0))])


def side_table_cases():
    cases = [(lambda p=p, f=f: f(p), "%s-p%d" % (name, p)) for p in (1, 2, 3) for name, f in (
        ("grid2x2", lambda p: grid_domain(2, degree=p, refinements=1)),
        ("tdomain", lambda p: t_domain(degree=p, refinements=1)),
        ("slider(3,0.3)", lambda p: slider_domain(3, 0.3, degree=p, refinements=1)),
        ("slider(4,0.37)", lambda p: slider_domain(4, 0.37, degree=p, refinements=1)))]
    cases += [(reversed_two_patch_domain, "reversed"), (mirrored_two_patch_domain, "mirrored"),
              (curved_two_patch_domain, "curved"), (lambda: nonuniform_config_domain(2), "nonuniform"),
              (partial_interface_domain, "partial")]
    return [pytest.param(f, id=name) for f, name in cases]


class TestSideTable:
    """`MultiPatchDomain.sides` against the interfaces it is built from."""

    @pytest.mark.parametrize("factory", side_table_cases())
    def test_sides_are_each_interface_and_its_swap(self, factory):
        dom = factory()
        t, n = dom.sides, len(dom.interfaces)
        assert [a.shape for a in t] == [(2 * n,), (2 * n,), (2 * n,), (2 * n, 2), (2 * n, 2), (2 * n,)]
        assert [a.dtype.kind for a in t] == ["i", "i", "i", "f", "f", "b"]
        for i, g in enumerate(dom.interfaces):
            for s, (k, side, rng, l) in ((2 * i, (g.k, g.side_k, g.range_k, g.l)),
                                         (2 * i + 1, (g.l, g.side_l, g.range_l, g.k))):
                assert (t.owner[s], t.neighbor[s], SIDES[t.side[s]]) == (k, l, side)
                assert np.array_equal(t.normal[s], side_normal_hat(side))
                assert tuple(t.range[s]) == tuple(rng) and t.reversed_[s] == g.reversed_
        for a in t:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[:1] = a[:1]

    def test_setup_and_oracle_build_no_interface(self, monkeypatch):
        # every per-side field comes from the table: no interface is flipped into a new one
        dom = slider_domain(4, 0.3, degree=2, refinements=3)
        made, post_init = [], Interface.__post_init__
        monkeypatch.setattr(Interface, "__post_init__", lambda g: (made.append(g), post_init(g)))
        setup_operator(dom)
        assert len(made) == 0
        assemble_global(dom, 12.0)
        assert len(made) == 0
        Interface(0, "east", (0.0, 1.0), 1, "west", (0.0, 1.0))
        assert len(made) == 1  # the wrapper counts
