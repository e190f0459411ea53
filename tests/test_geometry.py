import json

import numpy as np
import pytest

from ietidg.bspline import KnotVector, TensorSplineSpace, refine_uniform
from ietidg.domains import (
    domain_from_config,
    domain_to_config,
    grid_domain,
    slider_domain,
    t_domain,
)
from ietidg.errors import ConfigError
from ietidg.geometry import (
    GeometryMap,
    Interface,
    MultiPatchDomain,
    Patch,
    classify_vertices,
    side_point,
    validate_interface,
)

from conftest import at, two_patch_domain, unit_square_patch


class TestGeometryMap:
    def test_identity(self):
        geo = GeometryMap.bilinear((0, 0), (1, 0), (0, 1), (1, 1))
        x, J = at(geo, 0.3, 0.7)
        np.testing.assert_allclose(x, [0.3, 0.7])
        np.testing.assert_allclose(geo.eval_grid([0.3], [0.7])[0, 0], [0.3, 0.7])
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
            geo.check_bijective()

    def test_negative_det_allowed(self):
        # orientation-reversing but bijective map passes validation
        geo = GeometryMap.bilinear((1, 0), (0, 0), (1, 1), (0, 1))
        geo.check_bijective()
        assert np.linalg.det(at(geo, 0.5, 0.5)[1]) < 0

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_control_rejected(self, bad):
        with pytest.raises(ConfigError, match="control points must be finite"):
            GeometryMap.bilinear((0, 0), (1, 0), (0, 1), (1, bad))


class TestValidateInterface:
    def test_exact_match(self):
        dom = two_patch_domain(p=1, r=1)
        report, ends = validate_interface(dom, 0)
        assert report is None
        assert [(x.tolist(), patch, loc) for x, patch, loc in ends] == [
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
        report, ends = validate_interface(dom, 0)
        assert report is None
        assert [(patch, loc) for _, patch, loc in ends] == [
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
        report, _ = validate_interface(dom, 0)
        assert report is not None
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
        report, ends = validate_interface(dom, 0)
        assert report is None
        # the start of side k meets the end of side l and vice versa
        assert [(x.tolist(), patch, loc) for x, patch, loc in ends] == [
            ([1.0, 0.0], 0, (1.0, 0.0)), ([1.0, 0.0], 1, (0.0, 1.0)),
            ([1.0, 1.0], 0, (1.0, 1.0)), ([1.0, 1.0], 1, (0.0, 0.0)),
        ]

    def test_each_side_sampled_once(self, monkeypatch):
        # one call per patch for the metrics, one per interface side
        dom = slider_domain(3, 0.3, degree=1, refinements=1)
        calls = []
        original = GeometryMap.eval_grid

        def counted(self, *args):
            calls.append(args)
            return original(self, *args)

        monkeypatch.setattr(GeometryMap, "eval_grid", counted)
        dom.validate()
        assert len(calls) == dom.num_patches + 2 * len(dom.interfaces)


class TestClassifyVertices:
    def test_conforming_cross(self):
        dom = grid_domain(2, degree=1, refinements=1)
        interior = [v for v in dom.vertices if len({p for p, _ in v.adjacency}) == 4]
        assert len(interior) == 1
        assert interior[0].long_patches == ()
        np.testing.assert_allclose(interior[0].point, [1.0, 1.0])

    def test_tdomain_junction(self):
        dom = t_domain(degree=2, refinements=1)
        tj = [v for v in dom.vertices if v.long_patches]
        assert len(tj) == 1
        np.testing.assert_allclose(tj[0].point, [0.8, 1.0])
        assert tj[0].long_patches == (0,)
        # the junction is a corner of patches 1 and 2, an edge point of patch 0
        assert {p for p, _ in tj[0].adjacency} == {0, 1, 2}
        regular4 = [v for v in dom.vertices if len({p for p, _ in v.adjacency}) == 4]
        assert len(regular4) == 1
        np.testing.assert_allclose(regular4[0].point, [2.0, 1.0])

    def test_single_patch_no_vertices(self):
        patch = unit_square_patch(0, 1, 0, 1, 1, 1, {"west", "east", "south", "north"})
        dom = MultiPatchDomain([patch], []).validate()
        assert dom.vertices == []

    def test_idempotent(self):
        # validating again gives equal vertices
        dom = slider_domain(3, 0.3, degree=1, refinements=1)
        first = [(v.point.tolist(), v.adjacency, v.long_patches) for v in dom.vertices]
        again = [(v.point.tolist(), v.adjacency, v.long_patches) for v in dom.validate().vertices]
        assert first == again

    @staticmethod
    def at_origin(*records):
        return [(np.zeros(2), patch, loc) for patch, loc in records]

    @pytest.mark.parametrize("second", [(0.0, 0.5), (0.0, 0.0)], ids=["edge_edge", "edge_corner"])
    def test_long_patch_met_twice_rejected(self, second):
        ends = self.at_origin((0, (1.0, 0.5)), (1, (0.0, 0.0)), (0, second))
        with pytest.raises(ConfigError, match="inside an edge of patch 0 but meets that "
                                              "patch at 2 parameter points"):
            classify_vertices(ends, 1e-9)

    def test_corner_twice_accepted(self):
        ends = self.at_origin((0, (1.0, 0.0)), (1, (0.0, 0.0)), (0, (0.0, 0.0)))
        (vertex,) = classify_vertices(ends, 1e-9)
        assert vertex.long_patches == ()
        assert vertex.adjacency == [(0, (0.0, 0.0)), (0, (1.0, 0.0)), (1, (0.0, 0.0))]

    def test_tjunction_from_records(self):
        # the long patch's point, seen from two interfaces, counts once
        ends = self.at_origin((0, (0.5, 1.0)), (1, (1.0, 0.0)),
                              (0, (0.5 + 1e-13, 1.0)), (2, (0.0, 0.0)))
        (vertex,) = classify_vertices(ends, 1e-9)
        assert vertex.long_patches == (0,)
        assert vertex.adjacency == [(0, (0.5, 1.0)), (1, (1.0, 0.0)), (2, (0.0, 0.0))]

    def test_slider_tjunction_count(self):
        for m in (2, 3, 4):
            dom = slider_domain(m, 0.3, degree=1, refinements=1)
            tj = [v for v in dom.vertices if v.long_patches]
            assert len(tj) == 2 * (m - 1)


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
            s_mid = float(g.map_param(t_mid))
            pk = dom.patches[g.k].geometry.eval_grid(*side_point(g.side_k, t_mid))
            pl = dom.patches[g.l].geometry.eval_grid(*side_point(g.side_l, s_mid))
            H = dom.metrics["H"][g.k]
            assert np.linalg.norm(pk - pl) <= 1e-9 * H

    def test_interface_validation_errors(self):
        with pytest.raises(ConfigError):
            Interface(0, "east", (0.5, 0.5), 1, "west", (0.0, 1.0))
        with pytest.raises(ConfigError):
            Interface(0, "up", (0.0, 1.0), 1, "west", (0.0, 1.0))


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
        assert len(dom2.vertices) == len(dom.vertices)

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
