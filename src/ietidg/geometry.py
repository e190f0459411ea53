"""Patch geometry maps and multi-patch topology with partial-edge interfaces.

The decomposition is declared explicitly (patches, interfaces with
parametric sub-ranges on both sides) and then validated geometrically;
vertices are discovered by clustering the interface endpoints among the
validation samples and classified as regular corners or T-junctions.
"""

import logging
from dataclasses import dataclass

import numpy as np

from .bspline import SIDES, KnotVector, TensorSplineSpace, eval_matrices, eval_matrix
from .errors import ConfigError

log = logging.getLogger(__name__)

_CORNER_TOL = 1e-12
_JACOBIAN_SAMPLES = 9  # per direction, for the bijectivity check
_INTERFACE_SAMPLES = 17  # per interface side
_MATCH_TOL = 1e-9  # interface mismatch allowed, relative to H of patch k


def side_point(side, t):
    """Parameter-square point on `side` at edge parameter `t`."""
    if side == "west":
        return (0.0, t)
    if side == "east":
        return (1.0, t)
    if side == "south":
        return (t, 0.0)
    if side == "north":
        return (t, 1.0)
    raise ConfigError("unknown side %r" % side)


def side_axis(side):
    """Parameter axis running along the side: 0 for south/north, 1 for west/east."""
    return 1 if side in ("west", "east") else 0


def side_normal_hat(side):
    """Outward unit normal of the parameter square on `side`."""
    return {
        "west": np.array([-1.0, 0.0]),
        "east": np.array([1.0, 0.0]),
        "south": np.array([0.0, -1.0]),
        "north": np.array([0.0, 1.0]),
    }[side]


class GeometryMap:
    """Tensor-product B-spline map from the unit square into the plane.

    Parameters
    ----------
    kv_u, kv_v : KnotVector
        Knot vectors of the geometry space (independent of the
        discretization space).
    control : array_like, shape (n_u, n_v, 2)
        Control net.
    """

    def __init__(self, kv_u, kv_v, control):
        control = np.asarray(control, dtype=float)
        if control.shape != (kv_u.n, kv_v.n, 2):
            raise ConfigError(
                "control net shape %s does not match spaces (%d, %d, 2)"
                % (control.shape, kv_u.n, kv_v.n)
            )
        self.kv_u = kv_u
        self.kv_v = kv_v
        self.control = control

    @classmethod
    def bilinear(cls, sw, se, nw, ne):
        """Bilinear map from four corner points (p = 1, single span)."""
        kv = KnotVector(1, [0.0, 0.0, 1.0, 1.0])
        control = np.array([[sw, nw], [se, ne]], dtype=float)
        return cls(kv, kv, control)

    def _contract(self, BU, BV):
        """Map values on the tensor grid of two univariate evaluation matrices."""
        along_u = (BU @ self.control.reshape(self.kv_u.n, -1)).reshape(-1, self.kv_v.n, 2)
        return BV @ along_u

    def eval_grid(self, u_pts, v_pts):
        """Evaluate the map on the tensor grid of points: shape ``(len(u_pts), len(v_pts), 2)``."""
        return self._contract(eval_matrix(self.kv_u, u_pts), eval_matrix(self.kv_v, v_pts))

    def jacobian_grid(self, u_pts, v_pts):
        """Points and Jacobians on a tensor grid.

        Returns
        -------
        points : ndarray, shape (nu, nv, 2)
        jac : ndarray, shape (nu, nv, 2, 2)
            ``jac[..., :, 0]`` is the u-partial, ``jac[..., :, 1]`` the v-partial.
        """
        BU = eval_matrices(self.kv_u, u_pts, 1)
        BV = eval_matrices(self.kv_v, v_pts, 1)
        ju, jv = self._contract(BU[1], BV[0]), self._contract(BU[0], BV[1])
        return self._contract(BU[0], BV[0]), np.stack([ju, jv], axis=-1)

    def __call__(self, u, v):
        return self.eval_grid([u], [v])[0, 0]

    def jacobian(self, u, v):
        _, jac = self.jacobian_grid([u], [v])
        return jac[0, 0]

    def check_bijective(self):
        """Reject the patch unless det(Jacobian) keeps one sign on a sample grid."""
        s = np.linspace(1e-3, 1.0 - 1e-3, _JACOBIAN_SAMPLES)
        _, jac = self.jacobian_grid(s, s)
        det = jac[..., 0, 0] * jac[..., 1, 1] - jac[..., 0, 1] * jac[..., 1, 0]
        scale = np.abs(jac).max() ** 2
        if np.any(np.abs(det) <= 1e-12 * scale) or (det.max() > 0 and det.min() < 0):
            raise ConfigError("geometry map is not bijective: Jacobian determinant changes sign")

    def as_dict(self):
        return {
            "degree": self.kv_u.p,
            "knots_u": self.kv_u.knots.tolist(),
            "knots_v": self.kv_v.knots.tolist(),
            "control_points": self.control.tolist(),
        }


@dataclass(frozen=True)
class Interface:
    """A shared curve piece between two patches, with parametric ranges.

    ``range_k`` is the edge-parameter interval on side ``side_k`` of patch
    `k` and likewise for patch `l`; `reversed_` flags counter-directed
    parametrizations.  The correspondence between the ranges is affine.
    """

    k: int
    side_k: str
    range_k: tuple
    l: int
    side_l: str
    range_l: tuple
    reversed_: bool = False

    def __post_init__(self):
        for side in (self.side_k, self.side_l):
            if side not in SIDES:
                raise ConfigError("unknown side %r" % side)
        for rng in (self.range_k, self.range_l):
            a, b = rng
            if not (0.0 <= a < b <= 1.0):
                raise ConfigError("interface range %r must be a positive sub-interval of [0,1]" % (rng,))

    def map_param(self, t):
        """Affine edge-parameter correspondence from side k to side l."""
        a, b = self.range_k
        c, d = self.range_l
        s = (np.asarray(t) - a) / (b - a)
        return d - (d - c) * s if self.reversed_ else c + (d - c) * s

    def flipped(self):
        """Same interface seen from patch `l`."""
        return Interface(self.l, self.side_l, self.range_l, self.k, self.side_k,
                         self.range_k, self.reversed_)


@dataclass
class Vertex:
    """A clustered interface endpoint with its patch adjacency."""

    point: np.ndarray
    adjacency: list  # (patch index, (u, v)) pairs
    kind: str = "regular"
    long_patches: tuple = ()


@dataclass(frozen=True)
class Patch:
    geometry: GeometryMap
    alpha: float
    space: TensorSplineSpace


class MultiPatchDomain:
    """Patches, interfaces, classified vertices and derived mesh metrics.

    Immutable after :meth:`validate`; all queries are read-only and safe
    for concurrent use.
    """

    def __init__(self, patches, interfaces, name="domain"):
        if not patches:
            raise ConfigError("domain needs at least one patch")
        degrees = {p.space.degree for p in patches}
        if len(degrees) != 1:
            raise ConfigError("mixed spline degrees across patches are unsupported")
        for i, p in enumerate(patches):
            if not 0 < p.alpha < np.inf:
                raise ConfigError("diffusion coefficient of patch %d must be finite and positive, "
                                  "got %r" % (i, p.alpha))
        self.patches = list(patches)
        self.interfaces = list(interfaces)
        self.name = name
        K = len(patches)
        for g in self.interfaces:
            if not (0 <= g.k < K and 0 <= g.l < K and g.k != g.l):
                raise ConfigError("interface references invalid patches (%d, %d)" % (g.k, g.l))
        self.vertices = []
        self._metrics = None

    @property
    def num_patches(self):
        return len(self.patches)

    @property
    def degree(self):
        return self.patches[0].space.degree

    def interfaces_of(self, k):
        """(interface index, oriented interface with patch `k` first) pairs."""
        out = []
        for idx, g in enumerate(self.interfaces):
            if g.k == k:
                out.append((idx, g))
            elif g.l == k:
                out.append((idx, g.flipped()))
        return out

    # -- validation ----------------------------------------------------

    def validate(self):
        self._check_overlaps()
        for i, p in enumerate(self.patches):
            try:
                p.geometry.check_bijective()
            except ConfigError as exc:
                raise ConfigError("patch %d: %s" % (i, exc)) from exc
        self._metrics = self._compute_metrics()
        ends = []
        for idx in range(len(self.interfaces)):
            report, records = validate_interface(self, idx)
            if report is not None:
                raise ConfigError("interface %d mismatch: %s" % (idx, report))
            ends.extend(records)
        self.vertices = classify_vertices(ends, 1e-9 * float(np.max(self._metrics["H"])))
        return self

    def _check_overlaps(self):
        """Reject two interface ranges that share a piece of one patch side.

        Ranges that only touch, as at a T-junction, are valid.
        """
        seen = {}
        for idx, g in enumerate(self.interfaces):
            for k, side, (a, b) in ((g.k, g.side_k, g.range_k), (g.l, g.side_l, g.range_l)):
                for other, (c, d) in seen.get((k, side), []):
                    if min(b, d) - max(a, c) > _CORNER_TOL:
                        raise ConfigError(
                            "interfaces %d and %d overlap on side %s of patch %d"
                            % (other, idx, side, k)
                        )
                seen.setdefault((k, side), []).append((idx, (a, b)))

    # -- metrics -------------------------------------------------------

    def _compute_metrics(self):
        H = np.empty(self.num_patches)
        hhat = np.empty(self.num_patches)
        hhat_min = np.empty(self.num_patches)
        s = np.linspace(0.0, 1.0, 33)
        for k, p in enumerate(self.patches):
            grid = p.geometry.eval_grid(s, s)
            x, y = np.concatenate([grid[0], grid[-1], grid[:, 0], grid[:, -1]]).T
            H[k] = np.sqrt(np.max((x[:, None] - x) ** 2 + (y[:, None] - y) ** 2))
            hhat[k] = max(p.space.kv_u.h_max, p.space.kv_v.h_max)
            hhat_min[k] = min(p.space.kv_u.h_min, p.space.kv_v.h_min)
        return {"H": H, "hhat": hhat, "hhat_min": hhat_min, "h": hhat * H}

    @property
    def metrics(self):
        if self._metrics is None:
            self._metrics = self._compute_metrics()
        return self._metrics

    def patch_metrics(self):
        """Per-patch (H_k, h_k, hhat_min_k) plus the quasi-uniformity ratio."""
        m = self.metrics
        return [
            {
                "H": float(m["H"][k]),
                "h": float(m["h"][k]),
                "hhat": float(m["hhat"][k]),
                "hhat_min": float(m["hhat_min"][k]),
                "quasi_uniformity": float(m["hhat"][k] / m["hhat_min"][k]),
            }
            for k in range(self.num_patches)
        ]


def validate_interface(domain, index):
    """Sample the interface on both sides.

    Returns ``(report, ends)``.  `report` is None if the sides coincide,
    else a dict describing the worst sample.  `ends` holds the four end
    records ``(point, patch, (u, v))`` taken from the same samples: the
    range start, then its end, each on side k before side l.
    """
    g = domain.interfaces[index]
    ts = np.linspace(g.range_k[0], g.range_k[1], _INTERFACE_SAMPLES)
    ss = g.map_param(ts)
    pk = domain.patches[g.k].geometry.eval_grid(*side_point(g.side_k, ts)).reshape(-1, 2)
    pl = domain.patches[g.l].geometry.eval_grid(*side_point(g.side_l, ss)).reshape(-1, 2)
    ends = [(x[i], patch, side_point(side, float(t[i])))
            for i in (0, -1)
            for x, patch, side, t in ((pk, g.k, g.side_k, ts), (pl, g.l, g.side_l, ss))]
    dist = np.linalg.norm(pk - pl, axis=1)
    worst = int(np.argmax(dist))
    H_k = domain.metrics["H"][g.k]
    if dist[worst] <= _MATCH_TOL * H_k:
        return None, ends
    return {
        "max_mismatch": float(dist[worst]),
        "tolerance": float(_MATCH_TOL * H_k),
        "t": float(ts[worst]),
        "point_k": pk[worst].tolist(),
        "point_l": pl[worst].tolist(),
    }, ends


def _is_corner(u, v):
    """Whether a point on the boundary of the parameter square is one of its corners."""
    return min(u, 1.0 - u) <= _CORNER_TOL and min(v, 1.0 - v) <= _CORNER_TOL


def classify_vertices(ends, merge_tol):
    """Cluster interface end records into vertices and detect T-junctions.

    `ends` holds ``(point, patch, (u, v))`` records as
    :func:`validate_interface` gives them; a record joins the first
    vertex within `merge_tol` of it.  A vertex is a T-junction iff it lies
    strictly inside an edge of at least one adjacent patch (a "long"
    patch), and a long patch must meet the vertex at exactly one
    parameter point.
    """
    clusters = []
    for point, patch, loc in ends:
        for cl_point, members in clusters:
            if np.linalg.norm(cl_point - point) <= merge_tol:
                members.append((patch, loc))
                break
        else:
            clusters.append((point, [(patch, loc)]))

    vertices = []
    for point, members in clusters:
        adjacency = []
        for patch, (u, v) in members:
            if not any(pp == patch and abs(uu - u) <= _CORNER_TOL and abs(vv - v) <= _CORNER_TOL
                       for pp, (uu, vv) in adjacency):
                adjacency.append((patch, (u, v)))
        long_patches = sorted({patch for patch, loc in adjacency if not _is_corner(*loc)})
        for patch in long_patches:
            count = sum(pp == patch for pp, _ in adjacency)
            if count > 1:
                raise ConfigError(
                    "vertex at %s lies inside an edge of patch %d but meets that patch "
                    "at %d parameter points" % (point, patch, count)
                )
        kind = "tjunction" if long_patches else "regular"
        vertices.append(Vertex(point, sorted(adjacency), kind, tuple(long_patches)))
    vertices.sort(key=lambda v: (round(v.point[0], 9), round(v.point[1], 9)))
    return vertices
