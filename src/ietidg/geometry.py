"""Patch geometry maps and multi-patch topology with partial-edge interfaces.

The decomposition is declared explicitly (patches, interfaces with
parametric sub-ranges on both sides) and then validated geometrically;
vertices are discovered by clustering the interface endpoints among the
validation samples and classified as regular corners or T-junctions.
"""

import logging
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .bspline import (SIDES, KnotVector, TensorSplineSpace, _covering, eval_basis, eval_matrices,
                      greville_points)
from .errors import ConfigError

log = logging.getLogger(__name__)

_CORNER_TOL = 1e-12
_JACOBIAN_SAMPLES = 9  # per direction, for the bijectivity check
_INTERFACE_SAMPLES = 17  # per interface side
_MATCH_TOL = 1e-9  # interface mismatch allowed, relative to H of patch k


def side_point(side, t):
    """Parameter-square point on `side` at edge parameter `t`."""
    if side not in SIDES:
        raise ConfigError("unknown side %r" % side)
    return {"west": (0.0, t), "east": (1.0, t), "south": (t, 0.0), "north": (t, 1.0)}[side]


def side_normal_hat(side):
    """Outward unit normal of the parameter square on `side`."""
    return np.array({"west": (-1.0, 0.0), "east": (1.0, 0.0), "south": (0.0, -1.0),
                     "north": (0.0, 1.0)}[side])


class GeometryMap:
    """Tensor-product B-spline map from the unit square into the plane.

    Parameters
    ----------
    kv_u, kv_v : KnotVector
        Knot vectors of the geometry space (independent of the
        discretization space).
    control : array_like, shape (n_u, n_v, 2)
        Control net.

    The map is immutable.  `affine_diagonal` is ``J = control[-1, -1] - control[0, 0]`` if the
    net is ``x0 + diag(J) (u, v)`` at the Greville points to 1e-14 of ``max |J|`` and no entry of
    J is 1e-12 of the other or less; else None.
    """

    def __init__(self, kv_u, kv_v, control):
        control = np.asarray(control, dtype=float)
        if control.shape != (kv_u.n, kv_v.n, 2):
            raise ConfigError(
                "control net shape %s does not match spaces (%d, %d, 2)"
                % (control.shape, kv_u.n, kv_v.n)
            )
        if not np.all(np.isfinite(control)):
            raise ConfigError("control points must be finite")
        self.kv_u = kv_u
        self.kv_v = kv_v
        self.control = control
        x0, J = control[0, 0], control[-1, -1] - control[0, 0]
        grid = np.stack(np.meshgrid(*map(greville_points, (kv_u, kv_v)), indexing="ij"), -1)
        scale, off = np.abs(J).max(), np.abs(control - (x0 + J * grid)).max()
        self.affine_diagonal = None if np.abs(J).min() <= 1e-12 * scale or off > 1e-14 * scale else J

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

    def jacobian_grid(self, u_pts, v_pts):
        """Points and Jacobians on a tensor grid.

        Returns
        -------
        points : ndarray, shape (nu, nv, 2)
        jac : ndarray, shape (nu, nv, 2, 2)
            ``jac[..., :, 0]`` is the u-partial, ``jac[..., :, 1]`` the v-partial.
        """
        BU, BV = eval_matrices(self.kv_u, u_pts, 1), eval_matrices(self.kv_v, v_pts, 1)
        ju, jv = self._contract(BU[1], BV[0]), self._contract(BU[0], BV[1])
        return self._contract(BU[0], BV[0]), np.stack([ju, jv], axis=-1)

    def as_dict(self):
        return {
            "degree": self.kv_u.p,
            "knots_u": self.kv_u.knots.tolist(),
            "knots_v": self.kv_v.knots.tolist(),
            "control_points": self.control.tolist(),
        }


def eval_maps(maps, patch, u, v, jacobian=False):
    """Values ``(Q, 2)``, or Jacobians ``(Q, 2, 2)`` as in `GeometryMap.jacobian_grid`, of the
    maps ``maps[patch[q]]`` at the points ``(u[q], v[q])``: one `eval_basis` call per distinct
    pair of knot vectors, and each point contracts its own piece of the control net."""
    out, d = np.empty((patch.size, 2, 1 + jacobian)), int(jacobian)
    keys, firsts = [(geo.kv_u.knots.tobytes(), geo.kv_v.knots.tobytes()) for geo in maps], {}
    group = np.array([firsts.setdefault(key, k) for k, key in enumerate(keys)], dtype=int)
    for g in np.unique(group[patch]):  # the groups that own a requested point
        ks, at = np.flatnonzero(group == g), np.flatnonzero(group[patch] == g)
        kv_u, kv_v = maps[g].kv_u, maps[g].kv_v
        if keys[g][0] == keys[g][1]:  # one call serves both directions
            (fu, fv), (tu, tv) = (np.split(a, 2) for a in eval_basis(kv_u, np.append(u[at], v[at]), d))
        else:
            (fu, tu), (fv, tv) = eval_basis(kv_u, u[at], d), eval_basis(kv_v, v[at], d)
        # the (p_u + 1, p_v + 1) control points of each point's span, from the group's stacked nets
        row = (np.searchsorted(ks, patch[at]) * kv_u.n + fu)[:, None] + np.arange(kv_u.p + 1)
        C = np.take(np.stack([maps[k].control for k in ks]).reshape(-1, 2),
                    (row * kv_v.n)[:, :, None] + (fv[:, None] + np.arange(kv_v.p + 1))[:, None], axis=0)
        for col, (a, b) in enumerate(((1, 0), (0, 1)) if jacobian else ((0, 0),)):
            out[at, :, col] = np.einsum("qa,qb,qabx->qx", tu[:, a], tv[:, b], C)
    return out if jacobian else out[..., 0]


def map_edge_param(t, range_k, range_l, reversed_):
    """The affine map from ``range_k`` onto ``range_l``, reversed where `reversed_`; broadcasts."""
    (a, b), (c, d) = range_k, range_l
    s = (t - a) / (b - a)
    return np.where(reversed_, d - (d - c) * s, c + (d - c) * s)


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
        for name, patch in (("k", self.k), ("l", self.l)):
            if isinstance(patch, bool) or not isinstance(patch, (int, np.integer)):
                raise ConfigError("patch index %s must be an integer, got %r" % (name, patch))
        for side in (self.side_k, self.side_l):
            if side not in SIDES:
                raise ConfigError("unknown side %r" % side)
        for rng in (self.range_k, self.range_l):
            a, b = rng
            if isinstance(a, bool) or isinstance(b, bool) or not (0.0 <= a < b <= 1.0):
                raise ConfigError("interface range %r must be a positive sub-interval of [0,1]" % (rng,))


SideTable = namedtuple("SideTable", "owner neighbor side normal range reversed_")  # see side_table
VertexTable = namedtuple("VertexTable", "point vertex patch uv long_ index positive",
                         defaults=(None, None))  # see classify_vertices


def _read_only(table):
    for a in table:
        a.flags.writeable = False
    return table


def side_table(interfaces):
    """Every interface seen from both of its patches: a `SideTable` of read-only arrays over 2n
    oriented sides.  Side ``2 i`` is interface i seen from its patch k, ``2 i + 1`` from its patch
    l, and the partner of side s is ``s ^ 1``.  Per side: the `owner` and `neighbor` patch, the
    owner's `side` as an index into ``SIDES`` and its outward `normal` (:func:`side_normal_hat`),
    the owner's edge-parameter `range` ``(2n, 2)`` and `reversed_`."""
    kl = np.array([(g.k, g.l) for g in interfaces], dtype=int).reshape(-1, 2)
    side = np.array([SIDES.index(s) for g in interfaces for s in (g.side_k, g.side_l)], dtype=int)
    normal = np.array([side_normal_hat(name) for name in SIDES])[side]
    ranges = np.array([(g.range_k, g.range_l) for g in interfaces], dtype=float).reshape(-1, 2)
    rev = np.repeat(np.array([g.reversed_ for g in interfaces], dtype=bool), 2)
    return _read_only(SideTable(kl.ravel(), kl[:, ::-1].ravel(), side, normal, ranges, rev))


@dataclass(frozen=True)
class Patch:
    geometry: GeometryMap
    alpha: float
    space: TensorSplineSpace


class MultiPatchDomain:
    """Patches, interfaces, classified vertices and derived mesh metrics.

    `sides` is the :func:`side_table` of the interfaces, built once here.
    :meth:`validate` sets `metrics` and `vertices`, the :func:`classify_vertices` table with the
    span tables of every (vertex, adjacent patch) pair.  Immutable after it; all
    queries are read-only and safe for concurrent use.
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
        self.sides = side_table(self.interfaces)

    @property
    def num_patches(self):
        return len(self.patches)

    @property
    def degree(self):
        return self.patches[0].space.degree

    # -- validation ----------------------------------------------------

    def validate(self):
        self._check_overlaps()
        # bijectivity: det J keeps one sign, away from zero, on each patch's sample grid
        s, K = np.linspace(1e-3, 1.0 - 1e-3, _JACOBIAN_SAMPLES), self.num_patches
        jac = eval_maps([p.geometry for p in self.patches], np.repeat(np.arange(K), s.size**2),
                        *(np.tile(x.ravel(), K) for x in np.meshgrid(s, s, indexing="ij")), True)
        det = (jac[:, 0, 0] * jac[:, 1, 1] - jac[:, 0, 1] * jac[:, 1, 0]).reshape(K, -1)
        bad = np.any(np.abs(det) <= 1e-12 * np.abs(jac).reshape(K, -1).max(1)[:, None] ** 2, axis=1)
        bad |= (det.max(axis=1) > 0) & (det.min(axis=1) < 0)
        if bad.any():
            raise ConfigError("patch %d: geometry map is not bijective: Jacobian determinant "
                              "changes sign" % np.argmax(bad))
        self.metrics = self._compute_metrics()
        mismatch, ends = validate_interfaces(self)
        if mismatch is not None:
            raise ConfigError("interface %d mismatch: %s" % mismatch)
        t = classify_vertices(*ends, 1e-9 * float(np.max(self.metrics["H"])))
        index, positive = _span_tables([p.space for p in self.patches], t.patch, t.uv)
        self.vertices = _read_only(t._replace(index=index, positive=positive))
        return self

    def _check_overlaps(self):
        """Reject two interface ranges that share a piece of one patch side.

        Ranges that only touch, as at a T-junction, are valid.
        """
        seen, t = {}, self.sides
        for s, (k, side, (a, b)) in enumerate(zip(t.owner.tolist(), t.side.tolist(), t.range.tolist())):
            for other, (c, d) in seen.get((k, side), []):
                if min(b, d) - max(a, c) > _CORNER_TOL:
                    raise ConfigError("interfaces %d and %d overlap on side %s of patch %d"
                                      % (other // 2, s // 2, SIDES[side], k))
            seen.setdefault((k, side), []).append((s, (a, b)))

    # -- metrics -------------------------------------------------------

    def _compute_metrics(self):
        # H: the largest distance between 33 samples per side of the patch boundary
        s, e, K = np.linspace(0.0, 1.0, 33), np.zeros(33), self.num_patches
        u, v = np.concatenate([e, e + 1.0, s, s]), np.concatenate([s, s, e, e + 1.0])
        x = eval_maps([p.geometry for p in self.patches], np.repeat(np.arange(K), u.size),
                      np.tile(u, K), np.tile(v, K)).reshape(K, -1, 2)
        # a sample whose bounding-box bound on its distances falls short of a known distance (from
        # the first sample) is in no farthest pair, as rounding is monotone: the pairs of the
        # other samples give the all-pairs maximum, bit for bit
        a = np.maximum(x - x.min(1, keepdims=True), x.max(1, keepdims=True) - x)
        d = x - x[:, :1]
        keep = a[..., 0] ** 2 + a[..., 1] ** 2 >= (d[..., 0] ** 2 + d[..., 1] ** 2).max(1)[:, None]
        H = np.array([np.sqrt(np.max((px[:, None] - px) ** 2 + (py[:, None] - py) ** 2))
                      for px, py in (xk[at].T for xk, at in zip(x, keep))])
        hhat = np.array([max(p.space.kv_u.h_max, p.space.kv_v.h_max) for p in self.patches])
        return {"H": H, "hhat": hhat, "h": hhat * H}


def validate_interfaces(domain):
    """Sample every interface on both sides, all with one map evaluation.

    Returns ``(mismatch, (points, patch, uv))``.  `mismatch` is None if the
    sides of every interface coincide, else ``(index, report)`` of the first
    that does not, `report` a dict describing its worst sample.  The arrays
    hold four end records per interface, taken from the same samples: the
    range start, then its end, each on side k before side l; `points` and
    `uv` are ``(4n, 2)``.
    """
    sides, maps = domain.sides, [p.geometry for p in domain.patches]
    ranges = sides.range.reshape(-1, 2, 2)  # (interface, side k or l, end)
    ts = np.linspace(ranges[:, 0, 0], ranges[:, 0, 1], _INTERFACE_SAMPLES, axis=1)
    rev = sides.reversed_[::2, None]
    t = np.stack([ts, map_edge_param(ts, *ranges.transpose(1, 2, 0)[..., None], rev)], axis=1)
    n_hat = sides.normal.reshape(-1, 2, 1, 2)  # (interface, side k or l, sample, axis)
    uv = np.where(n_hat == 0.0, t[..., None], (n_hat > 0.0).astype(float))
    patch = sides.owner.reshape(-1, 2)
    x = eval_maps(maps, np.repeat(patch.ravel(), ts.shape[1]), uv[..., 0].ravel(),
                  uv[..., 1].ravel()).reshape(uv.shape)
    end_x, end_uv = (a[:, :, [0, -1]].swapaxes(1, 2).reshape(-1, 2) for a in (x, uv))
    ends = end_x, np.repeat(patch, 2, axis=0).ravel(), end_uv
    dist = np.linalg.norm(x[:, 0] - x[:, 1], axis=-1)
    worst, tol = np.argmax(dist, axis=1), _MATCH_TOL * domain.metrics["H"][patch[:, 0]]
    bad = np.flatnonzero(dist[np.arange(len(patch)), worst] > tol)
    if not bad.size:
        return None, ends
    i, w = bad[0], worst[bad[0]]
    return (int(i), {"max_mismatch": float(dist[i, w]), "tolerance": float(tol[i]),
                     "t": float(ts[i, w]), "point_k": x[i, 0, w].tolist(),
                     "point_l": x[i, 1, w].tolist()}), ends


def classify_vertices(points, patch, uv, merge_tol):
    """Cluster interface end records into vertices and detect T-junctions.

    The records are the arrays of :func:`validate_interfaces`; a record
    joins the first vertex within `merge_tol` of it.  A vertex is a
    T-junction iff it lies strictly inside an edge of at least one adjacent
    patch (a "long" patch), and a long patch must meet the vertex at exactly
    one parameter point.  Returns a `VertexTable` without its span tables:
    the `point` ``(V, 2)`` of every vertex, sorted by its coordinates rounded
    to 9 digits, and one row per (vertex, adjacent patch) pair, by vertex and
    then by patch and parameter point: its `vertex`, `patch`, `uv` ``(A, 2)``
    and `long_`, whether the vertex lies strictly inside an edge of the patch.
    """
    records = list(zip(patch.tolist(), map(tuple, uv.tolist())))
    corner = [min(u, 1.0 - u) <= _CORNER_TOL and min(v, 1.0 - v) <= _CORNER_TOL for _, (u, v) in records]
    # the earliest record left opens a cluster and takes every record left within merge_tol
    left, vertices = np.ones(len(records), dtype=bool), []
    while left.any():
        first = int(np.argmax(left))
        d = points[first] - points
        take = left & (np.sqrt(d[:, 0] ** 2 + d[:, 1] ** 2) <= merge_tol)  # the bits of np.linalg.norm
        take[first] = True
        left &= ~take
        adjacency, long_patches = [], set()
        for i in np.flatnonzero(take).tolist():
            k, (u, v) = records[i]
            if not any(kk == k and abs(uu - u) <= _CORNER_TOL and abs(vv - v) <= _CORNER_TOL
                       for kk, (uu, vv) in adjacency):
                adjacency.append(records[i])
                if not corner[i]:
                    long_patches.add(k)
        for k in sorted(long_patches):
            count = sum(kk == k for kk, _ in adjacency)
            if count > 1:
                raise ConfigError(
                    "vertex at %s lies inside an edge of patch %d but meets that patch "
                    "at %d parameter points" % (points[first], k, count)
                )
        vertices.append((points[first], sorted(adjacency), long_patches))
    vertices.sort(key=lambda vertex: (round(vertex[0][0], 9), round(vertex[0][1], 9)))
    rows = [(v, k, k in long_patches, *loc) for v, (_, adjacency, long_patches) in enumerate(vertices)
            for k, loc in adjacency]
    vertex, patch, long_ = np.array([r[:3] for r in rows], dtype=int).reshape(-1, 3).T
    return VertexTable(np.array([x for x, _, _ in vertices], dtype=float).reshape(-1, 2), vertex,
                       patch, np.array([r[3:] for r in rows], dtype=float).reshape(-1, 2), long_ == 1)


def _span_tables(spaces, patch, uv):
    """The p + 1 functions `index` ``(A, 2, p + 1)`` of the span at every point ``uv[a]`` of
    ``spaces[patch[a]]``, per direction, and which of them are `positive` there
    (:func:`~ietidg.bspline._covering`); one call per distinct knot vector."""
    kvs, firsts = [kv for space in spaces for kv in (space.kv_u, space.kv_v)], {}
    group = np.array([firsts.setdefault(kv.knots.tobytes(), g) for g, kv in enumerate(kvs)])
    group = group.reshape(-1, 2)[patch]  # (pair, direction)
    shape = group.shape + (spaces[0].degree + 1,)
    index, positive = np.empty(shape, dtype=int), np.empty(shape, dtype=bool)
    for g in np.unique(group):
        index[group == g], positive[group == g] = _covering(kvs[g], uv[group == g])
    return index, positive
