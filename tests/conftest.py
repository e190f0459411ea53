from collections import namedtuple

import numpy as np
import pytest
import scipy.sparse

from ietidg.assembly import (_inv_transpose, _side_points, _SidePoints, _trace_dofs,
                             assemble_interface_terms, assemble_volume, band_rows, copy_map)
from ietidg.bspline import KnotVector, TensorSplineSpace, eval_basis, gauss_rule, refine_uniform
from ietidg.domains import domain_from_config, domain_to_config
from ietidg.errors import ConfigError
from ietidg.geometry import (GeometryMap, Interface, MultiPatchDomain, Patch, map_edge_param,
                             side_normal_hat, side_point)
from ietidg.ieti import PrimalSources
from ietidg.linalg import SparseSym, block_triplets
from ietidg.refsolver import evaluate_patch, patch_offsets


def unit_square_patch(x0, x1, y0, y1, p, r, dirichlet, alpha=1.0):
    kv = refine_uniform(KnotVector.bernstein(p), r)
    geo = GeometryMap.bilinear((x0, y0), (x1, y0), (x0, y1), (x1, y1))
    return Patch(geo, alpha, TensorSplineSpace(kv, kv, dirichlet))


def two_patch_domain(p=1, r=1, dirichlet=True, alphas=(1.0, 1.0)):
    """Two unit squares sharing the edge x = 1."""
    d0 = {"west", "south", "north"} if dirichlet else set()
    d1 = {"east", "south", "north"} if dirichlet else set()
    patches = [
        unit_square_patch(0, 1, 0, 1, p, r, d0, alphas[0]),
        unit_square_patch(1, 2, 0, 1, p, r, d1, alphas[1]),
    ]
    ifaces = [Interface(0, "east", (0.0, 1.0), 1, "west", (0.0, 1.0))]
    return MultiPatchDomain(patches, ifaces, name="two_patch").validate()


def reversed_two_patch_domain(p=2):
    """The unit square and the half-turned square [1, 2] x [0, 1], glued along
    their east sides with opposite directions and different interior knots."""
    kv = refine_uniform(KnotVector.bernstein(p), 1)
    kv_v = KnotVector(p, [0.0] * (p + 1) + [0.3] + [1.0] * (p + 1))
    sides = {"west", "south", "north"}
    patches = [
        Patch(GeometryMap.bilinear((0, 0), (1, 0), (0, 1), (1, 1)), 1.0,
              TensorSplineSpace(kv, kv, sides)),
        Patch(GeometryMap.bilinear((2, 1), (1, 1), (2, 0), (1, 0)), 2.0,
              TensorSplineSpace(kv, kv_v, sides)),
    ]
    ifaces = [Interface(0, "east", (0.0, 1.0), 1, "east", (0.0, 1.0), reversed_=True)]
    return MultiPatchDomain(patches, ifaces, name="reversed_two_patch").validate()


def mirrored_two_patch_domain(p=2, r=1):
    """The unit square glued to the mirrored square x = 2 - u, y = v (det J < 0), whose
    east side u = 1 lies on x = 1."""
    kv = refine_uniform(KnotVector.bernstein(p), r)
    sides = {"west", "south", "north"}
    patches = [unit_square_patch(0, 1, 0, 1, p, r, sides),
               Patch(GeometryMap.bilinear((2, 0), (1, 0), (2, 1), (1, 1)), 1.0,
                     TensorSplineSpace(kv, kv, sides))]
    ifaces = [Interface(0, "east", (0.0, 1.0), 1, "east", (0.0, 1.0))]
    return MultiPatchDomain(patches, ifaces, name="mirrored_two_patch").validate()


def curved_geometry():
    """Degree-2 map of the unit square whose middle control point is lifted:
    diagonal Jacobian at the corners and the centre, curved everywhere else."""
    kv = KnotVector.bernstein(2)
    control = np.stack(np.meshgrid([0.0, 0.5, 1.0], [0.0, 0.5, 1.0], indexing="ij"), axis=-1)
    control[1, 1, 1] = 0.7
    return GeometryMap(kv, kv, control)


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


def curved_two_patch_domain(p=2, r=2):
    """The curved patch of `curved_geometry` glued along x = 1 to the square [1, 2] x [0, 1]."""
    kv = refine_uniform(KnotVector.bernstein(p), r)
    patches = [Patch(curved_geometry(), 1.0, TensorSplineSpace(kv, kv, {"west", "south", "north"})),
               unit_square_patch(1, 2, 0, 1, p, r, {"east", "south", "north"})]
    ifaces = [Interface(0, "east", (0.0, 1.0), 1, "west", (0.0, 1.0))]
    return MultiPatchDomain(patches, ifaces, name="curved").validate()


def at(geo, u, v):
    """Point and Jacobian of the map `geo` at the one parameter point (u, v)."""
    pts, jac = geo.jacobian_grid([u], [v])
    return pts[0, 0], jac[0, 0]


# -- references: the per-patch, per-interface and per-side loops that the
# vectorized geometry pass replaced, kept to compare against bit for bit


def reference_validate(domain):
    """`MultiPatchDomain.validate` one patch and one interface at a time, on `jacobian_grid`
    samples.  Returns ``(metrics, vertices)``; raises what
    validation raises, with the same text."""
    domain._check_overlaps()
    s = np.linspace(1e-3, 1.0 - 1e-3, 9)
    for i, patch in enumerate(domain.patches):
        jac = patch.geometry.jacobian_grid(s, s)[1]
        det = jac[..., 0, 0] * jac[..., 1, 1] - jac[..., 0, 1] * jac[..., 1, 0]
        if np.any(np.abs(det) <= 1e-12 * np.abs(jac).max() ** 2) or (det.max() > 0 and det.min() < 0):
            raise ConfigError("patch %d: geometry map is not bijective: Jacobian determinant "
                              "changes sign" % i)
    H, hhat, s = np.empty(domain.num_patches), np.empty(domain.num_patches), np.linspace(0, 1, 33)
    for k, patch in enumerate(domain.patches):
        grid = patch.geometry.jacobian_grid(s, s)[0]
        x, y = np.concatenate([grid[0], grid[-1], grid[:, 0], grid[:, -1]]).T
        H[k] = np.sqrt(np.max((x[:, None] - x) ** 2 + (y[:, None] - y) ** 2))
        hhat[k] = max(patch.space.kv_u.h_max, patch.space.kv_v.h_max)
    metrics = {"H": H, "hhat": hhat, "h": hhat * H}
    ends = []
    for idx, g in enumerate(domain.interfaces):
        ts = np.linspace(g.range_k[0], g.range_k[1], 17)
        ss = map_param(g, ts)
        pk = domain.patches[g.k].geometry.jacobian_grid(*side_point(g.side_k, ts))[0].reshape(-1, 2)
        pl = domain.patches[g.l].geometry.jacobian_grid(*side_point(g.side_l, ss))[0].reshape(-1, 2)
        ends += [(x[i], patch, side_point(side, float(t[i])))
                 for i in (0, -1)
                 for x, patch, side, t in ((pk, g.k, g.side_k, ts), (pl, g.l, g.side_l, ss))]
        dist = np.linalg.norm(pk - pl, axis=1)
        worst = int(np.argmax(dist))
        if dist[worst] > 1e-9 * H[g.k]:
            raise ConfigError("interface %d mismatch: %s" % (idx, {
                "max_mismatch": float(dist[worst]), "tolerance": float(1e-9 * H[g.k]),
                "t": float(ts[worst]), "point_k": pk[worst].tolist(), "point_l": pl[worst].tolist()}))
    return metrics, reference_classify_vertices(ends, 1e-9 * float(np.max(H)))


# a vertex as a record: its point, its sorted (patch, (u, v)) adjacency and the sorted tuple of
# the patches whose edge it lies strictly inside
VertexRecord = namedtuple("VertexRecord", "point adjacency long_patches")


def vertex_records(table):
    """The `VertexRecord` of every vertex of a `VertexTable`, in vertex order."""
    adjacency = [[] for _ in table.point]
    for v, k, loc, long_ in zip(table.vertex.tolist(), table.patch.tolist(), table.uv.tolist(),
                                table.long_.tolist()):
        adjacency[v].append((k, tuple(loc), long_))
    return [VertexRecord(point, [(k, loc) for k, loc, _ in adj],
                         tuple(k for k, _, long_ in adj if long_))
            for point, adj in zip(table.point, adjacency)]


def end_records(points, patch, uv):
    """The end arrays of `validate_interfaces` as a list of ``(point, patch, (u, v))`` records."""
    return list(zip(points, patch.tolist(), map(tuple, uv.tolist())))


def end_arrays(ends):
    """A list of ``(point, patch, (u, v))`` records as the arrays of `validate_interfaces`."""
    points, patch, uv = zip(*ends)
    return np.array(points, dtype=float), np.array(patch, dtype=int), np.array(uv, dtype=float)


def reference_classify_vertices(ends, merge_tol):
    """`classify_vertices` with one distance per record and cluster."""
    clusters = []
    for point, patch, loc in ends:
        for cl_point, members in clusters:
            # the norm is never below |dx|: a cluster that test rules out is out either way
            if abs(cl_point[0] - point[0]) <= merge_tol and np.linalg.norm(cl_point - point) <= merge_tol:
                members.append((patch, loc))
                break
        else:
            clusters.append((point, [(patch, loc)]))
    corner = lambda u, v: min(u, 1.0 - u) <= 1e-12 and min(v, 1.0 - v) <= 1e-12
    vertices = []
    for point, members in clusters:
        adjacency = []
        for patch, (u, v) in members:
            if not any(pp == patch and abs(uu - u) <= 1e-12 and abs(vv - v) <= 1e-12
                       for pp, (uu, vv) in adjacency):
                adjacency.append((patch, (u, v)))
        long_patches = sorted({patch for patch, loc in adjacency if not corner(*loc)})
        for patch in long_patches:
            count = sum(pp == patch for pp, _ in adjacency)
            if count > 1:
                raise ConfigError("vertex at %s lies inside an edge of patch %d but meets that patch "
                                  "at %d parameter points" % (point, patch, count))
        vertices.append(VertexRecord(point, sorted(adjacency), tuple(long_patches)))
    vertices.sort(key=lambda v: (round(v.point[0], 9), round(v.point[1], 9)))
    return vertices


def map_param(g, t):
    """The edge parameter on side l of interface `g` at parameter `t` on its side k."""
    return map_edge_param(np.asarray(t), g.range_k, g.range_l, g.reversed_)


def oriented_interfaces(domain):
    """Both orientations of every interface, built from its fields: ``2 i`` is interface i,
    ``2 i + 1`` the same interface seen from its patch l."""
    return [ori for g in domain.interfaces for ori in (
        g, Interface(g.l, g.side_l, g.range_l, g.k, g.side_k, g.range_k, g.reversed_))]


def reference_merged_partition(domain, ori):
    """Breakpoints of both sides of the oriented side `ori` merged, in the owner's edge parameter."""
    own = domain.patches[ori.k].space.edge_kv(ori.side_k).breakpoints
    nb = domain.patches[ori.l].space.edge_kv(ori.side_l).breakpoints
    (a, b), (c, d) = ori.range_k, sorted(ori.range_l)
    frac = (nb - ori.range_l[0]) / (ori.range_l[1] - ori.range_l[0])  # invert the affine map
    frac = ((1.0 - frac) if ori.reversed_ else frac)[(c < nb) & (nb < d)]
    pts = np.unique(np.concatenate([[a, b], own[(a < own) & (own < b)], a + frac * (b - a)]))
    return pts[np.concatenate([[True], np.diff(pts) > 1e-12 * (b - a)])]


def reference_jacobian_points(geo, u_pts, v_pts):
    """Jacobians ``(Q, 2, 2)`` of one map at the points ``(u_pts[q], v_pts[q])``."""
    (fu, tu), (fv, tv) = eval_basis(geo.kv_u, u_pts, 1), eval_basis(geo.kv_v, v_pts, 1)
    C = geo.control[(fu[:, None] + np.arange(geo.kv_u.p + 1))[:, :, None],
                    (fv[:, None] + np.arange(geo.kv_v.p + 1))[:, None, :]]
    return np.stack([np.einsum("qa,qb,qabx->qx", tu[:, 1], tv[:, 0], C),
                     np.einsum("qa,qb,qabx->qx", tu[:, 0], tv[:, 1], C)], axis=-1)


def reference_side_points(domain):
    """`assembly._side_points` one side and one owner patch at a time."""
    sides = oriented_interfaces(domain)
    ts, ws, ss, counts = [np.zeros(0)], [np.zeros(0)], [np.zeros(0)], [0]
    for ori in sides:
        geo = domain.patches[ori.k].geometry
        ng = max(domain.degree, geo.kv_u.p, geo.kv_v.p) + 1
        breaks = reference_merged_partition(domain, ori)
        t, w = (a.ravel() for a in gauss_rule(ng).mapped(breaks[:-1, None], breaks[1:, None]))
        ts, ws, ss = ts + [t], ws + [w], ss + [map_param(ori, t)]
        counts += [ng] * (breaks.size - 1)
    side = np.repeat(np.arange(len(sides)), [t.size for t in ts[1:]]).astype(int)
    n_hat = np.array([side_normal_hat(ori.side_k) for ori in sides]).reshape(-1, 2)[side]
    axis = (n_hat[:, 1] == 0.0).astype(int)
    uv = np.where(n_hat == 0.0, np.concatenate(ts)[:, None], (n_hat > 0.0).astype(float))
    owner = np.array([ori.k for ori in sides], dtype=int)[side]
    jac, jinv_t = np.empty((side.size, 2, 2)), np.empty((side.size, 2, 2))
    for k in np.unique(owner):
        at = owner == k
        jac[at] = reference_jacobian_points(domain.patches[k].geometry, uv[at, 0], uv[at, 1])
        jinv_t[at] = _inv_transpose(jac[at], "patch %d" % k, uv[at])[0]
    normals = (jinv_t @ n_hat[:, :, None])[..., 0]
    normals /= np.linalg.norm(normals, axis=1)[:, None]
    weights = np.concatenate(ws) * np.linalg.norm(jac[np.arange(side.size), :, axis], axis=1)
    return _SidePoints(side, axis, np.concatenate(ss), uv, weights, normals, jinv_t,
                       np.cumsum(counts[:-1], dtype=int))


# -- references: the per-point, per-side and per-vertex loops that the
# whole-domain passes of interface_side_terms, copy_map,
# assemble_interface_terms and select_primal replaced


def reference_lattice_side_terms(domain, delta):
    """`interface_side_terms` summing each sub-interval's point matrices, the g-th points of all
    sub-intervals at once, the flux through ``(Q, 2, 2) @ (Q, 2, 2p + 2)``; rows ``(side,
    lattice, edge, mats)``: the owner's flat lattice indices and the neighbor's edge indices."""
    p, sides, sp = domain.degree, oriented_interfaces(domain), _side_points(domain)
    side, axis, start, q = sp.side, sp.axis, sp.start, np.arange(sp.side.size)
    kvs = {}
    which = np.array([[kvs.setdefault(kv.knots.tobytes(), (len(kvs), kv))[0] for kv in (
        domain.patches[ori.k].space.kv_u, domain.patches[ori.k].space.kv_v,
        domain.patches[ori.l].space.edge_kv(ori.side_l))] for ori in sides]).reshape(-1, 3)[side].T
    params = np.stack([sp.uv[:, 0], sp.uv[:, 1], sp.ss])
    first, tab = np.empty((3, q.size), dtype=int), np.empty((3, q.size, 2, p + 1))
    for i, kv in kvs.values():
        first[which == i], tab[which == i] = eval_basis(kv, params[which == i], 1)
    col = (p - 1) * (sp.uv[q, 1 - axis] == 1.0).astype(int)[:, None] + np.arange(2)
    layer = np.take_along_axis(tab[1 - axis, q], col[:, None, :], axis=2)
    values, d_layer, d_along = ((layer[:, a, :, None] * tab[axis, q, b, None, :]).reshape(
        -1, 2 * p + 2) for a, b in ((0, 0), (1, 0), (0, 1)))
    grad_hat = np.where(axis[:, None, None] == 1, np.stack([d_layer, d_along], axis=1),
                        np.stack([d_along, d_layer], axis=1))
    jump = np.concatenate([values, -tab[2, :, 0]], axis=1)
    flux = np.pad(np.einsum("qa,qam->qm", sp.normals, sp.jinv_t @ grad_hat), ((0, 0), (0, p + 1)))
    k, l = np.array([[ori.k, ori.l] for ori in sides], dtype=int).reshape(-1, 2).T
    alpha = np.array([patch.alpha for patch in domain.patches])[k]
    rho = alpha * delta * p * p / np.minimum(domain.metrics["h"][k], domain.metrics["h"][l])
    counts, mats = np.diff(np.append(start, q.size)), np.zeros((start.size, 3 * p + 3, 3 * p + 3))
    for g in range(counts.max(initial=0)):
        at = start + np.minimum(g, counts - 1)
        w = sp.weights[at] * (g < counts)
        fj = (0.5 * alpha[side[at]] * w)[:, None, None] * flux[at, :, None] * jump[at, None, :]
        mats += (jump[at, :, None] * jump[at, None, :]) * (rho[side[at]] * w)[:, None, None] - (
            fj + np.swapaxes(fj, 1, 2))
    idx = np.broadcast_arrays((first[1 - axis[start], start, None] + col[start])[:, :, None],
                              (first[axis[start], start, None] + np.arange(p + 1))[:, None, :])
    iu, iv = np.where(axis[start, None, None] == 1, idx, idx[::-1])
    n_v = np.array([patch.space.n_v for patch in domain.patches])[k[side[start]], None, None]
    return (side[start], (iu * n_v + iv).reshape(-1, 2 * p + 2),
            first[2, start, None] + np.arange(p + 1), mats)


def reference_interface_side_terms(domain, delta):
    """`interface_side_terms`: the rows of `reference_lattice_side_terms` mapped one oriented side
    at a time through its owner's `dof_map` and its neighbor's `edge_dofs`."""
    side, lattice, edge, mats = reference_lattice_side_terms(domain, delta)
    own, nbr = np.empty_like(lattice), np.empty_like(edge)
    for s, ori in enumerate(oriented_interfaces(domain)):
        at = side == s
        own[at] = domain.patches[ori.k].space.dof_map.ravel()[lattice[at]]
        nbr[at] = domain.patches[ori.l].space.edge_dofs(ori.side_l)[edge[at]]
    return side, own, nbr, mats


def trace_dofs(space, side, prange):
    """The `_trace_dofs` dofs of one edge."""
    return _trace_dofs([(space, side, prange)])[1]


def reference_trace_basis(space, side, prange):
    """`trace_dofs` on one edge, the support-overlap rule one function at a time."""
    kv, (a, b) = space.edge_kv(side), prange
    U, p = kv.knots, kv.p
    active = np.array([i for i in range(kv.n) if U[i] < b and U[i + p + 1] > a], dtype=int)
    dofs = space.edge_dofs(side)[active]
    dofs = dofs[dofs >= 0]
    if not dofs.size:
        raise ConfigError("degenerate interface: no active trace functions on %s %s" % (side, prange))
    return dofs


def reference_copy_map(domain):
    """`copy_map` one interface side at a time."""
    rows = [np.zeros((0, 5), dtype=int)]
    next_dof = [patch.space.dimension for patch in domain.patches]
    for i, g in enumerate(domain.interfaces):
        for src, side, prange, blk in ((g.k, g.side_k, g.range_k, g.l),
                                       (g.l, g.side_l, g.range_l, g.k)):
            sdof = reference_trace_basis(domain.patches[src].space, side, prange)
            n = sdof.size
            rows.append(np.column_stack([np.full(n, i), np.full(n, src), sdof, np.full(n, blk),
                                         next_dof[blk] + np.arange(n)]))
            next_dof[blk] += n
    return np.concatenate(rows)


def reference_interface_dofs(domain, copies, side, own, nbr):
    """`assemble_interface_terms`' ``(block, idx)``: the neighbor dofs `nbr` mapped to their
    copies in the owner's block one oriented side at a time, -1 staying -1."""
    block, copy = np.empty_like(side), np.empty_like(nbr)
    for s, ori in enumerate(oriented_interfaces(domain)):
        at = side == s
        rows = copies[(copies[:, 0] == s // 2) & (copies[:, 3] == ori.k)]
        copy_of = np.full(domain.patches[ori.l].space.dimension + 1, -1)  # copy_of[-1] is -1
        copy_of[rows[:, 2]] = rows[:, 4]
        block[at], copy[at] = ori.k, copy_of[nbr[at]]
    return block, np.concatenate([own, copy], axis=1)


def positive_at(kv, x):
    """The functions of `kv` positive at `x`, one at a time: ``B_i`` is positive on the open
    interval ``(U[i], U[i+p+1])``, and at an end of it only where p + 1 knots meet there."""
    U, p = kv.knots, kv.p
    return [i for i in range(kv.n)
            if U[i] < x < U[i + p + 1] or x == U[i] == U[i + p] or x == U[i + 1] == U[i + p + 1]]


def reference_select_primal(domain, log=None):
    """`select_primal` one vertex, adjacent patch and candidate at a time; calls ``log(patch, i,
    j, point)`` for every Dirichlet-constrained candidate."""
    sources, claimed = [], set()
    for v_idx, vertex in enumerate(vertex_records(domain.vertices)):
        for patch, (u0, v0) in vertex.adjacency:
            space = domain.patches[patch].space
            for i in positive_at(space.kv_u, u0):
                for j in positive_at(space.kv_v, v0):
                    dof = int(space.dof_map[i, j])
                    if dof < 0:
                        if log:
                            log(patch, i, j, vertex.point)
                        continue
                    if (patch, dof) not in claimed:
                        claimed.add((patch, dof))
                        sources.append((v_idx, patch, dof))
    return PrimalSources(*np.array(sorted(sources, key=lambda s: s[1:]), dtype=int).reshape(-1, 3).T)


NO_PRIMAL = PrimalSources(*np.zeros((3, 0), dtype=int))


def reference_degenerate_tjunction_count(domain):
    """`degenerate_tjunction_count` one vertex and long patch at a time."""
    return sum(len(positive_at(domain.patches[k].space.kv_u, u))
               * len(positive_at(domain.patches[k].space.kv_v, v)) == 1
               for vertex in vertex_records(domain.vertices) for k, (u, v) in vertex.adjacency
               if k in vertex.long_patches)


def reference_max_jump(domain, u_patches):
    """The largest interface jump of `refsolver.measure_error`, one interface at a time."""
    max_jump = 0.0
    for g in domain.interfaces:
        ts = np.linspace(g.range_k[0], g.range_k[1], 64)
        uk = evaluate_patch(domain.patches[g.k], u_patches[g.k], *side_point(g.side_k, ts)).ravel()
        ss = map_param(g, ts)
        ul = evaluate_patch(domain.patches[g.l], u_patches[g.l], *side_point(g.side_l, ss)).ravel()
        max_jump = max(max_jump, float(np.abs(uk - ul).max()))
    return max_jump


def primal_dofs(partition, k):
    """Block k's primal dofs: the tail of its skeleton, after the dual dofs."""
    return partition.gamma[k][partition.dual[k].size:]


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_knotvector(rng, p=None):
    p = p if p is not None else int(rng.integers(1, 5))
    n_interior = int(rng.integers(0, 6))
    interior = np.sort(rng.uniform(0.05, 0.95, n_interior))
    knots = np.concatenate([np.zeros(p + 1), interior, np.ones(p + 1)])
    return KnotVector(p, knots)


def volume_arrays(patch, **kwargs):
    """`assemble_volume`'s stiffness as the CSR arrays of all its free rows, with its load on the
    free dofs."""
    band, load = assemble_volume(patch, **kwargs)
    return band_rows(patch.space, band, np.arange(patch.space.dimension)), load[patch.space.free_mask]


def extended_matrix(n, base, idx, mats):
    """The (n, n) sum of the CSR arrays `base` ``(data, indices, indptr)`` of its leading rows
    and the dense blocks `idx`, `mats` (see `block_triplets`), in one sparse construction."""
    data, indices, indptr = base
    vals, (rows, cols) = block_triplets(idx, mats)
    rows = np.concatenate([np.repeat(np.arange(indptr.size - 1), np.diff(indptr)), rows])
    return SparseSym(scipy.sparse.coo_matrix(
        (np.concatenate([data, vals]), (rows, np.concatenate([indices, cols]))), shape=(n, n)))


ExtendedSystem = namedtuple("ExtendedSystem", "k A f")


def local_systems(domain, delta=12.0, source=1.0):
    """Every block's full extended system ``(k, A, f)`` over the copy map of `domain`.

    The solver never forms it: each matrix is rebuilt here from the patch's
    volume band rows and its interface blocks, the reference that the split
    blocks of `build_local_system` are checked against.  Dof order: the
    patch's free dofs, then its artificial dofs (see `copy_map`).
    """
    copies = copy_map(domain)
    block, idx, mats = assemble_interface_terms(domain, copies, delta)
    out = []
    for k, patch in enumerate(domain.patches):
        n = patch.space.dimension + np.count_nonzero(copies[:, 3] == k)
        volume, load = volume_arrays(patch, source=source, label="patch %d" % k)
        A = extended_matrix(n, volume, idx[block == k], mats[block == k])
        out.append(ExtendedSystem(k, A, np.concatenate([load, np.zeros(n - load.size)])))
    return out


def glued_from_locals(domain, local_systems, copies):
    """Identify artificial dofs with their sources and sum the extended systems.

    `copies` is the copy map the local systems were built from.  Returns the
    resulting matrix over global patch dofs; it must agree with
    ``refsolver.assemble_global`` on every valid domain.
    """
    offs = patch_offsets(domain)
    parts = []
    for sysk in local_systems:
        _, src, sdof, _, cdof = copies[copies[:, 3] == sysk.k].T
        n_patch = domain.patches[sysk.k].space.dimension
        to_global = np.empty(sysk.A.n, dtype=int)
        to_global[:n_patch] = offs[sysk.k] + np.arange(n_patch)
        to_global[cdof] = offs[src] + sdof
        coo = sysk.A.csr.tocoo()
        parts.append((to_global[coo.row], to_global[coo.col], coo.data))
    rows, cols, values = map(np.concatenate, zip(*parts))
    n = int(offs[-1])
    return SparseSym(scipy.sparse.coo_matrix((values, (rows, cols)), shape=(n, n)))


def dual_rows(partition):
    """The copy-map rows whose copy is dual: row r pairs the dofs of multiplier r."""
    dual = {(k, int(d)) for k, ds in enumerate(partition.dual) for d in ds}
    keep = [(int(blk), int(cdof)) in dual for blk, cdof in partition.copies[:, 3:]]
    return partition.copies[np.array(keep, dtype=bool)]


def jump_matrix(jumps, k):
    """Block k's B as a CSR over its skeleton ``gamma[k]``, from `plus` and `minus`."""
    block, n = jumps.block(k), jumps.plus.size
    pos = np.concatenate([jumps.plus, jumps.minus])
    inside = np.flatnonzero((pos >= block.start) & (pos < block.stop))
    return scipy.sparse.csr_matrix((np.where(inside < n, 1.0, -1.0), (inside % n, pos[inside] - block.start)),
                                   shape=(n, block.stop - block.start))


def full_jump_columns(jumps, partition):
    """Each block's dense B over all its extended dofs, scattered from `jump_matrix`."""
    out = []
    for k, n in enumerate(np.diff(partition.offsets)):
        B = np.zeros((jumps.plus.size, n))
        B[:, partition.gamma[k]] = jump_matrix(jumps, k).toarray()
        out.append(B)
    return out


def project_wtilde(op, u_blocks):
    """Project block vectors onto the primal-constrained subspace by group averaging."""
    total, count = np.zeros(op.n_primal), np.zeros(op.n_primal)
    primal = [primal_dofs(op.partition, k) for k in range(len(u_blocks))]
    for u, P, gk in zip(u_blocks, primal, op.partition.primal_global):
        np.add.at(total, gk, u[P])
        np.add.at(count, gk, 1.0)
    out = [u.copy() for u in u_blocks]
    for u, P, gk in zip(out, primal, op.partition.primal_global):
        u[P] = total[gk] / count[gk]
    return out


def psi_residual(op, k):
    """Energy-minimality residual of block k's Psi: max |Delta rows of S Psi| / max |S|."""
    blk = op.blocks[k]
    res = (blk.S @ blk.psi)[:op.partition.dual[k].size]
    scale = max(np.abs(blk.S).max(initial=0.0), 1e-300)
    return float(np.abs(res).max(initial=0.0) / scale)


def check_lemma_bbt(domain, op, u_blocks):
    """Verify the closed form of w = B_D^T B_Gamma u for primal-constrained u.

    For every matched pair on an interface between patches k and l the
    scaled jump ``alpha_l / (alpha_k + alpha_l) * (u_k - u_l_copy)``
    must appear at the block-k dof, and the complementary-scaled
    negative jump at the copy.  Returns the max coefficientwise
    deviation (all non-pair skeleton dofs must carry zero).
    """
    B_gamma = [jump_matrix(op.jumps, k) for k in range(len(op.blocks))]
    gamma = [op.partition.gamma[k] for k in range(len(op.blocks))]
    mu = sum((B @ u[g] for B, u, g in zip(B_gamma, u_blocks, gamma)), np.zeros(op.n_rows))
    w = [(B.T @ mu) / op.jumps.D[op.jumps.block(k)] for k, B in enumerate(B_gamma)]
    expected = [np.zeros_like(wk) for wk in w]
    pos_gamma = []
    for g, n in zip(gamma, np.diff(op.partition.offsets)):
        pg = -np.ones(n, dtype=int)
        pg[g] = np.arange(g.size)
        pos_gamma.append(pg)
    for _, k, dof_k, l, dof_l in dual_rows(op.partition):
        a_k = domain.patches[k].alpha
        a_l = domain.patches[l].alpha
        jump = u_blocks[k][dof_k] - u_blocks[l][dof_l]
        expected[k][pos_gamma[k][dof_k]] = a_l / (a_k + a_l) * jump
        expected[l][pos_gamma[l][dof_l]] = -a_k / (a_k + a_l) * jump
    return max(
        float(np.abs(w[k] - expected[k]).max()) if w[k].size else 0.0
        for k in range(len(op.blocks))
    )


# -- reference: the per-block solve phase that the skeleton vector replaced,
# kept to compare IetiOperator's applications against


class ReferenceSolvePhase:
    """`IetiOperator`'s F, d, M_sD and recovery as per-block loops over block vectors.

    B is stored as the multiplier row and sign of every Delta dof of each
    block, read off `jump_matrix`, and Psi as each block's dense `psi`.
    """

    def __init__(self, op):
        self.op = op
        self.rows, self.signs, self.D = [], [], []
        for k in range(len(op.blocks)):
            B = jump_matrix(op.jumps, k).tocsc()  # Delta columns first, one entry each
            nd = op.partition.dual[k].size
            self.rows.append(B.indices[:nd])
            self.signs.append(B.data[:nd])
            self.D.append(op.jumps.D[op.jumps.block(k)])

    def apply(self, u_blocks):
        y = np.zeros(self.op.n_rows)
        for rows, signs, u in zip(self.rows, self.signs, u_blocks):
            y[rows] += signs * u[:rows.size]
        return y

    def transpose(self, lam):
        out = [np.zeros(D.size) for D in self.D]
        for t, rows, signs in zip(out, self.rows, self.signs):
            t[:rows.size] = signs * lam[rows]
        return out

    def solve_constrained(self, rhs_blocks):
        op, u_blocks, w = self.op, [], np.zeros(self.op.n_primal)
        for blk, dual, gk, r in zip(op.blocks, op.partition.dual, op.partition.primal_global, rhs_blocks):
            u = np.zeros(r.shape)
            u[:dual.size] = blk.dual_fac.solve(r[:dual.size])
            u_blocks.append(u)
            np.add.at(w, gk, blk.psi.T @ r)
        mu = op.coarse_fac.solve(w)
        for u, blk, gk in zip(u_blocks, op.blocks, op.partition.primal_global):
            u += blk.psi @ mu[gk]
        return u_blocks

    def apply_F(self, lam):
        return self.apply(self.solve_constrained(self.transpose(lam)))

    def compute_d(self):
        return self.apply(self.solve_constrained([blk.g for blk in self.op.blocks]))

    def apply_MsD(self, mu):
        return self.apply([(blk.S @ (t / D)) / D for blk, t, D in
                           zip(self.op.blocks, self.transpose(mu), self.D)])

    def recover_solution(self, lam):
        u_gamma = self.solve_constrained(
            [blk.g - t for blk, t in zip(self.op.blocks, self.transpose(lam))])
        u_blocks = []
        part = self.op.partition
        for k, (blk, ug) in enumerate(zip(self.op.blocks, u_gamma)):
            u = np.empty(part.offsets[k + 1] - part.offsets[k])
            u[part.gamma[k]] = ug
            u[part.interior[k]] = blk.aii_fac.solve(blk.f_I - blk.A_IG @ ug)
            u_blocks.append(u)
        return u_blocks
