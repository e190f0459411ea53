"""Patch-local assembly of the coupled bilinear form.

Each patch carries an extended space: its own tensor-product functions
followed by one block of "artificial" trace functions per interface,
holding copies of the neighbor's basis restricted to the shared curve.
The volume term couples patch functions only; the consistency and penalty
terms couple patch traces with the artificial copies, so the full problem
decomposes into independent per-patch systems.

Interface integrals run over the union of both sides' mapped breakpoints
(the integrand is piecewise polynomial only on the merged partition), with
``p + 1`` Gauss points per sub-interval and the arc-length measure and
outward normal taken from the owning patch's geometry map.
"""

from dataclasses import dataclass

import numpy as np

from . import linalg
from .bspline import active_on_interval, eval_basis_tables, gauss_rule, span_quadrature
from .errors import ConfigError, NumericalError
from .geometry import side_axis, side_normal_hat, side_point

_SINGULAR_RTOL = 1e-12


def trace_basis_on_edge(space, side, prange):
    """Functions of `space` with nonvanishing trace on the range.

    Returns ``(edge_index, patch_dof)`` pairs in increasing edge order,
    leaving out Dirichlet-constrained functions.  Includes every function
    whose support meets the open range, also those whose Greville point
    lies outside it.
    """
    ekv = space.edge_kv(side)
    dofs = space.edge_dofs(side)
    entries = tuple((int(e), int(dofs[e])) for e in active_on_interval(ekv, prange[0], prange[1])
                    if dofs[e] >= 0)
    if not entries:
        raise ConfigError("degenerate interface: no active trace functions on %s %s" % (side, prange))
    return entries


@dataclass(frozen=True)
class ArtificialInterfaceBasis:
    """Copies of neighbor basis functions attached to the owning patch.

    The copy-map sends local artificial dof ``offset + pos`` to
    ``sources[pos] = (edge_index, dof index in the neighbor's space)``;
    it is injective by construction.
    """

    owner: int
    neighbor: int
    iface_index: int
    sources: tuple         # (edge_index, neighbor patch dof)
    offset: int

    @property
    def size(self):
        return len(self.sources)


@dataclass
class ExtendedLocalSystem:
    """Matrix and load of one patch over its extended space.

    Dof order: the patch's free tensor-product dofs first (compact
    numbering of the space), then one artificial block per interface in
    increasing interface-index order.
    """

    k: int
    A: linalg.SparseSym
    f: np.ndarray
    n_patch: int
    n_total: int
    artificial: list          # ArtificialInterfaceBasis, ordered by iface index


def _inv_transpose(J, where="", points=None):
    """Batch inverse-transpose of 2x2 Jacobians, with singularity guard.

    `J` has shape ``(..., Q, 2, 2)``: sets of Q points, each set judged
    against the square of its own largest entry.  `points` (shape
    ``(..., Q, 2)``) makes the error message name the first offending
    parameter point.
    """
    det = J[..., 0, 0] * J[..., 1, 1] - J[..., 0, 1] * J[..., 1, 0]
    scale = np.max(np.abs(J), axis=(-3, -2, -1)) ** 2
    bad = np.abs(det) <= _SINGULAR_RTOL * np.maximum(scale, 1e-300)[..., None]
    if np.any(bad):
        q = int(np.argmax(np.ravel(bad)))
        at = ""
        if points is not None:
            uv = np.reshape(points, (-1, 2))[q]
            at = " at parameter (%.6g, %.6g)" % (uv[0], uv[1])
        raise NumericalError(
            "singular Jacobian%s%s" % (at, ", " + where if where else "")
        )
    JinvT = np.empty_like(J)
    JinvT[..., 0, 0] = J[..., 1, 1]
    JinvT[..., 0, 1] = -J[..., 1, 0]
    JinvT[..., 1, 0] = -J[..., 0, 1]
    JinvT[..., 1, 1] = J[..., 0, 0]
    return JinvT / det[..., None, None], det


def assemble_volume(patch, source=None, vector_source=None, label=""):
    """Stiffness and load of the diffusion term on one patch.

    Returns the block ``(lat, elem)`` over the *full lattice* index space,
    where the (m, m) matrix ``elem[e]`` adds onto the rows and columns
    ``lat[e]`` of element e, together with the lattice load vector; callers
    map both to free dofs.  `source` is a scalar or callable f(x, y);
    `vector_source` an optional callable W(x, y) -> (..., 2) adding the
    weakly integrated-by-parts contribution of a divergence-form right-hand
    side.  Both callables receive the coordinate arrays of all quadrature
    points of the patch at once.  All elements are assembled in one batch.
    """
    space, geo, alpha = patch.space, patch.geometry, patch.alpha
    p = space.degree
    ng = max(p, geo.kv_u.p, geo.kv_v.p) + 1
    squ = span_quadrature(space.kv_u, ng, 1)
    sqv = span_quadrature(space.kv_v, ng, 1)
    nsu, nsv = squ.first_active.size, sqv.first_active.size
    E, Q, m = nsu * nsv, ng * ng, (p + 1) ** 2

    def by_element(grid):
        """(nsu*ng, nsv*ng, ...) grid -> (E, Q, ...), both axes row-major over (u, v)."""
        grid = grid.reshape((nsu, ng, nsv, ng) + grid.shape[2:]).swapaxes(1, 2)
        return grid.reshape((E, Q) + grid.shape[4:])

    def tensor(du, dv):
        """(E, Q, m) products of the du-th u- and dv-th v-derivative tables."""
        Bu = squ.tables[:, None, :, None, du, :, None]
        Bv = sqv.tables[None, :, None, :, dv, None, :]
        return (Bu * Bv).reshape(E, Q, m)

    pu, pv = squ.points.ravel(), sqv.points.ravel()
    pts, jac = geo.jacobian_grid(pu, pv)
    uv = np.stack(np.meshgrid(pu, pv, indexing="ij"), axis=-1)
    JinvT, det = _inv_transpose(by_element(jac), where=label, points=by_element(uv))
    grads = JinvT @ np.stack([tensor(1, 0), tensor(0, 1)], axis=2)  # (E, Q, 2, m)
    w = (squ.weights[:, None, :, None] * sqv.weights[None, :, None, :]).reshape(E, Q) * np.abs(det)
    Gw = (grads * (alpha * w)[:, :, None, None]).reshape(E, 2 * Q, m)
    elem = np.swapaxes(Gw, 1, 2) @ grads.reshape(E, 2 * Q, m)
    lat = ((squ.first_active[:, None, None, None] + np.arange(p + 1)[:, None]) * space.n_v
           + sqv.first_active[None, :, None, None] + np.arange(p + 1)).reshape(E, m)

    x = by_element(pts)
    contrib = np.zeros((E, m))
    if source is not None:
        fvals = source(x[..., 0], x[..., 1]) if callable(source) else float(source)
        contrib += np.einsum("eqm,eq->em", tensor(0, 0), w * fvals)
    if vector_source is not None:
        W = np.asarray(vector_source(x[..., 0], x[..., 1]), dtype=float)
        if W.shape != x.shape:
            raise ConfigError("vector_source shape %s, expected %s" % (W.shape, x.shape))
        contrib += np.einsum("eqam,eqa,eq->em", grads, W, w)
    load = np.bincount(lat.ravel(), weights=contrib.ravel(), minlength=space.n_u * space.n_v)
    return (lat, elem), load


def univariate_matrices(kv):
    """Dense parametric stiffness and mass matrices ``(K, M)`` of the basis of `kv` on [0, 1]."""
    sq = span_quadrature(kv, kv.p + 1, 1)
    B = sq.tables[:, :, ::-1].transpose(2, 0, 1, 3)  # (derivative 1 then 0, span, point, function)
    cols = sq.first_active[:, None] + np.arange(kv.p + 1)
    KM = np.zeros((2, kv.n, kv.n))
    np.add.at(KM, (slice(None), cols[:, :, None], cols[:, None, :]),
              np.swapaxes(B * sq.weights[..., None], 2, 3) @ B)
    return KM[0], KM[1]


def _merged_edge_partition(domain, ori):
    """Breakpoints of both sides merged, expressed in the owner's edge parameter."""
    own_kv = domain.patches[ori.k].space.edge_kv(ori.side_k)
    nb_kv = domain.patches[ori.l].space.edge_kv(ori.side_l)
    a, b = ori.range_k
    c, d = sorted(ori.range_l)
    pts = [a, b]
    pts += [t for t in own_kv.breakpoints if a < t < b]
    for s in nb_kv.breakpoints:
        if c < s < d:
            # invert the affine correspondence
            frac = (s - ori.range_l[0]) / (ori.range_l[1] - ori.range_l[0])
            if ori.reversed_:
                frac = 1.0 - frac
            pts.append(a + frac * (b - a))
    pts = np.array(sorted(pts))
    keep = np.concatenate([[True], np.diff(pts) > 1e-12 * (b - a)])
    return pts[keep]


@dataclass
class _SideQuadrature:
    """Quadrature data for one oriented interface side."""

    ts: np.ndarray           # owner edge parameters
    ss: np.ndarray           # neighbor edge parameters
    uv: np.ndarray           # (Q, 2) owner parameter points
    weights: np.ndarray      # Gauss weight times arc measure
    normals: np.ndarray      # outward unit normals of the owner
    jinv_t: np.ndarray       # inverse-transpose Jacobians of the owner


def _side_quadrature(domain, ori, n_gauss):
    geo = domain.patches[ori.k].geometry
    side = ori.side_k
    breaks = _merged_edge_partition(domain, ori)
    ts, wts = gauss_rule(n_gauss).mapped(breaks[:-1, None], breaks[1:, None])
    ts, wts = ts.ravel(), wts.ravel()
    ss = np.asarray(ori.map_param(ts))

    u, v = side_point(side, ts)
    pts, jac = geo.jacobian_grid(u, v)
    pts, jac = pts.reshape(-1, 2), jac.reshape(-1, 2, 2)
    uv = np.stack(np.broadcast_arrays(u, v), axis=-1)
    arc = np.linalg.norm(jac[:, :, side_axis(side)], axis=1)
    JinvT, _ = _inv_transpose(jac, where="patch %d side %s" % (ori.k, side), points=uv)
    n_hat = side_normal_hat(side)
    normals = JinvT @ n_hat
    normals /= np.linalg.norm(normals, axis=1)[:, None]

    # probe: a step inward from the edge must oppose the normal
    eps = 1e-4
    u0, v0 = uv[0]
    du, dv = -eps * n_hat
    probe = geo(min(max(u0 + du, 0.0), 1.0), min(max(v0 + dv, 0.0), 1.0))
    if np.dot(probe - pts[0], normals[0]) >= 0:
        raise NumericalError(
            "outward normal of patch %d points inward on side %s" % (ori.k, side)
        )
    return _SideQuadrature(ts, ss, uv, wts * arc, normals, JinvT)


def interface_side_terms(domain, ori, delta, own_index, edge_index, include_m=True):
    """SIPG block of one oriented interface side, one dense matrix per quadrature point.

    At a point with weight w the owner's m lattice functions N and the
    neighbor's p + 1 edge functions psi give the jump ``[N, -psi]`` and the
    owner-side flux ``[dN/dn, 0]``; the point's matrix is
    ``rho w jump (x) jump - alpha w / 2 (flux (x) jump + jump (x) flux)``,
    the penalty (r) and consistency (m) terms.  ``include_m=False`` keeps the
    penalty alone.  `own_index` maps the owner's flat lattice and
    `edge_index` the neighbor's edge functions to the caller's dofs (-1
    for dropped ones).  Returns ``(idx, mats)``: ``mats[q]`` adds onto the
    rows and columns ``idx[q]``.
    """
    patch = domain.patches[ori.k]
    space = patch.space
    p = space.degree
    geo = patch.geometry
    ng = max(p, geo.kv_u.p, geo.kv_v.p) + 1
    sq = _side_quadrature(domain, ori, ng)
    nb_kv = domain.patches[ori.l].space.edge_kv(ori.side_l)
    n_v = space.n_v
    alpha = patch.alpha
    h_k = domain.metrics["h"][ori.k]
    h_l = domain.metrics["h"][ori.l]
    rho = alpha * delta * p * p / min(h_k, h_l)

    # every quadrature point at once: (Q, p+1) tables of both univariate
    # factors of the owner's functions and of the neighbor's edge functions
    Q = sq.ts.size
    win = np.arange(p + 1)
    fu, tu = eval_basis_tables(space.kv_u, sq.uv[:, 0], 1)
    fv, tv = eval_basis_tables(space.kv_v, sq.uv[:, 1], 1)

    def tensor(du, dv):
        return (tu[:, du, :, None] * tv[:, dv, None, :]).reshape(Q, -1)

    lat = ((fu[:, None] + win)[:, :, None] * n_v + (fv[:, None] + win)[:, None, :]).reshape(Q, -1)
    fs, tab_s = eval_basis_tables(nb_kv, sq.ss, 0)
    idx = np.concatenate([own_index[lat], edge_index[fs[:, None] + win]], axis=1)
    jump = np.concatenate([tensor(0, 0), -tab_s[:, 0]], axis=1)
    mats = (rho * sq.weights)[:, None, None] * jump[:, :, None] * jump[:, None, :]
    if include_m:
        grads = sq.jinv_t @ np.stack([tensor(1, 0), tensor(0, 1)], axis=1)
        flux = np.zeros_like(jump)
        flux[:, : lat.shape[1]] = np.einsum("qa,qam->qm", sq.normals, grads)
        fj = (0.5 * alpha * sq.weights)[:, None, None] * flux[:, :, None] * jump[:, None, :]
        mats -= fj + np.swapaxes(fj, 1, 2)
    return idx, mats


def extended_layout(domain, k):
    """Dof layout of patch `k`'s extended space.

    Returns ``(n_patch, artificial)`` with artificial blocks ordered by
    interface index.  Patch `k`'s own trace on an interface is the
    neighbor's artificial block there, built by the neighbor's layout.
    """
    n_patch = domain.patches[k].space.dimension
    artificial = []
    offset = n_patch
    for idx, ori in sorted(domain.interfaces_of(k), key=lambda kv: kv[0]):
        sources = trace_basis_on_edge(domain.patches[ori.l].space, ori.side_l, ori.range_l)
        artificial.append(ArtificialInterfaceBasis(k, ori.l, idx, sources, offset))
        offset += len(sources)
    return n_patch, artificial


def assemble_interface_terms(domain, ab, delta):
    """SIPG block of the interface of artificial block `ab` in its owner's extended space.

    Returns the ``(idx, mats)`` block of :func:`interface_side_terms` over
    the extended dofs of patch ``ab.owner``.
    """
    ori = dict(domain.interfaces_of(ab.owner))[ab.iface_index]
    edge_index = np.full(domain.patches[ab.neighbor].space.edge_kv(ori.side_l).n, -1)
    edge_index[[e for e, _ in ab.sources]] = ab.offset + np.arange(ab.size)
    return interface_side_terms(domain, ori, delta, domain.patches[ab.owner].space.dof_map.ravel(),
                                edge_index)


def build_local_system(domain, k, delta, source=None, vector_source=None):
    """Assemble the extended local system of patch `k`.

    The load is supported on the patch dofs only; the interface blocks
    receive consistency and penalty couplings.
    """
    patch = domain.patches[k]
    space = patch.space
    n_patch, artificial = extended_layout(domain, k)
    n_total = n_patch + sum(ab.size for ab in artificial)

    (lat, elem), load_lat = assemble_volume(patch, source=source, vector_source=vector_source,
                                            label="patch %d" % k)
    f = np.zeros(n_total)
    f[:n_patch] = load_lat[space.free_mask.ravel()]
    blocks = [(space.dof_map.ravel()[lat], elem)]
    blocks += [assemble_interface_terms(domain, ab, delta) for ab in artificial]
    A = linalg.SparseSym.from_blocks(n_total, blocks)
    return ExtendedLocalSystem(k, A, f, n_patch, n_total, artificial)
