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
import scipy.sparse
from numpy.lib.stride_tricks import sliding_window_view

from . import linalg
from .bspline import active_on_interval, eval_basis_tables, gauss_rule, span_quadrature
from .errors import ConfigError, NumericalError
from .geometry import side_axis, side_normal_hat, side_point

_SINGULAR_RTOL = 1e-12


def trace_basis_on_edge(space, side, prange):
    """Dofs of the functions of `space` with nonvanishing trace on the range.

    Returned in increasing edge order, leaving out Dirichlet-constrained
    functions.  Includes every function whose support meets the open range,
    also those whose Greville point lies outside it.
    """
    dofs = space.edge_dofs(side)[active_on_interval(space.edge_kv(side), *prange)]
    dofs = dofs[dofs >= 0]
    if not dofs.size:
        raise ConfigError("degenerate interface: no active trace functions on %s %s" % (side, prange))
    return dofs


def copy_map(domain):
    """Which artificial dof copies which patch dof, as an ``(n, 5)`` int array.

    One row ``(interface, source patch, source dof, block, copy dof)`` per
    artificial dof.  Rows run by interface; on each, the copies of side k in
    block l come first, then those of side l in block k, each side in
    :func:`trace_basis_on_edge` order: the multiplier order.  Every block
    numbers its copies on from its own dimension, one contiguous run per
    interface in increasing interface order.
    """
    rows = [np.zeros((0, 5), dtype=int)]
    next_dof = [patch.space.dimension for patch in domain.patches]
    for i, g in enumerate(domain.interfaces):
        for src, side, prange, blk in ((g.k, g.side_k, g.range_k, g.l),
                                       (g.l, g.side_l, g.range_l, g.k)):
            sdof = trace_basis_on_edge(domain.patches[src].space, side, prange)
            n = sdof.size
            rows.append(np.column_stack([np.full(n, i), np.full(n, src), sdof, np.full(n, blk),
                                         next_dof[blk] + np.arange(n)]))
            next_dof[blk] += n
    return np.concatenate(rows)


@dataclass
class ExtendedLocalSystem:
    """Matrix and load of one patch over its extended space.

    Dof order: the patch's free tensor-product dofs first (compact
    numbering of the space), then one artificial block per interface in
    increasing interface-index order (see :func:`copy_map`).
    """

    k: int
    A: linalg.SparseSym
    f: np.ndarray
    n_patch: int
    n_total: int


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


def assemble_volume(patch, source=1.0, label=""):
    """Stiffness and load of the diffusion term on one patch, over its free dofs.

    Returns the stiffness as a canonical CSR matrix and the load vector.
    `source` is a scalar or a callable f(x, y), which receives the
    coordinate arrays of all quadrature points of the patch at once.  All
    elements are assembled in one batch and summed with one ``bincount``
    into the (2p+1)^2 band of each lattice row; read in lattice order, the
    free rows of that band are the CSR rows with sorted columns.
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
    fvals = source(x[..., 0], x[..., 1]) if callable(source) else float(source)
    contrib = np.einsum("eqm,eq->em", tensor(0, 0), w * fvals)
    load = np.bincount(lat.ravel(), weights=contrib.ravel(), minlength=space.n_u * space.n_v)

    # entry (a, b) of an element adds onto the (2p+1)^2 band of lattice row
    # lat[a], at the offset of lat[b] from it; cols holds each band's free dofs
    bw = 2 * p + 1
    d = np.arange(p + 1) - np.arange(p + 1)[:, None] + p  # d[i, j] = j - i + p
    slot = lat[:, :, None] * bw * bw + (d[:, None, :, None] * bw + d[:, None, :]).reshape(m, m)
    band = np.bincount(slot.ravel(), weights=elem.ravel(), minlength=load.size * bw * bw)
    cols = sliding_window_view(np.pad(space.dof_map, p, constant_values=-1), (bw, bw))
    keep = (cols >= 0) & space.free_mask[:, :, None, None]
    indptr = np.concatenate([[0], np.cumsum(np.count_nonzero(keep, axis=(2, 3))[space.free_mask])])
    A = scipy.sparse.csr_matrix((band.reshape(keep.shape)[keep], cols[keep], indptr),
                                shape=(space.dimension, space.dimension))
    return A, load[space.free_mask.ravel()]


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
    _, jac = geo.jacobian_grid(u, v)
    jac = jac.reshape(-1, 2, 2)
    uv = np.stack(np.broadcast_arrays(u, v), axis=-1)
    arc = np.linalg.norm(jac[:, :, side_axis(side)], axis=1)
    JinvT, _ = _inv_transpose(jac, where="patch %d side %s" % (ori.k, side), points=uv)
    # outward: an inward step J (-eps n_hat) has dot product -eps with J^-T n_hat
    normals = JinvT @ side_normal_hat(side)
    normals /= np.linalg.norm(normals, axis=1)[:, None]
    return _SideQuadrature(ts, ss, uv, wts * arc, normals, JinvT)


def interface_side_terms(domain, ori, delta, own_index, edge_index):
    """SIPG block of one oriented interface side, one dense matrix per merged sub-interval.

    At a point with weight w the owner's m lattice functions N and the
    neighbor's p + 1 edge functions psi give the jump ``[N, -psi]`` and the
    owner-side flux ``[dN/dn, 0]``; the point's matrix is
    ``rho w jump (x) jump - alpha w / 2 (flux (x) jump + jump (x) flux)``,
    the penalty and consistency terms.  Only the owner functions whose value
    or derivative is nonzero somewhere on the side enter.  `own_index` maps
    the owner's flat lattice and `edge_index` the neighbor's edge functions
    to the caller's dofs (-1 for dropped ones).  Returns ``(idx, mats)``, the
    matrices summed over each merged sub-interval: ``mats[j]`` adds onto the
    rows and columns ``idx[j]``.
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

    # every quadrature point at once: the tables of both univariate factors
    # of the owner's functions whose value or derivative is nonzero somewhere
    # on the side, and of the neighbor's p + 1 edge functions
    Q = sq.ts.size
    fu, tu = eval_basis_tables(space.kv_u, sq.uv[:, 0], 1)
    fv, tv = eval_basis_tables(space.kv_v, sq.uv[:, 1], 1)
    cu, cv = (np.flatnonzero(np.any(t != 0.0, axis=(0, 1))) for t in (tu, tv))
    tu, tv = tu[:, :, cu], tv[:, :, cv]

    def tensor(du, dv):
        return (tu[:, du, :, None] * tv[:, dv, None, :]).reshape(Q, -1)

    lat = ((fu[:, None] + cu)[:, :, None] * n_v + (fv[:, None] + cv)[:, None, :]).reshape(Q, -1)
    fs, tab_s = eval_basis_tables(nb_kv, sq.ss, 0)
    idx = np.concatenate([own_index[lat], edge_index[fs[:, None] + np.arange(p + 1)]], axis=1)
    jump = np.concatenate([tensor(0, 0), -tab_s[:, 0]], axis=1)
    mats = (rho * sq.weights)[:, None, None] * jump[:, :, None] * jump[:, None, :]
    grads = sq.jinv_t @ np.stack([tensor(1, 0), tensor(0, 1)], axis=1)
    flux = np.zeros_like(jump)
    flux[:, : lat.shape[1]] = np.einsum("qa,qam->qm", sq.normals, grads)
    fj = (0.5 * alpha * sq.weights)[:, None, None] * flux[:, :, None] * jump[:, None, :]
    mats -= fj + np.swapaxes(fj, 1, 2)
    # points that share an index row lie on one merged sub-interval
    start = np.flatnonzero(np.concatenate([[True], np.any(idx[1:] != idx[:-1], axis=1)]))
    return idx[start], np.add.reduceat(mats, start, axis=0)


def assemble_interface_terms(domain, k, rows, delta):
    """SIPG block of one interface in block `k`'s extended space.

    `rows` are the :func:`copy_map` rows of that interface whose block is
    `k`.  Returns the ``(idx, mats)`` block of :func:`interface_side_terms`
    over the extended dofs of patch `k`.
    """
    g = domain.interfaces[rows[0, 0]]
    ori = g if g.k == k else g.flipped()
    nb = domain.patches[ori.l].space
    copy_of = np.full(nb.dimension + 1, -1)  # the last entry serves the constrained index -1
    copy_of[rows[:, 2]] = rows[:, 4]
    return interface_side_terms(domain, ori, delta, domain.patches[k].space.dof_map.ravel(),
                                copy_of[nb.edge_dofs(ori.side_l)])


def build_local_system(domain, k, delta, copies, source=1.0):
    """Assemble the extended local system of patch `k`.

    Block `k`'s artificial dofs are its rows of the copy map `copies`.  The
    load is supported on the patch dofs only; the interface blocks receive
    consistency and penalty couplings.
    """
    patch = domain.patches[k]
    space = patch.space
    rows = copies[copies[:, 3] == k]
    n_patch = space.dimension
    n_total = n_patch + len(rows)

    vol, load = assemble_volume(patch, source=source, label="patch %d" % k)
    vol.resize(n_total, n_total)
    blocks = [assemble_interface_terms(domain, k, rows[rows[:, 0] == i], delta)
              for i in np.unique(rows[:, 0])]
    A = linalg.SparseSym.from_blocks(vol, blocks)
    return ExtendedLocalSystem(k, A, np.concatenate([load, np.zeros(len(rows))]), n_patch, n_total)
