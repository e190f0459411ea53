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
from numpy.lib.stride_tricks import as_strided

from . import linalg
from .bspline import active_on_interval, eval_basis, gauss_rule, span_quadrature
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


def _inv_transpose(J, where="", points=None, axes=(0,)):
    """Batch inverse-transpose of the (..., 2, 2) Jacobians `J`, with singularity guard.

    Each set of points along `axes` is judged against the square of its own
    largest entry; `points` ``(..., 2)`` let the error name the first bad
    one, sets in the order of the other axes.
    """
    det = J[..., 0, 0] * J[..., 1, 1] - J[..., 0, 1] * J[..., 1, 0]
    a = np.abs(J)
    scale = np.maximum(np.maximum(a[..., 0, 0], a[..., 0, 1]), np.maximum(a[..., 1, 0], a[..., 1, 1]))
    bad = np.abs(det) <= _SINGULAR_RTOL * np.maximum(scale.max(axis=axes, keepdims=True) ** 2, 1e-300)
    if np.any(bad):
        last = tuple(range(bad.ndim - len(axes), bad.ndim))
        at = ""
        if points is not None:
            uv = np.moveaxis(points, axes, last).reshape(-1, 2)[np.argmax(np.moveaxis(bad, axes, last))]
            at = " at parameter (%.6g, %.6g)" % (uv[0], uv[1])
        raise NumericalError("singular Jacobian%s%s" % (at, ", " + where if where else ""))
    JinvT = np.stack([J[..., 1, ::-1] * [1.0, -1.0], J[..., 0, ::-1] * [-1.0, 1.0]], axis=-2)  # adj(J)^T
    return JinvT / det[..., None, None], det


def _span_fold(first, n, X, A, B):
    """Integrate over each knot span, then fold its functions onto the n global ones.

    `A` ``(..., S, G, q)`` and `B` ``(..., S, G, k)`` tabulate, at the G points
    of each of S spans, the functions ``first[s] + i``; `X` ``(..., S, G, R)``
    holds the weights.  Returns the band rows ``(..., n, q + k - 1, R)`` of
    the sums of ``A_i B_k X``, k at offset ``k - i + q - 1`` of row i.
    """
    q, k = A.shape[-1], B.shape[-1]
    P = (A[..., :, None] * B[..., None, :]).reshape(A.shape[:-1] + (q * k,))
    Y = np.swapaxes(P, -1, -2) @ X
    Y = Y.reshape(Y.shape[:-2] + (q, k, Y.shape[-1]))  # (..., S, q, k, R)
    out = np.zeros(Y.shape[:-4] + (n, q + k - 1, Y.shape[-1]))
    for i in range(q):
        out[..., first + i, q - 1 - i:q - 1 - i + k, :] += Y[..., i, :, :]
    return out


def assemble_volume(patch, source=1.0, label=""):
    """Stiffness and load of the diffusion term on one patch, over its free dofs.

    Returns the stiffness as a canonical CSR matrix and the load vector.
    `source` is a scalar or a callable f(x, y), which receives the
    coordinate arrays of all quadrature points of the patch at once.  By sum
    factorization, the metric ``alpha w |det J| J^-1 J^-T`` on the Gauss grid
    and the load ``B_u (w f) B_v^T`` are contracted in u, then in v, into the
    (2p+1)^2 band of each lattice row; its free rows are the CSR rows.
    """
    space, geo, alpha = patch.space, patch.geometry, patch.alpha
    p = space.degree
    ng = max(p, geo.kv_u.p, geo.kv_v.p) + 1
    squ, sqv = (span_quadrature(kv, ng) for kv in (space.kv_u, space.kv_v))
    nsu, nsv = squ.first_active.size, sqv.first_active.size
    n_u, n_v, bw = space.n_u, space.n_v, 2 * p + 1

    pu, pv = squ.points.ravel(), sqv.points.ravel()
    pts, jac = geo.jacobian_grid(pu, pv)
    uv = np.empty(jac.shape[:2] + (2,))
    uv[..., 0], uv[..., 1] = pu[:, None], pv
    grid = (nsu, ng, nsv, ng)  # the points of every element form one set
    JinvT, det = _inv_transpose(jac.reshape(grid + (2, 2)), label, uv.reshape(grid + (2,)), (1, 3))
    (m00, m01), (m10, m11) = JinvT.reshape(jac.shape).transpose(2, 3, 0, 1)
    w = np.outer(squ.weights, sqv.weights) * np.abs(det.reshape(pu.size, pv.size))
    g01 = (m00 * m01 + m10 * m11) * (alpha * w)  # entries (x, y) = 00, 01, 10, 11 below
    metric = np.stack([(m00 * m00 + m10 * m10) * (alpha * w), g01, g01,
                       (m01 * m01 + m11 * m11) * (alpha * w)]).reshape(4, nsu, ng, -1)

    # term (x, y) pairs d/dx of row function a with d/dy of column function b;
    # its u-tables are the derivatives (1 - x, 1 - y), its v-tables (x, y)
    tu, tv = squ.tables.transpose(2, 0, 1, 3), sqv.tables.transpose(2, 0, 1, 3)
    band = _span_fold(squ.first_active, n_u, metric, *tu[[[1, 1, 0, 0], [1, 0, 1, 0]]])
    band = band.reshape(4, n_u * bw, nsv, ng).transpose(2, 0, 3, 1).reshape(nsv, 4 * ng, -1)
    tv_xy = tv[[[0, 0, 1, 1], [0, 1, 0, 1]]].transpose(0, 2, 1, 3, 4).reshape(2, nsv, 4 * ng, -1)
    band = _span_fold(sqv.first_active, n_v, band, *tv_xy)  # (n_v, bw, n_u * bw)
    band = band.reshape(n_v, bw, n_u, bw).transpose(2, 0, 3, 1)

    # the load pairs every function with the constant 1 and sums its band rows
    fvals = source(pts[..., 0], pts[..., 1]) if callable(source) else float(source)
    load = _span_fold(squ.first_active, n_u, (w * fvals).reshape(nsu, ng, -1), tu[0], np.ones(1))
    load = _span_fold(sqv.first_active, n_v, load.sum(1).reshape(n_u, nsv, ng).transpose(1, 2, 0),
                      tv[0], np.ones(1)).sum(1)

    # band[i, j, a, b] pairs lattice (i, j) with (i + a - p, j + b - p), whose dof is cols[i, j, a, b]
    padded = np.full((n_u + 2 * p, n_v + 2 * p), -1)
    padded[p:p + n_u, p:p + n_v] = space.dof_map
    cols = as_strided(padded, (n_u, n_v, bw, bw), padded.strides * 2, writeable=False)
    keep = (cols >= 0) & space.free_mask[:, :, None, None]
    indptr = np.concatenate([[0], np.cumsum(np.count_nonzero(keep, axis=(2, 3))[space.free_mask])])
    return (scipy.sparse.csr_matrix((band[keep], cols[keep], indptr), shape=(space.dimension,) * 2),
            load.T[space.free_mask])


def univariate_matrices(kv):
    """Dense parametric stiffness and mass matrices ``(K, M)`` of the basis of `kv` on [0, 1]."""
    p, n, i = kv.p, kv.n, np.arange(kv.n)[:, None]
    sq = span_quadrature(kv, p + 1)
    B = sq.tables.transpose(2, 0, 1, 3)[::-1]  # (derivative 1 then 0, span, point, function)
    KM = np.zeros((2, n, n + 2 * p, 1))  # offset d of row i is column i + d - p, stored at i + d
    KM[:, i, i + np.arange(2 * p + 1)] = _span_fold(sq.first_active, n, sq.weights[..., None], B, B)
    return tuple(KM[:, :, p:-p, 0])


def _merged_edge_partition(domain, ori):
    """Breakpoints of both sides merged, expressed in the owner's edge parameter."""
    own_kv = domain.patches[ori.k].space.edge_kv(ori.side_k)
    nb_kv = domain.patches[ori.l].space.edge_kv(ori.side_l)
    a, b = ori.range_k
    c, d = sorted(ori.range_l)
    pts = [a, b] + [t for t in own_kv.breakpoints if a < t < b]
    for s in nb_kv.breakpoints:
        if c < s < d:  # invert the affine correspondence
            frac = (s - ori.range_l[0]) / (ori.range_l[1] - ori.range_l[0])
            pts.append(a + (1.0 - frac if ori.reversed_ else frac) * (b - a))
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
    h = domain.metrics["h"]
    rho = alpha * delta * p * p / min(h[ori.k], h[ori.l])

    # every quadrature point at once: the tables of both univariate factors
    # of the owner's functions whose value or derivative is nonzero somewhere
    # on the side, and of the neighbor's p + 1 edge functions
    Q = sq.ts.size
    fu, tu = eval_basis(space.kv_u, sq.uv[:, 0], 1)
    fv, tv = eval_basis(space.kv_v, sq.uv[:, 1], 1)
    cu, cv = (np.flatnonzero(np.any(t != 0.0, axis=(0, 1))) for t in (tu, tv))
    tu, tv = tu[:, :, cu], tv[:, :, cv]

    def tensor(du, dv):
        return (tu[:, du, :, None] * tv[:, dv, None, :]).reshape(Q, -1)

    lat = ((fu[:, None] + cu)[:, :, None] * n_v + (fv[:, None] + cv)[:, None, :]).reshape(Q, -1)
    fs, tab_s = eval_basis(nb_kv, sq.ss, 0)
    idx = np.concatenate([own_index[lat], edge_index[fs[:, None] + np.arange(p + 1)]], axis=1)
    jump = np.concatenate([tensor(0, 0), -tab_s[:, 0]], axis=1)
    mats = (jump[:, :, None] * jump[:, None, :]) * (rho * sq.weights)[:, None, None]
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
    rows = copies[copies[:, 3] == k]
    n_total = patch.space.dimension + len(rows)

    vol, load = assemble_volume(patch, source=source, label="patch %d" % k)
    vol.resize(n_total, n_total)
    blocks = [assemble_interface_terms(domain, k, rows[rows[:, 0] == i], delta)
              for i in np.unique(rows[:, 0])]
    A = linalg.SparseSym.from_blocks(vol, blocks)
    return ExtendedLocalSystem(k, A, np.concatenate([load, np.zeros(len(rows))]))
