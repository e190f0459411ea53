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

from collections import namedtuple

import numpy as np
import scipy.sparse

from . import linalg
from .bspline import SIDES, eval_basis, gauss_rule, span_quadrature
from .errors import ConfigError, NumericalError
from .geometry import eval_maps, map_edge_param

_SINGULAR_RTOL = 1e-12


def _trace_dofs(edges):
    """The dofs of every ``(space, side, range)`` edge with nonvanishing trace on its range, in one
    pass: ``(of, dofs)``, edge after edge, `of` the edge of every dof.  An edge's dofs are those
    whose support meets the open range, also those whose Greville point lies outside it, in
    increasing edge order, leaving out Dirichlet-constrained functions."""
    kvs = [space.edge_kv(side) for space, side, _ in edges]
    dofs = np.concatenate([np.zeros(0, int)] + [space.edge_dofs(side) for space, side, _ in edges])
    lo = np.concatenate([np.zeros(0)] + [kv.knots[:kv.n] for kv in kvs])  # supports [lo, hi]
    hi = np.concatenate([np.zeros(0)] + [kv.knots[kv.p + 1:] for kv in kvs])
    of = np.repeat(np.arange(len(edges)), [kv.n for kv in kvs])
    a, b = np.array([rng for _, _, rng in edges], dtype=float).reshape(-1, 2).T
    keep = (lo < b[of]) & (hi > a[of]) & (dofs >= 0)  # the support meets the open range
    empty = np.flatnonzero(np.bincount(of[keep], minlength=len(edges)) == 0)
    if empty.size:
        raise ConfigError("degenerate interface: no active trace functions on %s %s"
                          % edges[empty[0]][1:])
    return of[keep], dofs[keep]


def copy_map(domain):
    """Which artificial dof copies which patch dof, as an ``(n, 5)`` int array.

    One row ``(interface, source patch, source dof, block, copy dof)`` per
    artificial dof.  Rows run by interface; on each, the copies of side k in
    block l come first, then those of side l in block k, each side in
    :func:`_trace_dofs` order: the multiplier order.  Every block
    numbers its copies on from its own dimension, one contiguous run per
    interface in increasing interface order.
    """
    spaces, t = [patch.space for patch in domain.patches], domain.sides
    of, sdof = _trace_dofs([(spaces[k], SIDES[side], tuple(rng)) for k, side, rng in zip(
        t.owner.tolist(), t.side.tolist(), t.range.tolist())])
    src, blk = t.owner[of], t.neighbor[of]
    n = np.bincount(blk, minlength=len(spaces))  # each block's copies, numbered in row order
    cdof = np.empty_like(blk)
    cdof[np.argsort(blk, kind="stable")] = np.arange(blk.size) + np.repeat(
        [space.dimension for space in spaces] - np.cumsum(n) + n, n)
    return np.column_stack([of // 2, src, sdof, blk, cdof])


SplitSystem = namedtuple("SplitSystem", "k A_IG A_GG f_I f_G A_II fd")  # see build_local_system


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
    return _inverse_t(J, det), det


def _inverse_t(J, det):
    """``J^-T = adj(J)^T / det`` of the (..., 2, 2) Jacobians `J` with determinants `det`."""
    adj_t = np.stack([J[..., 1, ::-1] * [1.0, -1.0], J[..., 0, ::-1] * [-1.0, 1.0]], axis=-2)
    return adj_t / det[..., None, None]


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


def _quadrature(patch, source, label):
    """The span quadratures of the patch's Gauss grid, ``J^-T`` and ``w |det J|`` on it, and the
    (n_u, n_v) lattice load ``B_u (w f) B_v^T``, contracted in u, then in v."""
    space, geo = patch.space, patch.geometry
    ng = max(space.degree, geo.kv_u.p, geo.kv_v.p) + 1
    squ = sqv = span_quadrature(space.kv_u, ng)  # the v tables are the u ones on a square grid
    if not np.array_equal(space.kv_v.knots, space.kv_u.knots):
        sqv = span_quadrature(space.kv_v, ng)
    pu, pv = squ.points.ravel(), sqv.points.ravel()
    pts, jac = geo.jacobian_grid(pu, pv)
    uv = np.stack(np.meshgrid(pu, pv, indexing="ij"), axis=-1)
    grid = squ.points.shape + sqv.points.shape  # the points of every element form one set
    JinvT, det = _inv_transpose(jac.reshape(grid + (2, 2)), label, uv.reshape(grid + (2,)), (1, 3))
    w = np.outer(squ.weights, sqv.weights) * np.abs(det.reshape(pu.size, pv.size))
    # the load pairs every function with the constant 1 and sums its band rows
    fvals = source(pts[..., 0], pts[..., 1]) if callable(source) else float(source)
    load = _span_fold(squ.first_active, space.n_u, (w * fvals).reshape(grid[:2] + (-1,)),
                      squ.tables[:, :, 0], np.ones(1)).sum(1).reshape((space.n_u,) + grid[2:])
    load = _span_fold(sqv.first_active, space.n_v, load.transpose(1, 2, 0), sqv.tables[:, :, 0],
                      np.ones(1)).sum(1)
    return squ, sqv, JinvT.reshape(jac.shape), w, load.T


def _sum_factorized(patch, source=1.0, label=""):
    """The (n_u, n_v, 2p+1, 2p+1) lattice band and the lattice load on any map: the metric
    ``alpha w |det J| J^-1 J^-T`` on the Gauss grid contracted in u, then in v.  The band is
    verified finite and symmetric, each entry against its partner (`linalg.check_symmetric`)."""
    squ, sqv, JinvT, w, load = _quadrature(patch, source, label)
    space, alpha, (nsu, ng), nsv = patch.space, patch.alpha, squ.points.shape, sqv.first_active.size
    n_u, n_v, p, bw = space.n_u, space.n_v, space.degree, 2 * space.degree + 1
    (m00, m01), (m10, m11) = JinvT.transpose(2, 3, 0, 1)
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
    # row (i, j) at each offset (du, dv) of the lower half against row (i + du, j + dv) at (-du, -dv)
    linalg.check_symmetric([band], (
        band[max(0, -du):n_u - max(0, du), max(0, -dv):n_v - max(0, dv), p + du, p + dv]
        - band[max(0, du):n_u - max(0, -du), max(0, dv):n_v - max(0, -dv), p - du, p - dv]
        for du, dv in zip(*np.subtract(np.divmod(np.arange(bw * bw // 2), bw), p))))
    return band, load


def _coefficients(patch):
    """``(c_u, c_v) = (alpha |J_y / J_x|, alpha |J_x / J_y|)`` of a map ``x0 + diag(J) (u, v)``."""
    aspect = abs(patch.geometry.affine_diagonal[1] / patch.geometry.affine_diagonal[0])
    return patch.alpha * aspect, patch.alpha / aspect


def assemble_volume(patch, source=1.0, label=""):
    """Lattice band and lattice load of the diffusion term on one patch.

    Returns the ``(n_u, n_v, 2p+1, 2p+1)`` band, whose entry ``[i, j, a, b]``
    pairs the lattice functions (i, j) and (i + a - p, j + b - p) (see
    :func:`band_rows`), and the ``(n_u, n_v)`` load.  `source` is a scalar or
    a callable f(x, y) of the coordinate arrays of all quadrature points.  On
    a map ``x0 + diag(J) (u, v)`` (``GeometryMap.affine_diagonal``, as for
    fast diagonalization) the band is ``c_u K_u (x) M_v + c_v M_u (x) K_v``,
    ``c_u = alpha |J_y / J_x| = alpha^2 / c_v``, and a constant load ``f |J_x
    J_y| (M_u 1) (x) (M_v 1)``: what quadrature gives there, to rounding.  A
    callable load there keeps that band and takes only the load from
    `_quadrature`; other maps take `_sum_factorized`.
    """
    space, J = patch.space, patch.geometry.affine_diagonal
    if J is None:
        return _sum_factorized(patch, source, label)
    (K_u, M_u), (K_v, M_v) = _univariate_bands(space.kv_u), _univariate_bands(space.kv_v)
    c_u, c_v = _coefficients(patch)
    band = (c_u * K_u)[:, None, :, None] * M_v[:, None, :]
    band += (c_v * M_u)[:, None, :, None] * K_v[:, None, :]
    load = (_quadrature(patch, source, label)[-1] if callable(source) else
            (float(source) * abs(J[0] * J[1]) * M_u.sum(1))[:, None] * M_v.sum(1))
    return band, load


def band_rows(space, band, rows):
    """CSR arrays ``(data, indices, indptr)`` of the rows `rows` (free dofs, in that order) of the
    volume matrix over the free dofs, read off its lattice `band` (:func:`assemble_volume`)."""
    p, (n_u, n_v, bw, _) = space.degree, band.shape
    iu, iv = np.divmod(np.flatnonzero(space.free_mask)[rows], n_v)
    padded = np.full((n_u + 2 * p, n_v + 2 * p), -1)
    padded[p:p + n_u, p:p + n_v] = space.dof_map
    # band[i, j, a, b] pairs lattice (i, j) with (i + a - p, j + b - p), whose dof is cols[., a, b]
    cols = padded[iu[:, None, None] + np.arange(bw)[:, None], iv[:, None, None] + np.arange(bw)]
    keep = cols >= 0
    indptr = np.concatenate([[0], np.cumsum(np.count_nonzero(keep, axis=(1, 2)))])
    return band[iu, iv][keep], cols[keep], indptr


def _univariate_bands(kv):
    """The band rows ``(K, M)`` of `univariate_matrices`: ``[i, d]`` pairs i with ``i + d - p``.
    Computed and verified finite and symmetric (each ``[i, d]`` against ``[i + d - p, 2p - d]``)
    once per knot vector and kept on it, read-only, as `gauss_rule` keeps its nodes."""
    if getattr(kv, "_bands", None) is None:
        sq, p = span_quadrature(kv, kv.p + 1), kv.p
        B = sq.tables.transpose(2, 0, 1, 3)[::-1]  # (derivative 1 then 0, span, point, function)
        bands = _span_fold(sq.first_active, kv.n, sq.weights[..., None], B, B)[..., 0]
        for m in bands:
            linalg.check_symmetric([m], (m[p - d:, d] - m[:kv.n - p + d, 2 * p - d] for d in range(p)))
        bands.flags.writeable = False
        kv._bands = bands
    return kv._bands


def _interior_eigenpairs(kv, idx, name=""):
    """The :func:`~ietidg.linalg.generalized_eigh` pairs of `univariate_matrices` on the functions
    `idx`, computed once per index set and kept on `kv`, read-only, as its bands are."""
    kept, key = kv.__dict__.setdefault("_eigenpairs", {}), idx.tobytes()
    if key not in kept:
        lam, U = linalg.generalized_eigh(*(m[idx][:, idx] for m in univariate_matrices(kv)), name)
        lam.flags.writeable = U.flags.writeable = False
        kept[key] = lam, U
    return kept[key]


def univariate_matrices(kv):
    """Dense parametric stiffness and mass matrices ``(K, M)`` of the basis of `kv` on [0, 1]."""
    p, n, i = kv.p, kv.n, np.arange(kv.n)[:, None]
    KM = np.zeros((2, n, n + 2 * p))  # offset d of row i is column i + d - p, stored at i + d
    KM[:, i, i + np.arange(2 * p + 1)] = _univariate_bands(kv)
    return tuple(KM[:, :, p:-p])


_SidePoints = namedtuple("_SidePoints", "side axis ss uv weights normals jinv_t start")


def _side_points(domain):
    """Gauss points of all oriented sides' merged partitions, side after side.

    A merged partition holds both sides' breakpoints inside the range, in the owner's edge
    parameter; a breakpoint within 1e-12 of the range length of the one before merges.  Per
    point: its `side` (``domain.sides``), the owner's parameter `axis` along it, the
    neighbor's edge parameter `ss`, the owner's `uv`, the Gauss weight times arc measure, the
    owner's outward unit normal and ``J^-T``; `start` is the first point of every sub-interval.
    One singular-Jacobian check covers all points, each against its owner's largest entry."""
    t, patches = domain.sides, domain.patches
    k, (a, b), rev, n_hat = t.owner, t.range.T, t.reversed_, t.normal
    partner = np.arange(k.size) ^ 1  # side s ^ 1 is side s seen from its neighbor
    along = (n_hat[:, 1] == 0.0).astype(int)  # the edge parameter is v on west and east sides
    # each side's own breakpoints inside its range serve it and, mapped, its partner
    own = [patches[i].space.edge_kv(SIDES[j]).breakpoints for i, j in zip(k.tolist(), t.side.tolist())]
    of = np.repeat(np.arange(k.size), [x.size for x in own])
    x = np.concatenate([np.zeros(0), *own])
    inside = (a[of] < x) & (x < b[of])
    x, of = x[inside], of[inside]
    frac, to = (x - a[of]) / (b - a)[of], partner[of]
    pts = np.concatenate([a, b, x, a[to] + np.where(rev[of], 1.0 - frac, frac) * (b - a)[to]])
    of = np.concatenate([np.arange(k.size), np.arange(k.size), of, to])
    order = np.lexsort((pts, of))
    pts, of = pts[order], of[order]
    keep = (np.diff(of, prepend=-1) != 0) | (np.diff(pts, prepend=0.0) > 1e-12 * (b - a)[of])
    pts, of = pts[keep], of[keep]
    sub = np.flatnonzero(of[1:] == of[:-1])  # sub-interval j runs from pts[sub[j]] to the next

    # Gauss points: max(p, geometry degree) + 1 per sub-interval, from its owner's map
    ng = np.array([max(domain.degree, patch.geometry.kv_u.p, patch.geometry.kv_v.p) + 1
                   for patch in patches], dtype=int)[k[of[sub]]]
    start = np.cumsum(ng) - ng
    t, w = np.empty(ng.sum()), np.empty(ng.sum())
    for n in np.unique(ng):
        at = start[ng == n, None] + np.arange(n)
        t[at], w[at] = gauss_rule(n).mapped(pts[sub[ng == n], None], pts[sub[ng == n] + 1, None])
    side = np.repeat(of[sub], ng)
    ss = map_edge_param(t, (a[side], b[side]), (a[partner[side]], b[partner[side]]), rev[side])
    n_hat, axis, owner = n_hat[side], along[side], k[side]
    uv = np.where(n_hat == 0.0, t[:, None], (n_hat > 0.0).astype(float))
    jac = eval_maps([patch.geometry for patch in patches], owner, uv[:, 0], uv[:, 1], jacobian=True)
    # one check over all points, each against its owner's largest entry; the error names the
    # lowest bad owner's first bad point
    det, top = jac[:, 0, 0] * jac[:, 1, 1] - jac[:, 0, 1] * jac[:, 1, 0], np.zeros(len(patches))
    np.maximum.at(top, owner, np.abs(jac).max(axis=(1, 2)))
    bad = np.abs(det) <= _SINGULAR_RTOL * np.maximum(top[owner] ** 2, 1e-300)
    if bad.any():
        q = np.argmax(bad & (owner == owner[bad].min()))
        raise NumericalError("singular Jacobian at parameter (%.6g, %.6g), patch %d" % (*uv[q], owner[q]))
    jinv_t = _inverse_t(jac, det)
    # outward: an inward step J (-eps n_hat) has dot product -eps with J^-T n_hat
    normals = (jinv_t @ n_hat[:, :, None])[..., 0]
    normals /= np.linalg.norm(normals, axis=1)[:, None]
    weights = w * np.linalg.norm(jac[np.arange(side.size), :, axis], axis=1)
    return _SidePoints(side, axis, ss, uv, weights, normals, jinv_t, start)


def interface_side_terms(domain, delta):
    """SIPG blocks of all oriented interface sides, one dense matrix per merged sub-interval.

    At a point with weight w, the owner's 2 (p + 1) functions N of the two
    lattice layers next to the side (whose value or derivative is nonzero
    there) and the neighbor's p + 1 edge functions psi give the jump
    ``[N, -psi]`` and the owner-side flux ``[dN/dn, 0]``, ``dN/dn`` the row
    ``n^T J^-T`` times ``(dN/du, dN/dv)``.  Over a sub-interval's points, rows
    J and F, the matrix is ``J^T diag(rho w) J - (X + X^T)``, ``X = F^T
    diag(alpha w / 2) J``: one batched product per Gauss count.  One pass
    over all sides' points evaluates the basis once per distinct knot
    vector.  Returns ``(side, own, nbr, mats)``, one row per
    sub-interval, side after side: ``mats[j]`` couples the owner's patch
    dofs ``own[j]``, then the neighbor's patch dofs ``nbr[j]``, -1 where a
    function is Dirichlet-constrained.
    """
    p, t, sp = domain.degree, domain.sides, _side_points(domain)
    side, axis, start, q = sp.side, sp.axis, sp.start, np.arange(sp.side.size)
    k, l, partner = t.owner, t.neighbor, np.arange(t.owner.size) ^ 1
    # the owner's u and v and the neighbor's edge basis at every point, by distinct knot vector
    kvs = {}
    kv_of = np.array([[kvs.setdefault(kv.knots.tobytes(), (len(kvs), kv))[0] for kv in (
        patch.space.kv_u, patch.space.kv_v)] for patch in domain.patches])
    edge_kv = (t.normal[partner, 1] == 0.0).astype(int)  # the neighbor's v on west and east sides
    which = np.stack([kv_of[k, 0], kv_of[k, 1], kv_of[l, edge_kv]])[:, side]
    params = np.stack([sp.uv[:, 0], sp.uv[:, 1], sp.ss])
    first, tab = np.empty((3, q.size), dtype=int), np.empty((3, q.size, 2, p + 1))
    for i, kv in kvs.values():
        first[which == i], tab[which == i] = eval_basis(kv, params[which == i], 1)

    # the two layers are table columns 0, 1 at the parameter 0 and p - 1, p at 1
    col = (p - 1) * (sp.uv[q, 1 - axis] == 1.0).astype(int)[:, None] + np.arange(2)
    layer = np.take_along_axis(tab[1 - axis, q], col[:, None, :], axis=2)  # (Q, derivative, layer)
    values, d_layer, d_along = ((layer[:, a, :, None] * tab[axis, q, b, None, :]).reshape(
        -1, 2 * p + 2) for a, b in ((0, 0), (1, 0), (0, 1)))
    # the flux is the row n^T J^-T times the parametric gradient: (d/du, d/dv) is (layer, along)
    # on west and east sides (axis 1), (along, layer) on south and north
    c = sp.normals[:, :1] * sp.jinv_t[:, 0] + sp.normals[:, 1:] * sp.jinv_t[:, 1]
    c_layer, c_along = (np.take_along_axis(c, a[:, None], 1) for a in (1 - axis, axis))
    flux = np.pad(c_layer * d_layer + c_along * d_along, ((0, 0), (0, p + 1)))
    jump = np.concatenate([values, -tab[2, :, 0]], axis=1)
    alpha = np.array([patch.alpha for patch in domain.patches])[k]
    rho = alpha * delta * p * p / np.minimum(domain.metrics["h"][k], domain.metrics["h"][l])
    # mats = J^T diag(rho w) J - (X + X^T), X = F^T diag(alpha w / 2) J over a sub-interval's
    # points: Y + Y^T for Y = G^T J, G = diag(w / 2) (rho J - alpha F), exactly symmetric
    G = 0.5 * sp.weights[:, None] * (rho[side, None] * jump - alpha[side, None] * flux)
    counts = np.diff(np.append(start, q.size))
    mats = np.empty((start.size, 3 * p + 3, 3 * p + 3))
    for n in np.unique(counts):  # owners' Gauss counts can differ
        j = np.flatnonzero(counts == n)
        at = start[j, None] + np.arange(n)
        Y = np.swapaxes(G[at], 1, 2) @ jump[at]
        mats[j] = Y + np.swapaxes(Y, 1, 2)

    idx = np.broadcast_arrays((first[1 - axis[start], start, None] + col[start])[:, :, None],
                              (first[axis[start], start, None] + np.arange(p + 1))[:, None, :])
    iu, iv = np.where(axis[start, None, None] == 1, idx, idx[::-1])
    # every owner's dof map and every side's neighbor edge dofs, concatenated
    s, spaces = side[start], [patch.space for patch in domain.patches]
    maps = [space.dof_map.ravel() for space in spaces] + [
        spaces[i].edge_dofs(SIDES[j]) for i, j in zip(l.tolist(), t.side[partner].tolist())]
    at, dofs = np.cumsum([0] + [m.size for m in maps]), np.concatenate([np.zeros(0, int), *maps])
    n_v = np.array([space.n_v for space in spaces])[k[s], None, None]
    return (s, dofs[at[k[s], None] + (iu * n_v + iv).reshape(-1, 2 * p + 2)],
            dofs[at[len(spaces) + s, None] + first[2, start, None] + np.arange(p + 1)], mats)


def assemble_interface_terms(domain, copies, delta):
    """The :func:`interface_side_terms` rows over the owners' extended dofs (copy map `copies`).

    Returns ``(block, idx, mats)``: ``mats[j]`` adds onto the rows and
    columns ``idx[j]`` of block ``block[j]``, -1 for dropped ones.
    """
    side, own, nbr, mats = interface_side_terms(domain, delta)
    # side s reads the copies of its neighbor's dofs in its owner's block, the copy-map rows
    # of interface s // 2 in block k_s: look up (side, source dof) in all rows
    iface, _, sdof, blk, cdof = copies.T
    n = max(patch.space.dimension for patch in domain.patches) + 1  # a constrained -1 finds no row
    key = n * (2 * iface + (blk != domain.sides.owner[2 * iface])) + sdof
    order = np.argsort(key)
    want = n * side[:, None] + nbr
    at = order[np.minimum(np.searchsorted(key, want, sorter=order), key.size - 1)]
    copy = np.where(key[at] == want, cdof[at], -1)
    return domain.sides.owner[side], np.concatenate([own, copy], axis=1), mats


def build_local_system(domain, k, terms, partition, source=1.0):
    """Block `k`'s extended system split over the (I, Gamma) dofs of `partition`, never whole.

    A `SplitSystem`: sparse `A_IG`, dense `A_GG`, the load as `f_I` and `f_G`, and the interior
    solver: on a map ``x0 + diag(J) (u, v)`` whose interior is a tensor lattice, `fd` solves
    ``A_II = c_u K_u (x) M_v + c_v M_u (x) K_v`` by fast diagonalization, else `A_II` is a CSR
    matrix; the other is None.  The Gamma rows are the band rows of the skeleton patch dofs
    plus the block's rows of `terms` (:func:`assemble_interface_terms`), `A_IG` the transpose of
    their I columns and `A_II` the band rows at I: a jump, nonzero only on trace-active
    (skeleton) functions, couples no two interior dofs.  The band is verified symmetric where
    it is built (`assemble_volume`); this raises `linalg.check_symmetric`'s errors when a band
    or interface entry is not finite, or an interface block or `A_GG` not symmetric.
    """
    patch, I, gamma = domain.patches[k], partition.interior[k], partition.gamma[k]
    space, ng, name = patch.space, gamma.size, "patch %d interior block" % k
    lat = np.flatnonzero(space.free_mask)[I]
    lattice = tuple(np.unique(i) for i in np.divmod(lat, space.n_v))  # lat, sorted, lies in I_u x I_v
    fd = None
    if patch.geometry.affine_diagonal is not None and 0 < lat.size == lattice[0].size * lattice[1].size:
        eig = [_interior_eigenpairs(kv, i, name) for kv, i in zip((space.kv_u, space.kv_v), lattice)]
        fd = linalg.fast_diagonalization(*eig, *_coefficients(patch), name)
    band, load = assemble_volume(patch, source=source, label="patch %d" % k)
    block, idx, mats = terms
    mats = mats[block == k]
    pos = np.empty(partition.offsets[k + 1] - partition.offsets[k], dtype=int)
    pos[gamma], pos[I] = np.arange(ng), -1 - np.arange(I.size)  # Gamma position, or -1 - I position
    dofs = np.concatenate([gamma[gamma < space.dimension], I[:0] if fd else I])  # band rows
    data, cols, indptr = band_rows(space, band, dofs)
    vals, (r, c) = linalg.block_triplets(idx[block == k], mats)
    rows = pos[np.concatenate([np.repeat(dofs, np.diff(indptr)), r])]
    cols, vals = pos[np.concatenate([cols, c])], np.concatenate([data, vals])
    gg, ig, ii = (rows >= 0) & (cols >= 0), (rows >= 0) & (cols < 0), (rows < 0) & (cols < 0)
    A_GG = np.bincount(rows[gg] * ng + cols[gg], weights=vals[gg], minlength=ng * ng).reshape(ng, ng)
    linalg.check_symmetric([band, mats], (x - x.swapaxes(-1, -2) for x in (A_GG, mats)))
    A_IG = scipy.sparse.csr_matrix((vals[ig], (-1 - cols[ig], rows[ig])), shape=(I.size, ng))
    A_II = None if fd else scipy.sparse.csr_matrix(
        (vals[ii], (-1 - rows[ii], -1 - cols[ii])), shape=(I.size, I.size))
    f = np.concatenate([load[space.free_mask], np.zeros(pos.size - space.dimension)])
    return SplitSystem(k, A_IG, A_GG, f[I], f[gamma], A_II, fd)
