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
from .bspline import (active_on_interval, eval_basis, eval_basis_tables, gauss_rule,
                      span_quadrature)
from .errors import ConfigError, NumericalError
from .geometry import side_axis, side_normal_hat, side_point

_SINGULAR_RTOL = 1e-12


@dataclass(frozen=True)
class TraceBasis:
    """Boundary-layer functions of one patch active on an interface range.

    ``entries`` holds ``(edge_index, patch_dof)`` pairs in increasing edge
    order; Dirichlet-constrained functions are excluded.
    """

    side: str
    prange: tuple
    edge_kv: object
    entries: tuple

    @property
    def edge_indices(self):
        return [e for e, _ in self.entries]


def trace_basis_on_edge(space, side, prange):
    """Edge dof list for functions of `space` with nonvanishing trace on the range.

    Includes every function whose support meets the open range, also those
    whose Greville point lies outside it.
    """
    ekv = space.edge_kv(side)
    dofs = space.edge_dofs(side)
    entries = [(int(e), int(dofs[e])) for e in active_on_interval(ekv, prange[0], prange[1])
               if dofs[e] >= 0]
    if not entries:
        raise ConfigError("degenerate interface: no active trace functions on %s %s" % (side, prange))
    return TraceBasis(side, tuple(prange), ekv, tuple(entries))


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


class _Triplets:
    """Append-only triplet accumulator."""

    def __init__(self):
        self.rows, self.cols, self.vals = [], [], []

    def add(self, rows, cols, vals):
        self.rows.append(np.asarray(rows, dtype=int).ravel())
        self.cols.append(np.asarray(cols, dtype=int).ravel())
        self.vals.append(np.asarray(vals, dtype=float).ravel())

    def arrays(self):
        if not self.rows:
            z = np.zeros(0)
            return z.astype(int), z.astype(int), z
        return (np.concatenate(self.rows), np.concatenate(self.cols), np.concatenate(self.vals))


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

    Returns triplets over the *full lattice* index space together with the
    lattice load vector; callers restrict to free dofs.  `source` is a
    scalar or callable f(x, y); `vector_source` an optional callable
    W(x, y) -> (..., 2) adding the weakly integrated-by-parts contribution
    of a divergence-form right-hand side.  Both callables receive the
    coordinate arrays of all quadrature points of the patch at once.
    All elements are assembled in one batch; triplets come element by
    element, row-major within each element matrix.
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
    tri = _Triplets()
    tri.add(np.repeat(lat, m, axis=1), np.tile(lat, m), elem)

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
    return tri, load


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
    weights: np.ndarray      # Gauss weight times arc measure
    normals: np.ndarray      # outward unit normals of the owner
    jinv_t: np.ndarray       # inverse-transpose Jacobians of the owner
    fixed_first: int
    fixed_tab: np.ndarray    # (2, p+1) values/derivs of the owner's normal-direction kv


def _side_quadrature(domain, ori, n_gauss):
    geo = domain.patches[ori.k].geometry
    space = domain.patches[ori.k].space
    side = ori.side_k
    breaks = _merged_edge_partition(domain, ori)
    ts, wts = gauss_rule(n_gauss).mapped(breaks[:-1, None], breaks[1:, None])
    ts, wts = ts.ravel(), wts.ravel()
    ss = np.asarray(ori.map_param(ts))

    axis = side_axis(side)
    if axis == 1:
        fixed = 0.0 if side == "west" else 1.0
        pts, jac = geo.jacobian_grid([fixed], ts)
        pts, jac = pts[0], jac[0]
    else:
        fixed = 0.0 if side == "south" else 1.0
        pts, jac = geo.jacobian_grid(ts, [fixed])
        pts, jac = pts[:, 0], jac[:, 0]
    tangent = jac[:, :, axis]
    arc = np.linalg.norm(tangent, axis=1)
    uv = np.stack(np.broadcast_arrays(*side_point(side, ts)), axis=-1)
    JinvT, _ = _inv_transpose(jac, where="patch %d side %s" % (ori.k, side), points=uv)
    n_hat = side_normal_hat(side)
    normals = JinvT @ n_hat
    normals /= np.linalg.norm(normals, axis=1)[:, None]

    # probe: a step inward from the edge must oppose the normal
    eps = 1e-4
    u0, v0 = side_point(side, ts[0])
    du, dv = -eps * n_hat
    probe = geo(min(max(u0 + du, 0.0), 1.0), min(max(v0 + dv, 0.0), 1.0))
    if np.dot(probe - pts[0], normals[0]) >= 0:
        raise NumericalError(
            "outward normal of patch %d points inward on side %s" % (ori.k, side)
        )

    nkv = space.kv_u if axis == 1 else space.kv_v
    fixed_first, fixed_tab = eval_basis(nkv, fixed, 1)
    return _SideQuadrature(ts, ss, wts * arc, normals, JinvT, fixed_first, fixed_tab)


def interface_side_terms(domain, ori, delta):
    """Consistency (m) and penalty (r) triplets for one oriented interface side.

    Rows/cols come in two index spaces: lattice indices of the owner patch
    ('pp', 'pa' rows) and neighbor *edge indices* ('pa' cols, 'aa'); the
    caller maps edge indices onto artificial dofs or neighbor patch dofs.
    Returns the dict ``{'m_pp', 'm_pa', 'r_pp', 'r_pa', 'r_aa'}``.
    """
    patch = domain.patches[ori.k]
    space = patch.space
    p = space.degree
    geo = patch.geometry
    ng = max(p, geo.kv_u.p, geo.kv_v.p) + 1
    sq = _side_quadrature(domain, ori, ng)
    nb_kv = domain.patches[ori.l].space.edge_kv(ori.side_l)
    axis = side_axis(ori.side_k)
    tkv = space.kv_v if axis == 1 else space.kv_u
    n_v = space.n_v
    alpha = patch.alpha
    h_k = domain.metrics["h"][ori.k]
    h_l = domain.metrics["h"][ori.l]
    rho = alpha * delta * p * p / min(h_k, h_l)

    # every quadrature point at once: (Q, p+1) tables of both univariate
    # factors of the owner's functions and of the neighbor's edge functions
    Q = sq.ts.size
    win = np.arange(p + 1)
    ft, tab_t = eval_basis_tables(tkv, sq.ts, 1)
    fixed_t = np.broadcast_to(sq.fixed_tab, tab_t.shape)
    fixed_f = np.full(Q, sq.fixed_first)
    # u fixed and v tangential on west/east, the other way round on south/north
    tu, tv, fu, fv = (fixed_t, tab_t, fixed_f, ft) if axis == 1 else (tab_t, fixed_t, ft, fixed_f)

    def tensor(du, dv):
        return (tu[:, du, :, None] * tv[:, dv, None, :]).reshape(Q, -1)

    N = tensor(0, 0)
    grads = sq.jinv_t @ np.stack([tensor(1, 0), tensor(0, 1)], axis=1)
    dn = np.einsum("qa,qam->qm", sq.normals, grads)
    lat = ((fu[:, None] + win)[:, :, None] * n_v + (fv[:, None] + win)[:, None, :]).reshape(Q, -1)
    fs, tab_s = eval_basis_tables(nb_kv, sq.ss, 0)
    psi = tab_s[:, 0]
    edge = fs[:, None] + win

    def outer(left, right):
        return left[:, :, None] * right[:, None, :]

    def family(rows, cols, scale, vals):
        """Triplets of ``scale[q] * vals[q]`` over the (row, col) pairs of every point."""
        tri = _Triplets()
        tri.add(np.repeat(rows, cols.shape[1], axis=1), np.tile(cols, rows.shape[1]),
                scale[:, None, None] * vals)
        return tri

    w = sq.weights
    E = outer(dn, N)
    return {
        "m_pp": family(lat, lat, -0.5 * alpha * w, E + np.swapaxes(E, 1, 2)),
        "m_pa": family(lat, edge, 0.5 * alpha * w, outer(dn, psi)),
        "r_pp": family(lat, lat, rho * w, outer(N, N)),
        "r_pa": family(lat, edge, -rho * w, outer(N, psi)),
        "r_aa": family(edge, edge, rho * w, outer(psi, psi)),
    }


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
        nb_trace = trace_basis_on_edge(domain.patches[ori.l].space, ori.side_l, ori.range_l)
        artificial.append(
            ArtificialInterfaceBasis(k, ori.l, idx, nb_trace.entries, offset)
        )
        offset += len(nb_trace.entries)
    return n_patch, artificial


def paste_terms(tri, terms, keys, own_index, edge_index):
    """Scatter the triplet families `keys` of `terms` into `tri` through two index maps.

    The last two letters of a key name the row and column spaces: 'p' is
    the owner's flat lattice, mapped by `own_index`; 'a' is the neighbor's
    edge, mapped by `edge_index`.  Entries either map sends to -1 are
    dropped, and 'pa' families are also added transposed.
    """
    index = {"p": own_index, "a": edge_index}
    for key in keys:
        rows, cols, vals = terms[key].arrays()
        r, c = index[key[-2]][rows], index[key[-1]][cols]
        keep = (r >= 0) & (c >= 0)
        r, c, vals = r[keep], c[keep], vals[keep]
        tri.add(r, c, vals)
        if key.endswith("pa"):
            tri.add(c, r, vals)


def assemble_interface_terms(domain, k, iface_index, delta, layout):
    """m and r contributions of one interface into patch `k`'s extended matrix.

    `layout` is :func:`extended_layout` of patch `k`.  Returns two triplet
    sets ``(m_terms, r_terms)`` over the extended dof space of patch `k`.
    """
    ori = dict(domain.interfaces_of(k))[iface_index]
    ab = next(a for a in layout[1] if a.iface_index == iface_index)
    terms = interface_side_terms(domain, ori, delta)
    own_index = domain.patches[k].space.dof_map.ravel()
    edge_index = -np.ones(domain.patches[ori.l].space.edge_kv(ori.side_l).n, dtype=int)
    edge_index[[e for e, _ in ab.sources]] = ab.offset + np.arange(ab.size)
    m_tri, r_tri = _Triplets(), _Triplets()
    paste_terms(m_tri, terms, ("m_pp", "m_pa"), own_index, edge_index)
    paste_terms(r_tri, terms, ("r_pp", "r_pa", "r_aa"), own_index, edge_index)
    return m_tri, r_tri


def build_local_system(domain, k, delta, source=None, vector_source=None):
    """Assemble the extended local system of patch `k`.

    The load is supported on the patch dofs only; the interface blocks
    receive consistency and penalty couplings.
    """
    patch = domain.patches[k]
    space = patch.space
    layout = extended_layout(domain, k)
    n_patch, artificial = layout
    n_total = n_patch + sum(ab.size for ab in artificial)

    tri = _Triplets()
    vol, load_lat = assemble_volume(patch, source=source, vector_source=vector_source,
                                    label="patch %d" % k)
    paste_terms(tri, {"pp": vol}, ("pp",), space.dof_map.ravel(), None)
    f = np.zeros(n_total)
    f[:n_patch] = load_lat[space.free_mask.ravel()]

    for ab in artificial:
        m_tri, r_tri = assemble_interface_terms(domain, k, ab.iface_index, delta, layout)
        tri.add(*m_tri.arrays())
        tri.add(*r_tri.arrays())

    A = linalg.SparseSym.from_triplets(n_total, *tri.arrays())
    return ExtendedLocalSystem(k, A, f, n_patch, n_total, artificial)
