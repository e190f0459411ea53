"""Oracle: the untorn coupled system on the product of all patch spaces.

Assembles the same volume, consistency and penalty terms as the patch-local
path but couples real neighbor traces instead of artificial copies, solves
directly, and measures errors against manufactured solutions.  Used to
cross-check the tearing solver.
"""

from dataclasses import dataclass

import numpy as np

from . import linalg
from .assembly import _inv_transpose, assemble_volume, interface_side_terms
from .bspline import eval_matrix, span_quadrature
from .errors import NumericalError
from .geometry import side_point


@dataclass
class GlobalSipgSystem:
    """Sparse symmetric matrix over concatenated patch dofs, plus the load."""

    matrix: linalg.SparseSym
    rhs: np.ndarray
    offsets: np.ndarray  # patch k owns dofs offsets[k]:offsets[k+1]


def patch_offsets(domain):
    dims = [p.space.dimension for p in domain.patches]
    return np.concatenate([[0], np.cumsum(dims)]).astype(int)


def _shifted(dofs, offset):
    """Patch dofs moved to the global numbering; -1 (constrained) stays -1."""
    return np.where(dofs >= 0, dofs + offset, -1)


def assemble_global(domain, delta, source=1.0, vector_source=None, include_m=True):
    """Global coupled matrix; with ``include_m=False`` the jump-norm Gram matrix.

    Quadrature and term definitions match the patch-local assembly exactly,
    so gluing the extended local systems reproduces this matrix to rounding.
    """
    offs = patch_offsets(domain)
    n = int(offs[-1])
    blocks = []
    rhs = np.zeros(n)
    for k, patch in enumerate(domain.patches):
        (lat, elem), load = assemble_volume(patch, source=source, vector_source=vector_source,
                                            label="patch %d" % k)
        blocks.append((_shifted(patch.space.dof_map.ravel(), offs[k])[lat], elem))
        rhs[offs[k] : offs[k + 1]] = load[patch.space.free_mask.ravel()]

    for g in domain.interfaces:
        for ori in (g, g.flipped()):
            own = domain.patches[ori.k].space
            nb = domain.patches[ori.l].space
            blocks.append(interface_side_terms(
                domain, ori, delta, _shifted(own.dof_map.ravel(), offs[ori.k]),
                _shifted(nb.edge_dofs(ori.side_l), offs[ori.l]), include_m=include_m))
    return GlobalSipgSystem(linalg.SparseSym.from_blocks(n, blocks), rhs, offs)


def glued_from_locals(domain, local_systems):
    """Identify artificial dofs with their sources and sum the extended systems.

    Returns the resulting sparse matrix over global patch dofs; must agree
    with :func:`assemble_global` on every valid domain.
    """
    offs = patch_offsets(domain)
    parts = []
    for sysk in local_systems:
        to_global = np.empty(sysk.n_total, dtype=int)
        to_global[: sysk.n_patch] = offs[sysk.k] + np.arange(sysk.n_patch)
        for ab in sysk.artificial:
            for pos, (_, sdof) in enumerate(ab.sources):
                to_global[ab.offset + pos] = offs[ab.neighbor] + sdof
        coo = sysk.A.csr.tocoo()
        parts.append((to_global[coo.row], to_global[coo.col], coo.data))
    return linalg.SparseSym.from_triplets(int(offs[-1]), *map(np.concatenate, zip(*parts)))


def direct_solve(system):
    """Factorize and solve; verifies the residual to 1e-10 relative."""
    b = system.rhs
    if not np.any(b):
        return np.zeros_like(b)
    fac = linalg.factorize(system.matrix, name="global system")
    fac.assert_spd()
    x = fac.solve(b)
    res = np.linalg.norm(system.matrix.csr @ x - b)
    if res > 1e-10 * np.linalg.norm(b):
        raise NumericalError("direct solve residual %.3e exceeds tolerance" % res)
    return x


def split_solution(system, x):
    return [x[system.offsets[k] : system.offsets[k + 1]] for k in range(len(system.offsets) - 1)]


def _lattice_coefficients(space, u_free):
    lat = np.zeros(space.n_u * space.n_v)
    lat[space.free_mask.ravel()] = u_free
    return lat.reshape(space.n_u, space.n_v)


def evaluate_patch(patch, u_free, u_pts, v_pts, deriv=(0, 0)):
    """Values (or a parametric partial) of the discrete function on a tensor grid."""
    C = _lattice_coefficients(patch.space, u_free)
    BU = eval_matrix(patch.space.kv_u, u_pts, deriv[0])
    BV = eval_matrix(patch.space.kv_v, v_pts, deriv[1])
    return BU @ C @ BV.T


def measure_error(domain, u_patches, u_star, grad_u_star=None):
    """L2 error, broken H1 seminorm error and the largest interface jump.

    `u_star` maps (x, y) arrays to values; `grad_u_star`, when given,
    returns a (..., 2) array and enables the H1 part.
    """
    l2_sq = 0.0
    h1_sq = 0.0
    for k, patch in enumerate(domain.patches):
        space = patch.space
        p = space.degree
        ng = p + 2
        squ = span_quadrature(space.kv_u, ng, 0)
        sqv = span_quadrature(space.kv_v, ng, 0)
        pu, pv = squ.points.ravel(), sqv.points.ravel()
        pts, jac = patch.geometry.jacobian_grid(pu, pv)
        jinv_t, det = _inv_transpose(jac.reshape(-1, 2, 2), where="patch %d" % k)
        jinv_t, det = jinv_t.reshape(jac.shape), det.reshape(jac.shape[:2])
        w2d = np.abs(det) * (squ.weights.ravel()[:, None] * sqv.weights.ravel()[None, :])
        uh = evaluate_patch(patch, u_patches[k], pu, pv)
        ue = u_star(pts[..., 0], pts[..., 1])
        l2_sq += float(np.sum(w2d * (uh - ue) ** 2))
        if grad_u_star is not None:
            du = evaluate_patch(patch, u_patches[k], pu, pv, deriv=(1, 0))
            dv = evaluate_patch(patch, u_patches[k], pu, pv, deriv=(0, 1))
            ghat = np.stack([du, dv], axis=-1)
            gh = np.einsum("uvab,uvb->uva", jinv_t, ghat)
            ge = grad_u_star(pts[..., 0], pts[..., 1])
            h1_sq += float(np.sum(w2d * np.sum((gh - ge) ** 2, axis=-1)))

    max_jump = 0.0
    for g in domain.interfaces:
        own = domain.patches[g.k]
        nb = domain.patches[g.l]
        ts = np.linspace(g.range_k[0], g.range_k[1], 64)
        ss = np.asarray(g.map_param(ts))
        uk = evaluate_patch(own, u_patches[g.k], *side_point(g.side_k, ts)).ravel()
        ul = evaluate_patch(nb, u_patches[g.l], *side_point(g.side_l, ss)).ravel()
        max_jump = max(max_jump, float(np.abs(uk - ul).max()))
    return np.sqrt(l2_sq), np.sqrt(h1_sq), max_jump

