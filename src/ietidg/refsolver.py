"""Oracle: the untorn coupled system on the product of all patch spaces.

Assembles the same volume, consistency and penalty terms as the patch-local
path but couples real neighbor traces instead of artificial copies, solves
directly, and measures errors against manufactured solutions.  Used to
cross-check the tearing solver.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse

from . import linalg
from .assembly import (_inv_transpose, _neighbor_edges, assemble_volume, band_rows,
                       interface_side_terms, side_dofs)
from .bspline import SIDES, eval_matrices, gauss_rule
from .errors import NumericalError
from .geometry import map_edge_param, side_point


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


def assemble_global(domain, delta, source=1.0):
    """Global coupled matrix and load.

    Quadrature and term definitions match the patch-local assembly exactly,
    so gluing the extended local systems reproduces this matrix to rounding.
    """
    offs = patch_offsets(domain)
    volumes = [assemble_volume(patch, source=source, label="patch %d" % k)
               for k, patch in enumerate(domain.patches)]
    blocks = [scipy.sparse.csr_matrix(band_rows(patch.space, band, np.arange(n)), shape=(n, n))
              for patch, (band, _), n in zip(domain.patches, volumes, np.diff(offs))]
    side, own, edge, mats = interface_side_terms(domain, delta)
    lattices = [_shifted(patch.space.dof_map.ravel(), off) for patch, off in zip(domain.patches, offs)]
    edges = [_shifted(dofs, offs[l]) for dofs, l in zip(_neighbor_edges(domain), domain.sides.neighbor)]
    _, idx = side_dofs(domain, side, own, edge, lattices, edges)
    matrix = scipy.sparse.block_diag(blocks, format="csr")
    matrix += scipy.sparse.csr_matrix(linalg.block_triplets(idx, mats), shape=matrix.shape)
    return GlobalSipgSystem(linalg.SparseSym(matrix), np.concatenate(
        [load[patch.space.free_mask] for patch, (_, load) in zip(domain.patches, volumes)]), offs)


def direct_solve(system):
    """Factorize and solve; verifies the residual to 1e-10 relative."""
    b = system.rhs
    if not np.any(b):
        return np.zeros_like(b)
    x = linalg.factorize(system.matrix.csr, name="global system").solve(b)
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
    BU = eval_matrices(patch.space.kv_u, u_pts, deriv[0])[deriv[0]]
    BV = eval_matrices(patch.space.kv_v, v_pts, deriv[1])[deriv[1]]
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
        rule = gauss_rule(space.degree + 2)
        bu, bv = space.kv_u.breakpoints, space.kv_v.breakpoints
        pu, wu = (a.ravel() for a in rule.mapped(bu[:-1, None], bu[1:, None]))
        pv, wv = (a.ravel() for a in rule.mapped(bv[:-1, None], bv[1:, None]))
        pts, jac = patch.geometry.jacobian_grid(pu, pv)
        jinv_t, det = _inv_transpose(jac, where="patch %d" % k, axes=(0, 1))
        w2d = np.abs(det) * (wu[:, None] * wv[None, :])
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

    max_jump, t = 0.0, domain.sides
    for s in range(0, t.owner.size, 2):  # interface s // 2 from its patch k (side s) and l (s + 1)
        ts = np.linspace(*t.range[s], 64)
        ss = map_edge_param(ts, t.range[s], t.range[s + 1], t.reversed_[s])
        uk, ul = (evaluate_patch(domain.patches[t.owner[q]], u_patches[t.owner[q]],
                                 *side_point(SIDES[t.side[q]], x)).ravel() for q, x in ((s, ts), (s + 1, ss)))
        max_jump = max(max_jump, float(np.abs(uk - ul).max()))
    return np.sqrt(l2_sq), np.sqrt(h1_sq), max_jump

