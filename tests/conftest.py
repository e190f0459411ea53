import numpy as np
import pytest

from ietidg.bspline import KnotVector, TensorSplineSpace, refine_uniform
from ietidg.geometry import GeometryMap, Interface, MultiPatchDomain, Patch


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


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_knotvector(rng, p=None):
    p = p if p is not None else int(rng.integers(1, 5))
    n_interior = int(rng.integers(0, 6))
    interior = np.sort(rng.uniform(0.05, 0.95, n_interior))
    knots = np.concatenate([np.zeros(p + 1), interior, np.ones(p + 1)])
    return KnotVector(p, knots)


def full_jump_columns(jumps, partition, local_systems):
    """Each block's dense B over all its extended dofs, scattered from ``B_gamma``."""
    out = []
    for k, sysk in enumerate(local_systems):
        B = np.zeros((jumps.n_rows, sysk.n_total))
        B[:, partition.gamma_index(k)] = jumps.B_gamma[k].toarray()
        out.append(B)
    return out


def project_wtilde(op, u_blocks):
    """Project block vectors onto the primal-constrained subspace by group averaging."""
    total, count = np.zeros(op.n_primal), np.zeros(op.n_primal)
    for u, P, gk in zip(u_blocks, op.partition.primal, op.primal_global):
        np.add.at(total, gk, u[P])
        np.add.at(count, gk, 1.0)
    out = [u.copy() for u in u_blocks]
    for u, P, gk in zip(out, op.partition.primal, op.primal_global):
        u[P] = total[gk] / count[gk]
    return out


def psi_residual(op, k):
    """Energy-minimality residual of block k's Psi: max |Delta rows of S Psi| / max |S|."""
    blk = op.blocks[k]
    res = (blk.S @ blk.psi)[:blk.n_dual]
    scale = max(np.abs(blk.S).max(initial=0.0), 1e-300)
    return float(np.abs(res).max(initial=0.0) / scale)


def check_lemma_bbt(op, u_blocks):
    """Verify the closed form of w = B_D^T B_Gamma u for primal-constrained u.

    For every matched pair on an interface between patches k and l the
    scaled jump ``alpha_l / (alpha_k + alpha_l) * (u_k - u_l_copy)``
    must appear at the block-k dof, and the complementary-scaled
    negative jump at the copy.  Returns the max coefficientwise
    deviation (all non-pair skeleton dofs must carry zero).
    """
    mu = sum((B @ u[blk.gamma] for B, u, blk in zip(op.jumps.B_gamma, u_blocks, op.blocks)),
             np.zeros(op.n_rows))
    w = [(B.T @ mu) / D for B, D in zip(op.jumps.B_gamma, op.jumps.D)]
    expected = [np.zeros_like(wk) for wk in w]
    pos_gamma = []
    for k, blk in enumerate(op.blocks):
        pg = -np.ones(op.locals[k].n_total, dtype=int)
        pg[blk.gamma] = np.arange(blk.gamma.size)
        pos_gamma.append(pg)
    for _, k, dof_k, l, dof_l, _ in op.jumps.pairs:
        a_k = op.domain.patches[k].alpha
        a_l = op.domain.patches[l].alpha
        jump = u_blocks[k][dof_k] - u_blocks[l][dof_l]
        expected[k][pos_gamma[k][dof_k]] = a_l / (a_k + a_l) * jump
        expected[l][pos_gamma[l][dof_l]] = -a_k / (a_k + a_l) * jump
    return max(
        float(np.abs(w[k] - expected[k]).max()) if w[k].size else 0.0
        for k in range(len(op.blocks))
    )
