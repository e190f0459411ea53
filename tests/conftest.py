import numpy as np
import pytest
import scipy.sparse

from ietidg.assembly import assemble_interface_terms, build_local_system, copy_map
from ietidg.bspline import KnotVector, TensorSplineSpace, refine_uniform
from ietidg.domains import domain_from_config, domain_to_config
from ietidg.geometry import GeometryMap, Interface, MultiPatchDomain, Patch
from ietidg.linalg import SparseSym
from ietidg.refsolver import patch_offsets


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


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_knotvector(rng, p=None):
    p = p if p is not None else int(rng.integers(1, 5))
    n_interior = int(rng.integers(0, 6))
    interior = np.sort(rng.uniform(0.05, 0.95, n_interior))
    knots = np.concatenate([np.zeros(p + 1), interior, np.ones(p + 1)])
    return KnotVector(p, knots)


def local_systems(domain, delta=12.0, source=1.0):
    """Every block's extended local system, over the copy map of `domain`."""
    copies = copy_map(domain)
    terms = assemble_interface_terms(domain, copies, delta)
    return [build_local_system(domain, k, copies, terms, source=source)
            for k in range(domain.num_patches)]


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
    """Block k's B as a CSR over its skeleton ``gamma_index(k)``, from its rows and signs."""
    rows = jumps.rows[k]
    return scipy.sparse.csr_matrix((jumps.signs[k], (rows, np.arange(rows.size))),
                                   shape=(jumps.n_rows, jumps.D[k].size))


def full_jump_columns(jumps, partition):
    """Each block's dense B over all its extended dofs, scattered from `jump_matrix`."""
    out = []
    for k, n in enumerate(np.diff(partition.offsets)):
        B = np.zeros((jumps.n_rows, n))
        B[:, partition.gamma_index(k)] = jump_matrix(jumps, k).toarray()
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
    B_gamma = [jump_matrix(op.jumps, k) for k in range(len(op.blocks))]
    mu = sum((B @ u[blk.gamma] for B, u, blk in zip(B_gamma, u_blocks, op.blocks)),
             np.zeros(op.n_rows))
    w = [(B.T @ mu) / D for B, D in zip(B_gamma, op.jumps.D)]
    expected = [np.zeros_like(wk) for wk in w]
    pos_gamma = []
    for blk, n in zip(op.blocks, np.diff(op.partition.offsets)):
        pg = -np.ones(n, dtype=int)
        pg[blk.gamma] = np.arange(blk.gamma.size)
        pos_gamma.append(pg)
    for _, k, dof_k, l, dof_l in dual_rows(op.partition):
        a_k = op.domain.patches[k].alpha
        a_l = op.domain.patches[l].alpha
        jump = u_blocks[k][dof_k] - u_blocks[l][dof_l]
        expected[k][pos_gamma[k][dof_k]] = a_l / (a_k + a_l) * jump
        expected[l][pos_gamma[l][dof_l]] = -a_k / (a_k + a_l) * jump
    return max(
        float(np.abs(w[k] - expected[k]).max()) if w[k].size else 0.0
        for k in range(len(op.blocks))
    )
