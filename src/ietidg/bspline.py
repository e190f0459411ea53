"""Univariate and tensor-product B-spline machinery.

Knot vectors are *p-open* on [0, 1]: the first and last knot are repeated
``p + 1`` times and interior knots may be repeated up to ``p`` times.  Basis
functions are evaluated with the Cox-de Boor recursion (values and first
derivatives), and each basis function is identified with its Greville point.
"""

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError

SIDES = ("west", "east", "south", "north")


class KnotVector:
    """A p-open knot vector on [0, 1] together with its spline degree.

    Parameters
    ----------
    degree : int
        Spline degree ``p >= 1``.
    knots : array_like
        Non-decreasing knots; the first and last knot must be 0 and 1,
        each repeated ``p + 1`` times, interior multiplicities at most ``p``.

    Attributes
    ----------
    p : int
        Spline degree.
    knots : ndarray
        Knot array of length ``n + p + 1``.
    n : int
        Dimension of the spanned spline space.
    """

    def __init__(self, degree, knots):
        p = int(degree)
        if isinstance(degree, bool) or p != degree or p < 1:
            raise ConfigError("spline degree must be a positive integer, got %r" % degree)
        kv = np.ascontiguousarray(knots, dtype=float)
        if kv.ndim != 1 or kv.size < 2 * (p + 1):
            raise ConfigError("knot vector too short for degree %d" % p)
        if np.any(np.diff(kv) < 0):
            raise ConfigError("knots must be non-decreasing")
        n = kv.size - p - 1
        if not (np.all(kv[: p + 1] == 0.0) and np.all(kv[n:] == 1.0)):
            raise ConfigError("knot vector must be p-open on [0, 1]")
        interior = kv[p + 1 : n]
        if interior.size:
            _, counts = np.unique(interior, return_counts=True)
            if np.any(counts > p):
                raise ConfigError("interior knot multiplicity exceeds degree %d" % p)
        self.p = p
        self.knots = kv
        self.n = n

    def __eq__(self, other):
        return (
            isinstance(other, KnotVector)
            and self.p == other.p
            and self.knots.shape == other.knots.shape
            and bool(np.all(self.knots == other.knots))
        )

    def __repr__(self):
        return "KnotVector(p=%d, n=%d)" % (self.p, self.n)

    @property
    def breakpoints(self):
        """Distinct knots (the 1D mesh)."""
        return np.unique(self.knots)

    @property
    def h_max(self):
        """Largest knot span."""
        return float(np.max(np.diff(self.knots)))

    @property
    def h_min(self):
        """Smallest nonzero knot span."""
        d = np.diff(self.knots)
        return float(np.min(d[d > 0]))

    def find_span(self, x):
        """Index of the nonzero span that contains each `x`; ``x = 1`` maps into the last one."""
        x = np.asarray(x, dtype=float)
        outside = ~((x >= 0.0) & (x <= 1.0))
        if outside.any():
            raise ValueError("parameter %r outside [0, 1]" % float(x[outside].flat[0]))
        span = np.searchsorted(self.knots, x, side="right") - 1
        return np.minimum(np.maximum(span, self.p), self.n - 1)

    def as_dict(self):
        """JSON-ready representation; binary64 values round-trip exactly."""
        return {"degree": self.p, "knots": self.knots.tolist()}

    @classmethod
    def from_dict(cls, data):
        return cls(data["degree"], data["knots"])

    @classmethod
    def bernstein(cls, degree):
        """Single-span knot vector (global polynomials on [0, 1])."""
        return cls(degree, [0.0] * (degree + 1) + [1.0] * (degree + 1))


def eval_basis_tables(kv, points, max_deriv=0):
    """Evaluate the ``p + 1`` basis functions active at each point, and their first derivatives.

    Cox-de Boor recursion in the standard triangular-table form, run over a
    trailing axis of the `n` points in [0, 1], with ``max_deriv`` 0 or 1.
    Returns ``firsts`` (n,), the index of the first function active at each
    point, and ``tables`` (n, max_deriv + 1, p + 1), where ``tables[q, d]``
    holds the d-th derivatives of those functions.
    """
    p = kv.p
    if not 0 <= max_deriv <= 1:
        raise ValueError("max_deriv must be 0 or 1, got %d" % max_deriv)
    x = np.atleast_1d(np.asarray(points, dtype=float))
    span = kv.find_span(x)
    U = kv.knots
    left = np.empty((p + 1, x.size))
    right = np.empty((p + 1, x.size))
    ndu = np.empty((p + 1, p + 1, x.size))
    ndu[0, 0] = 1.0
    for j in range(1, p + 1):
        left[j] = x - U[span + 1 - j]
        right[j] = U[span + j] - x
        saved = 0.0
        for r in range(j):
            ndu[j, r] = right[r + 1] + left[j - r]
            temp = ndu[r, j - 1] / ndu[j, r]
            ndu[r, j] = saved + right[r + 1] * temp
            saved = left[j - r] * temp
        ndu[j, j] = saved

    out = np.empty((max_deriv + 1, p + 1, x.size))
    out[0] = ndu[:, p]
    if max_deriv:
        # de Boor: B'_{i,p} = p (t_i - t_{i+1}), t_i = B_{i,p-1} / (U[i+p] - U[i]); the
        # degree p-1 values are column p-1 of the table, their support lengths row p
        t = (1.0 / ndu[p, :p]) * ndu[:p, p - 1]
        out[1] = p * np.concatenate([0.0 - t[:1], t[:-1] - t[1:], t[-1:]])
    return span - p, out.transpose(2, 0, 1)


def eval_basis(kv, x, max_deriv=0):
    """One-point form of :func:`eval_basis_tables`: ``(first, table)`` at the scalar `x`."""
    firsts, tables = eval_basis_tables(kv, [x], max_deriv)
    return int(firsts[0]), tables[0]


def eval_matrices(kv, points, max_deriv=0):
    """Dense evaluation matrices ``M[d, q, i] = d^d B_i / dx^d (points[q])``, d <= max_deriv."""
    firsts, tables = eval_basis_tables(kv, points, max_deriv)
    M = np.zeros((max_deriv + 1, firsts.size, kv.n))
    cols = firsts[:, None] + np.arange(kv.p + 1)
    M[:, np.arange(firsts.size)[:, None], cols] = tables.transpose(1, 0, 2)
    return M


def eval_matrix(kv, points, deriv=0):
    """Dense evaluation matrix ``M[q, i] = d^deriv B_i / dx^deriv (points[q])``."""
    return eval_matrices(kv, points, deriv)[deriv]


def greville_points(kv):
    """Greville abscissae: point `i` averages knots ``i+1 .. i+p``."""
    p = kv.p
    g = np.array([np.mean(kv.knots[i + 1 : i + p + 1]) for i in range(kv.n)])
    return np.clip(g, 0.0, 1.0)


def refine_uniform(kv, levels):
    """Bisect every nonzero span `levels` times, keeping all original knots."""
    if levels < 0:
        raise ConfigError("refinement level must be non-negative")
    knots = kv.knots
    for _ in range(levels):
        mids = 0.5 * (knots[:-1] + knots[1:])
        mids = mids[np.diff(knots) > 0]
        knots = np.sort(np.concatenate([knots, mids]))
    return KnotVector(kv.p, knots)


def active_on_interval(kv, a, b):
    """Indices whose support overlaps ``(a, b)`` with positive length."""
    if not (0.0 <= a < b <= 1.0):
        raise ValueError("need 0 <= a < b <= 1, got (%r, %r)" % (a, b))
    idx = [i for i in range(kv.n) if kv.knots[i] < b and kv.knots[i + kv.p + 1] > a]
    return np.array(idx, dtype=int)


def nonzero_at_point(kv, x):
    """Indices `i` with ``B_i(x) > 0``, decided by evaluation.

    The Cox-de Boor recursion yields exact zeros outside the open support,
    so thresholding at zero is reliable.
    """
    first, tab = eval_basis(kv, x, 0)
    return first + np.nonzero(tab[0] > 0.0)[0]


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and positive weights on a reference interval."""

    nodes: np.ndarray
    weights: np.ndarray

    def mapped(self, a, b):
        """Affinely mapped nodes/weights for integration over ``[a, b]``.

        The reference interval is assumed to be [-1, 1].
        """
        half = 0.5 * (b - a)
        return 0.5 * (a + b) + half * self.nodes, half * self.weights


@functools.lru_cache(maxsize=None)
def gauss_rule(n):
    """Gauss-Legendre rule with `n` points on [-1, 1] (exact to degree 2n-1); read-only, shared."""
    if not 1 <= n <= 64:
        raise ValueError("number of Gauss points must be in [1, 64], got %r" % n)
    nodes, weights = np.polynomial.legendre.leggauss(n)
    nodes.flags.writeable = weights.flags.writeable = False
    return QuadratureRule(nodes, weights)


class TensorSplineSpace:
    """Tensor-product spline space on the parameter square with Dirichlet sides.

    The basis is the tensor product of the two univariate bases; lattice
    index ``(i, j)`` (u-index `i`, v-index `j`) maps to the flat lattice
    index ``i * n_v + j``.  Marking a side as Dirichlet removes exactly the
    boundary layer of functions with nonvanishing trace on that side; the
    remaining functions are the degrees of freedom, numbered compactly in
    flat-lattice order by ``dof_map``.
    """

    def __init__(self, kv_u, kv_v, dirichlet_sides=()):
        if kv_u.p != kv_v.p:
            raise ConfigError("mixed degrees within a patch are unsupported")
        sides = frozenset(dirichlet_sides)
        unknown = sides - set(SIDES)
        if unknown:
            raise ConfigError("unknown sides: %s" % sorted(unknown))
        self.kv_u = kv_u
        self.kv_v = kv_v
        self.dirichlet_sides = sides
        self.n_u = kv_u.n
        self.n_v = kv_v.n
        mask = np.ones((self.n_u, self.n_v), dtype=bool)
        if "west" in sides:
            mask[0, :] = False
        if "east" in sides:
            mask[-1, :] = False
        if "south" in sides:
            mask[:, 0] = False
        if "north" in sides:
            mask[:, -1] = False
        self.free_mask = mask
        dof_map = -np.ones((self.n_u, self.n_v), dtype=int)
        dof_map[mask] = np.arange(int(mask.sum()))
        self.dof_map = dof_map
        self.dimension = int(mask.sum())

    @property
    def degree(self):
        return self.kv_u.p

    def edge_kv(self, side):
        """Univariate knot vector along the given side."""
        return self.kv_v if side in ("west", "east") else self.kv_u

    def edge_dofs(self, side):
        """Dof of each boundary-layer function on `side` by edge index; -1 where constrained."""
        if side not in SIDES:
            raise ConfigError("unknown side %r" % side)
        return {"west": self.dof_map[0], "east": self.dof_map[-1],
                "south": self.dof_map[:, 0], "north": self.dof_map[:, -1]}[side]


@dataclass(frozen=True)
class _SpanQuadrature:
    """Per-span tensor quadrature bookkeeping for one parameter direction."""

    points: np.ndarray         # (n_spans, n_gauss)
    weights: np.ndarray        # (n_spans, n_gauss)
    first_active: np.ndarray   # (n_spans,)
    tables: np.ndarray = field(repr=False)  # (n_spans, n_gauss, deriv+1, p+1)


def span_quadrature(kv, n_gauss, max_deriv=1):
    """Gauss points, weights and basis tables per nonzero knot span."""
    bp = kv.breakpoints
    points, weights = gauss_rule(n_gauss).mapped(bp[:-1, None], bp[1:, None])
    firsts, tables = eval_basis_tables(kv, points.ravel(), max_deriv)
    return _SpanQuadrature(points, weights, firsts[::n_gauss],
                           tables.reshape(points.shape + tables.shape[1:]))
