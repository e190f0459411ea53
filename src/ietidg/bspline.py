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
_EDGE = {"west": np.s_[0], "east": np.s_[-1], "south": np.s_[:, 0], "north": np.s_[:, -1]}
_MAX_GAUSS = 64  # points of the largest rule that gauss_rule gives
_MAX_DEGREE = _MAX_GAUSS - 2  # measure_error integrates with p + 2 points, assembly with p + 1


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
        if p > _MAX_DEGREE:
            raise ConfigError("spline degree %d exceeds %d: its integrals would need more than %d "
                              "Gauss points" % (p, _MAX_DEGREE, _MAX_GAUSS))
        kv = np.asarray(knots)
        if kv.ndim != 1 or kv.dtype.kind not in "iuf":
            raise ConfigError("knots must be a list of numbers, got %r" % (knots,))
        kv = np.ascontiguousarray(kv, dtype=float)
        if kv.size < 2 * (p + 1):
            raise ConfigError("knot vector too short for degree %d" % p)
        if not np.all(np.diff(kv) >= 0):  # also catches NaN
            raise ConfigError("knots must be finite and non-decreasing")
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

    def __repr__(self):
        return "KnotVector(p=%d, n=%d)" % (self.p, self.n)

    @functools.cached_property
    def breakpoints(self):
        """Distinct knots (the 1D mesh), computed once; read-only."""
        bp = np.unique(self.knots)
        bp.flags.writeable = False
        return bp

    @functools.cached_property
    def h_max(self):
        """Largest knot span, computed once."""
        return float(np.max(np.diff(self.knots)))

    def find_span(self, x):
        """Index of the nonzero span that contains each `x`; ``x = 1`` maps into the last one."""
        x = np.asarray(x, dtype=float)
        outside = ~((x >= 0.0) & (x <= 1.0))
        if outside.any():
            raise ValueError("parameter %r outside [0, 1]" % float(x[outside].flat[0]))
        span = np.searchsorted(self.knots, x, side="right") - 1
        return np.minimum(np.maximum(span, self.p), self.n - 1)

    @classmethod
    def bernstein(cls, degree):
        """Single-span knot vector (global polynomials on [0, 1])."""
        return cls(degree, [0.0] * (degree + 1) + [1.0] * (degree + 1))


def eval_basis(kv, points, max_deriv=0):
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


def eval_matrices(kv, points, max_deriv=0):
    """Dense evaluation matrices ``M[d, q, i] = d^d B_i / dx^d (points[q])``, d <= max_deriv."""
    firsts, tables = eval_basis(kv, points, max_deriv)
    M = np.zeros((max_deriv + 1, firsts.size, kv.n))
    cols = firsts[:, None] + np.arange(kv.p + 1)
    M[:, np.arange(firsts.size)[:, None], cols] = tables.transpose(1, 0, 2)
    return M


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


def _covering(kv, x):
    """The p + 1 functions ``index[q]`` of the span of each point ``x[q]``, every function
    that can be nonzero there, and which of them are positive, read off the knot vector:
    ``B_i`` is positive on the open interval ``(U[i], U[i+p+1])`` and at a closed end only
    where that end is a knot of multiplicity ``p + 1``, which an open knot vector has at 0
    and 1 alone."""
    U, p = kv.knots, kv.p
    i, x = kv.find_span(x)[:, None] - p + np.arange(p + 1), x[:, None]
    return i, ((U[i] < x) | (U[i + p] == x)) & ((x < U[i + p + 1]) | (U[i + 1] == x))


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
    if not 1 <= n <= _MAX_GAUSS:
        raise ValueError("number of Gauss points must be in [1, %d], got %r" % (_MAX_GAUSS, n))
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
        for side in sides:
            mask[_EDGE[side]] = False
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
        return self.dof_map[_EDGE[side]]


@dataclass(frozen=True)
class _SpanQuadrature:
    """Per-span tensor quadrature bookkeeping for one parameter direction."""

    points: np.ndarray         # (n_spans, n_gauss)
    weights: np.ndarray        # (n_spans, n_gauss)
    first_active: np.ndarray   # (n_spans,)
    tables: np.ndarray = field(repr=False)  # (n_spans, n_gauss, 2, p+1)


def span_quadrature(kv, n_gauss):
    """Gauss points, weights and basis tables (values, first derivatives) per nonzero span."""
    bp = kv.breakpoints
    points, weights = gauss_rule(n_gauss).mapped(bp[:-1, None], bp[1:, None])
    firsts, tables = eval_basis(kv, points.ravel(), 1)
    return _SpanQuadrature(points, weights, firsts[::n_gauss],
                           tables.reshape(points.shape + tables.shape[1:]))
