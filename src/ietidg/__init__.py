"""Tearing/interconnecting solver for dG-coupled multi-patch spline problems."""

import logging

from .bspline import (
    KnotVector,
    QuadratureRule,
    TensorSplineSpace,
    eval_basis,
    gauss_rule,
    greville_points,
    refine_uniform,
)
from .domains import builtin_domain, grid_domain, slider_domain, t_domain
from .errors import ConfigError, NumericalError
from .geometry import GeometryMap, Interface, MultiPatchDomain, Patch
from .ieti import (
    IetiOperator,
    SolveReport,
    select_primal,
    setup_operator,
    solve_ieti,
)
from .refsolver import assemble_global, direct_solve, measure_error

__all__ = [
    "KnotVector", "QuadratureRule", "TensorSplineSpace",
    "eval_basis", "gauss_rule", "greville_points", "refine_uniform",
    "builtin_domain", "grid_domain", "slider_domain", "t_domain",
    "ConfigError", "NumericalError",
    "GeometryMap", "Interface", "MultiPatchDomain", "Patch",
    "IetiOperator", "SolveReport", "select_primal", "setup_operator", "solve_ieti",
    "assemble_global", "direct_solve", "measure_error",
]

__version__ = "0.1.0"

# a library leaves output to the application: no lastResort lines on stderr
logging.getLogger(__name__).addHandler(logging.NullHandler())
