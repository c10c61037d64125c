"""Analytical least-squares solutions of eighth-order two-point BVPs.

The solution candidate embeds all eight boundary constraints exactly through
switching polynomials; the residual of the differential equation is then
minimized over a Chebyshev coefficient vector by collocation least squares.
"""

from . import problems
from .basis import ChebyshevBasis, CollocationGrid, DomainMap, chebyshev_table, make_grid
from .errors import Bvp8Error, ConfigurationError, EvaluationError, SingularSystemError
from .expression import BoundaryConditions, ConstrainedExpression
from .solver import (
    BvpProblem,
    Solution,
    SolveReport,
    SolverConfig,
    StopReason,
    assemble_linear,
    assemble_loss_and_jacobian,
    build_system,
    lstsq_scaled_qr,
    solve,
)

__version__ = "0.1.0"

__all__ = [
    "BoundaryConditions",
    "Bvp8Error",
    "BvpProblem",
    "ChebyshevBasis",
    "CollocationGrid",
    "ConfigurationError",
    "ConstrainedExpression",
    "DomainMap",
    "EvaluationError",
    "SingularSystemError",
    "Solution",
    "SolveReport",
    "SolverConfig",
    "StopReason",
    "assemble_linear",
    "assemble_loss_and_jacobian",
    "build_system",
    "chebyshev_table",
    "lstsq_scaled_qr",
    "make_grid",
    "problems",
    "solve",
    "__version__",
]
