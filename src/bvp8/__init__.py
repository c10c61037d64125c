"""Analytical least-squares solutions of eighth-order two-point BVPs.

The solution candidate embeds all eight boundary constraints exactly through
switching polynomials; the residual of the differential equation is then
minimized over a Chebyshev coefficient vector by collocation least squares.
"""

from . import problems
from .basis import DomainMap, chebyshev_table
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
    lstsq_scaled_qr,
    solve,
)

__version__ = "0.1.0"

__all__ = [
    "BoundaryConditions",
    "Bvp8Error",
    "BvpProblem",
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
    "chebyshev_table",
    "lstsq_scaled_qr",
    "problems",
    "solve",
    "__version__",
]
