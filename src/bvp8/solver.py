"""Collocation assembly and the least-squares solution paths.

Substituting the constrained expression into the ODE residual and sampling
on the collocation grid turns the problem into unconstrained least squares in
the coefficient vector xi: one QR shot for linear problems, Gauss-Newton for
nonlinear ones.  Boundary conditions never enter the iteration; they are
already embedded in the expression.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np
from numpy.polynomial import chebyshev

from .basis import (
    MAX_ORDER, ChebyshevBasis, CollocationGrid, DomainMap, check_unit_interval, make_grid,
)
from .errors import Bvp8Error, ConfigurationError, EvaluationError, SingularSystemError
from .expression import BoundaryConditions, ConstrainedExpression

_FD_STEP = 1e-7

#: Gauss-Newton converges once a full step has
#: ||step|| <= _STEP_TOL * (1 + ||xi||).  _ARMIJO_C is the sufficient-decrease
#: constant of the Armijo test and _MIN_STEP_LENGTH the shortest step length
#: the backtracking line search tries.
_STEP_TOL = 1e-10
_ARMIJO_C = 1e-4
_MIN_STEP_LENGTH = 1e-8


@dataclass(frozen=True)
class BvpProblem:
    """An eighth-order two-point problem in implicit form F(x, y, .., y^(8)) = 0.

    Each callback sees all collocation nodes at once: x is the (n,) node
    array and Y the read-only (9, n) state matrix, Y[d] = y^{(d)}(x).
    residual(x, Y) returns F at the nodes, shape (n,), with any forcing
    folded in, so the solved equation is residual == 0.  partials(x, Y)
    returns dF/dy^{(d)}, shape (n, 9); pass None to fall back to central
    finite differences (flagged on the solve report).  exact(x, order), when
    known, feeds error tables and reports.

    Callbacks run with numpy warnings silenced, so an overflow gives inf.  A
    callback that raises, gives a non-finite value or the wrong shape is
    reported as an EvaluationError; at a Gauss-Newton trial step it rejects
    that step instead.
    """

    name: str
    bc: BoundaryConditions
    residual: Callable[[np.ndarray, np.ndarray], np.ndarray]
    is_linear: bool
    partials: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    exact: Optional[Callable] = None

    @property
    def domain(self) -> tuple[float, float]:
        return (self.bc.x_i, self.bc.x_f)


@dataclass(frozen=True)
class SolverConfig:
    """Grid, basis, and stopping configuration.

    Defaults reproduce the benchmark setup: 11 collocation points, 10 basis
    terms.  m_basis may not exceed n_points - 1, otherwise the least-squares
    system is underdetermined.
    """

    n_points: int = 11
    m_basis: int = 10
    max_iterations: int = 20

    def __post_init__(self):
        if self.n_points < 2:
            raise ConfigurationError(f"need at least 2 grid points, got {self.n_points}")
        if not 1 <= self.m_basis <= self.n_points - 1:
            raise ConfigurationError(
                f"m_basis={self.m_basis} must be in 1..n_points-1={self.n_points - 1}"
            )
        if self.max_iterations < 1:
            raise ConfigurationError(
                f"max_iterations must be at least 1, got {self.max_iterations}"
            )


class StopReason(enum.Enum):
    """Why an iteration stopped; stalled and max_iterations are reported, never raised."""

    CONVERGED = "converged"
    STALLED = "stalled"
    MAX_ITERATIONS = "max_iterations"
    LINEAR_SINGLE_SHOT = "linear_single_shot"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class SolveReport:
    """Outcome of one solve: coefficients, iteration trace, stop reason.

    residual_norm_history[0] is the norm at xi = 0 and one entry follows per
    accepted step, so it never increases and its last entry is
    `solution_norm`, the norm at the returned xi.  `iterations` counts the
    Gauss-Newton steps computed; a step that stalled, or a converged one
    that would raise the norm, is not applied and adds no entry.
    """

    xi: np.ndarray
    iterations: int
    residual_norm_history: np.ndarray
    converged_by: StopReason
    solution_norm: float
    used_fd_partials: bool = False


@dataclass(frozen=True)
class Solution:
    """A solved problem: evaluate y and its derivatives anywhere in the domain."""

    problem: BvpProblem
    expression: ConstrainedExpression
    grid: CollocationGrid
    report: SolveReport
    config: SolverConfig

    @cached_property
    def _derivative_series(self) -> tuple[list, np.ndarray]:
        """Chebyshev series s_d of c**d h^{(d)} . xi for d = 0..8, and B xi.

        s_0 is xi padded with zeros at degrees below the basis start, and
        s_d = c * chebder(s_{d-1}), applied as the differentiation matrix
        (d/dz T_j = sum of 2 j T_k over k < j with j - k odd, T_0 halved):
        chebder loops over coefficients in Python and costs 5x more.
        Built on the first call, not by solve().
        """
        ce, xi = self.expression, self.report.xi
        k = np.arange(ce.basis.max_degree + 1)
        odd_gap = (k > k[:, None]) & ((k - k[:, None]) % 2 == 1)
        deriv = np.where(odd_gap, 2.0 * ce.basis.domain_map.c * k, 0.0)
        deriv[0] /= 2.0
        series = [np.concatenate([np.zeros(ce.basis.start_degree), xi])]
        for d in range(1, MAX_ORDER + 1):
            series.append(deriv[: k.size - d, : k.size - d + 1] @ series[-1])
        return series, ce.boundary_basis_table @ xi

    def __call__(self, x, order: int = 0):
        """y^{(order)}(x) of the solved expression, order 0..8.

        With xi fixed, y^{(d)}(x) = (c**d sum_k xi_k T_{8+k}^{(d)}(z)
        - beta^{(d)}(x) . (B xi)) + beta^{(d)}(x) . values, where B is the
        boundary basis table and values the constraint values.  The Chebyshev
        sum is one Clenshaw pass over the series s_d cached per solution, so
        no basis table is built.  At x_i and x_f the orders 0..3 return the
        boundary data exactly.  Equals expression.eval(x, order, xi) to
        rounding; a scalar x gives a numpy scalar.
        """
        x = np.asarray(x)
        ce = self.expression
        betas = ce.switching.eval(x, order)
        z = ce.basis.domain_map.to_z(x)
        check_unit_interval(z)
        series, b_xi = self._derivative_series
        y = (chebyshev.chebval(z, series[order]) - betas @ b_xi) + betas @ ce.constraint_values
        if order < 4:
            right = np.where(x == ce.bc.x_f, ce.bc.right_values[order], y)
            y = np.where(x == ce.bc.x_i, ce.bc.left_values[order], right)[()]
        return y

    def error(self, x):
        """Absolute error against the problem's exact solution."""
        if self.problem.exact is None:
            raise ConfigurationError(
                f"problem {self.problem.name!r} has no exact solution"
            )
        return np.abs(self(x) - self.problem.exact(x, 0))


def build_system(
    problem: BvpProblem, config: SolverConfig
) -> tuple[ConstrainedExpression, CollocationGrid]:
    """Constrained expression and collocation grid for a problem."""
    dm = DomainMap(problem.bc.x_i, problem.bc.x_f)
    basis = ChebyshevBasis(config.m_basis, dm)
    ce = ConstrainedExpression.build(basis, problem.bc)
    grid = make_grid(dm, config.n_points)
    return ce, grid


class _CollocationTables:
    """a^{(d)} rows (9, n, m) and b^{(d)} values (9, n) on the grid, from one ce.tables call."""

    def __init__(self, ce: ConstrainedExpression, grid: CollocationGrid):
        self.x = grid.x_nodes
        self.a, self.b = ce.tables(grid.x_nodes)

    def states(self, xi: np.ndarray) -> np.ndarray:
        """Read-only state matrix with column k = (y(x_k), y'(x_k), .., y^{(8)}(x_k))."""
        states = self.b + self.a @ xi
        states.flags.writeable = False
        return states


def _fd_partials(residual: Callable) -> Callable:
    """Central-difference fallback for dF/dy^{(d)}: two residual calls per order."""

    def partials(x, y):
        out = np.empty(np.shape(x) + (MAX_ORDER + 1,))
        for d in range(MAX_ORDER + 1):
            hi = np.array(y, dtype=float)
            lo = np.array(y, dtype=float)
            hi[d] += _FD_STEP
            lo[d] -= _FD_STEP
            out[..., d] = (residual(x, hi) - residual(x, lo)) / (2.0 * _FD_STEP)
        return out

    return partials


def _resolve_partials(problem: BvpProblem) -> tuple[Callable, bool]:
    if problem.partials is not None:
        return problem.partials, False
    return _fd_partials(problem.residual), True


def _at_nodes(name: str, fn: Callable, x: np.ndarray, states: np.ndarray, row_shape=()):
    """fn(x, states), one call for all nodes, as a float64 array of shape (n,) + row_shape.

    An exception from fn, a result of another shape, or a non-finite value
    becomes an EvaluationError naming fn (and both shapes, or the first
    non-finite node's x); a Bvp8Error raised by fn passes through.
    """
    expected = (x.size,) + row_shape
    try:
        with np.errstate(all="ignore"):
            result = fn(x, states)
    except Bvp8Error:
        raise
    except Exception as exc:
        raise EvaluationError(f"{name} raised {type(exc).__name__}: {exc}") from exc
    try:
        out = np.asarray(result, dtype=float)
    except (TypeError, ValueError):  # ragged or non-numeric results
        out = None
    if out is None or out.shape != expected:
        got = "a non-numeric result" if out is None else out.shape
        raise EvaluationError(f"{name} must give shape {expected} over the nodes, got {got}")
    bad = np.nonzero(~np.isfinite(out))[0]
    if bad.size:
        k = bad[0]
        raise EvaluationError(f"{name} is not finite at x={float(x[k])!r} (got {out[k].tolist()!r})")
    return out


def _jacobian(partials: Callable, tables: _CollocationTables, xi, states=None) -> np.ndarray:
    """Rows dF/dy(x_k) @ a[:, k, :] at states, by default tables.states(xi)."""
    states = tables.states(xi) if states is None else states
    rows = _at_nodes("partials", partials, tables.x, states, (MAX_ORDER + 1,))
    # One gemv per node on the strided a[:, k, :], as in a loop: bit-identical (einsum is not).
    return np.matmul(rows[:, None, :], tables.a.transpose(1, 0, 2))[:, 0, :]


def assemble_loss_and_jacobian(
    problem: BvpProblem,
    ce: ConstrainedExpression,
    grid: CollocationGrid,
    xi: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Residual vector and its xi Jacobian at the collocation nodes.

    loss[k] = F(x_k, state) and jac[k, :] = sum_d dF/dy^{(d)} a^{(d)}(x_k),
    the chain rule through the constrained expression.
    """
    tables = _CollocationTables(ce, grid)
    partials, _ = _resolve_partials(problem)
    states = tables.states(np.asarray(xi, dtype=float))
    loss = _at_nodes("residual", problem.residual, tables.x, states)
    return loss, _jacobian(partials, tables, xi, states)


def assemble_linear(
    problem: BvpProblem, ce: ConstrainedExpression, grid: CollocationGrid
) -> tuple[np.ndarray, np.ndarray]:
    """Matrix and offset of the collocated linear system A xi + b = 0.

    For a linear problem the Jacobian is state independent and the loss is
    affine in xi, so evaluating both at xi = 0 recovers A and b exactly.
    """
    if not problem.is_linear:
        raise ValueError(f"problem {problem.name!r} is not linear")
    m = ce.basis.m
    loss, jac = assemble_loss_and_jacobian(problem, ce, grid, np.zeros(m))
    return jac, loss


def lstsq_scaled_qr(a: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Minimize ||a w - rhs||_2 by column scaling plus Householder QR.

    Columns are scaled to unit 2-norm before factoring, the triangular factor
    is solved by one LAPACK solve, and the result is unscaled.  Scaling is a
    conditioning aid only; it does not change the minimizer.  A zero column
    or a scaled pivot below 1e-13 raises SingularSystemError naming the
    offending column.
    """
    a = np.asarray(a, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    if a.ndim != 2 or rhs.shape != (a.shape[0],):
        raise ValueError(f"shape mismatch: a {a.shape}, rhs {rhs.shape}")
    if a.shape[0] < a.shape[1]:
        raise ValueError(f"system is underdetermined: {a.shape[0]} rows < {a.shape[1]} columns")
    norms = np.linalg.norm(a, axis=0)
    zero = np.nonzero(norms == 0.0)[0]
    if zero.size:
        raise SingularSystemError(f"column {zero[0]} of the system matrix is identically zero")
    q, r = np.linalg.qr(a / norms, mode="reduced")
    pivots = np.abs(np.diag(r))
    j = int(np.argmin(pivots))
    if not pivots[j] >= 1e-13:
        raise SingularSystemError(
            f"system is numerically rank deficient at column {j} (|r_jj|={pivots[j]:.3e})"
        )
    # LU of the triangular r pivots on its diagonal: back substitution in LAPACK.
    return np.linalg.solve(r, q.T @ rhs) / norms


def solve_linear(problem: BvpProblem, config: Optional[SolverConfig] = None) -> Solution:
    """Solve a linear problem in one least-squares shot."""
    if not problem.is_linear:
        raise ValueError(f"problem {problem.name!r} is not linear; use solve_nonlinear")
    config = config if config is not None else SolverConfig()
    ce, grid = build_system(problem, config)
    a, b = assemble_linear(problem, ce, grid)
    xi = lstsq_scaled_qr(a, -b)
    _, used_fd = _resolve_partials(problem)
    final = float(np.linalg.norm(a @ xi + b))
    report = SolveReport(
        xi=xi,
        iterations=1,
        residual_norm_history=np.array([final]),
        converged_by=StopReason.LINEAR_SINGLE_SHOT,
        solution_norm=final,
        used_fd_partials=used_fd,
    )
    return Solution(problem, ce, grid, report, config)


def _evaluate(residual: Callable, tables: _CollocationTables, xi: np.ndarray):
    """(xi, states, loss, ||loss||) at xi; states or a norm that overflow give inf, not a warning."""
    with np.errstate(all="ignore"):
        states = tables.states(xi)
        loss = _at_nodes("residual", residual, tables.x, states)
        return xi, states, loss, float(np.linalg.norm(loss))


def _line_search(residual, tables, xi, step, norm, decrease, shortest=_MIN_STEP_LENGTH):
    """The first trial xi - alpha step, alpha = 1, 1/2, .. >= shortest, that passes Armijo.

    For f = ||r||^2 / 2 along the Gauss-Newton direction the test is
    ||r_trial||^2 <= ||r||^2 (1 - alpha * decrease), with decrease
    2 c ||J step||^2 / ||r||^2, so no norm is squared.  A trial whose
    residual raises or is not finite fails.  None when no step length passes.
    """
    alpha = 1.0
    while alpha >= shortest:
        try:
            trial = _evaluate(residual, tables, xi - alpha * step)
        except EvaluationError:
            trial = None
        if trial is not None and trial[3] <= norm * math.sqrt(1.0 - alpha * decrease):
            return trial
        alpha /= 2.0
    return None


def solve_nonlinear(problem: BvpProblem, config: Optional[SolverConfig] = None) -> Solution:
    """Gauss-Newton from xi = 0 with a backtracking line search.

    Each step solves lstsq(J, loss) for the update.  When the full update is
    below _STEP_TOL * (1 + ||xi||) the solve has converged; that last update
    is applied only if it does not raise the residual norm.  Otherwise the
    update is halved until the Armijo test passes (a trial whose residual
    raises or is not finite fails it); if none down to 1e-8 passes, the
    solve stops as stalled.  Stalling and the iteration cap are reported,
    not raised.  Works on linear problems too.
    """
    config = config if config is not None else SolverConfig()
    ce, grid = build_system(problem, config)
    tables = _CollocationTables(ce, grid)
    partials, used_fd = _resolve_partials(problem)

    xi, states, loss, norm = _evaluate(problem.residual, tables, np.zeros(config.m_basis))
    history = [norm]
    iterations = 0
    converged_by = StopReason.MAX_ITERATIONS

    while iterations < config.max_iterations:
        iterations += 1
        jac = _jacobian(partials, tables, xi, states)
        step = lstsq_scaled_qr(jac, loss)
        if np.linalg.norm(step) <= _STEP_TOL * (1.0 + np.linalg.norm(xi)):
            converged_by = StopReason.CONVERGED
            trial = _line_search(problem.residual, tables, xi, step, norm, 0.0, shortest=1.0)
        else:
            decrease = 2.0 * _ARMIJO_C * (float(np.linalg.norm(jac @ step)) / norm) ** 2
            trial = _line_search(problem.residual, tables, xi, step, norm, decrease)
            if trial is None:
                converged_by = StopReason.STALLED
        if trial is not None:
            xi, states, loss, norm = trial
            history.append(norm)
        if converged_by is not StopReason.MAX_ITERATIONS:
            break

    report = SolveReport(
        xi=xi,
        iterations=iterations,
        residual_norm_history=np.array(history),
        converged_by=converged_by,
        solution_norm=norm,
        used_fd_partials=used_fd,
    )
    return Solution(problem, ce, grid, report, config)


def solve(problem: BvpProblem, config: Optional[SolverConfig] = None) -> Solution:
    """Solve by the path matching the problem's linearity flag."""
    if problem.is_linear:
        return solve_linear(problem, config)
    return solve_nonlinear(problem, config)
