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
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .basis import (
    MAX_ORDER, START_DEGREE, ChebyshevBasis, CollocationGrid, check_integer, check_order,
    check_real, clenshaw, make_grid,
)
from .errors import Bvp8Error, ConfigurationError, EvaluationError, SingularSystemError
from .expression import (
    CONSTRAINT_ORDERS, UNIT_COEFFS, BoundaryConditions, ConstrainedExpression, _chain_factors,
)

_FD_STEP = 1e-7

#: Gauss-Newton converges once a full step has
#: ||step|| <= _STEP_TOL * (1 + ||xi||).  _ARMIJO_C is the sufficient-decrease
#: constant of the Armijo test and _MIN_STEP_LENGTH the shortest step length
#: the backtracking line search tries; _CERTIFY_PIVOT is _certified_step's pivot floor.
_STEP_TOL = 1e-10
_ARMIJO_C = 1e-4
_MIN_STEP_LENGTH = 1e-8
_CERTIFY_PIVOT = 1e-7


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

    A config builds its collocation tables on [0, 1] at its first solve and
    reuses them in every solve with it, on any domain; they are not fields,
    and a copy or an unpickled config builds its own.
    """

    n_points: int = 11
    m_basis: int = 10
    max_iterations: int = 20

    def __post_init__(self):
        for f in fields(self):
            check_integer(f.name, getattr(self, f.name))
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

    def __getstate__(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @cached_property
    def _tables(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Read-only (z, a, s, ends): the CGL nodes, a^{(d)} and beta^{(d)} at the
        nodes of [0, 1], shapes (9, n, m) and (9, n, 8), and basis.table([-1, 1], 3)."""
        bc = BoundaryConditions(0.0, 1.0, (0.0,) * 4, (0.0,) * 4)
        basis = ChebyshevBasis(self.m_basis, bc.domain_map)
        ends = basis.table([-1.0, 1.0], 3)
        ce = ConstrainedExpression.build(basis, bc, ends)
        grid = make_grid(bc.domain_map, self.n_points)
        s = ce.switching.eval_all(grid.x_nodes)
        a = ce._coefficient_rows(grid.x_nodes, s)
        for table in (a, s, ends):
            table.flags.writeable = False
        return grid.z_nodes, a, s, ends


_DEFAULT_CONFIG = SolverConfig()


class StopReason(enum.Enum):
    """Why an iteration stopped; stalled and max_iterations are reported, never raised."""

    CONVERGED = "converged"
    STALLED = "stalled"
    MAX_ITERATIONS = "max_iterations"
    LINEAR_SINGLE_SHOT = "linear_single_shot"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True, eq=False)
class SolveReport:
    """Outcome of one solve: coefficients, iteration trace, stop reason.

    residual_norm_history[0] is the norm at xi = 0 and one entry follows per
    accepted step (a linear solve's one shot is one), so it never increases and
    its last entry is `solution_norm`, the norm at the returned xi.  `iterations`
    counts the steps computed; a step that stalled, or a converged one that would
    raise the norm, is not applied and adds no entry.  A converged step may come
    from the normal equations instead of a QR (see _gauss_newton).
    """

    xi: np.ndarray
    iterations: int
    residual_norm_history: np.ndarray
    converged_by: StopReason
    solution_norm: float
    used_fd_partials: bool = False


@dataclass(frozen=True, eq=False)
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
        series = [np.concatenate([np.zeros(START_DEGREE), xi])]
        for d in range(1, MAX_ORDER + 1):
            series.append(deriv[: k.size - d, : k.size - d + 1] @ series[-1])
        return series, ce.boundary_basis_table @ xi

    def __call__(self, x, order: int = 0):
        """y^{(order)}(x) for an integer order in 0..8, x in [x_i, x_f]; else ConfigurationError.

        With xi fixed, y^{(d)}(x) = (c**d sum_k xi_k T_{8+k}^{(d)}(z) - beta^{(d)}(x) . (B xi))
        + beta^{(d)}(x) . values, B the boundary basis table and values the constraint values:
        one in-place Clenshaw pass over the series s_d cached per solution and, below order 8
        (beta^{(8)} is zero), one Horner pass for the unsnapped beta^{(d)}, both numpy's bit for
        bit; no basis table is built.  At x_i and x_f the orders 0..3 return the boundary data
        exactly, so the switching snap there would be overwritten.  Equals
        expression.eval(x, order, xi) to rounding; a scalar x gives a numpy scalar.
        """
        order = check_order(order)
        x = check_real("x", x)
        ce = self.expression
        z = ce.basis.domain_map.to_z(x)
        inside = np.abs(z) <= 1.0 + 1e-12  # basis.check_unit_interval's test, named in x
        if not np.all(inside):
            first = float(np.ravel(x)[np.argmin(np.ravel(inside))])
            raise ConfigurationError(f"x={first!r} outside [{ce.bc.x_i}, {ce.bc.x_f}]")
        series, b_xi = self._derivative_series
        y = clenshaw(z, series[order])
        if order < MAX_ORDER:
            betas = ce.switching._eval_poly(x, slice(order, order + 1))[0]
            y = (y - betas @ b_xi) + betas @ ce.constraint_values
        if order < 4:
            right = np.where(x == ce.bc.x_f, ce.bc.right_values[order], y)
            y = np.where(x == ce.bc.x_i, ce.bc.left_values[order], right)[()]
        return y

    def error(self, x):
        """Absolute error against the problem's exact solution."""
        if self.problem.exact is None:
            raise ConfigurationError(f"problem {self.problem.name!r} has no exact solution")
        return np.abs(self(x) - self.problem.exact(x, 0))


def build_system(
    problem: BvpProblem, config: SolverConfig
) -> tuple[ConstrainedExpression, CollocationGrid]:
    """Constrained expression and collocation grid for a problem, from config's tables."""
    z, _, _, ends = config._tables
    dm = problem.bc.domain_map
    ce = ConstrainedExpression.build(ChebyshevBasis(config.m_basis, dm), problem.bc, ends)
    return ce, make_grid(dm, config.n_points, z)


class _CollocationTables:
    """config's tables a_1, s on [0, 1], read on [x_i, x_f] through the scales w**-d.

    With w = x_f - x_i and t = (x - x_i) / w, a^{(d)}(x) = w**-d a_1^{(d)}(t) and
    b^{(d)}(x) = w**-d s^{(d)}(t) . (w**d_j v_j) for boundary values v, so the
    states and partials rows are scaled, never a table; on [0, 1] by exactly 1.
    ce and grid must be what build_system makes from config; nothing here checks.
    """

    def __init__(self, ce: ConstrainedExpression, grid: CollocationGrid, config: SolverConfig):
        _, self.a, s, _ = config._tables
        w, self.x = ce.bc.x_f - ce.bc.x_i, grid.x_nodes
        self.scale = w ** -np.arange(MAX_ORDER + 1.0)
        self._b = s @ (w ** np.array(CONSTRAINT_ORDERS, dtype=float) * ce.constraint_values)

    def states(self, xi: np.ndarray) -> np.ndarray:
        """Read-only state matrix with column k = (y(x_k), y'(x_k), .., y^{(8)}(x_k))."""
        states = self._b + self.a @ xi
        states *= self.scale[:, None]
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


def _jacobian(partials: Callable, tables: _CollocationTables, states: np.ndarray) -> np.ndarray:
    """Rows (dF/dy(x_k) * scale) @ a[:, k, :] at states, the state matrix tables.states(xi)."""
    rows = _at_nodes("partials", partials, tables.x, states, (MAX_ORDER + 1,)) * tables.scale
    # One gemv per node on the strided a[:, k, :], as in a loop: bit-identical (einsum is not).
    return np.matmul(rows[:, None, :], tables.a.transpose(1, 0, 2))[:, 0, :]


def assemble_loss_and_jacobian(
    problem: BvpProblem, ce: ConstrainedExpression, grid: CollocationGrid, xi: np.ndarray,
    config=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Residual vector and its xi Jacobian at the collocation nodes.

    loss[k] = F(x_k, state) and jac[k, :] = sum_d dF/dy^{(d)} a^{(d)}(x_k),
    the chain rule through the constrained expression.  The tables come from
    `config`, by default a new SolverConfig of the grid's and basis's sizes;
    a ce or grid that build_system would not make from it raises ConfigurationError.
    """
    config = config or SolverConfig(grid.n_points, ce.basis.m)
    z, _, _, ends = config._tables
    dm, sw, x = ce.bc.domain_map, ce.switching, grid.x_nodes
    ends_rows = (_chain_factors(dm.c, 4) * ends).reshape(8, -1)
    arrays = ((grid.z_nodes, z), (sw.coeffs, UNIT_COEFFS), (ce.boundary_basis_table, ends_rows))
    if not (grid.n_points == config.n_points and ce.basis == ChebyshevBasis(config.m_basis, dm)
            and sw.domain_map == dm and (x[0], x[-1]) == (dm.x_i, dm.x_f)
            and all(np.array_equal(*pair) for pair in arrays)):
        raise ConfigurationError(f"expression and grid do not match the tables of {config}")
    xi = check_real("xi", xi, (ce.basis.m,))
    tables = _CollocationTables(ce, grid, config)
    _, states, loss, _ = _evaluate(problem.residual, tables, xi)
    return loss, _jacobian(_resolve_partials(problem)[0], tables, states)


def assemble_linear(
    problem: BvpProblem, ce: ConstrainedExpression, grid: CollocationGrid, config=None
) -> tuple[np.ndarray, np.ndarray]:
    """Matrix and offset of the collocated linear system A xi + b = 0.

    For a linear problem the Jacobian is state independent and the loss is
    affine in xi, so evaluating both at xi = 0 recovers A and b exactly.
    """
    if not problem.is_linear:
        raise ConfigurationError(f"problem {problem.name!r} is not linear")
    loss, jac = assemble_loss_and_jacobian(problem, ce, grid, np.zeros(ce.basis.m), config)
    return jac, loss


def lstsq_scaled_qr(a: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Minimize ||a w - rhs||_2 by column scaling plus Householder QR, with no Q.

    One QR of the augmented matrix [a / norms | rhs], columns scaled to unit
    2-norm, gives R = [[R_11, Q^T rhs], [0, +-||residual||]]; one LAPACK solve
    on R_11 gives w, which is then unscaled.  The rank check reads only the m
    pivots of R_11: the last diagonal entry is 0 for a consistent system.
    Scaling is a conditioning aid only.  A zero column or a scaled pivot
    below 1e-13 raises SingularSystemError naming the offending column.
    """
    a = np.asarray(a, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    if a.ndim != 2 or rhs.shape != (a.shape[0],):
        raise ConfigurationError(f"shape mismatch: a {a.shape}, rhs {rhs.shape}")
    rows, m = a.shape
    if rows < m:
        raise ConfigurationError(f"system is underdetermined: {rows} rows < {m} columns")
    norms = np.linalg.norm(a, axis=0)
    zero = np.nonzero(norms == 0.0)[0]
    if zero.size:
        raise SingularSystemError(f"column {zero[0]} of the system matrix is identically zero")
    aug = np.empty((rows, m + 1))
    np.divide(a, norms, out=aug[:, :m])
    aug[:, m] = rhs
    r = np.linalg.qr(aug, mode="r")
    pivots = np.abs(np.diag(r)[:m])
    j = int(np.argmin(pivots))
    if not pivots[j] >= 1e-13:
        raise SingularSystemError(
            f"system is numerically rank deficient at column {j} (|r_jj|={pivots[j]:.3e})"
        )
    # LU of the triangular r pivots on its diagonal: back substitution in LAPACK.
    return np.linalg.solve(r[:m, :m], r[:m, m]) / norms


def _certified_step(jac: np.ndarray, loss: np.ndarray, tol: float) -> Optional[np.ndarray]:
    """lstsq(jac, loss) by the column-scaled normal equations if its norm is at most tol, else None.

    The Cholesky factor of G = (J/d)^T (J/d), d the column norms, has the scaled QR pivots
    of J on its diagonal and serves only as the rank gate (one LU solve of G costs less than
    two of its triangles): a zero column, a failed factor or a pivot below _CERTIFY_PIVOT
    declines.  The error grows as cond(J)**2, which a roundoff-floor step can afford.
    """
    with np.errstate(all="ignore"):
        gram = jac.T @ jac
        d = np.sqrt(np.diag(gram))
        gram /= np.outer(d, d)
        try:
            pivots = np.diag(np.linalg.cholesky(gram))
        except np.linalg.LinAlgError:
            return None
        if not np.min(pivots) >= _CERTIFY_PIVOT:
            return None
        step = np.linalg.solve(gram, (jac.T @ loss) / d) / d
        return step if np.linalg.norm(step) <= tol else None


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
    residual raises or is not finite fails.  (alpha, trial), or None if none passes.
    """
    alpha = 1.0
    while alpha >= shortest:
        try:
            trial = _evaluate(residual, tables, xi - alpha * step)
        except EvaluationError:
            trial = None
        if trial is not None and trial[3] <= norm * math.sqrt(1.0 - alpha * decrease):
            return alpha, trial
        alpha /= 2.0
    return None


def _single_shot(partials, tables, start):
    """One least-squares shot, xi = lstsq(a, -b), for the affine loss a xi + b read at xi = 0."""
    _, states, b, norm = start
    a = _jacobian(partials, tables, states)
    xi = lstsq_scaled_qr(a, -b)
    return xi, 1, [norm, float(np.linalg.norm(a @ xi + b))], StopReason.LINEAR_SINGLE_SHOT


def _gauss_newton(residual, partials, tables, start, max_iterations):
    """Gauss-Newton from the evaluated start with a backtracking line search.

    Each step solves lstsq(J, loss) for the update.  When the full update is
    below _STEP_TOL * (1 + ||xi||) the solve has converged; that last update
    is applied only if it does not raise the residual norm.  Otherwise the
    update is halved until the Armijo test passes (a trial whose residual
    raises or is not finite fails it); if none down to 1e-8 passes, the
    solve stops as stalled.  Stalling and the iteration cap are reported,
    not raised.  After a full-length step the next update is first solved by
    the column-scaled normal equations, and taken without a QR if their
    Cholesky pivots pass and it already converges.
    """
    xi, states, loss, norm = start
    history = [norm]
    iterations = 0
    converged_by = StopReason.MAX_ITERATIONS
    alpha = 0.0  # the length of the last step applied

    while iterations < max_iterations:
        iterations += 1
        jac = _jacobian(partials, tables, states)
        tol = _STEP_TOL * (1.0 + np.linalg.norm(xi))
        step = _certified_step(jac, loss, tol) if alpha == 1.0 else None
        if step is None:
            step = lstsq_scaled_qr(jac, loss)
        if np.linalg.norm(step) <= tol:
            converged_by = StopReason.CONVERGED
            found = _line_search(residual, tables, xi, step, norm, 0.0, shortest=1.0)
        else:
            decrease = 2.0 * _ARMIJO_C * (float(np.linalg.norm(jac @ step)) / norm) ** 2
            found = _line_search(residual, tables, xi, step, norm, decrease)
            if found is None:
                converged_by = StopReason.STALLED
        if found is not None:
            alpha, (xi, states, loss, norm) = found
            history.append(norm)
        if converged_by is not StopReason.MAX_ITERATIONS:
            break
    return xi, iterations, history, converged_by


def solve(problem: BvpProblem, config: Optional[SolverConfig] = None) -> Solution:
    """Solve from xi = 0 by one least-squares shot if problem.is_linear, else by Gauss-Newton.

    Both rules share one set-up and one residual evaluation at xi = 0.  Replace
    the problem with is_linear=False to run Gauss-Newton on a linear problem.
    """
    config = config if config is not None else _DEFAULT_CONFIG
    if not isinstance(config, SolverConfig):
        raise ConfigurationError(f"config must be a SolverConfig, got {config!r}")
    ce, grid = build_system(problem, config)
    tables = _CollocationTables(ce, grid, config)
    partials, used_fd = _resolve_partials(problem)
    start = _evaluate(problem.residual, tables, np.zeros(config.m_basis))
    xi, iterations, history, converged_by = (
        _single_shot(partials, tables, start) if problem.is_linear
        else _gauss_newton(problem.residual, partials, tables, start, config.max_iterations))
    report = SolveReport(xi, iterations, np.array(history), converged_by, history[-1], used_fd)
    return Solution(problem, ce, grid, report, config)
