"""Collocation assembly and the least-squares solution paths.

Substituting the constrained expression into the ODE residual and sampling
on the collocation grid turns the problem into unconstrained least squares in
the coefficient vector xi: one least-squares shot for linear problems,
Gauss-Newton for nonlinear ones.  Boundary conditions never enter the
iteration; they are already embedded in the expression.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .basis import MAX_ORDER, ReadOnlyArrays, cgl_nodes, check_instance, check_integer, check_real
from .errors import ConfigurationError, EvaluationError, SingularSystemError, call_callback
from .expression import BoundaryConditions, ConstrainedExpression

_FD_STEP = 1e-7

#: Gauss-Newton converges once a full step has ||step|| <= _STEP_TOL * (1 + ||xi||);
#: it applies that step unless the residual norm rises past its roundoff floor,
#: _FLOOR_EPS * eps * ||y^(8)||_2 at the nodes.  _ARMIJO_C is the sufficient-decrease
#: constant of the Armijo test and _MIN_STEP_LENGTH the shortest step length the
#: backtracking line search tries; _PRECOND_PIVOT is the pivot floor that _lstsq_step's one
#: gate, ||G - I||_F <= 1 - _PRECOND_PIVOT**2 - 0.01, guarantees, and _NEUMANN_NORM the
#: largest ||G - I||_F it solves by a Neumann series.
_STEP_TOL = 1e-10
_FLOOR_EPS = 16
_ARMIJO_C = 1e-4
_MIN_STEP_LENGTH = 1e-8
_PRECOND_PIVOT = 0.1
_NEUMANN_NORM = 1e-2


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
    callback that raises, gives a complex or non-finite value or the wrong
    shape is reported as an EvaluationError; at a Gauss-Newton trial step it
    rejects that step instead.
    """

    name: str
    bc: BoundaryConditions
    residual: Callable[[np.ndarray, np.ndarray], np.ndarray]
    is_linear: bool
    partials: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    exact: Optional[Callable] = None

    def __post_init__(self):
        check_instance("bc", self.bc, BoundaryConditions)
        if not isinstance(self.is_linear, (bool, np.bool_)):
            raise ConfigurationError(f"is_linear must be a bool, got {self.is_linear!r}")

    @property
    def domain(self) -> tuple[float, float]:
        return (self.bc.x_i, self.bc.x_f)


@dataclass(frozen=True)
class SolverConfig(ReadOnlyArrays):
    """The discretization, n_points CGL nodes and m_basis terms, and the iteration cap.

    Defaults reproduce the benchmark setup: 11 collocation points, 10 basis
    terms.  m_basis may not exceed n_points - 1, otherwise the least-squares
    system is underdetermined.

    The config alone fixes a problem's constrained expression and nodes: it builds its
    collocation tables on [0, 1] at its first solve or assembly and reuses them in every solve
    with it, on any domain, the least-squares preconditioner P and the table a P among them, a
    second (9, n, m) table (2.08 MB at (481, 60)); none is a field, and a copy or an unpickled
    config builds its own.  Fields are stored as int.
    """

    n_points: int = 11
    m_basis: int = 10
    max_iterations: int = 20

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, check_integer(f.name, getattr(self, f.name)))
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

    @cached_property
    def _tables(self) -> tuple:
        """Read-only (z, a, low, series_map, P, a P): the CGL nodes (cgl_nodes), a^{(d)} and
        2**d T_{0..7}^{(d)}(z) at the nodes of [0, 1] (_rows), the expression's series_map, the
        same on any domain, P = R^-1, R the triangle of the QR of a^{(8)}, and the table a P.

        y^{(8)} enters every equation, so K = J P is near orthonormal up to its column scales
        (_lstsq_step), and a step forms K from a P as J from a.
        """
        bc = BoundaryConditions(0.0, 1.0, (0.0,) * 4, (0.0,) * 4)
        ce = ConstrainedExpression.build(bc, self.m_basis)
        z = cgl_nodes(self.n_points)
        a, low = ce._rows(bc.x_nodes(z), z, MAX_ORDER)
        precond = np.linalg.inv(np.linalg.qr(a[MAX_ORDER], mode="r"))
        a_precond = a @ precond
        for table in (a, low, precond, a_precond):
            table.flags.writeable = False
        return z, a, low, ce.series_map, precond, a_precond


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
class SolveReport(ReadOnlyArrays):
    """Outcome of one solve: coefficients, iteration trace, stop reason.

    residual_norm_history[0] is the norm at xi = 0 and one entry follows per
    accepted step (a linear solve's one shot is one); its last entry is
    `solution_norm`, the norm at the returned xi.  It falls at every step but a
    converging last one, which may raise it by at most its roundoff floor (see
    _gauss_newton).  `iterations` counts the steps computed; a step that stalled,
    or a converged one that would raise the norm past that floor, is not applied
    and adds no entry.  Each step solves the normal equations of K = J P, formed from the
    config's table a P, by a Neumann series or an LU solve where the bound ||G - I||_F
    passes their one gate; any other is the QR's of J, the one step to form J (_lstsq_step).
    """

    _arrays = ("xi", "residual_norm_history")  # a report cannot drift from its solution
    xi: np.ndarray
    iterations: int
    residual_norm_history: np.ndarray
    converged_by: StopReason
    solution_norm: float
    used_fd_partials: bool = False


@dataclass(frozen=True, eq=False)
class Solution(ReadOnlyArrays):
    """A solved problem: evaluate y and its derivatives anywhere in the domain.

    `expression` is the problem's constrained expression under `config` and `nodes` the x
    nodes it was collocated at, both as the solve's _CollocationTables made them.
    """

    problem: BvpProblem
    expression: ConstrainedExpression
    report: SolveReport
    config: SolverConfig

    @cached_property
    def nodes(self) -> np.ndarray:
        """The read-only x nodes of the solve, _CollocationTables.x bit for bit, built by the
        first read."""
        return self.problem.bc.x_nodes(self.config._tables[0])

    @cached_property
    def _derivative_series(self) -> list:
        """The read-only chopped series of y^{(d)}, d = 0..8, built by the first call (_series)."""
        return self.expression._series(self.report.xi)

    def __call__(self, x, order: int = 0):
        """y^{(order)}(x) for an integer order in 0..8, x in [x_i, x_f]; else ConfigurationError.

        With xi fixed, y^{(d)} is one Chebyshev series in z, chopped at roundoff (a value moves
        by at most eps/2 of its coefficient sum), cached per solution and read by one in-place
        Clenshaw pass (numpy's chebval of the stored series bit for bit).  x is checked on its
        min and max mapped to z (bc.checked_z), which are z.min() and z.max() as the map rounds
        monotonically.  At x_i and x_f the orders 0..3 return the boundary data exactly.
        Equals expression.eval(x, order, xi) bit for bit; a scalar x gives a numpy scalar.
        """
        return self.expression._read(x, order, self._derivative_series)

    def error(self, x):
        """Absolute error against the problem's exact solution."""
        if self.problem.exact is None:
            raise ConfigurationError(f"problem {self.problem.name!r} has no exact solution")
        return np.abs(self(x) - self.problem.exact(x, 0))


class _CollocationTables:
    """The collocated system of problem under config, by default solve's shared one (_tables).

    The one prelude of solve and both assemble functions: a problem or config of the wrong
    type raises ConfigurationError naming it.  expression is problem.bc's constrained
    expression, from config's series_map, and x is bc.x_nodes of config's z nodes.
    With w = x_f - x_i and t = (x - x_i) / w, a^{(d)}(x) = w**-d a_1^{(d)}(t) and b^{(d)}(x) =
    w**-d low^{(d)}(t) @ bc._beta, the boundary values' switching series built once by bc,
    whose terms cancel in the series before d/dx grows them.  So states (a @ xi, b added in
    place) and partials rows are scaled by bc._scales = w**-d, built once by bc too, never a
    table; on [0, 1] by exactly 1.  partials is problem.partials, or central differences of
    its residual if it has none (used_fd); precond and a_precond are config's P and a P.
    """

    def __init__(self, problem: BvpProblem, config: Optional[SolverConfig] = None):
        bc = check_instance("problem", problem, BvpProblem).bc
        self.config = (_DEFAULT_CONFIG if config is None
                       else check_instance("config", config, SolverConfig))
        z, self.a, low, series_map, self.precond, self.a_precond = self.config._tables
        self.expression = ConstrainedExpression(bc, series_map)
        self.x, self.scale = bc.x_nodes(z), bc._scales
        self._b = low @ bc._beta
        self.residual, self.used_fd = problem.residual, problem.partials is None
        self.partials = _fd_partials(problem.residual) if self.used_fd else problem.partials

    def states(self, xi: np.ndarray) -> np.ndarray:
        """Read-only state matrix with column k = (y(x_k), y'(x_k), .., y^{(8)}(x_k)).

        At xi = 0 the states are b's, and the table a is not read.
        """
        if np.count_nonzero(xi):  # xi.any(), in a quarter of its time
            states = self.a @ xi
            states += self._b
        else:
            states = self._b.copy()
        states *= self.scale[:, None]
        states.flags.writeable = False
        return states

    def evaluate(self, xi: np.ndarray):
        """(xi, states, loss, ||loss||) at xi; in solve's error state, an overflow gives inf.

        One dot is the norm (_norm's) and the finite test: only a loss whose dot is not finite
        is scanned, which names its first inf or NaN node or, if it has none, gives norm inf."""
        states = self.states(xi)
        loss = _at_nodes("residual", self.residual, self.x, states, checked=False)
        square = loss @ loss
        if not math.isfinite(square):
            _scan("residual", loss, self.x)
        return xi, states, loss, math.sqrt(square)

    def rows(self, states: np.ndarray) -> np.ndarray:
        """(n, 9) rows dF/dy(x_k) * scale at states, the state matrix states(xi)."""
        return _at_nodes("partials", self.partials, self.x, states, (MAX_ORDER + 1,)) * self.scale

    def assemble(self, xi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(loss, J) at xi: the residual at the nodes and its xi Jacobian, from the table a."""
        _, states, loss, _ = self.evaluate(xi)
        return loss, _jacobian(self.rows(states), self.a)

    def step(self, states: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """_lstsq_step at states, its K = J P formed from the table a P."""
        rows = self.rows(states)
        return _lstsq_step(_jacobian(rows, self.a_precond), rhs, self.precond, rows, self.a)


def _fd_partials(residual: Callable) -> Callable:
    """Central-difference fallback for dF/dy^{(d)}: two residual calls per order, each on a
    read-only state matrix as BvpProblem promises, and each named in an EvaluationError."""
    name = "residual (finite-difference partials)"

    def partials(x, y):
        out = np.empty(np.shape(x) + (MAX_ORDER + 1,))
        for d in range(MAX_ORDER + 1):
            hi = np.array(y, dtype=float)
            lo = np.array(y, dtype=float)
            hi[d] += _FD_STEP
            lo[d] -= _FD_STEP
            hi.flags.writeable = lo.flags.writeable = False
            out[..., d] = (call_callback(name, residual, x, hi)
                           - call_callback(name, residual, x, lo)) / (2.0 * _FD_STEP)
        return out

    return partials


def _at_nodes(name: str, fn: Callable, x: np.ndarray, states: np.ndarray, row_shape=(),
              checked=True):
    """fn(x, states), one call for all nodes, as a float64 array of shape (n,) + row_shape.

    An exception from fn, a complex result, a result of another shape, or a
    non-finite value becomes an EvaluationError naming fn (and both shapes, or
    the first non-finite node's x); a Bvp8Error raised by fn passes through.  A finite sum
    has no inf or NaN term; only a result whose sum is not (or overflows) is scanned node by
    node (_scan).  checked=False leaves that test to the caller: evaluate's is its loss's dot.
    fn and the sum run in their caller's error state: solve's silences numpy's warnings.
    """
    expected = (x.size,) + row_shape
    result = call_callback(name, fn, x, states)
    try:
        out = np.asarray(result)
        if out.dtype.kind == "c":  # a float cast would drop the imaginary part
            raise EvaluationError(f"{name} must give real numbers, got {out.dtype} values")
        out = out.astype(float, copy=False)
    except (TypeError, ValueError):  # ragged or non-numeric results
        out = None
    if out is None or out.shape != expected:
        got = "a non-numeric result" if out is None else out.shape
        raise EvaluationError(f"{name} must give shape {expected} over the nodes, got {got}")
    if checked and not math.isfinite(out.sum()):
        _scan(name, out, x)
    return out


def _scan(name: str, out: np.ndarray, x: np.ndarray):
    """EvaluationError naming name and the first node where out is not finite, if one is."""
    if not np.isfinite(out).all():
        k = np.nonzero(~np.isfinite(out))[0][0]
        raise EvaluationError(f"{name} is not finite at x={float(x[k])!r} (got {out[k].tolist()!r})")


def _jacobian(rows: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Rows rows[k] @ table[:, k, :]: J from the table a, K = J P from the table a P."""
    # A gemv per node on the strided table[:, k, :], as in a loop: bit-identical (einsum is not).
    return np.matmul(rows[:, None, :], table.transpose(1, 0, 2))[:, 0, :]


def assemble_loss_and_jacobian(
    problem: BvpProblem, xi: np.ndarray, config: Optional[SolverConfig] = None
) -> tuple[np.ndarray, np.ndarray]:
    """Residual vector and its xi Jacobian at the collocation nodes of config.

    loss[k] = F(x_k, state) and jac[k, :] = sum_d dF/dy^{(d)} a^{(d)}(x_k),
    the chain rule through the constrained expression, from the tables of `config`, by
    default solve's.  A problem or config of the wrong type raises ConfigurationError, as
    does an xi that is not config.m_basis real numbers.
    """
    with np.errstate(all="ignore"):  # callbacks and states overflow to inf, not a warning
        tables = _CollocationTables(problem, config)
        return tables.assemble(check_real("xi", xi, (tables.config.m_basis,)))


def assemble_linear(
    problem: BvpProblem, config: Optional[SolverConfig] = None
) -> tuple[np.ndarray, np.ndarray]:
    """Matrix and offset of the collocated linear system A xi + b = 0.

    For a linear problem the Jacobian is state independent and the loss is
    affine in xi, so evaluating both at xi = 0 recovers A and b exactly.  Arguments are
    checked as assemble_loss_and_jacobian checks them; a nonlinear problem raises
    ConfigurationError.
    """
    with np.errstate(all="ignore"):
        tables = _CollocationTables(problem, config)
        if not problem.is_linear:
            raise ConfigurationError(f"problem {problem.name!r} is not linear")
        loss, jac = tables.assemble(np.zeros(tables.config.m_basis))
    return jac, loss


def lstsq_scaled_qr(a: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Minimize ||a w - rhs||_2 by column scaling plus Householder QR, with no Q.

    One QR of the augmented matrix [a / norms | rhs], columns scaled to unit
    2-norm, gives R = [[R_11, Q^T rhs], [0, +-||residual||]]; one LAPACK solve
    on R_11 gives w, which is then unscaled.  The rank check reads only the m
    pivots of R_11: the last diagonal entry is 0 for a consistent system.
    Scaling is a conditioning aid only; each column's norm is taken after an exact
    division by the power of two of its largest |a_ij|, so no square overflows or
    underflows.  A zero or non-finite column, or a scaled pivot below 1e-13, raises
    SingularSystemError naming the offending column; an a or rhs that is not real numbers
    (check_real), an rhs that is not finite or an a with no columns, ConfigurationError.
    A solve takes its steps from _lstsq_step, which falls back to this when
    its gate declines; tests compare the steps with it as the reference.
    """
    a, rhs = check_real("a", a), check_real("rhs", rhs)
    if a.ndim != 2 or rhs.shape != (a.shape[0],):
        raise ConfigurationError(f"shape mismatch: a {a.shape}, rhs {rhs.shape}")
    rows, m = a.shape
    if m == 0:
        raise ConfigurationError(f"system has no columns: a {a.shape}")
    if rows < m:
        raise ConfigurationError(f"system is underdetermined: {rows} rows < {m} columns")
    bad = np.nonzero(~np.isfinite(rhs))[0]
    if bad.size:
        raise ConfigurationError(f"rhs must be finite, got {rhs[bad[0]]} at row {bad[0]}")
    bad = np.nonzero(~np.isfinite(a).all(axis=0))[0]
    if bad.size:
        raise SingularSystemError(f"column {bad[0]} of the system matrix is not finite")
    largest, power = np.frexp(np.max(np.abs(a), axis=0))
    zero = np.nonzero(largest == 0.0)[0]
    if zero.size:
        raise SingularSystemError(f"column {zero[0]} of the system matrix is identically zero")
    norms = np.ldexp(np.linalg.norm(np.ldexp(a, -power), axis=0), power)
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


def _lstsq_step(k: np.ndarray, rhs: np.ndarray, precond: np.ndarray, rows: np.ndarray,
                a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(step, J step), step = lstsq(J, rhs) = precond y, y by the column-scaled normal
    equations of K = J precond, formed from the table a precond (SolverConfig._tables).

    With precond = R^-1 of the order-8 table, K is near orthonormal up to its column norms d,
    so G = (K/d)^T (K/d) is near the identity and its normal equations lose no digits
    (Blendenpik's right preconditioning).  One bound gates them: G has a unit diagonal, so
    each scaled QR pivot of K is at least sqrt(1 - e), e = ||G - I||_F, and e <= 1 -
    _PRECOND_PIVOT**2 - 0.01 (for rounding) keeps them above _PRECOND_PIVOT.  Any other step,
    a nan e from a zero column too, is lstsq_scaled_qr(J, rhs), the only one to form J =
    _jacobian(rows, a), with no factor of G.  G y = v is solved as the Neumann sum of
    (I - G)^j v for e <= _NEUMANN_NORM, up to the first j whose tail bound e^(j+1) / (1 - e)
    is below half an ulp of ||y|| (3 or 4 terms on p1-p6), summed in place, else by one LU
    solve; J step is K (y / d).  On p1-p6 e is at most 3e-5 at (11, 10), (31, 30) and (481,
    60), so every step is a Neumann sum; on p7, paper_default's median op, e is 0.75 to 0.82,
    so every p7 step is the LU solve.  I - G is 0 - G plus 1 on its diagonal, np.identity(m) -
    G bit for bit.  It runs in its caller's error state; solve's silences numpy's warnings.
    """
    gram = k.T @ k
    d = np.sqrt(gram.diagonal())
    gram /= d[:, None] * d
    neg = 0.0 - gram  # -G exactly, then 1 - g_ii on the diagonal: I - G with no identity
    neg.ravel()[::d.size + 1] += 1.0
    e = _norm(neg.ravel())
    if not e <= 1.0 - _PRECOND_PIVOT ** 2 - 0.01:  # nan, from a zero column, is not
        jac = _jacobian(rows, a)
        step = lstsq_scaled_qr(jac, rhs)
        return step, jac @ step
    v = (k.T @ rhs) / d
    if e > _NEUMANN_NORM:
        y = np.linalg.solve(gram, v)
    else:
        y = term = v
        tail = e / (1.0 - e)  # ||G^-1 v - y|| <= tail ||v|| <= tail (1 + e) ||G^-1 v||
        while tail * (1.0 + e) > 0.25 * math.ulp(1.0):  # eps/4 of a norm is at most half its ulp
            term = neg @ term
            y += term
            tail *= e
    y /= d
    return precond @ y, k @ y


def _norm(v: np.ndarray) -> float:
    """||v||_2 of a real 1-D vector by one BLAS dot: np.linalg.norm(v) bit for bit, no wrapper."""
    return math.sqrt(v @ v)


def _line_search(tables, xi, step, norm, decrease, shortest=_MIN_STEP_LENGTH):
    """The first trial xi - alpha step, alpha = 1, 1/2, .. >= shortest, that passes Armijo.

    For f = ||r||^2 / 2 along the Gauss-Newton direction the test is
    ||r_trial||^2 <= ||r||^2 (1 - alpha * decrease), with decrease
    2 c ||J step||^2 / ||r||^2, so no norm is squared.  A trial whose
    residual raises or is not finite fails.  The trial, or None if none passes.
    """
    alpha = 1.0
    while alpha >= shortest:
        try:
            trial = tables.evaluate(xi - alpha * step)
        except EvaluationError:
            trial = None
        if trial is not None and trial[3] <= norm * math.sqrt(1.0 - alpha * decrease):
            return trial
        alpha /= 2.0
    return None


def _single_shot(tables, start):
    """One shot xi = lstsq(a, -b) by tables.step, for the affine loss a xi + b read at xi = 0."""
    _, states, b, norm = start
    xi, a_xi = tables.step(states, -b)
    return xi, 1, [norm, _norm(a_xi + b)], StopReason.LINEAR_SINGLE_SHOT


def _gauss_newton(tables, start, max_iterations):
    """Gauss-Newton from the evaluated start with a backtracking line search.

    Each step solves lstsq(J, loss) for the update by tables.step.  When the
    full update is below _STEP_TOL * (1 + ||xi||) the solve has converged;
    that last update is applied unless it raises the residual norm past the
    roundoff floor _FLOOR_EPS * eps * ||y^(8)||_2, y^(8) at the current nodes.
    Otherwise the update is halved until the Armijo test passes (a trial
    whose residual raises or is not finite fails it); if none down to 1e-8
    passes, the solve stops as stalled.  Stalling and the iteration cap are
    reported, not raised.
    """
    xi, states, loss, norm = start
    history = [norm]
    iterations = 0
    converged_by = StopReason.MAX_ITERATIONS

    while iterations < max_iterations:
        iterations += 1
        step, j_step = tables.step(states, loss)
        if _norm(step) <= _STEP_TOL * (1.0 + _norm(xi)):
            converged_by = StopReason.CONVERGED
            floor = _FLOOR_EPS * math.ulp(1.0) * _norm(states[MAX_ORDER])
            found = _line_search(tables, xi, step, norm + floor, 0.0, shortest=1.0)
        else:
            decrease = 2.0 * _ARMIJO_C * (_norm(j_step) / norm) ** 2
            found = _line_search(tables, xi, step, norm, decrease)
            if found is None:
                converged_by = StopReason.STALLED
        if found is not None:
            xi, states, loss, norm = found
            history.append(norm)
        if converged_by is not StopReason.MAX_ITERATIONS:
            break
    return xi, iterations, history, converged_by


def solve(problem: BvpProblem, config: Optional[SolverConfig] = None) -> Solution:
    """Solve from xi = 0 by one least-squares shot if problem.is_linear, else by Gauss-Newton.

    Both rules share one set-up and one residual evaluation at xi = 0.  Replace
    the problem with is_linear=False to run Gauss-Newton on a linear problem.
    """
    with np.errstate(all="ignore"):  # one error state for every callback, norm and step
        tables = _CollocationTables(problem, config)
        config = tables.config
        start = tables.evaluate(np.zeros(config.m_basis))
        xi, iterations, history, converged_by = (
            _single_shot(tables, start) if problem.is_linear
            else _gauss_newton(tables, start, config.max_iterations))
    norms = np.array(history)
    xi.flags.writeable = norms.flags.writeable = False  # owned and read-only: the report keeps both
    report = SolveReport(xi, iterations, norms, converged_by, history[-1], tables.used_fd)
    return Solution(problem, tables.expression, report, config)
