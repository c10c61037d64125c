"""Whole-array collocation assembly against per-node loops.

The oracle is the loop assembly: one residual call and one partials row
times a[:, k, :] per node, each call on the one-node slices x[k:k+1] and
Y[:, k:k+1].  numpy's elementwise functions give the same bits on a slice
as on the whole array, and the Jacobian makes the same per-node gemv
products, so equality is exact (np.array_equal), not a tolerance.  The
error cases pin the reporting rule: a non-finite result names the first
such node in node order, an exception names the callback.
"""

import dataclasses
import functools

import numpy as np
import pytest

from bvp8.errors import ConfigurationError, EvaluationError, SingularSystemError
from bvp8.expression import BoundaryConditions
from bvp8.problems import benchmark
from bvp8.solver import (
    SolverConfig,
    _CollocationTables,
    _fd_partials,
    assemble_loss_and_jacobian,
    build_system,
    lstsq_scaled_qr,
    solve,
)

PROBLEMS = ("p1", "p2", "p3", "p4", "p5", "p6", "p7")
SIZES = ((11, 10), (31, 30), (481, 60))


def loop_loss_vector(residual, tables, xi):
    states = tables.states(xi)
    n = states.shape[1]
    loss = np.empty(n)
    for k in range(n):
        loss[k] = residual(tables.x[k:k + 1], states[:, k:k + 1])[0]
    return loss


def loop_jacobian(partials, tables, xi):
    states = tables.states(xi)
    n = states.shape[1]
    jac = np.empty((n, tables.a.shape[2]))
    for k in range(n):
        jac[k] = np.asarray(partials(tables.x[k:k + 1], states[:, k:k + 1]))[0] @ tables.a[:, k, :]
    return jac


@functools.lru_cache(maxsize=None)
def solved_xi(name, n_points, m_basis):
    return solve(benchmark(name).problem, SolverConfig(n_points=n_points, m_basis=m_basis)).report.xi


def coefficients(kind, name, n_points, m_basis):
    if kind == "zero":
        return np.zeros(m_basis)
    if kind == "tiny":
        # Larger coefficients overflow p5's exp(-8 y).
        return np.random.default_rng(m_basis).uniform(-1e-9, 1e-9, m_basis)
    return solved_xi(name, n_points, m_basis)


def counting(fn, counter, key):
    def wrapped(x, y):
        counter[key] += 1
        return fn(x, y)

    return wrapped


@pytest.mark.parametrize("fd", [False, True], ids=["analytic", "fd"])
@pytest.mark.parametrize("kind", ["zero", "tiny", "solved"])
@pytest.mark.parametrize("n_points, m_basis", SIZES)
@pytest.mark.parametrize("name", PROBLEMS)
def test_loss_and_jacobian_match_node_loops(name, n_points, m_basis, kind, fd):
    problem = benchmark(name).problem
    if fd:
        problem = dataclasses.replace(problem, partials=None)
    ce, grid = build_system(problem, SolverConfig(n_points=n_points, m_basis=m_basis))
    xi = coefficients(kind, name, n_points, m_basis)
    loss, jac = assemble_loss_and_jacobian(problem, ce, grid, xi)
    tables = _CollocationTables(ce, grid)
    partials = _fd_partials(problem.residual) if fd else problem.partials
    assert np.array_equal(loss, loop_loss_vector(problem.residual, tables, xi))
    assert np.array_equal(jac, loop_jacobian(partials, tables, xi))


def counted(problem, calls, fd=False):
    """problem with call-counting callbacks; fd drops the analytic partials."""
    partials = None if fd else counting(problem.partials, calls, "partials")
    return dataclasses.replace(
        problem, residual=counting(problem.residual, calls, "residual"), partials=partials
    )


class TestCallCounts:
    @pytest.mark.parametrize("fd,want", [(False, {"residual": 1, "partials": 1}),
                                         (True, {"residual": 1 + 18, "partials": 0})],
                             ids=["analytic", "fd"])
    def test_one_call_per_evaluation(self, fd, want):
        calls = {"residual": 0, "partials": 0}
        problem = counted(benchmark("p4").problem, calls, fd)
        ce, grid = build_system(problem, SolverConfig(n_points=31, m_basis=30))
        assemble_loss_and_jacobian(problem, ce, grid, np.zeros(30))
        assert calls == want

    @pytest.mark.parametrize("fd", [False, True], ids=["analytic", "fd"])
    def test_nonlinear_solve_call_counts(self, fd):
        # Two Gauss-Newton steps: the loss at xi = 0, at the full first step
        # and at the converged second step, and two Jacobians (18 residual
        # calls each by finite differences).
        calls = {"residual": 0, "partials": 0}
        problem = counted(benchmark("p5").problem, calls, fd)
        report = solve(problem, SolverConfig(n_points=481, m_basis=60)).report
        assert report.iterations == 2
        want = {"residual": 3 + 2 * 18, "partials": 0} if fd else {"residual": 3, "partials": 2}
        assert calls == want


def node_x(problem, k):
    _, grid = build_system(problem, SolverConfig())
    return float(grid.x_nodes[k])


def failing(fn, x_nan=(), exc=None):
    """fn with its results at the nodes x_nan scaled by NaN, or raising exc."""

    def wrapped(x, y):
        if exc is not None:
            raise exc
        value = np.array(fn(x, y), dtype=float)
        value[np.isin(x, x_nan)] *= np.nan
        return value

    return wrapped


@pytest.mark.parametrize("field", ["residual", "partials"])
class TestCallbackFailures:
    def assemble(self, field, **failure):
        p4 = benchmark("p4").problem
        problem = dataclasses.replace(p4, **{field: failing(getattr(p4, field), **failure)})
        ce, grid = build_system(problem, SolverConfig())
        return assemble_loss_and_jacobian(problem, ce, grid, np.zeros(10))

    def test_first_nonfinite_node_named(self, field):
        p4 = benchmark("p4").problem
        x3, x5 = node_x(p4, 3), node_x(p4, 5)
        with pytest.raises(EvaluationError, match=rf"^{field} is not finite at x={x3!r} \(got "):
            self.assemble(field, x_nan=(x5, x3))

    def test_exception_names_callback(self, field):
        exc = ZeroDivisionError("boom")
        with pytest.raises(EvaluationError, match=rf"^{field} raised ZeroDivisionError: boom$") as info:
            self.assemble(field, exc=exc)
        assert info.value.__cause__ is exc

    def test_package_error_passes_through(self, field):
        raised = ConfigurationError("early")
        with pytest.raises(ConfigurationError) as info:
            self.assemble(field, exc=raised)
        assert info.value is raised


class TestNonfiniteReporting:
    def test_message_prints_plain_floats(self):
        bc = BoundaryConditions(0.0, 1.0, (0.0,) * 4, (0.0,) * 4)
        p4 = benchmark("p4").problem
        problem = dataclasses.replace(p4, bc=bc, residual=lambda x, y: np.full(x.shape, np.nan))
        ce, grid = build_system(problem, SolverConfig())
        with pytest.raises(EvaluationError, match=r"^residual is not finite at x=0\.0 \(got nan\)$"):
            assemble_loss_and_jacobian(problem, ce, grid, np.zeros(10))

    def test_nan_partials_on_linear_problem(self):
        # The one-shot path used to return an all-NaN xi.
        p2 = benchmark("p2").problem
        half = node_x(p2, 5)
        problem = dataclasses.replace(p2, partials=failing(p2.partials, x_nan=(half,)))
        with pytest.raises(EvaluationError, match=rf"^partials is not finite at x={half!r} "):
            solve(problem)

    def test_infinite_partial_names_partials_and_its_node(self):
        # Used to surface one step later as a non-finite residual at x=0.0.
        p5 = benchmark("p5").problem
        problem = dataclasses.replace(p5, bc=BoundaryConditions.from_callable(0.0, 1.0, p5.exact))
        half = node_x(problem, 5)

        def partials(x, y):
            rows = p5.partials(x, y)
            return np.where((rows != 0.0) & (x == half)[:, None], np.inf, rows)

        with pytest.raises(EvaluationError, match=rf"^partials is not finite at x={half!r} "):
            solve(dataclasses.replace(problem, partials=partials))

    def test_nan_matrix_is_singular(self):
        with pytest.raises(SingularSystemError, match="column 0"):
            lstsq_scaled_qr(np.full((4, 2), np.nan), np.ones(4))
