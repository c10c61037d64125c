"""Whole-array collocation assembly against the per-node loops it replaces.

The oracle is the loop assembly: one residual call and one partials row
times a[:, k, :] per node.  The whole-array path makes the same scalar calls
and the same per-node gemv products, so equality is exact (np.array_equal),
not a tolerance.  The error cases pin the reporting rule: the first failing
node in node order wins, whether it raised or returned a non-finite value.
"""

import dataclasses
import functools
import math

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
        loss[k] = residual(tables.x[k], states[:, k])
    return loss


def loop_jacobian(partials, tables, xi):
    states = tables.states(xi)
    n = states.shape[1]
    jac = np.empty((n, tables.a.shape[2]))
    for k in range(n):
        jac[k] = np.asarray(partials(tables.x[k], states[:, k])) @ tables.a[:, k, :]
    return jac


@functools.lru_cache(maxsize=None)
def solved_xi(name, n_points, m_basis):
    return solve(benchmark(name).problem, SolverConfig(n_points=n_points, m_basis=m_basis)).report.xi


def coefficients(kind, name, n_points, m_basis):
    if kind == "zero":
        return np.zeros(m_basis)
    if kind == "tiny":
        # Larger coefficients overflow p5's math.exp(-8 y).
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


class TestCallCounts:
    def test_one_call_per_node(self):
        calls = {"residual": 0, "partials": 0}
        p4 = benchmark("p4").problem
        problem = dataclasses.replace(
            p4,
            residual=counting(p4.residual, calls, "residual"),
            partials=counting(p4.partials, calls, "partials"),
        )
        ce, grid = build_system(problem, SolverConfig(n_points=31, m_basis=30))
        assemble_loss_and_jacobian(problem, ce, grid, np.zeros(30))
        assert calls == {"residual": 31, "partials": 31}

    def test_nonlinear_solve_call_counts(self):
        # Three Gauss-Newton steps: four loss evaluations and three Jacobians,
        # as with the per-node loops.
        calls = {"residual": 0, "partials": 0}
        p5 = benchmark("p5").problem
        problem = dataclasses.replace(
            p5,
            residual=counting(p5.residual, calls, "residual"),
            partials=counting(p5.partials, calls, "partials"),
        )
        report = solve(problem, SolverConfig(n_points=481, m_basis=60)).report
        assert report.iterations == 3
        assert calls == {"residual": 4 * 481, "partials": 3 * 481}


def node_x(problem, k):
    _, grid = build_system(problem, SolverConfig())
    return float(grid.x_nodes[k])


def failing_at(fn, x_nan, x_raise, exc=ZeroDivisionError("boom")):
    """fn, except a NaN-scaled result at x_nan and a raise at x_raise."""

    def wrapped(x, y):
        if x == x_raise:
            raise exc
        value = fn(x, y)
        return value * math.nan if x == x_nan else value

    return wrapped


@pytest.mark.parametrize("field", ["residual", "partials"])
class TestFirstFailingNode:
    def assemble(self, field, x_nan, x_raise, exc=ZeroDivisionError("boom")):
        p4 = benchmark("p4").problem
        problem = dataclasses.replace(
            p4, **{field: failing_at(getattr(p4, field), x_nan, x_raise, exc)}
        )
        ce, grid = build_system(problem, SolverConfig())
        return assemble_loss_and_jacobian(problem, ce, grid, np.zeros(10))

    def test_nonfinite_before_raise(self, field):
        p4 = benchmark("p4").problem
        x3, x5 = node_x(p4, 3), node_x(p4, 5)
        with pytest.raises(EvaluationError, match=rf"{field} is not finite at x={x3!r} \(got "):
            self.assemble(field, x3, x5)

    def test_raise_before_nonfinite(self, field):
        p4 = benchmark("p4").problem
        x3, x5 = node_x(p4, 3), node_x(p4, 5)
        with pytest.raises(EvaluationError, match=rf"{field} raised ZeroDivisionError at x={x3!r}"):
            self.assemble(field, x5, x3)

    def test_nonfinite_before_package_error(self, field):
        p4 = benchmark("p4").problem
        x3, x5 = node_x(p4, 3), node_x(p4, 5)
        with pytest.raises(EvaluationError, match="not finite"):
            self.assemble(field, x3, x5, ConfigurationError("late"))

    def test_package_error_before_nonfinite(self, field):
        p4 = benchmark("p4").problem
        x3, x5 = node_x(p4, 3), node_x(p4, 5)
        raised = ConfigurationError("early")
        with pytest.raises(ConfigurationError) as info:
            self.assemble(field, x5, x3, raised)
        assert info.value is raised


class TestNonfiniteReporting:
    def test_message_prints_plain_floats(self):
        bc = BoundaryConditions(0.0, 1.0, (0.0,) * 4, (0.0,) * 4)
        p4 = benchmark("p4").problem
        problem = dataclasses.replace(p4, bc=bc, residual=lambda x, y: np.float64("nan"))
        ce, grid = build_system(problem, SolverConfig())
        with pytest.raises(EvaluationError, match=r"^residual is not finite at x=0\.0 \(got nan\)$"):
            assemble_loss_and_jacobian(problem, ce, grid, np.zeros(10))

    def test_nan_partials_on_linear_problem(self):
        # The one-shot path used to return an all-NaN xi.
        p2 = benchmark("p2").problem
        half = node_x(p2, 5)
        problem = dataclasses.replace(p2, partials=failing_at(p2.partials, half, None))
        with pytest.raises(EvaluationError, match=rf"^partials is not finite at x={half!r} "):
            solve(problem)

    def test_infinite_partial_names_partials_and_its_node(self):
        # Used to surface one step later as a non-finite residual at x=0.0.
        p5 = benchmark("p5").problem
        problem = dataclasses.replace(p5, bc=BoundaryConditions.from_callable(0.0, 1.0, p5.exact))
        half = node_x(problem, 5)

        def partials(x, y):
            row = p5.partials(x, y)
            return np.where(row != 0.0, math.inf, row) if x == half else row

        with pytest.raises(EvaluationError, match=rf"^partials is not finite at x={half!r} "):
            solve(dataclasses.replace(problem, partials=partials))

    def test_nan_matrix_is_singular(self):
        with pytest.raises(SingularSystemError, match="column 0"):
            lstsq_scaled_qr(np.full((4, 2), np.nan), np.ones(4))
