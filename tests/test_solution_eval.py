"""Solution.__call__ (Clenshaw on the cached derivative series) against ce.eval.

ConstrainedExpression.eval builds a(x) from the Chebyshev table for any xi
and serves as the oracle for the fixed-xi read path of a solved Solution.
"""

import functools

import numpy as np
import pytest

from bvp8 import SolverConfig, basis, solve
from bvp8.problems import PROBLEM_NAMES, benchmark

SIZES = [(11, 10), (31, 30), (481, 60)]
ORDERS = range(9)


@functools.lru_cache(maxsize=None)
def solved(name, n, m):
    return solve(benchmark(name).problem, SolverConfig(n_points=n, m_basis=m))


def eval_points(sol):
    x = np.random.default_rng(0).uniform(*sol.problem.domain, 2048)
    return np.concatenate([sol.grid.x_nodes, x])


@pytest.mark.parametrize("n,m", SIZES)
@pytest.mark.parametrize("name", PROBLEM_NAMES)
def test_matches_expression_eval(name, n, m):
    sol = solved(name, n, m)
    x = eval_points(sol)
    for d in ORDERS:
        oracle = sol.expression.eval(x, d, sol.report.xi)
        got = sol(x, d)
        assert got.shape == x.shape
        tol = 1e-14 * max(1.0, np.max(np.abs(oracle)))
        assert np.max(np.abs(got - oracle)) <= tol, f"order {d}"


@pytest.mark.parametrize("n,m", SIZES)
@pytest.mark.parametrize("name", PROBLEM_NAMES)
def test_endpoints_return_boundary_data_exactly(name, n, m):
    sol = solved(name, n, m)
    bc = sol.problem.bc
    ends = np.array([bc.x_i, bc.x_f])
    for d in range(4):
        assert sol(bc.x_i, d) == bc.left_values[d]
        assert sol(bc.x_f, d) == bc.right_values[d]
        assert np.array_equal(sol(ends, d), [bc.left_values[d], bc.right_values[d]])


def test_scalar_gives_zero_dimensional_result():
    sol = solved("p5", 11, 10)
    for x in (0.3, sol.problem.bc.x_i, sol.problem.bc.x_f):
        for d in ORDERS:
            value = sol(x, d)
            assert isinstance(value, np.floating) and np.ndim(value) == 0
            assert value == pytest.approx(sol(np.array([x]), d)[0], rel=1e-14, abs=1e-14)


def test_list_matches_array():
    sol = solved("p1", 11, 10)
    for d in ORDERS:
        assert np.array_equal(sol([0.0, 0.1, 0.5, 1.0], d), sol(np.array([0.0, 0.1, 0.5, 1.0]), d))


@pytest.mark.parametrize("order", [9, -1])
def test_order_out_of_range_raises(order):
    with pytest.raises(ValueError, match="order"):
        solved("p1", 11, 10)(0.5, order)


def test_point_outside_domain_raises():
    sol = solved("p6", 11, 10)
    x_i, x_f = sol.problem.domain
    for x in (x_i - 1e-3, x_f + 1e-3, np.nan):
        with pytest.raises(ValueError, match="outside"):
            sol(np.array([0.5, x]), 2)


def test_builds_no_chebyshev_table(monkeypatch):
    sol = solve(benchmark("p4").problem, SolverConfig(n_points=31, m_basis=30))
    calls = []
    table = basis.chebyshev_table

    def counting(*args, **kwargs):
        calls.append(args)
        return table(*args, **kwargs)

    monkeypatch.setattr(basis, "chebyshev_table", counting)
    x = eval_points(sol)
    for d in ORDERS:
        sol(x, d)
    assert calls == []
    sol.expression.eval(x, 0, sol.report.xi)
    assert len(calls) == 1
