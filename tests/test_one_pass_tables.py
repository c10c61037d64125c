"""One-pass tables against the per-order constructions they replace.

The oracles are the nested-loop Chebyshev recurrence and the stacking of the
single-order a_row / b_value rows.  The one-pass code does the same
arithmetic on every element, so equality is exact (np.array_equal), not a
tolerance.  Products with the tables are compared too: BLAS rounding depends
on memory layout, so equal values in a different layout can still give
different states and Jacobians.
"""

import numpy as np
import pytest

from bvp8.basis import chebyshev_table
from bvp8.problems import benchmark
from bvp8.solver import SolverConfig, _CollocationTables, _jacobian, build_system, solve

PROBLEMS = ("p1", "p2", "p3", "p4", "p5", "p6", "p7")
SIZES = ((11, 10), (31, 30), (481, 60))


def loop_chebyshev_table(z, max_degree, max_order):
    """The scalar-order recurrence, one order at a time within each degree."""
    z = np.asarray(z, dtype=float)
    table = np.zeros((max_order + 1, max_degree + 1) + z.shape)
    table[0, 0] = 1.0
    if max_degree >= 1:
        table[0, 1] = z
        if max_order >= 1:
            table[1, 1] = 1.0
    for k in range(1, max_degree):
        table[0, k + 1] = 2.0 * z * table[0, k] - table[0, k - 1]
        for p in range(1, max_order + 1):
            table[p, k + 1] = (
                2.0 * p * table[p - 1, k]
                + 2.0 * z * table[p, k]
                - table[p, k - 1]
            )
    return table


class PerOrderTables:
    """Collocation tables stacked from the single-order read path."""

    def __init__(self, ce, grid):
        self.x = grid.x_nodes
        self.a = np.stack([ce.a_row(grid.x_nodes, d) for d in range(9)])
        self.b = np.stack([ce.b_value(grid.x_nodes, d) for d in range(9)])

    def states(self, xi):
        return self.b + self.a @ xi


class TestChebyshevTable:
    @pytest.mark.parametrize(
        "z",
        [0.3, -1.0, np.linspace(-1.0, 1.0, 17), np.array([[-0.9, 0.1, 0.7], [1.0, -0.25, 0.0]])],
        ids=["scalar", "scalar-endpoint", "1d", "2d"],
    )
    @pytest.mark.parametrize("max_degree, max_order", [(67, 8), (20, 3), (20, 0), (0, 8), (1, 8), (1, 0)])
    def test_matches_loop_recurrence(self, z, max_degree, max_order):
        got = chebyshev_table(z, max_degree, max_order)
        want = loop_chebyshev_table(z, max_degree, max_order)
        assert got.shape == want.shape
        assert np.array_equal(got, want)


@pytest.mark.parametrize("n_points, m_basis", SIZES)
@pytest.mark.parametrize("name", PROBLEMS)
class TestCollocationTables:
    def setup_problem(self, name, n_points, m_basis):
        problem = benchmark(name).problem
        ce, grid = build_system(problem, SolverConfig(n_points=n_points, m_basis=m_basis))
        return problem, ce, grid

    def test_one_pass_matches_per_order_rows(self, name, n_points, m_basis):
        _, ce, grid = self.setup_problem(name, n_points, m_basis)
        a, b = ce.tables(grid.x_nodes)
        oracle = PerOrderTables(ce, grid)
        assert a.shape == (9, n_points, m_basis) and a.flags.c_contiguous
        assert np.array_equal(a, oracle.a)
        assert np.array_equal(b, oracle.b)

    def test_boundary_table_matches_per_constraint_rows(self, name, n_points, m_basis):
        _, ce, _ = self.setup_problem(name, n_points, m_basis)
        basis = ce.basis
        dm = basis.domain_map
        want = np.empty((8, basis.m))
        for k, d in enumerate((0, 0, 1, 1, 2, 2, 3, 3)):
            z = dm.z_0 if k % 2 == 0 else dm.z_f
            want[k] = dm.c**d * loop_chebyshev_table(z, basis.max_degree, d)[d, basis.start_degree:]
        assert np.array_equal(ce.boundary_basis_table, want)

    def test_states_and_jacobian_match_per_order_tables(self, name, n_points, m_basis):
        problem, ce, grid = self.setup_problem(name, n_points, m_basis)
        # The solved coefficients: nonzero, and small enough that p5's
        # exp(-8 y) stays finite.
        xi = solve(problem, SolverConfig(n_points=n_points, m_basis=m_basis)).report.xi
        tables = _CollocationTables(ce, grid)
        oracle = PerOrderTables(ce, grid)
        assert np.array_equal(tables.states(xi), oracle.states(xi))
        partials = problem.partials
        assert np.array_equal(_jacobian(partials, tables, xi), _jacobian(partials, oracle, xi))
