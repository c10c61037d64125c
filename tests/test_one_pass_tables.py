"""One-pass tables against the per-order constructions they replace.

The oracles are the nested-loop Chebyshev recurrence and the a rows built
one order at a time from it, stacked with the single-order b rows, the
switching values of each order times the constraint values.
The one-pass code does the same arithmetic on every element, so equality is
exact (np.array_equal), not a tolerance.  Products with the tables are
compared too: BLAS rounding depends on memory layout, so equal values in a
different layout can still give different states and Jacobians.

The solver reads its config's tables, built on [0, 1], on any domain of
width w through the scales w**-d.  A problem on [0, 1] is compared with the
per-order tables of its own expression; one on another domain (p5) with the
per-order tables of the same problem moved to [0, 1], read with those scales.
"""

import numpy as np
import pytest

from bvp8.basis import START_DEGREE, ChebyshevBasis, DomainMap, chebyshev_table, make_grid
from bvp8.expression import CONSTRAINT_ORDERS, BoundaryConditions, ConstrainedExpression
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


def per_order_a_row(ce, x, d):
    """a^{(d)}(x) at 1-D x, one order at a time: c**d h^{(d)}(z) - beta^{(d)}(x) B."""
    dm = ce.basis.domain_map
    h = loop_chebyshev_table(dm.to_z(x), ce.basis.max_degree, d)[d, START_DEGREE:].T
    return dm.c**d * h - ce.switching.eval(x, d) @ ce.boundary_basis_table


class PerOrderTables:
    """Collocation tables stacked from rows built one order at a time."""

    scale = np.ones(9)  # the tables are read where they were built

    def __init__(self, ce, grid):
        self.x = grid.x_nodes
        self.a = np.stack([per_order_a_row(ce, grid.x_nodes, d) for d in range(9)])
        self.b = np.stack([ce.switching.eval(grid.x_nodes, d) @ ce.constraint_values
                           for d in range(9)])

    def states(self, xi):
        return self.b + self.a @ xi


class UnitDomainTables(PerOrderTables):
    """PerOrderTables of `problem` moved to [0, 1], read at the nodes `grid` of its domain.

    With w = x_f - x_i and t = (x - x_i) / w, a^{(d)}(x) = w**-d a_1^{(d)}(t)
    and b^{(d)}(x) = w**-d b_1^{(d)}(t), where a_1 and b_1 belong to the
    expression on [0, 1] with the boundary values w**d_j v_j.
    """

    def __init__(self, problem, grid, m_basis):
        x_i, x_f = problem.domain
        w = x_f - x_i
        values = problem.bc.interleaved() * w ** np.array(CONSTRAINT_ORDERS, dtype=float)
        unit = DomainMap(0.0, 1.0)
        bc = BoundaryConditions(0.0, 1.0, tuple(values[0::2]), tuple(values[1::2]))
        super().__init__(ConstrainedExpression.build(ChebyshevBasis(m_basis, unit), bc),
                         make_grid(unit, grid.n_points))
        self.x = grid.x_nodes
        self.scale = w ** -np.arange(9.0)

    def states(self, xi):
        return super().states(xi) * self.scale[:, None]


def oracle_tables(problem, ce, grid):
    if problem.domain == (0.0, 1.0):
        return PerOrderTables(ce, grid)
    return UnitDomainTables(problem, grid, ce.basis.m)


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
        # The config's a rows and its switching values times the scaled
        # boundary values w**d_j v_j, against the per-order rows on [0, 1].
        problem, ce, grid = self.setup_problem(name, n_points, m_basis)
        tables = _CollocationTables(ce, grid, SolverConfig(n_points=n_points, m_basis=m_basis))
        oracle = oracle_tables(problem, ce, grid)
        assert tables.a.shape == (9, n_points, m_basis) and tables.a.flags.c_contiguous
        assert np.array_equal(tables.a, oracle.a)
        assert np.array_equal(tables._b, oracle.b)

    def test_a_row_matches_per_order_rows(self, name, n_points, m_basis):
        # a_row on the problem's own domain, one order of all nine.
        _, ce, grid = self.setup_problem(name, n_points, m_basis)
        for d in range(9):
            assert np.array_equal(ce.a_row(grid.x_nodes, d), per_order_a_row(ce, grid.x_nodes, d))

    def test_boundary_table_matches_per_constraint_rows(self, name, n_points, m_basis):
        _, ce, _ = self.setup_problem(name, n_points, m_basis)
        basis = ce.basis
        dm = basis.domain_map
        want = np.empty((8, basis.m))
        for k, d in enumerate((0, 0, 1, 1, 2, 2, 3, 3)):
            z = dm.z_0 if k % 2 == 0 else dm.z_f
            want[k] = dm.c**d * loop_chebyshev_table(z, basis.max_degree, d)[d, START_DEGREE:]
        assert np.array_equal(ce.boundary_basis_table, want)

    def test_states_and_jacobian_match_per_order_tables(self, name, n_points, m_basis):
        problem, ce, grid = self.setup_problem(name, n_points, m_basis)
        config = SolverConfig(n_points=n_points, m_basis=m_basis)
        # The solved coefficients: nonzero, and small enough that p5's
        # exp(-8 y) stays finite.
        xi = solve(problem, config).report.xi
        tables = _CollocationTables(ce, grid, config)
        oracle = oracle_tables(problem, ce, grid)
        assert np.array_equal(tables.states(xi), oracle.states(xi))
        partials = problem.partials
        assert np.array_equal(_jacobian(partials, tables, tables.states(xi)),
                              _jacobian(partials, oracle, oracle.states(xi)))
