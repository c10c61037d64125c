"""The collocation tables against per-order constructions through the monomials.

The oracles are the nested-loop Chebyshev recurrence, and the a rows built
one order at a time from it, c**d h^(d)(z) - beta^(d)(x) B, with the switching
values of switching_oracle (polyval of the monomial coefficients) and the
boundary basis table B = c**d_k T^(d_k)(z_k) of the basis terms at the
constraints, stacked with the single-order b rows, those switching values
times the constraint values.  The package reads a(x) as its Chebyshev table
times one matrix, series_map, instead, so the two agree to measured roundoff
bounds, not bit for bit: the a rows to 2e-13 of max|a^(d)|, the switching
values s and the states to 5e-14 of the size of their terms.  At the
endpoints both give exact zeros in a^(0..3).

The solver reads its config's tables, built on [0, 1], on any domain of
width w through the scales w**-d.  A problem on [0, 1] is compared with the
per-order tables of its own expression; one on another domain (p5) with the
per-order tables of the same problem moved to [0, 1], read with those scales.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from bvp8.basis import START_DEGREE, cgl_nodes, chebyshev_table
from bvp8.expression import CONSTRAINT_ORDERS, UNIT_CHEB, BoundaryConditions, ConstrainedExpression
from bvp8.problems import benchmark
from bvp8.solver import SolverConfig, _CollocationTables, _jacobian, solve

from switching_oracle import UNIT_COEFFS, Switching, switching_values, to_z
from test_domains import moved

PROBLEMS = ("p1", "p2", "p3", "p4", "p5", "p6", "p7")
SIZES = ((11, 10), (31, 30), (481, 60))

#: (x_i, x_f) of the unit domain, p5's [0, e**0.5 - 1], and moved or narrow ones.
DOMAINS = [(0.0, 1.0), (0.0, float(np.expm1(0.5))), (-10.0, -9.9), (30.0, 33.0), (5.0, 6.0)]


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


def boundary_table(ce):
    """B, row k c**d_k T^{(d_k)}(z_k) of ce's m basis terms at the k-th constraint."""
    rows = np.empty((8, ce.m))
    for k, d in enumerate(CONSTRAINT_ORDERS):
        z = -1.0 if k % 2 == 0 else 1.0
        rows[k] = ce.bc.c**d * loop_chebyshev_table(z, START_DEGREE + ce.m - 1, d)[d, START_DEGREE:]
    return rows


def monomials(ce):
    """The switching functions of ce's domain in monomial form, the rows UNIT_COEFFS."""
    return Switching(UNIT_COEFFS, ce.bc.x_i, ce.bc.x_f)


def per_order_a_row(ce, x, d, sw=None):
    """a^{(d)}(x) at 1-D x, one order at a time: c**d h^{(d)}(z) - beta^{(d)}(x) B.

    beta are the switching functions sw, by default UNIT_COEFFS.
    """
    h = loop_chebyshev_table(to_z(ce.bc, x), START_DEGREE + ce.m - 1, d)[d, START_DEGREE:].T
    return ce.bc.c**d * h - switching_values(sw or monomials(ce), x, d) @ boundary_table(ce)


class PerOrderTables:
    """Collocation tables of ce at the nodes x, stacked from rows built one order at a time,
    with the switching functions sw, by default UNIT_COEFFS."""

    scale = np.ones(9)  # the tables are read where they were built

    def __init__(self, ce, x, sw=None):
        sw = sw or monomials(ce)
        self.x = x
        self.a = np.stack([per_order_a_row(ce, x, d, sw) for d in range(9)])
        self.b = np.stack([switching_values(sw, x, d) @ ce.bc.interleaved() for d in range(9)])

    def states(self, xi):
        return self.b + self.a @ xi


class UnitDomainTables(PerOrderTables):
    """PerOrderTables of `problem` moved to [0, 1], read at the CGL nodes x of its domain.

    With w = x_f - x_i and t = (x - x_i) / w, a^{(d)}(x) = w**-d a_1^{(d)}(t)
    and b^{(d)}(x) = w**-d b_1^{(d)}(t), where a_1 and b_1 belong to the
    expression on [0, 1] with the boundary values w**d_j v_j.
    """

    def __init__(self, problem, x, m_basis):
        x_i, x_f = problem.domain
        w = x_f - x_i
        values = problem.bc.interleaved() * w ** np.array(CONSTRAINT_ORDERS, dtype=float)
        bc = BoundaryConditions(0.0, 1.0, tuple(values[0::2]), tuple(values[1::2]))
        super().__init__(ConstrainedExpression.build(bc, m_basis), bc.x_nodes(cgl_nodes(x.size)))
        self.x = x
        self.scale = w ** -np.arange(9.0)

    def states(self, xi):
        return super().states(xi) * self.scale[:, None]


def jacobian(partials, tables, states):
    """J at states by the solver's rows and per-node product, from tables' x, scale and a: a
    config's or an oracle's."""
    reader = SimpleNamespace(x=tables.x, scale=tables.scale, partials=partials)
    return _jacobian(_CollocationTables.rows(reader, states), tables.a)


def oracle_tables(problem, tables):
    """The oracle of a config's _CollocationTables of problem."""
    if problem.domain == (0.0, 1.0):
        return PerOrderTables(tables.expression, tables.x)
    return UnitDomainTables(problem, tables.x, tables.expression.m)


def state_terms(config, ce, xi):
    """|s| |w**d_j v_j| + |a| |xi| times w**-d: the size of the terms of each state,
    s the switching values on [0, 1], which the config's table low reads."""
    _, a, low, *_ = config._tables
    s = low @ UNIT_CHEB.T
    w = ce.bc.x_f - ce.bc.x_i
    v = w ** np.array(CONSTRAINT_ORDERS, dtype=float) * ce.bc.interleaved()
    return (np.abs(s) @ np.abs(v) + np.abs(a) @ np.abs(xi)) * w ** -np.arange(9.0)[:, None]


def assert_rows_close(got, want, bound):
    """|got - want| <= bound * max|want| in each order (the first axis)."""
    for d, (g, w) in enumerate(zip(got, want)):
        assert np.max(np.abs(g - w)) <= bound * np.max(np.abs(w)), d


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
        return problem, _CollocationTables(problem, SolverConfig(n_points, m_basis))

    def test_one_pass_matches_per_order_rows(self, name, n_points, m_basis):
        # The config's a rows, and its switching values times the scaled
        # boundary values w**d_j v_j, against the per-order rows on [0, 1].
        # Measured: a to 1.1e-13 of max|a^(d)|, b to 2.1e-14 of its terms.
        problem, tables = self.setup_problem(name, n_points, m_basis)
        config, ce = tables.config, tables.expression
        oracle = oracle_tables(problem, tables)
        assert tables.a.shape == (9, n_points, m_basis) and tables.a.flags.c_contiguous
        assert_rows_close(tables.a, oracle.a, 2e-13)
        terms = np.max(state_terms(config, ce, np.zeros(m_basis)), axis=1)
        assert np.all(np.max(np.abs(tables._b - oracle.b), axis=1) <= 5e-14 * terms)

    def test_a_row_matches_per_order_rows(self, name, n_points, m_basis):
        # a_row on the problem's own domain, one order at a time.
        _, tables = self.setup_problem(name, n_points, m_basis)
        ce, x = tables.expression, tables.x
        assert_rows_close([ce.a_row(x, d) for d in range(9)],
                          [per_order_a_row(ce, x, d) for d in range(9)], 2e-13)

    def test_series_map_matches_per_constraint_rows(self, name, n_points, m_basis):
        # a vanishes under every constraint operator: the row T^(d_k)(z_k) of
        # the degrees 0..7+m at the k-th constraint, from the loop recurrence,
        # times series_map is 0 up to the rounding of its terms (measured
        # 2.0e-16 of them).  With the identity in rows 8.., that fixes the map.
        ce = self.setup_problem(name, n_points, m_basis)[1].expression
        series_map = ce.series_map
        rows = np.array([loop_chebyshev_table(-1.0 if k % 2 == 0 else 1.0,
                                              START_DEGREE + ce.m - 1, d)[d]
                         for k, d in enumerate(CONSTRAINT_ORDERS)])
        assert series_map.shape == (8 + m_basis, m_basis) and not series_map.flags.writeable
        assert np.array_equal(series_map[START_DEGREE:], np.eye(m_basis))
        terms = np.abs(rows) @ np.abs(series_map)
        assert np.all(np.abs(rows @ series_map) <= 4 * np.finfo(float).eps * terms)

    def test_states_and_jacobian_match_per_order_tables(self, name, n_points, m_basis):
        # Measured: the states to 2.1e-14 of their terms, the Jacobian to
        # 3.1e-14 of its largest entry.
        problem, tables = self.setup_problem(name, n_points, m_basis)
        config, ce = tables.config, tables.expression
        # The solved coefficients: nonzero, and small enough that p5's
        # exp(-8 y) stays finite.
        xi = solve(problem, config).report.xi
        oracle = oracle_tables(problem, tables)
        gap = np.abs(tables.states(xi) - oracle.states(xi))
        assert np.all(np.max(gap, axis=1) <= 5e-14 * np.max(state_terms(config, ce, xi), axis=1))
        partials = problem.partials
        jac = jacobian(partials, oracle, oracle.states(xi))
        gap = jacobian(partials, tables, tables.states(xi)) - jac
        assert np.max(np.abs(gap)) <= 1e-13 * np.max(np.abs(jac))


@pytest.mark.parametrize("n_points, m_basis", SIZES)
def test_switching_values_match_the_monomials(n_points, m_basis):
    # The switching values s the config's table reads, its degrees 0..7 times
    # the Chebyshev series, against polyval of the monomial coefficients at
    # the [0, 1] nodes; measured to 3.3e-14.
    _, _, low, *_ = SolverConfig(n_points=n_points, m_basis=m_basis)._tables
    s = low @ UNIT_CHEB.T
    x = BoundaryConditions(0.0, 1.0, (0.0,) * 4, (0.0,) * 4).x_nodes(cgl_nodes(n_points))
    sw = Switching(UNIT_COEFFS, 0.0, 1.0)
    want = np.stack([switching_values(sw, x, d, snap=False) for d in range(9)])
    assert_rows_close(s[:8], want[:8], 5e-14)
    assert np.all(s[8] == 0.0) and np.all(want[8] == 0.0)


def assert_exact_ends(a):
    """a^(0..3) exactly 0 at the first (x_i) and last (x_f) x."""
    for d in range(4):
        assert np.all(a[d, [0, -1]] == 0.0), d


@pytest.mark.parametrize("n_points, m_basis", SIZES)
def test_tables_are_exact_at_the_ends(n_points, m_basis):
    # Criterion 02 reads the constraints through these rows to 1e-12.  The
    # config's table a and _rows at its nodes hold the exact zeros there.
    config = SolverConfig(n_points=n_points, m_basis=m_basis)
    tables = _CollocationTables(benchmark("p1").problem, config)  # p1 is on [0, 1]
    a, _ = tables.expression._rows(tables.x, config._tables[0], 8)
    assert_exact_ends(config._tables[1])
    assert np.array_equal(a, config._tables[1])


def build_on(x_i, x_f, m_basis):
    """An expression of m_basis terms on [x_i, x_f], its map built by build."""
    bc = BoundaryConditions(x_i, x_f, (1.0, -2.0, 0.5, 3.0), (0.25, 1.5, -1.0, 2.0))
    return ConstrainedExpression.build(bc, m_basis)


@pytest.mark.parametrize("n_points, m_basis", SIZES)
@pytest.mark.parametrize("x_i, x_f", DOMAINS)
def test_series_map_is_the_same_on_every_domain(x_i, x_f, n_points, m_basis):
    # Row j of the switching part scales by w**d_j (2/w)**d_j = 2**d_j, which
    # the map holds exactly, so every domain has the config's map, bit for bit.
    config = SolverConfig(n_points=n_points, m_basis=m_basis)
    series_map = build_on(x_i, x_f, m_basis).series_map
    assert not series_map.flags.writeable
    assert np.array_equal(series_map, config._tables[3])


@pytest.mark.parametrize("n_points, m_basis", SIZES)
@pytest.mark.parametrize("x_i, x_f", DOMAINS)
def test_a_row_is_the_scaled_config_table_on_every_domain(x_i, x_f, n_points, m_basis):
    # a^(d)(x) = w**-d a_1^(d)(t): the table of [x_i, x_f] at the config's
    # nodes z is the config's [0, 1] table times w**-d, measured to 6.4e-16
    # of max|a^(d)| (the scales c**d and w**-d 2**d round apart).  a_row reads
    # the nodes x at to_z(x), up to 1.8e-14 off z on [-10, -9.9], so it is
    # compared bit for bit with the table there.  a^(0..3) is exactly 0 at
    # both ends in all three.
    config = SolverConfig(n_points=n_points, m_basis=m_basis)
    z, a, *_ = config._tables
    ce = build_on(x_i, x_f, m_basis)
    x = ce.bc.x_nodes(z)
    table = ce._rows(x, z, 8)[0]
    assert_rows_close(table, (x_f - x_i) ** -np.arange(9.0)[:, None, None] * a, 1e-14)
    rows = np.stack([ce.a_row(x, d) for d in range(9)])
    assert np.array_equal(rows, ce._rows(x, to_z(ce.bc, x), 8)[0])
    for got in (a, table, rows):
        assert_exact_ends(got)


@pytest.mark.parametrize("case", [("p1", x_i, x_i + w) for x_i in (-10.0, 5.0, 30.0)
                                  for w in (0.1, 3.0)]
                         + [("p6", -3.0, -2.0), ("p6", 1.0, 1.1), ("p6", 0.0, 0.01)])
def test_a_row_is_exact_at_the_ends_and_one_order_of_the_full_build(case):
    problem = moved(*case)
    for n_points, m_basis in SIZES:
        tables = _CollocationTables(problem, SolverConfig(n_points=n_points, m_basis=m_basis))
        ce = tables.expression
        x, z, _, _ = ce.bc.checked_z(tables.x)
        a, _ = ce._rows(x, z, 8)
        assert_exact_ends(a)
        ends = np.array([problem.bc.x_i, problem.bc.x_f])
        assert all(np.all(ce.a_row(ends, d) == 0.0) for d in range(4))
        for d in range(9):
            # a_row tabulates orders 0..d only; the recurrence gives the same bits.
            assert np.array_equal(ce.a_row(x, d), a[d]), d


def points(x_i, x_f, rng):
    """Scalars (the endpoints, a float, a numpy scalar, a 0-d array), a (N,) array
    holding both endpoints, and a (2, 3) array, all in [x_i, x_f]."""
    w = x_f - x_i
    line = np.concatenate([[x_i, x_f], rng.uniform(x_i, x_f, 257)])
    return [x_i, x_f, x_i + 0.3 * w, np.float64(x_i + 0.7 * w), np.array(x_i + 0.5 * w),
            line, rng.uniform(x_i, x_f, (2, 3))]


@pytest.mark.parametrize("x_i, x_f", DOMAINS)
def test_rows_match_the_monomials_at_any_points(x_i, x_f):
    # _rows of an expression on [x_i, x_f] against polyval of the monomial
    # coefficients, for every max_order and for scalar, 1-D and 2-D points:
    # its degrees 0..7, low, times the switching series (w**d_j UNIT_CHEB[j]
    # for each unit row) are the switching values.  Compared per order in unit-domain
    # terms, the values divided by w**(d_j - d); measured to 3.4e-14 of
    # max|u^(d)| on the domain (and exactly 0 at order 8).  a^(0..3) is
    # exactly 0 at the ends.
    sw = Switching(UNIT_COEFFS, x_i, x_f)
    m = 6
    bc = BoundaryConditions(x_i, x_f, (0.0,) * 4, (0.0,) * 4)
    ce = ConstrainedExpression.build(bc, m)
    series = ((bc.x_f - bc.x_i) ** np.array(CONSTRAINT_ORDERS, dtype=float) * np.eye(8)) @ UNIT_CHEB
    scale = (x_f - x_i) ** (np.array(CONSTRAINT_ORDERS, dtype=float) - np.arange(9.0)[:, None])
    xs = points(x_i, x_f, np.random.default_rng(7))
    # max|u^(d)| over the domain, from the (N,) array, which holds both ends.
    size = np.max(np.abs(np.stack([switching_values(sw, xs[5], d) for d in range(9)])
                         / scale[:, None]), axis=(1, 2))
    for x in xs:
        x, z, _, _ = bc.checked_z(x)
        for max_order in range(9):
            a, low = ce._rows(x, z, max_order)
            assert a.shape == (max_order + 1,) + np.shape(x) + (m,)
            assert low.shape == (max_order + 1,) + np.shape(x) + (8,)
            for d in range(max_order + 1):
                gap = np.abs(low[d] @ series.T - switching_values(sw, x, d, snap=False)) / scale[d]
                assert np.max(gap, initial=0.0) <= 5e-14 * size[d], (x, max_order, d)
                if d < 4:
                    assert np.all(a[d][(x == x_i) | (x == x_f)] == 0.0), d
