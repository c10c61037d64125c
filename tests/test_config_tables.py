"""The collocation tables a SolverConfig builds once on [0, 1] and reuses.

A config builds its tables on its first solve.  Later solves with it, on
any domain, build no Chebyshev table, and give the same bits as a fresh
config.  The cache is
invisible to equality and hashing, read-only, and not carried by copies or
pickles.  The least-squares preconditioner is cached apart, at the first
solve, so assembly alone never builds it.  A solve assembles only an
expression and grid built from its config's tables.
"""

import copy
import dataclasses
import pickle

import numpy as np
import pytest

import bvp8.basis
import bvp8.expression
from bvp8.basis import CollocationGrid, DomainMap, make_grid
from bvp8.errors import ConfigurationError
from bvp8.expression import ConstrainedExpression
from bvp8.problems import benchmark
from bvp8.solver import (
    SolverConfig, _CollocationTables, assemble_loss_and_jacobian, build_system, solve,
)

from test_domains import moved
from test_one_pass_tables import PerOrderTables

PROBLEMS = ("p1", "p2", "p3", "p4", "p5", "p6", "p7")

#: The moved p1 domains of tests/test_domains.py, solved there at n=21, m=20.
MOVED = [(x_i, x_i + w) for x_i in (-10.0, 0.0, 1.0, 5.0, 10.0, 30.0) for w in (0.1, 1.0, 3.0)]


@pytest.fixture
def calls(monkeypatch):
    """Counts of chebyshev_table calls, from basis (for series_map) and expression (the tables)."""
    counts = {"chebyshev_table": 0}
    table = bvp8.basis.chebyshev_table

    def counted(*args, **kwargs):
        counts["chebyshev_table"] += 1
        return table(*args, **kwargs)

    for module in (bvp8.basis, bvp8.expression):
        monkeypatch.setattr(module, "chebyshev_table", counted)
    return counts


def fingerprint(sol):
    report = sol.report
    return (report.xi.tobytes(), report.residual_norm_history.tobytes(),
            report.iterations, report.converged_by)


@pytest.mark.parametrize("name", PROBLEMS)
def test_second_solve_builds_no_table(name, calls):
    config = SolverConfig(n_points=31, m_basis=30)
    problem = benchmark(name).problem
    solve(problem, config)
    assert calls["chebyshev_table"] == 2  # the ends of series_map and the order-8 table
    calls.update(chebyshev_table=0)
    solve(problem, config)
    assert calls == {"chebyshev_table": 0}


@pytest.mark.parametrize("name", PROBLEMS)
def test_second_solve_builds_no_switching_derivatives(name, monkeypatch):
    # The Chebyshev terms of the switching series are tabulated only by
    # ConstrainedExpression._rows, once, in the config's first solve; a second
    # solve and evaluating either solution tabulate none.
    calls = []
    rows = ConstrainedExpression._rows

    def counted(*args, **kwargs):
        calls.append("_rows")
        return rows(*args, **kwargs)

    monkeypatch.setattr(ConstrainedExpression, "_rows", counted)
    config = SolverConfig(n_points=31, m_basis=30)
    problem = benchmark(name).problem
    first = solve(problem, config)
    assert calls == ["_rows"]
    second = solve(problem, config)
    for sol in (first, second):
        sol(0.5 * sum(problem.domain), 3)
    assert calls == ["_rows"]


def test_default_config_is_shared(calls):
    first = solve(benchmark("p4").problem)
    calls.update(chebyshev_table=0)
    second = solve(benchmark("p5").problem)
    assert second.config is first.config
    assert calls == {"chebyshev_table": 0}


def test_cached_arrays_are_read_only():
    tables = SolverConfig()._tables
    for table in tables:
        assert not table.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            table[...] = 0.0


@pytest.mark.parametrize("n_points, m_basis", [(11, 10), (31, 30), (481, 60)])
def test_preconditioner_is_built_by_solve_not_by_assembly(n_points, m_basis):
    # P = R^-1, R of the QR of the order-8 table: a^(8) P has orthonormal
    # columns, to 3e-9 at (481, 60), where cond(R) is 7e15.
    problem = benchmark("p4").problem
    config = SolverConfig(n_points=n_points, m_basis=m_basis)
    ce, grid = build_system(problem, config)
    assemble_loss_and_jacobian(problem, ce, grid, np.zeros(m_basis), config)
    assert "_tables" in vars(config) and "_precond" not in vars(config)
    solve(problem, config)
    precond = config._precond
    assert not precond.flags.writeable and np.array_equal(precond, np.triu(precond))
    q = config._tables[1][8] @ precond
    assert np.max(np.abs(q.T @ q - np.eye(m_basis))) <= 1e-8


def test_replaced_config_builds_its_own_tables():
    config = SolverConfig(n_points=11, m_basis=10)
    _, a, low, series_map = config._tables
    wider = dataclasses.replace(config, n_points=31)
    _, a31, low31, series_map31 = wider._tables
    assert a.shape == (9, 11, 10) and a31.shape == (9, 31, 10)
    assert low.shape == (9, 11, 8) and low31.shape == (9, 31, 8)
    assert series_map.shape == (18, 10)
    assert np.array_equal(series_map, series_map31) and series_map is not series_map31
    assert config._tables[1] is a


def test_equality_and_hash_ignore_the_cache():
    solved, fresh = SolverConfig(), SolverConfig()
    solve(benchmark("p1").problem, solved)
    assert solved == fresh and hash(solved) == hash(fresh)
    assert repr(solved) == repr(fresh)
    assert dataclasses.asdict(solved) == dataclasses.asdict(fresh)
    assert len({solved, fresh}) == 1


def test_tables_of_another_size_or_basis_rejected():
    # The tables assume the grid size and the basis size of the config;
    # assembling with others would read wrong rows.
    problem = benchmark("p1").problem
    ce, grid = build_system(problem, SolverConfig())
    for config in (SolverConfig(n_points=12, m_basis=10), SolverConfig(n_points=11, m_basis=9)):
        with pytest.raises(ConfigurationError, match="do not match"):
            assemble_loss_and_jacobian(problem, ce, grid, np.zeros(10), config)


def test_expression_or_grid_not_built_from_the_config_rejected():
    # The tables hold the config's series_map and its CGL nodes on
    # ce's domain; any other expression or grid would be assembled from rows
    # that are not its own.
    problem = benchmark("p2").problem
    ce, grid = build_system(problem, SolverConfig())
    series_map = ce.series_map.copy()
    series_map[0, 0] = np.nextafter(series_map[0, 0], np.inf)
    wider = DomainMap(0.0, 2.0)
    z = np.linspace(-1.0, 1.0, 11)
    others = [
        (dataclasses.replace(ce, series_map=series_map), grid),
        (dataclasses.replace(ce, series_map=ce.series_map[:-1]), grid),
        (dataclasses.replace(ce, bc=dataclasses.replace(ce.bc, x_f=2.0)), grid),
        (ce, make_grid(wider, 11)),
        (ce, CollocationGrid(11, z, ce.bc.domain_map.to_x(z))),
    ]
    for other_ce, other_grid in others:
        with pytest.raises(ConfigurationError, match="do not match"):
            assemble_loss_and_jacobian(problem, other_ce, other_grid, np.zeros(10))


@pytest.mark.parametrize("copy_of", [copy.copy, copy.deepcopy,
                                     lambda config: pickle.loads(pickle.dumps(config))],
                         ids=["copy", "deepcopy", "pickle"])
def test_copies_build_their_own_read_only_tables(copy_of):
    config = SolverConfig(n_points=31, m_basis=30)
    solve(benchmark("p4").problem, config)
    copied = copy_of(config)
    assert copied == config and "_tables" not in vars(copied) and "_precond" not in vars(copied)
    assert len(pickle.dumps(config)) < 1000
    for table, original in zip(copied._tables, config._tables):
        assert table is not original and np.array_equal(table, original)
        assert not table.flags.writeable


@pytest.mark.parametrize("n_points, m_basis", [(11, 10), (31, 30)])
def test_shared_config_matches_fresh_configs(n_points, m_basis):
    shared = SolverConfig(n_points=n_points, m_basis=m_basis)
    problems = [benchmark(name).problem for name in PROBLEMS]
    once = [fingerprint(solve(p, shared)) for p in problems]
    fresh = [fingerprint(solve(p, SolverConfig(n_points=n_points, m_basis=m_basis)))
             for p in problems]
    assert once == fresh


def test_shared_config_matches_fresh_configs_on_moved_domains():
    shared = SolverConfig(n_points=21, m_basis=20)
    problems = [moved("p1", x_i, x_f) for x_i, x_f in MOVED]
    once = [fingerprint(solve(p, shared)) for p in problems]
    fresh = [fingerprint(solve(p, SolverConfig(n_points=21, m_basis=20))) for p in problems]
    assert len(problems) == 18 and once == fresh


@pytest.mark.parametrize("n_points, m_basis", [(31, 30), (481, 60)])
def test_p5_states_no_further_from_exact_than_per_domain_tables(n_points, m_basis):
    # At the solved xi, the states read from the [0, 1] tables are at least as
    # close to the exact derivatives as those of tables built on p5's own
    # domain through the monomials, at every order but 7.  There b^(7) is a
    # sum of eight constants up to 1e6 that cancel to about 122, and both
    # paths read the order-7 states at the roundoff of those terms: 9.0e-11
    # against 9.6e-11 at (31, 30).  The [0, 1] path sums b's terms in the
    # Chebyshev series, before the derivatives grow them; summed after
    # tabulating the switching values it would lose at orders 5 and 6.  The
    # closest order is 6 at (31, 30): 2.9e-11 against 3.3e-11.
    problem = benchmark("p5").problem
    config = SolverConfig(n_points=n_points, m_basis=m_basis)
    xi = solve(problem, config).report.xi
    ce, grid = build_system(problem, config)
    exact = np.array([problem.exact(grid.x_nodes, d) for d in range(9)])
    new = np.max(np.abs(_CollocationTables(ce, grid, config).states(xi) - exact), axis=1)
    old = np.max(np.abs(PerOrderTables(ce, grid).states(xi) - exact), axis=1)
    orders = [0, 1, 2, 3, 4, 5, 6, 8]
    assert np.all(new[orders] <= old[orders]), (new, old)
