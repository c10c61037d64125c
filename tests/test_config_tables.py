"""The collocation tables a SolverConfig builds once on [0, 1] and reuses.

A config builds its tables on its first solve.  Later solves with it, on
any domain, build no Chebyshev table, and give the same bits as a fresh
config.  The cache is
invisible to equality and hashing, read-only, and not carried by copies or
pickles.  The least-squares preconditioner P and the table a P are cached
apart, at the first solve, so assembly alone never builds them.  The
config alone fixes the expression and nodes a problem is assembled with.
"""

import copy
import dataclasses
import pickle

import numpy as np
import pytest

import bvp8.basis
import bvp8.expression
from bvp8.errors import ConfigurationError
from bvp8.expression import ConstrainedExpression
from bvp8.problems import benchmark
from bvp8.solver import (
    SolverConfig, _CollocationTables, assemble_linear, assemble_loss_and_jacobian, solve,
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
    # Solves and assemblies with no config all read the one default config's tables.
    first = solve(benchmark("p4").problem)
    calls.update(chebyshev_table=0)
    second = solve(benchmark("p5").problem)
    assert second.config is first.config
    assemble_linear(benchmark("p1").problem)
    assemble_loss_and_jacobian(benchmark("p4").problem, np.zeros(10))
    assert calls == {"chebyshev_table": 0}


def test_cached_arrays_are_read_only():
    config = SolverConfig()
    for table in config._tables:
        assert not table.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            table[...] = 0.0
    # P and a P own their data: no writeable array can reach them.
    assert all(table.flags.owndata for table in config._tables[4:])


@pytest.mark.parametrize("n_points, m_basis", [(11, 10), (31, 30), (481, 60)])
def test_preconditioner_is_built_with_the_tables(n_points, m_basis):
    # P = R^-1, R of the QR of the order-8 table: a^(8) P has orthonormal
    # columns, to 3e-9 at (481, 60), where cond(R) is 7e15.  The table a P
    # that each step forms K = J P from is a^(d) P for every order d, bit for bit.
    # The one build of the tables makes them, so an assembly alone builds them too.
    problem = benchmark("p4").problem
    config = SolverConfig(n_points=n_points, m_basis=m_basis)
    assemble_loss_and_jacobian(problem, np.zeros(m_basis), config)
    tables = vars(config)["_tables"]
    solve(problem, config)
    assert config._tables is tables
    _, a, _, _, precond, a_precond = tables
    assert not precond.flags.writeable and np.array_equal(precond, np.triu(precond))
    q = a[8] @ precond
    assert np.max(np.abs(q.T @ q - np.eye(m_basis))) <= 1e-8
    assert a_precond.shape == (9, n_points, m_basis) and not a_precond.flags.writeable
    for d in range(9):
        assert np.array_equal(a_precond[d], a[d] @ precond)


def test_replaced_config_builds_its_own_tables():
    config = SolverConfig(n_points=11, m_basis=10)
    _, a, low, series_map, *_ = config._tables
    wider = dataclasses.replace(config, n_points=31)
    _, a31, low31, series_map31, *_ = wider._tables
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
    # An xi has one entry per basis term of the config whose tables read it;
    # the tables of another basis size would read wrong rows.
    problem = benchmark("p1").problem
    for config in (SolverConfig(n_points=12, m_basis=11), SolverConfig(n_points=11, m_basis=9)):
        with pytest.raises(ConfigurationError, match=r"^xi must have shape \((11|9),\), got \(10,\)$"):
            assemble_loss_and_jacobian(problem, np.zeros(10), config)


@pytest.mark.parametrize("copy_of", [copy.copy, copy.deepcopy,
                                     lambda config: pickle.loads(pickle.dumps(config))],
                         ids=["copy", "deepcopy", "pickle"])
def test_copies_build_their_own_read_only_tables(copy_of):
    config = SolverConfig(n_points=31, m_basis=30)
    solve(benchmark("p4").problem, config)
    copied = copy_of(config)
    assert copied == config and "_tables" not in vars(copied)
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
    tables = _CollocationTables(problem, config)
    exact = np.array([problem.exact(tables.x, d) for d in range(9)])
    new = np.max(np.abs(tables.states(xi) - exact), axis=1)
    old = np.max(np.abs(PerOrderTables(tables.expression, tables.x).states(xi) - exact), axis=1)
    orders = [0, 1, 2, 3, 4, 5, 6, 8]
    assert np.all(new[orders] <= old[orders]), (new, old)
