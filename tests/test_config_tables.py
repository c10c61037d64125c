"""The collocation tables a SolverConfig builds once on [0, 1] and reuses.

A config builds its tables on its first solve.  Later solves with it, on
any domain, build no Chebyshev table, evaluate no switching polynomial and
build no switching derivative rows (`_deriv`, built on a solution's first
evaluation), and give the same bits as a fresh config.  The cache is
invisible to equality and hashing, read-only, and not carried by copies or
pickles.  A solve assembles only an expression and grid built from its
config's tables.
"""

import copy
import dataclasses
import pickle

import numpy as np
import pytest

import bvp8.basis
from bvp8.basis import CollocationGrid, DomainMap, make_grid
from bvp8.errors import ConfigurationError
from bvp8.expression import UNIT_COEFFS, SwitchingFunctions
from bvp8.problems import benchmark
from bvp8.solver import (
    SolverConfig, _CollocationTables, assemble_loss_and_jacobian, build_system, solve,
)

from test_domains import moved
from switching_oracle import unit_linear_solve
from test_one_pass_tables import PerOrderTables

PROBLEMS = ("p1", "p2", "p3", "p4", "p5", "p6", "p7")

#: The moved p1 domains of tests/test_domains.py, solved there at n=21, m=20.
MOVED = [(x_i, x_i + w) for x_i in (-10.0, 0.0, 1.0, 5.0, 10.0, 30.0) for w in (0.1, 1.0, 3.0)]


@pytest.fixture
def calls(monkeypatch):
    """Counts of chebyshev_table and SwitchingFunctions._eval_poly calls."""
    counts = {"chebyshev_table": 0, "_eval_poly": 0}

    def counted(key, fn):
        def wrapped(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(bvp8.basis, "chebyshev_table",
                        counted("chebyshev_table", bvp8.basis.chebyshev_table))
    monkeypatch.setattr(SwitchingFunctions, "_eval_poly",
                        counted("_eval_poly", SwitchingFunctions._eval_poly))
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
    assert calls["chebyshev_table"] > 0 and calls["_eval_poly"] > 0
    calls.update(chebyshev_table=0, _eval_poly=0)
    solve(problem, config)
    assert calls == {"chebyshev_table": 0, "_eval_poly": 0}


@pytest.mark.parametrize("name", PROBLEMS)
def test_second_solve_builds_no_switching_derivatives(name):
    config = SolverConfig(n_points=31, m_basis=30)
    problem = benchmark(name).problem
    first, second = solve(problem, config), solve(problem, config)
    for sol in (first, second):
        assert "_deriv" not in vars(sol.expression.switching)
    second(0.5 * sum(problem.domain), 3)
    deriv = vars(second.expression.switching)["_deriv"]
    assert deriv.shape == (9, 8, 8) and not deriv.flags.writeable
    assert "_deriv" not in vars(first.expression.switching)


def test_default_config_is_shared(calls):
    first = solve(benchmark("p4").problem)
    calls.update(chebyshev_table=0, _eval_poly=0)
    second = solve(benchmark("p5").problem)
    assert second.config is first.config
    assert calls == {"chebyshev_table": 0, "_eval_poly": 0}


def test_cached_arrays_are_read_only():
    tables = SolverConfig()._tables
    for table in tables:
        assert not table.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            table[...] = 0.0


def test_replaced_config_builds_its_own_tables():
    config = SolverConfig(n_points=11, m_basis=10)
    _, a, s, ends = config._tables
    wider = dataclasses.replace(config, n_points=31)
    _, a31, s31, ends31 = wider._tables
    assert a.shape == (9, 11, 10) and a31.shape == (9, 31, 10)
    assert s.shape == (9, 11, 8) and s31.shape == (9, 31, 8)
    assert np.array_equal(ends, ends31) and ends is not ends31
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
    # The tables hold the closed-form switching functions, the config's ends
    # table and its CGL nodes on ce's domain; any other expression or grid
    # would be assembled from rows that are not its own.
    problem = benchmark("p2").problem
    ce, grid = build_system(problem, SolverConfig())
    table = ce.boundary_basis_table.copy()
    table[0, 0] = np.nextafter(table[0, 0], np.inf)
    wider = DomainMap(0.0, 2.0)
    z = np.linspace(-1.0, 1.0, 11)
    others = [
        (dataclasses.replace(ce, switching=unit_linear_solve()), grid),
        (dataclasses.replace(ce, switching=SwitchingFunctions(UNIT_COEFFS, wider)), grid),
        (dataclasses.replace(ce, boundary_basis_table=table), grid),
        (ce, make_grid(wider, 11)),
        (ce, CollocationGrid(11, z, ce.basis.domain_map.to_x(z))),
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
    # domain, at every order but 7.  There b^(7) is a sum of eight constants
    # up to 1e6 that cancel to about 122; at (31, 30) it rounds 2.6e-11 off
    # on the [0, 1] path against 1.9e-11 on the per-domain one, and the
    # order-7 state error reads 1.02e-10 against 9.6e-11.
    problem = benchmark("p5").problem
    config = SolverConfig(n_points=n_points, m_basis=m_basis)
    xi = solve(problem, config).report.xi
    ce, grid = build_system(problem, config)
    exact = np.array([problem.exact(grid.x_nodes, d) for d in range(9)])
    new = np.max(np.abs(_CollocationTables(ce, grid, config).states(xi) - exact), axis=1)
    old = np.max(np.abs(PerOrderTables(ce, grid).states(xi) - exact), axis=1)
    orders = [0, 1, 2, 3, 4, 5, 6, 8]
    assert np.all(new[orders] <= old[orders]), (new, old)
