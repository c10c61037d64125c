"""Accuracy on shifted and narrow domains, and the domain check.

The switching functions are evaluated at t = (x - x_i) / w, so the solver
sees the same unit-domain table wherever the domain sits and however wide it
is.  The operators of p1 and p6 keep their exact solutions on any domain, so
moving their boundary data moves the problem.  A problem's BoundaryConditions
check its domain once and keep the DomainMap that every solve shares.
"""

import dataclasses
import math

import numpy as np
import pytest

import bvp8.basis
from bvp8.basis import DomainMap, make_grid
from bvp8.errors import ConfigurationError
from bvp8.expression import BoundaryConditions
from bvp8.problems import benchmark
from bvp8.solver import SolverConfig, solve


def moved(name, x_i, x_f):
    """Benchmark `name` with its boundary data read from the exact solution on [x_i, x_f]."""
    problem = benchmark(name).problem
    bc = BoundaryConditions.from_callable(x_i, x_f, problem.exact)
    return dataclasses.replace(problem, bc=bc)


def relative_error(problem, config=None):
    sol = solve(problem, config)
    xs = np.linspace(*problem.domain, 101)
    exact = problem.exact(xs, 0)
    return np.max(np.abs(sol(xs) - exact)) / np.max(np.abs(exact))


@pytest.mark.parametrize("x_i", [-10.0, 0.0, 1.0, 5.0, 10.0, 30.0])
@pytest.mark.parametrize("w", [0.1, 1.0, 3.0])
def test_linear_operator_on_shifted_domains(x_i, w):
    # p1: y^(8) - y = -8 e^x with exact (1 - x) e^x.
    err = relative_error(moved("p1", x_i, x_i + w), SolverConfig(n_points=21, m_basis=20))
    assert err <= 1e-13


@pytest.mark.parametrize("x_i,x_f", [
    (-3.0, -2.0), (1.0, 1.1), (5.0, 5.1), (10.0, 11.0), (0.0, 0.01),
])
def test_nonlinear_operator_on_shifted_domains(x_i, x_f):
    # p6: y^(8) + e^{-x} y^2 = e^{-x} + e^{-3x} with exact e^{-x}.
    assert relative_error(moved("p6", x_i, x_f)) <= 1e-13


@pytest.mark.parametrize("x_i,x_f", [
    (0.0, math.inf), (-math.inf, 0.0), (math.nan, 1.0), (-1e308, 1e308), (0.0, 1e-300),
])
def test_unusable_domain_rejected(x_i, x_f):
    with pytest.raises(ConfigurationError, match="domain"):
        BoundaryConditions(x_i, x_f, (0.0,) * 4, (0.0,) * 4)
    with pytest.raises(ConfigurationError, match="domain"):
        DomainMap(x_i, x_f)


@pytest.mark.parametrize("x_i, x_f, name", [
    ("a", "b", "x_i"), ("0", "1", "x_i"), (None, 1.0, "x_i"), (0.0, 1 + 0j, "x_f"),
    (0.0, [1.0], "x_f"), (True, 2.0, "x_i"),
])
def test_endpoint_that_is_not_a_real_number_rejected(x_i, x_f, name):
    # These used to raise a raw ValueError or TypeError.
    for build in (DomainMap, lambda a, b: BoundaryConditions(a, b, (0.0,) * 4, (0.0,) * 4)):
        with pytest.raises(ConfigurationError, match=f"^{name} must"):
            build(x_i, x_f)


def test_endpoints_kept_as_floats():
    # A float32 endpoint used to give c = np.float32(2.0).
    bc = BoundaryConditions(0, np.float32(1), (0.0,) * 4, (0.0,) * 4)
    for owner in (bc, bc.domain_map):
        assert (owner.x_i, owner.x_f) == (0.0, 1.0)
        assert type(owner.x_i) is float and type(owner.x_f) is float
    assert type(bc.domain_map.c) is float and bc.domain_map.c == 2.0
    assert bc == BoundaryConditions(0.0, 1.0, (0.0,) * 4, (0.0,) * 4)


@pytest.mark.parametrize("domain", [(0.0, 1.0), [0.0, 1.0], None])
def test_switching_functions_take_a_domain_map(domain):
    # The grid maps its nodes by a DomainMap; the expression reads its bc's.  A
    # tuple domain used to fail in make_grid with a raw AttributeError.
    with pytest.raises(ConfigurationError, match="^domain_map must be a DomainMap, got "):
        make_grid(domain, 11)


def counting_check_domain(monkeypatch) -> list:
    """The (x_i, x_f) of every check_domain call from now on."""
    calls, check_domain = [], bvp8.basis.check_domain

    def counted(x_i, x_f):
        calls.append((x_i, x_f))
        return check_domain(x_i, x_f)

    monkeypatch.setattr(bvp8.basis, "check_domain", counted)
    return calls


def test_boundary_conditions_check_their_domain_once(monkeypatch):
    calls = counting_check_domain(monkeypatch)
    BoundaryConditions(-0.5, 2.0, (0.0,) * 4, (0.0,) * 4)
    assert calls == [(-0.5, 2.0)]


@pytest.mark.parametrize("name", ["p1", "p4", "p5"])
def test_solve_checks_its_domain_once(name, monkeypatch):
    # The problem's BoundaryConditions checked the domain when it was built;
    # a solve reuses their DomainMap and makes no check of its own.
    problem, config = benchmark(name).problem, SolverConfig()
    solve(problem, config)  # builds the config's [0, 1] tables
    calls = counting_check_domain(monkeypatch)
    solve(problem, config)
    assert calls == []


@pytest.mark.parametrize("name", ["p1", "p4", "p7"])
def test_solve_shares_the_problems_domain_map(name):
    problem = benchmark(name).problem
    sol = solve(problem)
    assert sol.expression.bc is problem.bc
