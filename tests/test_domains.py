"""Accuracy on shifted and narrow domains, and the domain check.

The switching functions are evaluated at t = (x - x_i) / w, so the solver
sees the same unit-domain table wherever the domain sits and however wide it
is.  The operators of p1 and p6 keep their exact solutions on any domain, so
moving their boundary data moves the problem.
"""

import dataclasses
import math

import numpy as np
import pytest

import bvp8.basis
import bvp8.expression
from bvp8.basis import DomainMap
from bvp8.errors import ConfigurationError
from bvp8.expression import UNIT_COEFFS, BoundaryConditions, SwitchingFunctions
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
    with pytest.raises(ConfigurationError, match="domain"):
        SwitchingFunctions.closed_form(x_i, x_f)
    with pytest.raises(ConfigurationError, match="domain"):
        SwitchingFunctions(UNIT_COEFFS, x_i, x_f)


@pytest.mark.parametrize("name", ["p1", "p4", "p5"])
def test_solve_checks_its_domain_once(name, monkeypatch):
    # The problem's BoundaryConditions checked the domain when it was built;
    # a solve builds the DomainMap (one check) and its switching functions
    # from that map (no second check).
    calls = []

    def counted(x_i, x_f):
        calls.append((x_i, x_f))
        return check_domain(x_i, x_f)

    check_domain = bvp8.basis.check_domain
    problem, config = benchmark(name).problem, SolverConfig()
    solve(problem, config)  # builds the config's [0, 1] tables
    for module in (bvp8.basis, bvp8.expression):
        monkeypatch.setattr(module, "check_domain", counted)
    solve(problem, config)
    assert calls == [problem.domain]
