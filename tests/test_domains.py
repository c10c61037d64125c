"""Accuracy on shifted and narrow domains, and the domain check.

The switching functions are evaluated at t = (x - x_i) / w, so the solver
sees the same unit-domain table wherever the domain sits and however wide it
is.  The operators of p1 and p6 keep their exact solutions on any domain, so
moving their boundary data moves the problem.  A problem's BoundaryConditions
check its domain once and are the map z = -1 + c (x - x_i) that every solve shares.
"""

import dataclasses
import math
import re

import numpy as np
import pytest

import bvp8.expression
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


OUT_OF_RANGE = "domain [{}, {}] out of range: w, w**3, (2/w)**8 not finite"

#: The message of each unusable domain, in full.
UNUSABLE = {
    (0.0, math.inf): OUT_OF_RANGE.format(0.0, math.inf),
    (-math.inf, 0.0): OUT_OF_RANGE.format(-math.inf, 0.0),
    (math.nan, 1.0): "degenerate domain: x_f=1.0 must exceed x_i=nan",
    (-1e308, 1e308): OUT_OF_RANGE.format(-1e308, 1e308),
    (0.0, 1e-300): OUT_OF_RANGE.format(0.0, 1e-300),
}


@pytest.mark.parametrize("x_i,x_f", list(UNUSABLE))
def test_unusable_domain_rejected(x_i, x_f):
    with pytest.raises(ConfigurationError, match=f"^{re.escape(UNUSABLE[x_i, x_f])}$"):
        BoundaryConditions(x_i, x_f, (0.0,) * 4, (0.0,) * 4)


@pytest.mark.parametrize("x_i, x_f, name", [
    ("a", "b", "x_i"), ("0", "1", "x_i"), (None, 1.0, "x_i"), (0.0, 1 + 0j, "x_f"),
    (0.0, [1.0], "x_f"), (True, 2.0, "x_i"),
])
def test_endpoint_that_is_not_a_real_number_rejected(x_i, x_f, name):
    # These used to raise a raw ValueError or TypeError.
    with pytest.raises(ConfigurationError, match=f"^{name} must"):
        BoundaryConditions(x_i, x_f, (0.0,) * 4, (0.0,) * 4)


def test_endpoints_kept_as_floats():
    # A float32 endpoint used to give c = np.float32(2.0).
    bc = BoundaryConditions(0, np.float32(1), (0.0,) * 4, (0.0,) * 4)
    assert (bc.x_i, bc.x_f) == (0.0, 1.0)
    assert type(bc.x_i) is float and type(bc.x_f) is float
    assert type(bc.c) is float and bc.c == 2.0
    assert bc == BoundaryConditions(0.0, 1.0, (0.0,) * 4, (0.0,) * 4)


def counting_domain_checks(monkeypatch) -> tuple[list, list]:
    """(checks, builds) from now on: the (name, value) of every check_real of an endpoint in
    bvp8.expression, and the (x_i, x_f) of every BoundaryConditions built."""
    checks, builds = [], []
    check_real, post_init = bvp8.expression.check_real, BoundaryConditions.__post_init__

    def counted_check(name, value, shape=None):
        if name in ("x_i", "x_f"):
            checks.append((name, value))
        return check_real(name, value, shape)

    def counted_build(self):
        builds.append((self.x_i, self.x_f))
        post_init(self)

    monkeypatch.setattr(bvp8.expression, "check_real", counted_check)
    monkeypatch.setattr(BoundaryConditions, "__post_init__", counted_build)
    return checks, builds


def test_boundary_conditions_check_their_domain_once(monkeypatch):
    checks, builds = counting_domain_checks(monkeypatch)
    BoundaryConditions(-0.5, 2.0, (0.0,) * 4, (0.0,) * 4)
    assert checks == [("x_i", -0.5), ("x_f", 2.0)] and builds == [(-0.5, 2.0)]


@pytest.mark.parametrize("name", ["p1", "p4", "p5"])
def test_solve_checks_its_domain_once(name, monkeypatch):
    # The problem's BoundaryConditions checked the domain when it was built;
    # a solve maps by them and builds no BoundaryConditions of its own.
    problem, config = benchmark(name).problem, SolverConfig()
    solve(problem, config)  # builds the config's [0, 1] tables
    checks, builds = counting_domain_checks(monkeypatch)
    solve(problem, config)
    assert checks == [] and builds == []


@pytest.mark.parametrize("name", ["p1", "p4", "p7"])
def test_solve_shares_the_problems_domain_map(name):
    problem = benchmark(name).problem
    sol = solve(problem)
    assert sol.expression.bc is problem.bc
