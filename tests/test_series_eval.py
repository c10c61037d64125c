"""b and the solution read path as Chebyshev series in z.

UNIT_CHEB must hold the switching polynomials of UNIT_COEFFS exactly, as
Chebyshev series in z = 2 t - 1; switching_oracle converts them in rational
arithmetic.  b_value, one Clenshaw pass over those series, must agree with
the switching values of the monomial coefficients (switching_oracle) times
the constraint values to roundoff on any domain; a solution's one series of
y^(d) must read as the two-pass sum of a . xi and b; and a solution read
through the series must be accurate to a few ulps where the solve is.
"""

import numpy as np
import pytest
from numpy.polynomial import chebyshev

from bvp8 import SolverConfig, solve
from bvp8.basis import DomainMap, chebyshev_derivatives
from bvp8.expression import UNIT_CHEB
from bvp8.problems import PROBLEM_NAMES, benchmark
from bvp8.solver import _CollocationTables

from switching_oracle import UNIT_COEFFS, Switching, exact_unit_cheb, switching_values
from test_domains import moved

#: p1 and p6 moved as in tests/test_domains.py, and p5 stretched to [0, e**k - 1].
MOVED = ([("p1", x_i, x_i + w) for x_i in (-10.0, 0.0, 1.0, 5.0, 10.0, 30.0)
          for w in (0.1, 1.0, 3.0)]
         + [("p6", x_i, x_f) for x_i, x_f in
            [(-3.0, -2.0), (1.0, 1.1), (5.0, 5.1), (10.0, 11.0), (0.0, 0.01)]]
         + [("p5", 0.0, float(np.expm1(k))) for k in (1, 2, 3)])


def test_unit_cheb_is_exact():
    # Each entry is its exact rational rounded once: a one-ulp move fails.
    assert np.array_equal(UNIT_CHEB, exact_unit_cheb())
    assert not UNIT_CHEB.flags.writeable
    # The same polynomials as the powers of t, which round to a few 1e-15.
    z = np.linspace(-1.0, 1.0, 41)
    for cheb, powers in zip(UNIT_CHEB, UNIT_COEFFS):
        gap = chebyshev.chebval(z, cheb) - np.polynomial.polynomial.polyval((1 + z) / 2, powers)
        assert np.max(np.abs(gap)) <= 1e-14


def test_derivative_series_are_chebder():
    rng = np.random.default_rng(11)
    for size, c in ((8, 2.0), (8, 0.3), (40, 1.7), (68, 2.0 / np.expm1(2.0))):
        series = rng.standard_normal(size)
        got = chebyshev_derivatives(series, c)
        assert got[0] is series and len(got) == 9
        for d in range(1, 9):
            want = c**d * chebyshev.chebder(series, d) if d < size else np.zeros(1)
            assert got[d].shape == want.shape
            tol = 1e-14 * np.max(np.abs(c**d * chebyshev.chebder(np.abs(series), d)))
            assert np.max(np.abs(got[d] - want)) <= tol, (size, d)


def b_cases():
    return ([pytest.param(benchmark(name).problem, id=name) for name in PROBLEM_NAMES]
            + [pytest.param(moved(*case), id=f"{case[0]}[{case[1]:g},{case[2]:g}]")
               for case in MOVED])


@pytest.mark.parametrize("problem", b_cases())
def test_b_value_matches_switching_values(problem):
    tables = _CollocationTables(problem)
    ce, (x_i, x_f) = tables.expression, problem.domain
    x = np.concatenate([tables.x, np.random.default_rng(2).uniform(x_i, x_f, 300)])
    values = ce.bc.interleaved()
    b_series = chebyshev_derivatives(ce.bc._beta, ce.bc.domain_map.c)
    assert [len(s) for s in b_series] == [8, 7, 6, 5, 4, 3, 2, 1, 1]
    for d in range(9):
        betas = switching_values(Switching(UNIT_COEFFS, DomainMap(x_i, x_f)), x, d)
        got, want = ce.b_value(x, d), betas @ values
        assert got.shape == x.shape
        # Roundoff of the sum beta_j v_j: measured up to 133 eps of its
        # largest terms, where the powers of t have coefficient sums up to 210.
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(betas) @ np.abs(values)), d
    assert np.all(ce.b_value(x, 8) == 0.0)
    for d in range(4):
        assert ce.b_value(x_i, d) == problem.bc.left_values[d]
        assert ce.b_value(x_f, d) == problem.bc.right_values[d]


def two_pass_read(sol, x, d):
    """(y^{(d)}(x) as chebval of a . xi's series plus chebval of b's, snapped; the series' size)."""
    ce, bc = sol.expression, sol.problem.bc
    z = ce.bc.domain_map.to_z(x)
    s_d = chebyshev_derivatives(ce.series_map @ sol.report.xi, ce.bc.domain_map.c)[d]
    b_d = chebyshev_derivatives(ce.bc._beta, ce.bc.domain_map.c)[d]
    y = chebyshev.chebval(z, s_d) + chebyshev.chebval(z, b_d)
    if d < 4:
        y = np.where(x == bc.x_f, bc.right_values[d], y)
        y = np.where(x == bc.x_i, bc.left_values[d], y)
    return y, np.sum(np.abs(s_d)) + np.sum(np.abs(b_d))


@pytest.mark.parametrize("n,m", [(11, 10), (31, 30), (481, 60)])
@pytest.mark.parametrize("problem", b_cases())
def test_one_series_read_matches_two_pass_read(problem, n, m):
    # Solution.__call__ sums a . xi and b in the coefficients, one series per
    # order, where the two-pass read summed their values.  Measured over the
    # 891 cases: at most 12.7 eps of the coefficient sums apart; the 321 mean
    # errors above 1000 ulps of max|y^(d)| move by at most 0.05%, and only
    # errors near an ulp grow, by up to 1.95x (p6 on [-3, -2], y', 481 nodes).
    sol = solve(problem, SolverConfig(n_points=n, m_basis=m))
    x = np.concatenate([sol.nodes, np.random.default_rng(4).uniform(*problem.domain, 2048)])
    for d in range(9):
        want, size = two_pass_read(sol, x, d)
        got = sol(x, d)
        assert np.max(np.abs(got - want)) <= 16 * np.finfo(float).eps * size, d
        exact = problem.exact(x, d)
        old_error = np.mean(np.abs(want - exact))
        if old_error > 1000 * np.spacing(np.max(np.abs(exact))):
            assert abs(np.mean(np.abs(got - exact)) - old_error) <= 0.01 * old_error, d


@pytest.mark.parametrize("name", ["p4", "p5", "p6"])
def test_oversampled_solutions_read_to_a_few_ulps(name):
    # Read through the powers of t these were 5.3e-15, 2.9e-15 and 2.4e-15.
    sol = solve(benchmark(name).problem, SolverConfig(n_points=481, m_basis=60))
    x = np.linspace(*sol.problem.domain, 101)
    assert np.max(np.abs(sol(x) - sol.problem.exact(x, 0))) <= 2e-15
