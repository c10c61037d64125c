"""basis.chop: each series of y^(d) cut at roundoff once, where the expression builds it.

A head c[:k] is kept when its dropped tail sums to at most eps/2 of the series'
||c||_1 and it chops to itself; the shortest such head is kept, else the whole
series.  The oracle is the unchopped series, chebyshev_derivatives of
series_map @ xi plus b's, read by numpy's chebval.
"""

import functools
import math

import numpy as np
import pytest
from numpy.polynomial import chebyshev

from bvp8 import SolverConfig, solve
from bvp8.basis import chebyshev_derivatives, chop
from bvp8.expression import BoundaryConditions, ConstrainedExpression
from bvp8.problems import PROBLEM_NAMES, benchmark

from switching_oracle import to_z
from test_domains import moved

EPS = np.finfo(float).eps
SIZES = [(11, 10), (31, 30), (481, 60)]
#: p1-p7 at the three sizes, and p5 stretched to [0, e**3 - 1] at (101, 100).
CASES = ([pytest.param(name, n, m, id=f"{name}-{n}") for name in PROBLEM_NAMES for n, m in SIZES]
         + [pytest.param("p5-stretched", 101, 100, id="p5-stretched-101")])


@functools.lru_cache(maxsize=None)
def solved(name, n, m):
    problem = moved("p5", 0.0, float(np.expm1(3.0))) if name == "p5-stretched" else \
        benchmark(name).problem
    return solve(problem, SolverConfig(n_points=n, m_basis=m))


def unchopped(ce, xi):
    """The nine series of y^(d), d = 0..8, before the chop."""
    series = ce.series_map @ xi
    series[:8] += ce.bc._beta
    return chebyshev_derivatives(series, ce.bc.c)


def noisy_series(rng, size):
    """A geometrically decaying series over a tail of roundoff-sized noise."""
    return 0.5 ** np.arange(size) + 1e-16 * rng.standard_normal(size)


def test_an_all_zero_series_keeps_one_term():
    assert [len(s) for s in chop([np.zeros(5), np.zeros(1), np.zeros(40)])] == [1, 1, 1]
    zero = BoundaryConditions(0.0, 1.0, (0.0,) * 4, (0.0,) * 4)
    ce = ConstrainedExpression.build(zero, 10)
    series = ce._series(np.zeros(10))
    assert [s.tolist() for s in series] == [[0.0]] * 9
    assert ce.b_value(np.linspace(0.0, 1.0, 11), 2).tolist() == [0.0] * 11


@pytest.mark.parametrize("name", PROBLEM_NAMES)
def test_b_series_drop_the_zeros_of_m_at_0(name):
    # b's series carries the m exact zeros of M @ 0 past degree 7; order d has
    # at most 8 - d terms (one for order 8, the zero series).
    for n, m in SIZES:
        ce = solved(name, n, m).expression
        lengths = [len(s) for s in ce._series(np.zeros(m))]
        assert all(k <= max(8 - d, 1) for d, k in enumerate(lengths)), (n, lengths)


def test_non_finite_series_are_kept_whole():
    rng = np.random.default_rng(3)
    for bad in (np.inf, -np.inf, np.nan):
        for at in (0, 17, 39):
            series = noisy_series(rng, 40)
            series[at] = bad
            (kept,) = chop([series])
            assert np.array_equal(kept, series, equal_nan=True), (bad, at)


def test_an_inf_in_xi_reads_non_finite_where_the_unchopped_read_does():
    sol = solved("p1", 31, 30)
    ce, bc = sol.expression, sol.problem.bc
    x = np.linspace(*sol.problem.domain, 101)
    z = to_z(ce.bc, x)
    for at in (0, 12, 29):
        xi = sol.report.xi.copy()
        xi[at] = np.inf
        with np.errstate(all="ignore"):  # inf * 0 in M @ xi, as in solve
            full = unchopped(ce, xi)
            for d, (kept, whole) in enumerate(zip(ce._series(xi), full)):
                assert np.array_equal(kept, whole, equal_nan=True), (at, d)
                want = chebyshev.chebval(z, whole)
                if d < 4:
                    want = np.where(x == bc.x_f, bc.right_values[d], want)
                    want = np.where(x == bc.x_i, bc.left_values[d], want)
                got = ce.eval(x, d, xi)
                assert not np.all(np.isfinite(got)), (at, d)
                assert np.array_equal(np.isfinite(got), np.isfinite(want)), (at, d)


@pytest.mark.parametrize("name,n,m", CASES)
def test_dropped_tails_sum_to_at_most_half_eps(name, n, m):
    # The chop's sums run in sequence, within n eps of math.fsum's.
    sol = solved(name, n, m)
    for d, (kept, whole) in enumerate(zip(sol._derivative_series, unchopped(sol.expression,
                                                                           sol.report.xi))):
        assert np.array_equal(kept, whole[:len(kept)]) and 1 <= len(kept) <= len(whole), d
        dropped = math.fsum(np.abs(whole[len(kept):]))
        assert dropped <= 0.5 * EPS * math.fsum(np.abs(whole)) * (1 + len(whole) * EPS), d


@pytest.mark.parametrize("name,n,m", CASES)
def test_chopping_is_idempotent(name, n, m):
    sol = solved(name, n, m)
    for series in (sol._derivative_series, sol.expression._series(np.zeros(m))):
        again = chop(series)
        assert all(np.array_equal(a, s) for a, s in zip(again, series))


def test_chopping_random_series_is_idempotent():
    # The plain longest-run rule re-chops such tails: a dropped tail near eps/2
    # ||c||_1 leaves a last kept term below eps/2 of the smaller sum.
    rng = np.random.default_rng(7)
    series = [noisy_series(rng, size) * rng.uniform(1e-3, 1e3) for size in rng.integers(1, 70, 500)]
    once = chop(series)
    assert any(len(c) < len(s) for c, s in zip(once, series))
    assert all(np.array_equal(a, c) for a, c in zip(chop(once), once))


@pytest.mark.parametrize("name,n,m", CASES)
def test_reads_stay_within_a_few_eps_of_the_unchopped_read(name, n, m):
    # Measured over these 22 cases: at most 1.96 eps of the unchopped series'
    # ||c||_1 (2.28 eps of max |y^(d)|), the bound 0.5 eps plus Clenshaw's own
    # rounding.  Held to 4 eps.
    sol = solved(name, n, m)
    ce, bc = sol.expression, sol.problem.bc
    x = np.concatenate([sol.nodes,
                        np.random.default_rng(0).uniform(*sol.problem.domain, 2048)])
    z = to_z(ce.bc, x)
    for d, whole in enumerate(unchopped(ce, sol.report.xi)):
        want = chebyshev.chebval(z, whole)
        if d < 4:
            want = np.where(x == bc.x_f, bc.right_values[d], want)
            want = np.where(x == bc.x_i, bc.left_values[d], want)
        assert np.max(np.abs(sol(x, d) - want)) <= 4 * EPS * np.sum(np.abs(whole)), d
