"""Tests for the seven benchmark problem definitions."""

import dataclasses
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from bvp8.errors import ConfigurationError
from bvp8.problems import (
    PROBLEM_NAMES,
    TABLE_ROWS,
    all_benchmarks,
    benchmark,
    derivative_error_report,
    derivative_errors,
)
from bvp8.solver import solve

ALL_NAMES = list(PROBLEM_NAMES)


def exact_state(problem, x):
    return np.array([problem.exact(x, d) for d in range(9)])


@pytest.mark.parametrize("name", ALL_NAMES)
class TestProblemConsistency:
    def test_boundary_values_match_exact_solution(self, name):
        prob = benchmark(name).problem
        for d in range(4):
            assert prob.bc.left_values[d] == pytest.approx(
                prob.exact(prob.bc.x_i, d), abs=1e-12)
            assert prob.bc.right_values[d] == pytest.approx(
                prob.exact(prob.bc.x_f, d), abs=1e-12)

    def test_exact_solution_satisfies_equation(self, name):
        entry = benchmark(name)
        prob = entry.problem
        rng = np.random.default_rng(17)
        xs = rng.uniform(prob.bc.x_i, prob.bc.x_f, size=20)
        for x in xs:
            assert abs(prob.residual(x, exact_state(prob, x))) <= 1e-8
        for x in entry.table_points:
            assert abs(prob.residual(x, exact_state(prob, x))) <= 1e-9

    def test_partials_match_finite_differences(self, name):
        prob = benchmark(name).problem
        rng = np.random.default_rng(23)
        step = 1e-6
        for _ in range(5):
            x = rng.uniform(prob.bc.x_i, prob.bc.x_f)
            y = rng.uniform(-1.0, 1.0, size=9)
            grad = np.asarray(prob.partials(x, y))
            for d in range(9):
                hi, lo = y.copy(), y.copy()
                hi[d] += step
                lo[d] -= step
                fd = (prob.residual(x, hi) - prob.residual(x, lo)) / (2 * step)
                assert grad[d] == pytest.approx(fd, rel=1e-5, abs=1e-7)

    @pytest.mark.parametrize("order", range(1, 9))
    def test_exact_derivative_chain(self, name, order):
        prob = benchmark(name).problem
        xs = np.linspace(prob.bc.x_i, prob.bc.x_f, 12)[1:-1]
        step = 1e-6 * (prob.bc.x_f - prob.bc.x_i)
        fd = (prob.exact(xs + step, order - 1) - prob.exact(xs - step, order - 1)) / (2 * step)
        want = prob.exact(xs, order)
        assert_allclose(fd, want, rtol=1e-6, atol=1e-6 * np.max(np.abs(want)))

    def test_table_points_equidistant(self, name):
        entry = benchmark(name)
        pts = entry.table_points
        assert pts.shape == (TABLE_ROWS,)
        assert pts[0] == entry.problem.bc.x_i
        assert pts[-1] == entry.problem.bc.x_f
        assert_allclose(np.diff(pts), np.diff(pts)[0], rtol=1e-12)


class TestExactFormulas:
    def test_p1_shifted_exponential(self):
        prob = benchmark("p1").problem
        xs = np.linspace(0, 1, 9)
        assert_allclose(prob.exact(xs, 0), (1 - xs) * np.exp(xs), rtol=1e-15)
        assert prob.exact(1.0, 3) == pytest.approx(-3 * math.e, rel=1e-15)

    def test_p2_quadratic_exponential(self):
        prob = benchmark("p2").problem
        xs = np.linspace(0, 1, 9)
        assert_allclose(prob.exact(xs, 0), xs * (1 - xs) * np.exp(xs), rtol=1e-14, atol=1e-16)
        assert prob.exact(1.0, 3) == pytest.approx(-9 * math.e, rel=1e-14)

    def test_p3_polynomial_sine(self):
        prob = benchmark("p3").problem
        xs = np.linspace(0, 1, 9)
        assert_allclose(prob.exact(xs, 0), (xs**2 - 1) * np.sin(xs), rtol=1e-14, atol=1e-16)
        assert prob.exact(0.0, 3) == pytest.approx(7.0, abs=1e-14)
        assert prob.exact(1.0, 1) == pytest.approx(2 * math.sin(1.0), rel=1e-14)

    def test_p4_exponential(self):
        prob = benchmark("p4").problem
        assert prob.exact(0.5, 0) == pytest.approx(math.exp(0.5), rel=1e-15)
        assert prob.exact(0.5, 8) == pytest.approx(math.exp(0.5), rel=1e-15)

    def test_p5_logarithm_on_shifted_domain(self):
        prob = benchmark("p5").problem
        assert prob.bc.x_i == 0.0
        assert prob.bc.x_f == pytest.approx(math.expm1(0.5), rel=1e-15)
        assert prob.exact(prob.bc.x_f, 0) == pytest.approx(0.5, abs=1e-15)
        assert prob.exact(0.0, 8) == -5040.0
        assert prob.exact(0.0, 1) == 1.0

    def test_p6_decaying_exponential(self):
        prob = benchmark("p6").problem
        assert prob.bc.left_values == (1.0, -1.0, 1.0, -1.0)
        assert prob.exact(1.0, 0) == pytest.approx(math.exp(-1.0), rel=1e-15)

    def test_p7_shares_solution_with_p3(self):
        p3 = benchmark("p3").problem
        p7 = benchmark("p7").problem
        xs = np.linspace(0, 1, 9)
        assert_allclose(p7.exact(xs, 0), p3.exact(xs, 0), rtol=1e-15)
        # forcing term at x = 0 is 14, so the zero state leaves -14
        assert p7.residual(0.0, np.zeros(9)) == pytest.approx(-14.0, abs=1e-14)

    def test_linearity_flags(self):
        flags = {name: benchmark(name).problem.is_linear for name in ALL_NAMES}
        assert flags == {
            "p1": True, "p2": True, "p3": True,
            "p4": False, "p5": False, "p6": False,
            "p7": True,
        }


class TestReferenceColumns:
    def test_row_mapping(self):
        by_row = benchmark("p1").reference_by_row()
        assert len(by_row) == TABLE_ROWS
        assert by_row[0] == 0.0 and by_row[-1] == 0.0
        assert by_row[4] == 3.3e-09

    def test_unreported_row_is_none(self):
        by_row = benchmark("p2").reference_by_row()
        assert by_row[9] is None
        assert by_row[8] == 1.76e-09

    def test_problem_without_reference(self):
        entry = benchmark("p7")
        assert entry.reference_errors is None
        assert benchmark("p7").reference_by_row() == [None] * TABLE_ROWS

    @pytest.mark.parametrize("name", ["p1", "p2", "p3", "p4", "p5", "p6"])
    def test_reference_values_positive_inside(self, name):
        by_row = benchmark(name).reference_by_row()
        inner = [v for v in by_row[1:-1] if v is not None]
        assert len(inner) >= 8  # one problem has a single unreported row
        assert all(0 < v < 1e-4 for v in inner)


class TestRegistry:
    def test_names_in_order(self):
        assert PROBLEM_NAMES == ("p1", "p2", "p3", "p4", "p5", "p6", "p7")

    def test_all_benchmarks_complete(self):
        entries = all_benchmarks()
        assert list(entries) == ALL_NAMES
        for name, entry in entries.items():
            assert entry.problem.name == name

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError, match="nope"):
            benchmark("nope")
        # An unhashable name used to raise a raw TypeError.
        for name in (["p1"], {"p1": 1}, 1, None):
            with pytest.raises(ConfigurationError, match=r"^unknown problem "):
                benchmark(name)

    def test_entries_are_fresh_per_call(self):
        a = benchmark("p1")
        b = benchmark("p1")
        assert a is not b


class TestDerivativeErrorReport:
    def test_shape_and_monotone_headline(self):
        report = derivative_error_report(benchmark("p7"), m_basis=10)
        assert report.shape == (9,)
        assert np.all(report <= 1e-9)

    def test_low_term_count_degrades_high_orders(self):
        report = derivative_error_report(benchmark("p5"), m_basis=10)
        assert report[0] <= 1e-6
        assert 1e-3 <= report[8] <= 1e-1

    def test_requires_exact_solution(self):
        entry = benchmark("p6")
        prob = dataclasses.replace(entry.problem, exact=None)
        bare = dataclasses.replace(entry, problem=prob)
        with pytest.raises(ConfigurationError):
            derivative_error_report(bare, m_basis=10)

    @pytest.mark.parametrize("call, match", [
        pytest.param(lambda: derivative_errors("x"), "^sol must be a Solution, got 'x'$",
                     id="errors-str"),
        pytest.param(lambda: derivative_errors(benchmark("p1")), "^sol must be a Solution, got ",
                     id="errors-entry"),
        pytest.param(lambda: derivative_error_report("x", 10),
                     "^entry must be a BenchmarkEntry, got 'x'$", id="report-str"),
        pytest.param(lambda: derivative_error_report(solve(benchmark("p1").problem), 10),
                     "^entry must be a BenchmarkEntry, got ", id="report-solution"),
    ])
    def test_wrong_argument_types_named(self, call, match):
        # Each used to raise a raw AttributeError.
        with pytest.raises(ConfigurationError, match=match):
            call()

    @pytest.mark.parametrize("count", [0, 1, -3, 2.5, 11.0, True, "11"])
    def test_point_count_checked(self, count):
        # 0 used to give NaNs and a RuntimeWarning, 2.5 a raw TypeError.
        sol = solve(benchmark("p1").problem)
        with pytest.raises(ConfigurationError, match="n_error_points"):
            derivative_errors(sol, count)

    def test_two_points_accepted(self):
        sol = solve(benchmark("p1").problem)
        assert derivative_errors(sol, 2).shape == (9,)
