"""Tests for the seven benchmark problem definitions."""

import dataclasses
import math
import pickle

import numpy as np
import pytest
from numpy.testing import assert_allclose

import bvp8.problems as problems_module
from bvp8.errors import ConfigurationError
from bvp8.problems import (
    PROBLEM_NAMES,
    TABLE_ROWS,
    all_benchmarks,
    benchmark,
    derivative_error_report,
    derivative_errors,
)
from bvp8.solver import SolverConfig, solve

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

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_problems_of_two_calls_compare_equal(self, name):
        # Every callback is one module-level function, so the fields compare equal.
        assert benchmark(name).problem == benchmark(name).problem
        assert hash(benchmark(name).problem) == hash(benchmark(name).problem)


UNIT_POINTS = [0.0, 0.1, 0.2, 0.30000000000000004, 0.4, 0.5, 0.6000000000000001,
               0.7000000000000001, 0.8, 0.9, 1.0]
TENTHS = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)

#: name: (domain, is_linear, residual, partials, exact, table points, reference rows) that each
#: entry carries, as literals.
ENTRIES = {
    "p1": ((0.0, 1.0), True, "_residual_1", "_unit_partials", "_exact_1", UNIT_POINTS,
           [0.0, 6.3e-11, 6.5e-10, 2e-09, 3.3e-09, 3.9e-09, 3.4e-09, 2e-09, 6.9e-10, 7.6e-11,
            0.0]),
    "p2": ((0.0, 1.0), True, "_residual_2", "_partials_2", "_exact_2", UNIT_POINTS,
           [0.0, 1.63e-10, 1.63e-09, 4.9e-09, 8.46e-09, 1.01e-08, 8.68e-09, 5.15e-09, 1.76e-09,
            None, 0.0]),
    "p3": ((0.0, 1.0), True, "_residual_3", "_unit_partials", "_exact_3", UNIT_POINTS,
           [0.0, 6.6e-12, 6.9e-11, 2.1e-10, 3.5e-10, 4.1e-10, 3.5e-10, 2.1e-10, 7.2e-11, 8e-12,
            0.0]),
    "p4": ((0.0, 1.0), False, "_residual_4", "_partials_4", "_exact_4", UNIT_POINTS,
           [0.0, 2.503395e-06, 8.940697e-06, 1.561642e-05, 1.823902e-05, 8.821487e-06,
            7.510185e-06, 1.883507e-05, 1.93119e-05, 1.168251e-05, 0.0]),
    "p5": ((0.0, 0.6487212707001282), False, "_residual_5", "_partials_5", "_exact_5",
           [0.0, 0.06487212707001282, 0.12974425414002563, 0.19461638121003844,
            0.25948850828005127, 0.3243606353500641, 0.38923276242007687, 0.4541048894900897,
            0.5189770165601025, 0.5838491436301153, 0.6487212707001282],
           [0.0, 2.01e-07, 4.54e-07, 1.52e-06, 4.07e-06, 6.71e-06, 9.06e-06, 1e-05, 5.45e-06,
            2.59e-06, 0.0]),
    "p6": ((0.0, 1.0), False, "_residual_6", "_partials_6", "_exact_6", UNIT_POINTS,
           [0.0, 2.9e-12, 2.7e-11, 7.6e-11, 1.3e-10, 1.5e-10, 1.3e-10, 7.6e-11, 2.5e-11, 2.4e-12,
            0.0]),
    "p7": ((0.0, 1.0), True, "_residual_7", "_partials_7", "_exact_3", UNIT_POINTS, None),
}


@pytest.mark.parametrize("name", ALL_NAMES)
def test_entry_carries_its_pinned_fields(name):
    domain, is_linear, residual, partials, exact, points, rows = ENTRIES[name]
    entry = benchmark(name)
    problem = entry.problem
    assert problem.name == name and problem.domain == domain
    assert problem.is_linear is is_linear
    assert problem.residual is getattr(problems_module, residual)
    assert problem.partials is getattr(problems_module, partials)
    assert problem.exact is getattr(problems_module, exact)
    assert entry.table_points.tobytes() == np.array(points).tobytes()
    if rows is None:
        assert entry.reference_errors is None
    else:
        assert entry.reference_errors == tuple(
            (label, error) for label, error in zip(TENTHS, rows) if error is not None)
    assert entry.reference_by_row() == (rows or [None] * TABLE_ROWS)


def test_table_points_are_a_read_only_property():
    # The points are the domain's, by definition, so they cannot disagree with it.
    entry = benchmark("p5")
    assert "table_points" not in {f.name for f in dataclasses.fields(entry)}
    with pytest.raises(AttributeError):
        entry.table_points = np.zeros(TABLE_ROWS)
    assert entry.table_points.tobytes() == np.linspace(*entry.problem.domain, TABLE_ROWS).tobytes()


def report_bytes(report) -> bytes:
    """Every field of a SolveReport as bytes: the arrays' raw bytes, the rest by repr."""
    return b"|".join(
        getattr(report, f.name).tobytes() if f.name in report._arrays
        else repr(getattr(report, f.name)).encode()
        for f in dataclasses.fields(report))


@pytest.mark.parametrize("name", ALL_NAMES)
@pytest.mark.parametrize("n_points, m_basis", [(11, 10), (31, 30)])
def test_problem_and_solution_pickle(name, n_points, m_basis):
    # The callbacks are module-level functions, which pickle by reference.
    config = SolverConfig(n_points=n_points, m_basis=m_basis)
    problem = benchmark(name).problem
    sol = solve(problem, config)
    problem_back = pickle.loads(pickle.dumps(problem))
    sol_back = pickle.loads(pickle.dumps(sol))
    assert problem_back == problem and sol_back.problem == problem
    assert report_bytes(sol_back.report) == report_bytes(sol.report)
    x = np.random.default_rng(3).uniform(*problem.domain, 64)
    for d in range(9):
        assert sol_back(x, d).tobytes() == sol(x, d).tobytes(), d
    assert report_bytes(solve(problem_back, config).report) == report_bytes(sol.report)


@pytest.mark.parametrize("name, written_out", [
    ("p4", lambda x, y: y[8] + y[3] * np.sin(y[0]) - np.exp(x) * (1.0 + np.sin(np.exp(x)))),
    ("p6", lambda x, y: y[8] + np.exp(-x) * y[0] ** 2 - np.exp(-x) - np.exp(-3.0 * x)),
])
def test_shared_exponential_keeps_the_bits(name, written_out):
    # p4 and p6 compute e^x or e^-x once; the residual keeps the bits of the equation as written.
    problem = benchmark(name).problem
    rng = np.random.default_rng(29)
    x, y = rng.uniform(*problem.domain, 301), rng.uniform(-2.0, 2.0, (9, 301))
    assert problem.residual(x, y).tobytes() == written_out(x, y).tobytes()


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

    @pytest.mark.parametrize("m_basis, match", [
        ("10", "^m_basis must be an integer, got '10'$"),
        (None, "^m_basis must be an integer, got None$"),
        (1.5, "^m_basis must be an integer, got 1.5$"),
        (0, "^m_basis must be at least 1, got 0$"),
        (-3, "^m_basis must be at least 1, got -3$"),
    ])
    def test_term_count_checked(self, m_basis, match):
        # "10" and None used to raise a raw TypeError from m_basis + 1, and 0, -3
        # and 1.5 errors about n_points ("need at least 2 grid points, got 1").
        with pytest.raises(ConfigurationError, match=match):
            derivative_error_report(benchmark("p1"), m_basis)
