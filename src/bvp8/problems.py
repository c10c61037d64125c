"""Seven benchmark problems with exact solutions and published reference errors.

Each factory returns a BenchmarkEntry carrying the problem itself (residual,
analytic partials, boundary data) plus the 11 equidistant table points and,
where available, the absolute errors a competing finite-difference method
reported at those points.  Boundary data is always generated from the exact
solution, so the constraints and the reported errors are mutually consistent.

Exact derivatives through order eight come from closed-form patterns:
polynomial-times-exponential and polynomial-times-trig solutions differentiate
by small coefficient recurrences, the logarithmic solution by a factorial
formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from numpy.polynomial import polynomial as npoly

from .basis import check_instance, check_integer
from .errors import ConfigurationError
from .expression import BoundaryConditions
from .solver import BvpProblem, Solution, SolverConfig, solve

_SEVEN_FACTORIAL = 5040.0  # 7!

#: Number of rows in the published error tables.
TABLE_ROWS = 11


@dataclass(frozen=True, eq=False)
class BenchmarkEntry:
    """A problem plus its published error-table context.

    reference_errors holds (row label, error) pairs transcribed verbatim from
    the published comparison column.  Rows are labeled by tenths of the
    domain span (0, 0.1, .., 1), so a label maps to table row round(10 *
    label); a missing pair means that row was not reported.  None overall
    means no comparison column exists for the problem.
    """

    problem: BvpProblem
    table_points: np.ndarray
    reference_errors: Optional[tuple]

    def reference_by_row(self) -> list:
        """Reference errors aligned with table_points; None where unreported."""
        by_row: list = [None] * TABLE_ROWS
        if self.reference_errors is not None:
            for label, value in self.reference_errors:
                by_row[round(10.0 * label)] = value
        return by_row


def _entry(problem: BvpProblem, reference_errors: Optional[tuple] = None) -> BenchmarkEntry:
    points = np.linspace(problem.bc.x_i, problem.bc.x_f, TABLE_ROWS)
    points.flags.writeable = False
    return BenchmarkEntry(problem, points, reference_errors)


def _poly_exp_solution(p0) -> Callable:
    """Derivatives of p(x) e^x via p_{n+1} = p_n + p_n'."""
    rows = [np.asarray(p0, dtype=float)]
    for _ in range(8):
        rows.append(npoly.polyadd(rows[-1], npoly.polyder(rows[-1])))

    def exact(x, order: int = 0):
        return npoly.polyval(x, rows[order]) * np.exp(x)

    return exact


def _sin_cos_solution(p0, q0) -> Callable:
    """Derivatives of p(x) sin x + q(x) cos x via (p, q) -> (p' - q, q' + p)."""
    pairs = [(np.asarray(p0, dtype=float), np.asarray(q0, dtype=float))]
    for _ in range(8):
        p, q = pairs[-1]
        pairs.append((npoly.polysub(npoly.polyder(p), q), npoly.polyadd(npoly.polyder(q), p)))

    def exact(x, order: int = 0):
        p, q = pairs[order]
        return npoly.polyval(x, p) * np.sin(x) + npoly.polyval(x, q) * np.cos(x)

    return exact


def _log1p_solution() -> Callable:
    """Derivatives of ln(1 + x): (-1)^{n+1} (n-1)! / (1 + x)^n."""

    def exact(x, order: int = 0):
        if order == 0:
            return np.log1p(x)
        sign = 1.0 if order % 2 else -1.0
        return sign * math.factorial(order - 1) / (1.0 + np.asarray(x, dtype=float)) ** order

    return exact


def _partials(x, columns: dict) -> np.ndarray:
    """Rows dF/dy^{(d)} at the nodes x, shape x.shape + (9,): columns maps d to its values."""
    rows = np.zeros(np.shape(x) + (9,))
    for d, value in columns.items():
        rows[..., d] = value
    return rows


def _constant_partials(values) -> Callable:
    row = np.asarray(values, dtype=float)

    def partials(x, y):
        return np.broadcast_to(row, np.shape(x) + row.shape)

    return partials


def problem_1() -> BenchmarkEntry:
    """Linear: y^(8) - y = -8 e^x on [0, 1], exact y = (1 - x) e^x."""
    exact = _poly_exp_solution([1.0, -1.0])
    bc = BoundaryConditions.from_callable(0.0, 1.0, exact)

    def residual(x, y):
        return y[8] - y[0] + 8.0 * np.exp(x)

    problem = BvpProblem(
        "p1", bc, residual, is_linear=True,
        partials=_constant_partials([-1.0, 0, 0, 0, 0, 0, 0, 0, 1.0]),
        exact=exact,
    )
    return _entry(problem, (
        (0.0, 0.0), (0.1, 6.3e-11), (0.2, 6.5e-10), (0.3, 2.0e-09),
        (0.4, 3.3e-09), (0.5, 3.9e-09), (0.6, 3.4e-09), (0.7, 2.0e-09),
        (0.8, 6.9e-10), (0.9, 7.6e-11), (1.0, 0.0),
    ))


def problem_2() -> BenchmarkEntry:
    """Linear: y^(8) + x y = -(x^3 + 15 x + 48) e^x on [0, 1], exact y = x (1 - x) e^x."""
    exact = _poly_exp_solution([0.0, 1.0, -1.0])
    bc = BoundaryConditions.from_callable(0.0, 1.0, exact)

    def residual(x, y):
        return y[8] + x * y[0] + (x**3 + 15.0 * x + 48.0) * np.exp(x)

    def partials(x, y):
        return _partials(x, {0: x, 8: 1.0})

    problem = BvpProblem("p2", bc, residual, is_linear=True, partials=partials, exact=exact)
    # The published column reports no value at the 0.9 row.
    return _entry(problem, (
        (0.0, 0.0), (0.1, 1.63e-10), (0.2, 1.63e-09), (0.3, 4.90e-09),
        (0.4, 8.46e-09), (0.5, 1.01e-08), (0.6, 8.68e-09), (0.7, 5.15e-09),
        (0.8, 1.76e-09), (1.0, 0.0),
    ))


def problem_3() -> BenchmarkEntry:
    """Linear: y^(8) - y = -8 (2 x cos x + 7 sin x) on [0, 1], exact y = (x^2 - 1) sin x."""
    exact = _sin_cos_solution([-1.0, 0.0, 1.0], [0.0])
    bc = BoundaryConditions.from_callable(0.0, 1.0, exact)

    def residual(x, y):
        return y[8] - y[0] + 8.0 * (2.0 * x * np.cos(x) + 7.0 * np.sin(x))

    problem = BvpProblem(
        "p3", bc, residual, is_linear=True,
        partials=_constant_partials([-1.0, 0, 0, 0, 0, 0, 0, 0, 1.0]),
        exact=exact,
    )
    return _entry(problem, (
        (0.0, 0.0), (0.1, 6.6e-12), (0.2, 6.9e-11), (0.3, 2.1e-10),
        (0.4, 3.5e-10), (0.5, 4.1e-10), (0.6, 3.5e-10), (0.7, 2.1e-10),
        (0.8, 7.2e-11), (0.9, 8.0e-12), (1.0, 0.0),
    ))


def problem_4() -> BenchmarkEntry:
    """Nonlinear: y^(8) + y''' sin(y) = e^x (1 + sin(e^x)) on [0, 1], exact y = e^x."""

    def exact(x, order: int = 0):
        return np.exp(x)

    bc = BoundaryConditions.from_callable(0.0, 1.0, exact)

    def residual(x, y):
        return y[8] + y[3] * np.sin(y[0]) - np.exp(x) * (1.0 + np.sin(np.exp(x)))

    def partials(x, y):
        return _partials(x, {0: y[3] * np.cos(y[0]), 3: np.sin(y[0]), 8: 1.0})

    problem = BvpProblem("p4", bc, residual, is_linear=False, partials=partials, exact=exact)
    return _entry(problem, (
        (0.0, 0.0), (0.1, 2.503395e-06), (0.2, 8.940697e-06), (0.3, 1.561642e-05),
        (0.4, 1.823902e-05), (0.5, 8.821487e-06), (0.6, 7.510185e-06),
        (0.7, 1.883507e-05), (0.8, 1.931190e-05), (0.9, 1.168251e-05), (1.0, 0.0),
    ))


def problem_5() -> BenchmarkEntry:
    """Nonlinear: y^(8) = 7! (e^{-8y} - 2 / (1 + x)^8) on [0, sqrt(e) - 1], exact y = ln(1 + x)."""
    exact = _log1p_solution()
    bc = BoundaryConditions.from_callable(0.0, math.expm1(0.5), exact)

    def residual(x, y):
        return y[8] - _SEVEN_FACTORIAL * (np.exp(-8.0 * y[0]) - 2.0 / (1.0 + x) ** 8)

    def partials(x, y):
        return _partials(x, {0: 8.0 * _SEVEN_FACTORIAL * np.exp(-8.0 * y[0]), 8: 1.0})

    problem = BvpProblem("p5", bc, residual, is_linear=False, partials=partials, exact=exact)
    # The published table labels rows 0..1 although the domain ends at
    # sqrt(e) - 1; labels are row positions, not x values.  The 0.8 row
    # prints a malformed "5.45-06", restored here as 5.45e-06.
    return _entry(problem, (
        (0.0, 0.0), (0.1, 2.01e-07), (0.2, 4.54e-07), (0.3, 1.52e-06),
        (0.4, 4.07e-06), (0.5, 6.71e-06), (0.6, 9.06e-06), (0.7, 1.00e-05),
        (0.8, 5.45e-06), (0.9, 2.59e-06), (1.0, 0.0),
    ))


def problem_6() -> BenchmarkEntry:
    """Nonlinear: y^(8) + e^{-x} y^2 = e^{-x} + e^{-3x} on [0, 1], exact y = e^{-x}."""

    def exact(x, order: int = 0):
        sign = -1.0 if order % 2 else 1.0
        return sign * np.exp(-np.asarray(x, dtype=float))

    bc = BoundaryConditions.from_callable(0.0, 1.0, exact)

    def residual(x, y):
        return y[8] + np.exp(-x) * y[0] ** 2 - np.exp(-x) - np.exp(-3.0 * x)

    def partials(x, y):
        return _partials(x, {0: 2.0 * np.exp(-x) * y[0], 8: 1.0})

    problem = BvpProblem("p6", bc, residual, is_linear=False, partials=partials, exact=exact)
    return _entry(problem, (
        (0.0, 0.0), (0.1, 2.9e-12), (0.2, 2.7e-11), (0.3, 7.6e-11),
        (0.4, 1.3e-10), (0.5, 1.5e-10), (0.6, 1.3e-10), (0.7, 7.6e-11),
        (0.8, 2.5e-11), (0.9, 2.4e-12), (1.0, 0.0),
    ))


def problem_7() -> BenchmarkEntry:
    """Linear, all derivative orders present, exact y = (x^2 - 1) sin x on [0, 1].

    y^(8) + y^(7) + 2 (y^(6) + y^(5) + y^(4) + y''' + y'') + y' + y
        = 14 cos x - 16 sin x - 4 x sin x.
    """
    exact = _sin_cos_solution([-1.0, 0.0, 1.0], [0.0])
    bc = BoundaryConditions.from_callable(0.0, 1.0, exact)
    weights = _constant_partials([1.0, 1.0, 2.0, 2.0, 2.0, 2.0, 2.0, 1.0, 1.0])

    def residual(x, y):
        forcing = 14.0 * np.cos(x) - 16.0 * np.sin(x) - 4.0 * x * np.sin(x)
        return (
            y[8] + y[7]
            + 2.0 * (y[6] + y[5] + y[4] + y[3] + y[2])
            + y[1] + y[0]
            - forcing
        )

    problem = BvpProblem("p7", bc, residual, is_linear=True, partials=weights, exact=exact)
    return _entry(problem, None)


PROBLEM_FACTORIES = {
    "p1": problem_1,
    "p2": problem_2,
    "p3": problem_3,
    "p4": problem_4,
    "p5": problem_5,
    "p6": problem_6,
    "p7": problem_7,
}

PROBLEM_NAMES = tuple(PROBLEM_FACTORIES)


def benchmark(name: str) -> BenchmarkEntry:
    """Look up one benchmark entry by name (p1..p7)."""
    try:
        factory = PROBLEM_FACTORIES[name]
    except (KeyError, TypeError):  # TypeError: an unhashable name
        raise ConfigurationError(
            f"unknown problem {name!r}; choose from {', '.join(PROBLEM_NAMES)}"
        ) from None
    return factory()


def all_benchmarks() -> dict[str, BenchmarkEntry]:
    return {name: factory() for name, factory in PROBLEM_FACTORIES.items()}


def derivative_errors(sol: Solution, n_error_points: int = 11) -> np.ndarray:
    """Mean absolute error of y, y', .., y^(8) of a solution at equidistant points.

    Averages |y^{(d)} - exact^{(d)}| over n_error_points equidistant points
    including the endpoints.  Requires a Solution whose problem has an exact
    solution, and at least 2 points; else ConfigurationError.
    """
    check_instance("sol", sol, Solution)
    if check_integer("n_error_points", n_error_points) < 2:
        raise ConfigurationError(f"n_error_points must be at least 2, got {n_error_points}")
    problem = sol.problem
    if problem.exact is None:
        raise ConfigurationError(f"problem {problem.name!r} has no exact solution")
    xs = np.linspace(problem.bc.x_i, problem.bc.x_f, n_error_points)
    return np.array([
        np.mean(np.abs(sol(xs, d) - problem.exact(xs, d))) for d in range(9)
    ])


def derivative_error_report(
    entry: BenchmarkEntry, m_basis: int, n_error_points: int = 11
) -> np.ndarray:
    """derivative_errors of a solve with m_basis terms on m_basis + 1 points."""
    check_instance("entry", entry, BenchmarkEntry)
    config = SolverConfig(n_points=m_basis + 1, m_basis=m_basis)
    return derivative_errors(solve(entry.problem, config), n_error_points)
