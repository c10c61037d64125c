"""Seven benchmark problems with exact solutions and published reference errors.

One table holds each problem's domain, residual, analytic partials, exact
solution and, where available, the absolute errors a competing finite-difference
method reported at the 11 equidistant table points; benchmark(name) builds its
BenchmarkEntry from that row.  Boundary data is always generated from the exact
solution, so the constraints and the reported errors are mutually consistent.

Exact derivatives through order eight come from closed-form patterns:
polynomial-times-exponential and polynomial-times-trig solutions differentiate
by small coefficient recurrences, the logarithmic solution by a factorial
formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

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
    reference_errors: Optional[tuple]

    @property
    def table_points(self) -> np.ndarray:
        """The TABLE_ROWS equidistant points of the domain, the rows of the error table."""
        return np.linspace(self.problem.bc.x_i, self.problem.bc.x_f, TABLE_ROWS)

    def reference_by_row(self) -> list:
        """Reference errors aligned with table_points; None where unreported."""
        by_row: list = [None] * TABLE_ROWS
        if self.reference_errors is not None:
            for label, value in self.reference_errors:
                by_row[round(10.0 * label)] = value
        return by_row


def _poly_exp_rows(p0) -> list:
    """Polynomials p_d of the derivatives p_d(x) e^x of p(x) e^x, d = 0..8: p_{n+1} = p_n + p_n'."""
    rows = [np.asarray(p0, dtype=float)]
    for _ in range(8):
        rows.append(npoly.polyadd(rows[-1], npoly.polyder(rows[-1])))
    return rows


def _sin_cos_pairs(p0, q0) -> list:
    """Polynomial pairs (p_d, q_d) of the derivatives p_d(x) sin x + q_d(x) cos x of
    p(x) sin x + q(x) cos x, d = 0..8: (p, q) -> (p' - q, q' + p)."""
    pairs = [(np.asarray(p0, dtype=float), np.asarray(q0, dtype=float))]
    for _ in range(8):
        p, q = pairs[-1]
        pairs.append((npoly.polysub(npoly.polyder(p), q), npoly.polyadd(npoly.polyder(q), p)))
    return pairs


def _partials(x, columns: dict) -> np.ndarray:
    """Rows dF/dy^{(d)} at the nodes x, shape x.shape + (9,): columns maps d to its values."""
    rows = np.zeros(np.shape(x) + (9,))
    for d, value in columns.items():
        rows[..., d] = value
    return rows


# Every residual, partials and exact callback is a module-level function, so a problem, and a
# solution of it, pickles, and the problems of two benchmark() calls compare equal.
# A constant partials row is filled into a new array: a broadcast view costs 4x more.

_P1_ROWS = _poly_exp_rows([1.0, -1.0])
_UNIT_ROW = np.array([-1.0, 0, 0, 0, 0, 0, 0, 0, 1.0])  # dF/dy = -1, dF/dy^(8) = 1: p1, p3
_UNIT_ROW.flags.writeable = False


def _exact_1(x, order: int = 0):
    return npoly.polyval(x, _P1_ROWS[order]) * np.exp(x)


def _residual_1(x, y):
    return y[8] - y[0] + 8.0 * np.exp(x)


def _unit_partials(x, y):
    rows = np.empty(np.shape(x) + _UNIT_ROW.shape)
    rows[...] = _UNIT_ROW
    return rows


_P2_ROWS = _poly_exp_rows([0.0, 1.0, -1.0])


def _exact_2(x, order: int = 0):
    return npoly.polyval(x, _P2_ROWS[order]) * np.exp(x)


def _residual_2(x, y):
    return y[8] + x * y[0] + (x**3 + 15.0 * x + 48.0) * np.exp(x)


def _partials_2(x, y):
    return _partials(x, {0: x, 8: 1.0})


_P3_PAIRS = _sin_cos_pairs([-1.0, 0.0, 1.0], [0.0])


def _exact_3(x, order: int = 0):
    """(x^2 - 1) sin x and its derivatives: p3's and p7's exact solution."""
    p, q = _P3_PAIRS[order]
    return npoly.polyval(x, p) * np.sin(x) + npoly.polyval(x, q) * np.cos(x)


def _residual_3(x, y):
    return y[8] - y[0] + 8.0 * (2.0 * x * np.cos(x) + 7.0 * np.sin(x))


def _exact_4(x, order: int = 0):
    return np.exp(x)


def _residual_4(x, y):
    exp_x = np.exp(x)
    return y[8] + y[3] * np.sin(y[0]) - exp_x * (1.0 + np.sin(exp_x))


def _partials_4(x, y):
    return _partials(x, {0: y[3] * np.cos(y[0]), 3: np.sin(y[0]), 8: 1.0})


def _exact_5(x, order: int = 0):
    """ln(1 + x) and its derivatives (-1)^{n+1} (n-1)! / (1 + x)^n."""
    if order == 0:
        return np.log1p(x)
    sign = 1.0 if order % 2 else -1.0
    return sign * math.factorial(order - 1) / (1.0 + np.asarray(x, dtype=float)) ** order


def _residual_5(x, y):
    return y[8] - _SEVEN_FACTORIAL * (np.exp(-8.0 * y[0]) - 2.0 / (1.0 + x) ** 8)


def _partials_5(x, y):
    return _partials(x, {0: 8.0 * _SEVEN_FACTORIAL * np.exp(-8.0 * y[0]), 8: 1.0})


def _exact_6(x, order: int = 0):
    sign = -1.0 if order % 2 else 1.0
    return sign * np.exp(-np.asarray(x, dtype=float))


def _residual_6(x, y):
    exp_minus_x = np.exp(-x)
    return y[8] + exp_minus_x * y[0] ** 2 - exp_minus_x - np.exp(-3.0 * x)


def _partials_6(x, y):
    return _partials(x, {0: 2.0 * np.exp(-x) * y[0], 8: 1.0})


_P7_ROW = np.array([1.0, 1.0, 2.0, 2.0, 2.0, 2.0, 2.0, 1.0, 1.0])
_P7_ROW.flags.writeable = False


def _residual_7(x, y):
    sin = np.sin(x)
    forcing = 14.0 * np.cos(x) - 16.0 * sin - 4.0 * x * sin
    return (
        y[8] + y[7]
        + 2.0 * (y[6] + y[5] + y[4] + y[3] + y[2])
        + y[1] + y[0]
        - forcing
    )


def _partials_7(x, y):
    rows = np.empty(np.shape(x) + _P7_ROW.shape)
    rows[...] = _P7_ROW
    return rows


#: name: (x_f, residual, is_linear, partials, exact, reference rows), each problem on [0, x_f].
#: The reference rows are the published errors at the table rows 0, 0.1, .., 1, None where a
#: row was not reported, or None for a problem with no comparison column.
_TABLE = {
    # y^(8) - y = -8 e^x, exact y = (1 - x) e^x.
    "p1": (1.0, _residual_1, True, _unit_partials, _exact_1,
           (0.0, 6.3e-11, 6.5e-10, 2.0e-09, 3.3e-09, 3.9e-09, 3.4e-09, 2.0e-09, 6.9e-10,
            7.6e-11, 0.0)),
    # y^(8) + x y = -(x^3 + 15 x + 48) e^x, exact y = x (1 - x) e^x.
    "p2": (1.0, _residual_2, True, _partials_2, _exact_2,
           (0.0, 1.63e-10, 1.63e-09, 4.90e-09, 8.46e-09, 1.01e-08, 8.68e-09, 5.15e-09,
            1.76e-09, None, 0.0)),
    # y^(8) - y = -8 (2 x cos x + 7 sin x), exact y = (x^2 - 1) sin x.
    "p3": (1.0, _residual_3, True, _unit_partials, _exact_3,
           (0.0, 6.6e-12, 6.9e-11, 2.1e-10, 3.5e-10, 4.1e-10, 3.5e-10, 2.1e-10, 7.2e-11,
            8.0e-12, 0.0)),
    # y^(8) + y''' sin(y) = e^x (1 + sin(e^x)), exact y = e^x.
    "p4": (1.0, _residual_4, False, _partials_4, _exact_4,
           (0.0, 2.503395e-06, 8.940697e-06, 1.561642e-05, 1.823902e-05, 8.821487e-06,
            7.510185e-06, 1.883507e-05, 1.931190e-05, 1.168251e-05, 0.0)),
    # y^(8) = 7! (e^{-8y} - 2 / (1 + x)^8) on [0, sqrt(e) - 1], exact y = ln(1 + x).  The
    # published table labels its rows 0..1 as elsewhere, so labels are row positions, not x
    # values; it prints the 0.8 row as a malformed "5.45-06", restored here as 5.45e-06.
    "p5": (math.expm1(0.5), _residual_5, False, _partials_5, _exact_5,
           (0.0, 2.01e-07, 4.54e-07, 1.52e-06, 4.07e-06, 6.71e-06, 9.06e-06, 1.00e-05,
            5.45e-06, 2.59e-06, 0.0)),
    # y^(8) + e^{-x} y^2 = e^{-x} + e^{-3x}, exact y = e^{-x}.
    "p6": (1.0, _residual_6, False, _partials_6, _exact_6,
           (0.0, 2.9e-12, 2.7e-11, 7.6e-11, 1.3e-10, 1.5e-10, 1.3e-10, 7.6e-11, 2.5e-11,
            2.4e-12, 0.0)),
    # y^(8) + y^(7) + 2 (y^(6) + y^(5) + y^(4) + y''' + y'') + y' + y
    #     = 14 cos x - 16 sin x - 4 x sin x, exact y = (x^2 - 1) sin x.
    "p7": (1.0, _residual_7, True, _partials_7, _exact_3, None),
}

PROBLEM_NAMES = tuple(_TABLE)


def benchmark(name: str) -> BenchmarkEntry:
    """The benchmark entry of one name (p1..p7), built from its table row."""
    try:
        x_f, residual, is_linear, partials, exact, rows = _TABLE[name]
    except (KeyError, TypeError):  # TypeError: an unhashable name
        raise ConfigurationError(
            f"unknown problem {name!r}; choose from {', '.join(PROBLEM_NAMES)}"
        ) from None
    bc = BoundaryConditions.from_callable(0.0, x_f, exact)
    problem = BvpProblem(name, bc, residual, is_linear, partials, exact)
    reference = None if rows is None else tuple(
        (k / 10.0, error) for k, error in enumerate(rows) if error is not None)
    return BenchmarkEntry(problem, reference)


def all_benchmarks() -> dict[str, BenchmarkEntry]:
    return {name: benchmark(name) for name in PROBLEM_NAMES}


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
    """derivative_errors of a solve with m_basis (an integer >= 1) terms on m_basis + 1 points."""
    check_instance("entry", entry, BenchmarkEntry)
    if check_integer("m_basis", m_basis) < 1:
        raise ConfigurationError(f"m_basis must be at least 1, got {m_basis}")
    config = SolverConfig(n_points=m_basis + 1, m_basis=m_basis)
    return derivative_errors(solve(entry.problem, config), n_error_points)
