"""Acceptance gate: ten numbered criteria, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the test results.  Every tolerance here is contractual;
loosening one is an interface change, not a test fix.
"""

import math

import numpy as np

from bvp8.expression import UNIT_CHEB, ConstrainedExpression
from bvp8.problems import all_benchmarks, benchmark, derivative_error_report
from bvp8.solver import (
    SolverConfig,
    assemble_loss_and_jacobian,
    build_system,
    lstsq_scaled_qr,
    solve,
)

from switching_oracle import UNIT_COEFFS, constraint_locations, exact_unit_cheb, unit_linear_solve


def _report(number: int, label: str, ok: bool, detail: str = ""):
    suffix = f"  ({detail})" if detail else ""
    print(f"criterion {number:02d} {label}: {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"criterion {number} [{label}] failed: {detail}"


def test_criterion_01_switching_function_forms():
    # The package's one form, UNIT_CHEB, against the exact rational Chebyshev series
    # of the monomial table: the series must hit it to the last floating-point digit.
    exact = exact_unit_cheb()
    solved = unit_linear_solve()
    nonzero = exact != 0.0
    rel = np.max(np.abs(UNIT_CHEB[nonzero] - exact[nonzero]) / np.abs(exact[nonzero]))
    zeros_exact = np.all(UNIT_CHEB[~nonzero] == 0.0)
    solve_gap = np.max(np.abs(solved.coeffs - UNIT_COEFFS)) / np.max(np.abs(UNIT_COEFFS))
    ok = rel <= 1e-15 and zeros_exact and solve_gap <= 1e-10
    _report(1, "switching-function forms", ok,
            f"Chebyshev-series rel {rel:.2e}, linear-solve rel {solve_gap:.2e}")


def test_criterion_02_constraint_embedding():
    rng = np.random.default_rng(42)
    worst = 0.0
    for name, entry in all_benchmarks().items():
        bc = entry.problem.bc
        ce = ConstrainedExpression.build(bc, 10)
        values = bc.interleaved()
        locs = constraint_locations(bc.x_i, bc.x_f)
        for _ in range(100):
            xi = rng.uniform(-1.0, 1.0, size=10)
            for k, (x, d) in enumerate(locs):
                gap = abs(ce.eval(x, d, xi) - values[k]) / (1.0 + abs(values[k]))
                worst = max(worst, gap)
    _report(2, "constraint embedding", worst <= 1e-12, f"worst scaled violation {worst:.2e}")


def test_criterion_03_linear_benchmarks():
    worst, worst_end = 0.0, 0.0
    for name in ("p1", "p2", "p3"):
        entry = benchmark(name)
        err = solve(entry.problem).error(entry.table_points)
        worst = max(worst, float(np.max(err)))
        worst_end = max(worst_end, float(err[0]), float(err[-1]))
    ok = worst <= 1e-13 and worst_end <= 1e-14
    _report(3, "linear benchmark accuracy", ok,
            f"max error {worst:.2e}, endpoint error {worst_end:.2e}")


def _nonlinear_criterion(number: int, name: str, max_iters: int, bound: float):
    entry = benchmark(name)
    sol = solve(entry.problem)
    err = float(np.max(sol.error(entry.table_points)))
    its = sol.report.iterations
    ok = its <= max_iters and err <= bound
    _report(number, f"{name} convergence and accuracy", ok,
            f"{its} iterations, max error {err:.2e}")


def test_criterion_04_problem_4():
    _nonlinear_criterion(4, "p4", max_iters=5, bound=1e-13)


def test_criterion_05_problem_5():
    entry = benchmark("p5")
    assert entry.problem.bc.x_f == math.expm1(0.5)
    _nonlinear_criterion(5, "p5", max_iters=4, bound=5e-12)


def test_criterion_06_problem_6():
    _nonlinear_criterion(6, "p6", max_iters=4, bound=1e-13)


def test_criterion_07_initial_iterate_error_window():
    entry = benchmark("p4")
    ce, _ = build_system(entry.problem, SolverConfig())
    xs = np.linspace(0.0, 1.0, 101)
    gap = float(np.max(np.abs(ce.b_value(xs, 0) - np.exp(xs))))
    ok = 1e-8 <= gap <= 1e-6
    _report(7, "initial-iterate error window", ok, f"max |y(x,0) - exp(x)| = {gap:.2e}")


def test_criterion_08_derivative_accuracy_study():
    fine = derivative_error_report(benchmark("p5"), m_basis=30, n_error_points=100)
    coarse5 = derivative_error_report(benchmark("p5"), m_basis=10)
    coarse7 = derivative_error_report(benchmark("p7"), m_basis=10)
    ok = (
        fine[0] <= 1e-14
        and fine[7] <= 2e-9
        and fine[8] < fine[7]
        and coarse5[8] >= 1e-3
        and coarse7[8] <= 1e-9
    )
    _report(8, "derivative accuracy study", ok,
            f"m=30: y {fine[0]:.1e}, y7 {fine[7]:.1e}, y8 {fine[8]:.1e}; "
            f"m=10: p5 y8 {coarse5[8]:.1e}, p7 y8 {coarse7[8]:.1e}")


def test_criterion_09_oracle_equivalence():
    """QR and normal-equations updates must agree on every iteration.

    Relative to max(|delta|, |xi|): once the residual plateaus the exact
    update is zero and the computed ones are roundoff-sized, so measuring
    against the current iterate is the meaningful scale there.
    """
    rng = np.random.default_rng(3)
    worst_delta, worst_jac = 0.0, 0.0
    for name, entry in all_benchmarks().items():
        prob = entry.problem
        ce, grid = build_system(prob, SolverConfig())
        iterations = 1 if prob.is_linear else solve(prob).report.iterations
        xi = np.zeros(10)
        for _ in range(iterations):
            loss, jac = assemble_loss_and_jacobian(prob, ce, grid, xi)
            delta_qr = lstsq_scaled_qr(jac, loss)
            delta_ne = np.linalg.solve(jac.T @ jac, jac.T @ loss)
            scale = max(np.linalg.norm(delta_qr), np.linalg.norm(xi))
            worst_delta = max(worst_delta, np.linalg.norm(delta_qr - delta_ne) / scale)
            for _ in range(3):
                v = rng.standard_normal(10)
                step = 1e-7
                hi, _ = assemble_loss_and_jacobian(prob, ce, grid, xi + step * v)
                lo, _ = assemble_loss_and_jacobian(prob, ce, grid, xi - step * v)
                fd = (hi - lo) / (2.0 * step)
                jv = jac @ v
                worst_jac = max(
                    worst_jac, np.linalg.norm(fd - jv) / max(1.0, np.linalg.norm(jv)))
            xi = xi - delta_qr
    ok = worst_delta <= 1e-8 and worst_jac <= 1e-5
    _report(9, "least-squares oracle equivalence", ok,
            f"worst update gap {worst_delta:.2e}, worst Jacobian gap {worst_jac:.2e}")


def test_criterion_10_boundary_data_guards():
    def shared(x, d):
        if d == 0:
            return (x * x - 1.0) * math.sin(x)
        if d == 1:
            return 2.0 * x * math.sin(x) + (x * x - 1.0) * math.cos(x)
        if d == 2:
            return (3.0 - x * x) * math.sin(x) + 4.0 * x * math.cos(x)
        return (7.0 - x * x) * math.cos(x) - 6.0 * x * math.sin(x)

    worst = 0.0
    for name in ("p3", "p7"):
        bc = benchmark(name).problem.bc
        for d in range(4):
            worst = max(worst, abs(bc.left_values[d] - shared(0.0, d)))
            worst = max(worst, abs(bc.right_values[d] - shared(1.0, d)))
    bc6 = benchmark("p6").problem.bc
    for d in range(4):
        worst = max(worst, abs(bc6.right_values[d] - (-1.0) ** d * math.exp(-1.0)))
    _report(10, "boundary data guards", worst <= 1e-12, f"worst deviation {worst:.2e}")
