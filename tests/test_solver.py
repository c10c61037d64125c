"""Tests for system assembly, least squares, and the two solve paths."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

import bvp8.solver as solver_module
from bvp8.errors import ConfigurationError, EvaluationError, SingularSystemError
from bvp8.expression import BoundaryConditions
from bvp8.problems import benchmark
from bvp8.solver import (
    BvpProblem,
    SolverConfig,
    StopReason,
    assemble_linear,
    assemble_loss_and_jacobian,
    build_system,
    lstsq_scaled_qr,
    solve,
    solve_linear,
    solve_nonlinear,
)

from switching_oracle import unit_linear_solve


def normal_equations_lstsq(a, rhs):
    """Textbook least-squares oracle: solve the normal equations directly."""
    return np.linalg.solve(a.T @ a, a.T @ rhs)


class TestSolverConfig:
    def test_defaults(self):
        cfg = SolverConfig()
        assert cfg.n_points == 11
        assert cfg.m_basis == 10
        assert cfg.max_iterations == 20

    @pytest.mark.parametrize("kwargs", [
        {"n_points": 1},
        {"m_basis": 0},
        {"n_points": 10, "m_basis": 10},
        {"max_iterations": 0},
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            SolverConfig(**kwargs)

    def test_square_system_allowed(self):
        cfg = SolverConfig(n_points=11, m_basis=10)
        assert cfg.m_basis == cfg.n_points - 1


class TestLstsqScaledQr:
    def test_identity_returns_rhs(self):
        rhs = np.array([3.0, -1.0, 2.0])
        assert_allclose(lstsq_scaled_qr(np.eye(3), rhs), rhs, atol=1e-15)

    def test_overdetermined_mean(self):
        a = np.ones((3, 1))
        w = lstsq_scaled_qr(a, np.array([1.0, 2.0, 3.0]))
        assert w[0] == pytest.approx(2.0, abs=1e-14)

    def test_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            a = rng.standard_normal((11, 10))
            rhs = rng.standard_normal(11)
            got = lstsq_scaled_qr(a, rhs)
            want = normal_equations_lstsq(a, rhs)
            assert_allclose(got, want, rtol=1e-8, atol=1e-10)

    def test_residual_orthogonal_to_columns(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal((20, 6))
        rhs = rng.standard_normal(20)
        w = lstsq_scaled_qr(a, rhs)
        grad = a.T @ (a @ w - rhs)
        assert np.linalg.norm(grad) <= 1e-8 * np.linalg.norm(a) * np.linalg.norm(rhs)

    def test_badly_scaled_columns(self):
        """Column norms spanning 12 decades: the solve stays backward stable
        and components whose columns carry weight are recovered tightly.
        (The 1e-6 column's coefficient sits below roundoff of the rhs, so
        only a loose bound is possible there.)"""
        rng = np.random.default_rng(9)
        q, _ = np.linalg.qr(rng.standard_normal((12, 4)))
        a = q * np.array([1e-6, 1.0, 1e6, 1.0])
        want = np.array([2.0, -1.0, 0.5, 3.0])
        rhs = a @ want
        got = lstsq_scaled_qr(a, rhs)
        assert np.linalg.norm(a @ got - rhs) <= 1e-10 * np.linalg.norm(rhs)
        assert_allclose(got[1:], want[1:], rtol=1e-9)
        assert got[0] == pytest.approx(want[0], rel=1e-3)

    def test_zero_column_named(self):
        a = np.ones((4, 3))
        a[:, 1] = 0.0
        with pytest.raises(SingularSystemError, match="column 1"):
            lstsq_scaled_qr(a, np.ones(4))

    def test_duplicate_columns_rejected(self):
        rng = np.random.default_rng(10)
        a = rng.standard_normal((8, 4))
        a[:, 3] = a[:, 0]
        with pytest.raises(SingularSystemError, match="rank deficient"):
            lstsq_scaled_qr(a, np.ones(8))

    def test_underdetermined_rejected(self):
        with pytest.raises(ValueError, match="underdetermined"):
            lstsq_scaled_qr(np.ones((2, 3)), np.ones(2))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            lstsq_scaled_qr(np.ones((3, 2)), np.ones(4))


class TestAssembly:
    def test_build_system_spans_domain(self):
        entry = benchmark("p5")
        ce, grid = build_system(entry.problem, SolverConfig())
        assert grid.x_nodes[0] == entry.problem.bc.x_i
        assert grid.x_nodes[-1] == entry.problem.bc.x_f
        assert ce.basis.m == 10

    def test_linear_system_structure(self):
        """For F = y'''''''' - y + 8 e^x the rows must be a8 - a0 and b8 - b0 + 8 e^x."""
        entry = benchmark("p1")
        ce, grid = build_system(entry.problem, SolverConfig())
        jac, loss = assemble_linear(entry.problem, ce, grid)
        xs = grid.x_nodes
        want_rows = ce.a_row(xs, 8) - ce.a_row(xs, 0)
        want_loss = ce.b_value(xs, 8) - ce.b_value(xs, 0) + 8.0 * np.exp(xs)
        assert_allclose(jac, want_rows, rtol=1e-14, atol=1e-14)
        assert_allclose(loss, want_loss, rtol=1e-14, atol=1e-14)

    def test_linear_system_full_rank(self):
        for name in ("p1", "p2", "p3", "p7"):
            entry = benchmark(name)
            ce, grid = build_system(entry.problem, SolverConfig())
            jac, _ = assemble_linear(entry.problem, ce, grid)
            assert np.linalg.matrix_rank(jac) == 10

    def test_assemble_linear_rejects_nonlinear(self):
        entry = benchmark("p4")
        ce, grid = build_system(entry.problem, SolverConfig())
        with pytest.raises(ValueError):
            assemble_linear(entry.problem, ce, grid)

    def test_nonlinear_jacobian_structure(self):
        """For F = y'''''''' + y''' sin(y) - f the chain rule gives
        a8 + sin(y) a3 + y''' cos(y) a0 row by row."""
        entry = benchmark("p4")
        ce, grid = build_system(entry.problem, SolverConfig())
        xi = np.zeros(10)
        _, jac = assemble_loss_and_jacobian(entry.problem, ce, grid, xi)
        xs = grid.x_nodes
        y0 = ce.b_value(xs, 0)
        y3 = ce.b_value(xs, 3)
        want = (
            ce.a_row(xs, 8)
            + np.sin(y0)[:, None] * ce.a_row(xs, 3)
            + (y3 * np.cos(y0))[:, None] * ce.a_row(xs, 0)
        )
        assert_allclose(jac, want, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("name", ["p4", "p5", "p6"])
    def test_jacobian_matches_directional_differences(self, name):
        entry = benchmark(name)
        ce, grid = build_system(entry.problem, SolverConfig())
        rng = np.random.default_rng(13)
        xi = 0.01 * rng.standard_normal(10)
        _, jac = assemble_loss_and_jacobian(entry.problem, ce, grid, xi)
        step = 1e-7
        for _ in range(5):
            v = rng.standard_normal(10)
            hi, _ = assemble_loss_and_jacobian(entry.problem, ce, grid, xi + step * v)
            lo, _ = assemble_loss_and_jacobian(entry.problem, ce, grid, xi - step * v)
            fd = (hi - lo) / (2.0 * step)
            want = jac @ v
            scale = max(1.0, float(np.max(np.abs(want))))
            assert_allclose(fd, want, rtol=1e-5, atol=1e-5 * scale)

    def test_nonfinite_residual_reported_with_location(self):
        bc = BoundaryConditions(0.0, 1.0, (0.0,) * 4, (0.0,) * 4)
        bad = BvpProblem(
            name="bad",
            bc=bc,
            residual=lambda x, y: np.full(x.shape, np.nan),
            is_linear=False,
        )
        ce, grid = build_system(bad, SolverConfig())
        with pytest.raises(EvaluationError, match="x="):
            assemble_loss_and_jacobian(bad, ce, grid, np.zeros(10))

    def test_trial_whose_callback_raises_is_rejected(self):
        # p5 stretched to [0, e^3 - 1]: the first Gauss-Newton step drives
        # y negative enough that exp(-8 y) overflows.  This residual raises
        # there, as math.exp does; the line search rejects those trials.
        p5 = benchmark("p5").problem
        raised = []

        def residual(x, y):
            if np.any(-8.0 * y[0] > 709.78):
                raised.append(x.size)
                raise OverflowError("math range error")
            return p5.residual(x, y)

        stretched = dataclasses.replace(
            p5, residual=residual,
            bc=BoundaryConditions.from_callable(0.0, math.expm1(3.0), p5.exact),
        )
        report = solve(stretched).report
        assert raised
        assert np.all(np.diff(report.residual_norm_history) <= 0.0)
        assert np.all(np.isfinite(report.xi))

    def test_partials_exception_names_callback(self):
        def partials(x, y):
            raise ZeroDivisionError("boom")

        problem = dataclasses.replace(benchmark("p4").problem, partials=partials)
        ce, grid = build_system(problem, SolverConfig())
        with pytest.raises(EvaluationError, match=r"^partials raised ZeroDivisionError: boom$"):
            assemble_loss_and_jacobian(problem, ce, grid, np.zeros(10))

    def test_package_error_from_callback_passes_through(self):
        raised = ConfigurationError("from the callback")

        def residual(x, y):
            raise raised

        problem = dataclasses.replace(benchmark("p4").problem, residual=residual)
        with pytest.raises(ConfigurationError) as info:
            solve(problem)
        assert info.value is raised

    @pytest.mark.parametrize("name,callback,result,shape,got", [
        ("p4", "partials", lambda x, y: np.zeros((x.size, 8)), r"\(11, 9\)", r"\(11, 8\)"),
        ("p4", "partials", lambda x, y: np.zeros(9), r"\(11, 9\)", r"\(9,\)"),
        ("p4", "partials", lambda x, y: [np.zeros(9), np.zeros(8)], r"\(11, 9\)",
         "a non-numeric result"),
        ("p1", "residual", lambda x, y: np.zeros((x.size, 2)), r"\(11,\)", r"\(11, 2\)"),
        ("p1", "residual", lambda x, y: 0.0, r"\(11,\)", r"\(\)"),
        ("p1", "residual", lambda x, y: "zero", r"\(11,\)", "a non-numeric result"),
    ], ids=["partials-wide", "partials-one-row", "partials-ragged", "residual-wide",
            "residual-scalar", "residual-string"])
    def test_callback_output_shape_checked(self, name, callback, result, shape, got):
        problem = dataclasses.replace(benchmark(name).problem, **{callback: result})
        match = rf"{callback} must give shape {shape} over the nodes, got {got}"
        with pytest.raises(EvaluationError, match=match):
            solve(problem)


class TestSolveLinear:
    def test_rejects_nonlinear_problem(self):
        with pytest.raises(ValueError):
            solve_linear(benchmark("p4").problem)

    def test_report_shape(self):
        sol = solve_linear(benchmark("p1").problem)
        r = sol.report
        assert r.iterations == 1
        assert r.converged_by is StopReason.LINEAR_SINGLE_SHOT
        assert not r.used_fd_partials
        assert r.xi.shape == (10,)
        assert r.residual_norm_history.shape == (1,)
        assert r.solution_norm == r.residual_norm_history[0]

    @pytest.mark.parametrize("name", ["p1", "p2", "p3", "p7"])
    def test_benchmark_accuracy(self, name):
        entry = benchmark(name)
        sol = solve_linear(entry.problem)
        err = sol.error(entry.table_points)
        assert err[0] == 0.0 and err[-1] == 0.0
        assert np.max(err) <= 5e-15

    def test_solution_callable_orders(self):
        entry = benchmark("p3")
        sol = solve_linear(entry.problem)
        xs = np.linspace(*entry.problem.domain, 7)
        for order in (0, 1, 4):
            got = sol(xs, order)
            want = entry.problem.exact(xs, order)
            assert_allclose(got, want, atol=1e-11 * max(1.0, np.max(np.abs(want))))


class TestSolveNonlinear:
    def test_gauss_newton_on_linear_matches_single_shot(self):
        prob = benchmark("p1").problem
        gn = solve_nonlinear(prob)
        lin = solve_linear(prob)
        assert_allclose(gn.report.xi, lin.report.xi, rtol=0, atol=1e-10)
        assert gn.report.converged_by is StopReason.CONVERGED

    @pytest.mark.parametrize("n_points,m_basis", [(11, 10), (31, 30), (481, 60)])
    @pytest.mark.parametrize("name", ["p4", "p5", "p6"])
    def test_iteration_counts(self, name, n_points, m_basis):
        # The second step is 1e-18 to 1e-24 of ||xi||: far below step_tol.
        config = SolverConfig(n_points=n_points, m_basis=m_basis)
        sol = solve(benchmark(name).problem, config)
        assert sol.report.iterations == 2
        assert sol.report.converged_by is StopReason.CONVERGED

    @pytest.mark.parametrize("name,bound", [("p4", 5e-15), ("p5", 5e-13), ("p6", 5e-15)])
    def test_benchmark_accuracy(self, name, bound):
        entry = benchmark(name)
        sol = solve(entry.problem)
        err = sol.error(entry.table_points)
        assert err[0] == 0.0 and err[-1] == 0.0
        assert np.max(err) <= bound

    def test_history_holds_accepted_iterates_only(self):
        for name in ("p4", "p5", "p6"):
            r = solve(benchmark(name).problem).report
            h = r.residual_norm_history
            # One entry per step, the converged last step included when it
            # did not raise the norm; line-search steps lower it strictly.
            assert h.shape in ((r.iterations,), (r.iterations + 1,))
            assert np.all(np.diff(h)[:-1] < 0) and np.all(np.diff(h) <= 0)
            assert h[-1] == r.solution_norm

    def test_solution_norm_belongs_to_returned_xi(self):
        sol = solve(benchmark("p6").problem)
        ce, grid = build_system(sol.problem, sol.config)
        loss, _ = assemble_loss_and_jacobian(sol.problem, ce, grid, sol.report.xi)
        assert np.linalg.norm(loss) == pytest.approx(sol.report.solution_norm, rel=1e-12)

    def test_iteration_cap_reported_not_raised(self):
        sol = solve_nonlinear(benchmark("p5").problem, SolverConfig(max_iterations=1))
        assert sol.report.iterations == 1
        assert sol.report.converged_by is StopReason.MAX_ITERATIONS

    def test_loose_step_tol_stops_after_one_step(self, monkeypatch):
        monkeypatch.setattr(solver_module, "_STEP_TOL", 1e10)
        problem = benchmark("p4").problem
        sol = solve_nonlinear(problem)
        assert sol.report.iterations == 1
        assert sol.report.converged_by is StopReason.CONVERGED
        ce, grid = build_system(problem, sol.config)
        loss, jac = assemble_loss_and_jacobian(problem, ce, grid, np.zeros(10))
        assert np.array_equal(sol.report.xi, -lstsq_scaled_qr(jac, loss))

    def test_ascent_direction_stalls(self):
        # Negated partials make every Gauss-Newton step an ascent direction.
        p4 = benchmark("p4").problem
        problem = dataclasses.replace(p4, partials=lambda x, y: -p4.partials(x, y))
        report = solve(problem).report
        assert report.converged_by is StopReason.STALLED
        assert report.iterations == 1
        assert np.all(report.xi == 0.0)
        assert report.residual_norm_history.tolist() == [report.solution_norm]

    @pytest.mark.parametrize("n_points,m_basis", [(11, 10), (31, 30), (481, 60)])
    def test_stretched_p5_solves_without_raising_or_warning(self, n_points, m_basis):
        # On [0, e^3 - 1] trial steps overflow exp(-8 y); they are rejected.
        # Only n=481, m=60 resolves that domain, and it converges there.
        p5 = benchmark("p5").problem
        problem = dataclasses.replace(
            p5, bc=BoundaryConditions.from_callable(0.0, math.expm1(3.0), p5.exact)
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = solve(problem, SolverConfig(n_points=n_points, m_basis=m_basis))
        h = sol.report.residual_norm_history
        assert np.all(np.diff(h) <= 0.0)
        if m_basis == 60:
            assert sol.report.converged_by is StopReason.CONVERGED
            assert np.max(sol.error(np.linspace(*problem.domain, 101))) <= 1e-4

    def test_p5_on_wider_domain_converges(self):
        p5 = benchmark("p5").problem
        problem = dataclasses.replace(
            p5, bc=BoundaryConditions.from_callable(0.0, math.expm1(2.0), p5.exact)
        )
        sol = solve(problem, SolverConfig(n_points=481, m_basis=60))
        assert sol.report.converged_by is StopReason.CONVERGED
        assert np.max(sol.error(np.linspace(*problem.domain, 101))) <= 1e-12

    @pytest.mark.parametrize("name", ["p1", "p2", "p3", "p4", "p5", "p6", "p7"])
    def test_no_runtime_warning_escapes(self, name):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            solve(benchmark(name).problem)
            solve_nonlinear(dataclasses.replace(benchmark(name).problem, partials=None))

    def test_fd_partials_fallback(self):
        prob = benchmark("p4").problem
        nofd = solve(prob)
        fd = solve(dataclasses.replace(prob, partials=None))
        assert fd.report.used_fd_partials
        assert not nofd.report.used_fd_partials
        assert_allclose(fd.report.xi, nofd.report.xi, rtol=0, atol=1e-9)

    def test_oracle_switching_invariance(self):
        # Gauss-Newton on an expression whose switching functions come from
        # the support-matrix inverse lands on the same solution.
        for name in ("p2", "p6"):
            entry = benchmark(name)
            a = solve(entry.problem)
            ce, grid = build_system(entry.problem, a.config)
            ce = dataclasses.replace(ce, switching=unit_linear_solve())
            xi = np.zeros(a.config.m_basis)
            for _ in range(3):
                loss, jac = assemble_loss_and_jacobian(entry.problem, ce, grid, xi)
                xi = xi - lstsq_scaled_qr(jac, loss)
            va = a(entry.table_points)
            vb = ce.eval(entry.table_points, 0, xi)
            assert np.max(np.abs(va - vb)) < 1e-11


class TestQrVariants:
    """The scaled QR path must agree with plainer formulations on the
    benchmark systems; scaling is a conditioning aid, not a model change."""

    @staticmethod
    def unscaled_qr_lstsq(a, rhs):
        q, r = np.linalg.qr(a, mode="reduced")
        y = q.T @ rhs
        m = y.shape[0]
        w = np.zeros(m)
        for i in range(m - 1, -1, -1):
            w[i] = (y[i] - r[i, i + 1:] @ w[i + 1:]) / r[i, i]
        return w

    @pytest.mark.parametrize("name", ["p1", "p2", "p3", "p7"])
    def test_linear_systems(self, name):
        entry = benchmark(name)
        ce, grid = build_system(entry.problem, SolverConfig())
        a, b = assemble_linear(entry.problem, ce, grid)
        scaled = lstsq_scaled_qr(a, -b)
        plain = self.unscaled_qr_lstsq(a, -b)
        ne = normal_equations_lstsq(a, -b)
        norm = np.linalg.norm(scaled)
        assert np.linalg.norm(scaled - plain) <= 1e-9 * norm
        assert np.linalg.norm(scaled - ne) <= 1e-9 * norm

    @pytest.mark.parametrize("name", ["p4", "p5", "p6"])
    def test_first_newton_step(self, name):
        entry = benchmark(name)
        ce, grid = build_system(entry.problem, SolverConfig())
        loss, jac = assemble_loss_and_jacobian(entry.problem, ce, grid, np.zeros(10))
        scaled = lstsq_scaled_qr(jac, loss)
        ne = normal_equations_lstsq(jac, loss)
        assert np.linalg.norm(scaled - ne) <= 1e-9 * np.linalg.norm(scaled)


class TestDispatcher:
    def test_routes_by_linearity(self):
        lin = solve(benchmark("p2").problem)
        non = solve(benchmark("p6").problem)
        assert lin.report.converged_by is StopReason.LINEAR_SINGLE_SHOT
        assert non.report.converged_by is not StopReason.LINEAR_SINGLE_SHOT

    def test_error_requires_exact_solution(self):
        prob = benchmark("p1").problem
        sol = solve(dataclasses.replace(prob, exact=None))
        with pytest.raises(ConfigurationError):
            sol.error(0.5)
