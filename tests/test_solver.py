"""Tests for system assembly, least squares, and the two stepping rules of solve."""

import contextlib
import copy
import dataclasses
import importlib.util
import math
import pickle
import warnings
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

import bvp8
import bvp8.solver as solver_module
from bvp8.errors import ConfigurationError, EvaluationError, SingularSystemError
from bvp8.expression import BoundaryConditions, ConstrainedExpression
from bvp8.problems import benchmark
from bvp8.solver import (
    BvpProblem,
    SolveReport,
    SolverConfig,
    StopReason,
    _CollocationTables,
    _jacobian,
    assemble_linear,
    assemble_loss_and_jacobian,
    build_system,
    lstsq_scaled_qr,
    solve,
)

from switching_oracle import switching_values, unit_linear_solve
from test_one_pass_tables import PerOrderTables, per_order_a_row


def normal_equations_lstsq(a, rhs):
    """Textbook least-squares oracle: solve the normal equations directly."""
    return np.linalg.solve(a.T @ a, a.T @ rhs)


def formed_q_lstsq(a, rhs):
    """Column-scaled QR least squares that forms the reduced Q and applies Q^T to rhs."""
    norms = np.linalg.norm(a, axis=0)
    q, r = np.linalg.qr(a / norms, mode="reduced")
    pivots = np.abs(np.diag(r))
    j = int(np.argmin(pivots))
    if not pivots[j] >= 1e-13:
        raise SingularSystemError(
            f"system is numerically rank deficient at column {j} (|r_jj|={pivots[j]:.3e})"
        )
    return np.linalg.solve(r, q.T @ rhs) / norms


class TestIdentityEquality:
    """Dataclasses that hold arrays compare and hash by identity.

    Field equality would compare arrays and raise "truth value of an array
    ... is ambiguous"; SolverConfig keeps its field equality.
    """

    def test_equal_objects_of_two_solves_compare_by_identity(self):
        problem = benchmark("p2").problem
        first, second = solve(problem), solve(problem)
        pairs = [
            (first, second),
            (first.report, second.report),
            (first.grid, second.grid),
            (first.expression, second.expression),
            (benchmark("p2"), benchmark("p2")),
        ]
        for a, b in pairs:
            assert (a == b) is False and (a != b) is True, type(a).__name__
            assert (a == a) is True and hash(a) == hash(a)
            assert len({a, b}) == 2


@pytest.mark.parametrize("copy_of", [lambda report: report, copy.copy, copy.deepcopy,
                                     lambda report: pickle.loads(pickle.dumps(report))],
                         ids=["report", "copy", "deepcopy", "pickle"])
def test_report_arrays_are_read_only(copy_of):
    # With a writeable xi, sol.report.xi[0] += 1e-3 on p4 moved
    # expression.eval(0.5, 0, sol.report.xi) from 1.64872 to 1.77672 while
    # sol(0.5) kept reading 1.64872, and nothing flagged it.
    sol = solve(benchmark("p4").problem)
    report = copy_of(sol.report)
    assert type(report) is SolveReport
    for f in dataclasses.fields(SolveReport):
        assert np.array_equal(getattr(report, f.name), getattr(sol.report, f.name)), f.name
    for array in (report.xi, report.residual_norm_history):
        assert array.dtype == np.float64
        with pytest.raises(ValueError, match="read-only"):
            array[0] += 1e-3
    assert np.array_equal(sol.report.xi, solve(benchmark("p4").problem).report.xi)


def test_report_keeps_read_only_copies_of_its_arrays():
    xi, history = np.arange(3.0), [2, 1]
    report = SolveReport(xi, 1, history, StopReason.CONVERGED, 1.0)
    xi[0] = 5.0
    assert xi.flags.writeable and report.xi.tolist() == [0.0, 1.0, 2.0]
    assert report.residual_norm_history.dtype == np.float64
    assert report.residual_norm_history.tolist() == [2.0, 1.0]
    assert not report.xi.flags.writeable and not report.residual_norm_history.flags.writeable


def test_public_names_resolve():
    # Every exported name resolves; the estimator front end is gone, and
    # solve is the one solve entry.
    assert all(hasattr(bvp8, name) for name in bvp8.__all__)
    assert not hasattr(bvp8, "BvpSolver") and not hasattr(bvp8, "NotFittedError")
    assert importlib.util.find_spec("bvp8.estimator") is None
    for name in ("solve_linear", "solve_nonlinear"):
        assert name not in bvp8.__all__
        assert not hasattr(bvp8, name) and not hasattr(solver_module, name)


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
        {"m_basis": 10.0},
        {"n_points": 11.5},
        {"n_points": np.float64(11.0)},
        {"max_iterations": float("nan")},
        {"max_iterations": True},
        {"m_basis": np.True_},
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            SolverConfig(**kwargs)

    def test_square_system_allowed(self):
        cfg = SolverConfig(n_points=11, m_basis=10)
        assert cfg.m_basis == cfg.n_points - 1

    def test_numpy_integers_accepted(self):
        cfg = SolverConfig(np.int64(11), np.int32(10), np.uint8(5))
        assert solve(benchmark("p1").problem, cfg).report.xi.shape == (10,)


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

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_column_named_with_no_warning(self, bad):
        # An inf used to leak a RuntimeWarning from its 0/0 before the error; a
        # nan was reported as a rank deficiency.  Neither may warn.
        a = np.ones((4, 3)) + np.eye(4, 3)
        a[1, 2] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularSystemError,
                               match="^column 2 of the system matrix is not finite$"):
                lstsq_scaled_qr(a, np.ones(4))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_rhs_named(self, bad):
        # Used to return an all-nan w with no error.
        rhs = np.ones(4)
        rhs[2] = bad
        with pytest.raises(ConfigurationError, match=f"^rhs must be finite, got {bad} at row 2$"):
            lstsq_scaled_qr(np.ones((4, 3)) + np.eye(4, 3), rhs)

    def test_no_columns_rejected(self):
        # Used to raise numpy's own ValueError, "argmin of an empty sequence".
        with pytest.raises(ConfigurationError, match=r"^system has no columns: a \(3, 0\)$"):
            lstsq_scaled_qr(np.zeros((3, 0)), np.zeros(3))

    def test_duplicate_columns_rejected(self):
        rng = np.random.default_rng(10)
        a = rng.standard_normal((8, 4))
        a[:, 3] = a[:, 0]
        with pytest.raises(SingularSystemError, match="rank deficient"):
            lstsq_scaled_qr(a, np.ones(8))

    def test_underdetermined_rejected(self):
        with pytest.raises(ConfigurationError, match="underdetermined"):
            lstsq_scaled_qr(np.ones((2, 3)), np.ones(2))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            lstsq_scaled_qr(np.ones((3, 2)), np.ones(4))


SIZES = [(11, 10), (31, 30), (481, 60)]
ALL_NAMES = ["p1", "p2", "p3", "p4", "p5", "p6", "p7"]


def translated(problem, shift):
    """The problem moved by `shift` along x: y(x) = y_old(x - shift)."""
    residual, partials, exact = problem.residual, problem.partials, problem.exact
    moved_exact = lambda x, order: exact(np.asarray(x) - shift, order)
    x_i, x_f = problem.domain
    return dataclasses.replace(
        problem,
        bc=BoundaryConditions.from_callable(x_i + shift, x_f + shift, moved_exact),
        residual=lambda x, y: residual(x - shift, y),
        partials=None if partials is None else (lambda x, y: partials(x - shift, y)),
        exact=moved_exact,
    )


def stretched_p5(power):
    """p5 on [0, e**power - 1], where its exact solution log(1 + x) reaches power."""
    p5 = benchmark("p5").problem
    return dataclasses.replace(
        p5, bc=BoundaryConditions.from_callable(0.0, math.expm1(power), p5.exact)
    )


def certificate_cases():
    """Params (make_problem, n_points, m_basis) of every solve compared with its QR-only run."""
    cases = [(name, lambda name=name: benchmark(name).problem) for name in ALL_NAMES]
    cases += [(f"p5-e{k}", lambda k=k: stretched_p5(k)) for k in (1, 2, 3)]
    for name in ("p4", "p5", "p6"):
        problem = lambda name=name: benchmark(name).problem
        cases += [(f"{name}-shift{shift:g}", lambda problem=problem, shift=shift:
                   translated(problem(), shift)) for shift in (-3.0, 10.0, 1000.0)]
        cases.append((f"{name}-fd", lambda problem=problem:
                      dataclasses.replace(problem(), partials=None)))
    return [
        pytest.param(make, n_points, m_basis, id=f"{key}-{n_points}")
        for key, make in cases for n_points, m_basis in SIZES
    ]


def run_recorded(problem, config, gate=True, gauss_newton=True):
    """A solve, its (J, rhs, step) systems by _lstsq_step and the lstsq_scaled_qr fallbacks.

    The problem is solved by Gauss-Newton unless gauss_newton=False, which
    solves it as given.  With gate=False the pivot floor is infinite, so
    _lstsq_step declines every system and each step is lstsq_scaled_qr's: the
    forced-QR run that gated solves are compared with.
    """
    steps, qr_systems = [], []
    real_step, real_qr = solver_module._lstsq_step, solver_module.lstsq_scaled_qr

    def recording_step(a, rhs, precond):
        step = real_step(a, rhs, precond)
        steps.append((np.array(a), np.array(rhs), step))
        return step

    def recording_qr(a, rhs):
        step = real_qr(a, rhs)
        qr_systems.append((np.array(a), np.array(rhs), step))
        return step

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver_module, "_lstsq_step", recording_step)
        mp.setattr(solver_module, "lstsq_scaled_qr", recording_qr)
        if not gate:
            mp.setattr(solver_module, "_PRECOND_PIVOT", math.inf)
        if gauss_newton:
            problem = dataclasses.replace(problem, is_linear=False)
        sol = solve(problem, config)
    return sol, steps, qr_systems


def gate_pivot(jac, precond):
    """Smallest scaled QR pivot of jac @ precond, read from the Cholesky factor of its Gram."""
    k = jac @ precond
    k = k / np.linalg.norm(k, axis=0)
    return float(np.min(np.diag(np.linalg.cholesky(k.T @ k))))


@contextlib.contextmanager
def recorded_factors():
    """The list of matrices np.linalg.cholesky factors inside the block."""
    grams, real = [], np.linalg.cholesky

    def recording(a):
        grams.append(np.array(a))
        return real(a)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.linalg, "cholesky", recording)
        yield grams


def normal_system(jac, rhs, precond):
    """(G, v, d) as _lstsq_step forms them: G = (K/d)^T (K/d), v = (K/d)^T rhs, K = jac precond."""
    k = jac @ precond
    gram = k.T @ k
    d = np.sqrt(gram.diagonal())
    gram /= d[:, None] * d
    return gram, (k.T @ rhs) / d, d


def lu_step(jac, rhs, precond):
    """precond G^-1 v / d by one LU solve of G: every step of the gated normal equations before
    the Neumann solve, and still the step where ||G - I||_F > _NEUMANN_NORM."""
    gram, v, d = normal_system(jac, rhs, precond)
    return precond @ (np.linalg.solve(gram, v) / d)


def exact_step(jac, rhs, precond):
    """precond G^-1 v / d for _lstsq_step's rounded G, v and d, in rationals, rounded once.

    G^-1 v is the LU solve plus its correction G^-1 (v - G y), with the residual formed exactly:
    the correction is itself good to a few eps, so their sum is exact to about eps**2.
    """
    dot = lambda row, x: sum(Fraction(r) * xk for r, xk in zip(row, x))
    gram, v, d = normal_system(jac, rhs, precond)
    y = [Fraction(t) for t in np.linalg.solve(gram, v).tolist()]
    residual = [float(Fraction(vi) - dot(row, y)) for vi, row in zip(v.tolist(), gram.tolist())]
    correction = np.linalg.solve(gram, residual).tolist()
    z = [(yi + Fraction(ci)) / Fraction(di) for yi, ci, di in zip(y, correction, d.tolist())]
    return np.array([float(dot(row, z)) for row in precond.tolist()])


def gram_off_identity(jac, precond):
    """||G - I||_F, G the column-scaled Gram of jac @ precond, the norm _lstsq_step certifies."""
    gram = normal_system(jac, np.zeros(len(jac)), precond)[0]
    return float(np.linalg.norm(gram - np.identity(len(gram))))


def max_error(sol):
    x = np.linspace(*sol.problem.domain, 101)
    return float(np.max(np.abs(sol(x) - sol.problem.exact(x, 0))))


class TestQFreeLstsq:
    """lstsq_scaled_qr factors [a / norms | rhs] and never forms Q; the
    formed-Q oracle solves the same scaled problem the textbook way."""

    @pytest.fixture(scope="class")
    def gauss_newton_systems(self):
        """Every (J, loss) Gauss-Newton solves for p1-p7 at three sizes, with the
        step the solve took and the solve's xi."""
        systems = []
        for n_points, m_basis in SIZES:
            config = SolverConfig(n_points=n_points, m_basis=m_basis)
            for name in ALL_NAMES:
                sol, steps, _ = run_recorded(benchmark(name).problem, config)
                systems += [(*system, sol.report.xi) for system in steps]
        return systems

    def test_matches_formed_q_on_gauss_newton_systems(self, gauss_newton_systems):
        # The gap is measured on the iterate the step moves, as in Gauss-Newton.
        # A converged solve's last step is roundoff (||step|| ~ 1e-16 ||xi||):
        # its loss is nearly orthogonal to range(J), where least squares
        # amplifies rounding by cond(J)**2: the gated step and the oracle agree
        # on it only to about 6e-10 of its own size, on a first step to 3e-15.
        assert len(gauss_newton_systems) >= 2 * 3 * 7
        worst = 0.0
        for a, rhs, step, xi in gauss_newton_systems:
            want = formed_q_lstsq(a, rhs)
            gap = np.linalg.norm(step - want)
            worst = max(worst, gap / max(np.linalg.norm(want), np.linalg.norm(xi)))
        assert worst <= 1e-13

    def test_consistent_column_of_ones(self):
        w = lstsq_scaled_qr(np.ones((3, 1)), np.full(3, 2.5))
        assert w[0] == pytest.approx(2.5, rel=1e-15)

    @pytest.mark.parametrize("scale", [1.0, 0.0])
    def test_consistent_random_system(self, scale):
        rng = np.random.default_rng(12)
        a = rng.standard_normal((40, 5))
        want = scale * rng.standard_normal(5)
        got = lstsq_scaled_qr(a, a @ want)
        assert_allclose(got, want, rtol=1e-13, atol=0)
        assert_allclose(got, formed_q_lstsq(a, a @ want), rtol=1e-13, atol=0)

    def test_rank_deficiency_names_the_column(self):
        rng = np.random.default_rng(10)
        a = rng.standard_normal((8, 4))
        a[:, 3] = a[:, 0] + a[:, 1]
        with pytest.raises(SingularSystemError, match="rank deficient at column 3 "):
            lstsq_scaled_qr(a, np.ones(8))

    def test_solves_never_form_q(self, monkeypatch):
        modes = []
        qr = np.linalg.qr

        def recording(a, mode="reduced"):
            modes.append(mode)
            return qr(a, mode=mode)

        monkeypatch.setattr(np.linalg, "qr", recording)
        for name in ["p1", "p2", "p3", "p4", "p5", "p6", "p7"]:
            solve(benchmark(name).problem, SolverConfig(n_points=31, m_basis=30))
        assert len(modes) >= 7 and set(modes) == {"r"}


#: p5-e3-11 stops at the iteration cap with error 9.2e3, where the gated and
#: forced-QR runs' values agree to 1.8 eps of max|y| (5.0 at worst over 400
#: relative changes of 1e-14 in its xi).
VALUES_GAP_EPS = {"p5-e3-11": 12}


class TestPreconditionedStep:
    """Every least-squares step is solved by the column-scaled normal equations
    of J P, P = R^-1 of the order-8 table, where the bound ||G - I||_F <= 0.98
    certifies them, and by lstsq_scaled_qr where it does not; no step factors
    G by Cholesky.  Every solve must stop, count and land as its forced-QR run
    does."""

    @pytest.mark.parametrize("make,n_points,m_basis", certificate_cases())
    def test_matches_qr_only_run(self, make, n_points, m_basis, request):
        case = request.node.callspec.id
        problem = make()
        config = SolverConfig(n_points=n_points, m_basis=m_basis)
        with recorded_factors() as factored:
            want, _, _ = run_recorded(problem, config, gate=False)
            got, steps, _ = run_recorded(problem, config)
        assert factored == []
        assert got.report.converged_by is want.report.converged_by
        assert got.report.iterations == want.report.iterations
        # Both apply or both decline the converging step (the roundoff floor
        # of its acceptance), so the histories have one length.  The runs land
        # alike: their values differ by a(x) . (xi_got - xi_want) to rounding,
        # and the gated run is no less accurate and ends within 2x of the
        # forced-QR residual norm (1.35x at worst, p3-31).
        assert got.report.residual_norm_history.shape == want.report.residual_norm_history.shape
        x = np.linspace(*problem.domain, 101)
        moved = got.expression.a_row(x) @ (got.report.xi - want.report.xi)
        gap = np.max(np.abs(got(x) - want(x) - moved))
        assert gap <= VALUES_GAP_EPS.get(case, 4) * np.finfo(float).eps * np.max(np.abs(want(x)))
        assert max_error(got) <= max_error(want) * (1 + 1e-9)
        assert got.report.solution_norm <= 2.0 * want.report.solution_norm
        xi = want.report.xi
        assert np.linalg.norm(got.report.xi - xi) <= 1e-13 * np.linalg.norm(xi)
        # Each step is solved once, through _lstsq_step; a converged solve's
        # last step agrees with the formed-Q oracle.
        assert len(steps) == got.report.iterations
        if got.report.converged_by is StopReason.CONVERGED:
            a, rhs, step = steps[-1]
            want_step = formed_q_lstsq(a, rhs)
            gap = np.linalg.norm(step - want_step)
            assert gap <= 1e-13 * max(np.linalg.norm(want_step), np.linalg.norm(xi))

    @pytest.mark.parametrize("n_points,m_basis", SIZES)
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_benchmark_solves_pass_the_gate_without_qr(self, name, n_points, m_basis):
        # The floor is 0.1; the smallest pivot measured is about 0.89 (p7).
        # ||G - I||_F is 5.7e-8 to 3.0e-5 on p1-p6 and 0.75 to 0.82 on p7, so
        # every step is certified and none is factored.  p1-p6 solve G by the
        # Neumann series, within 2.0 eps of the exact step of the rounded G,
        # v and d where the LU solve is within 4.2 eps; p7 keeps the LU solve,
        # bit for bit.
        config = SolverConfig(n_points=n_points, m_basis=m_basis)
        eps = np.finfo(float).eps
        for gauss_newton in (False, True):
            with recorded_factors() as factored:
                sol, steps, qr_systems = run_recorded(
                    benchmark(name).problem, config, gauss_newton=gauss_newton)
            assert sol.report.converged_by in (StopReason.CONVERGED,
                                               StopReason.LINEAR_SINGLE_SHOT)
            assert qr_systems == [] and factored == []
            assert len(steps) == sol.report.iterations
            for a, rhs, step in steps:
                assert gate_pivot(a, config._precond) >= 0.5
                off = gram_off_identity(a, config._precond)
                assert (off > solver_module._NEUMANN_NORM) is (name == "p7")
                if name == "p7":
                    assert np.array_equal(step, lu_step(a, rhs, config._precond))
                else:
                    want = exact_step(a, rhs, config._precond)
                    assert np.linalg.norm(step - want) <= 4 * eps * np.linalg.norm(want)

    @pytest.mark.parametrize("above", [False, True])
    def test_certificate_bound_decides_the_factor(self, above):
        # G = I + c (e_0 e_1^T + e_1 e_0^T) / sqrt(2) has ||G - I||_F = c and
        # eigenvalues 1 +- c / sqrt(2), so its pivots pass the 0.1 floor for any
        # c near the bound 1 - 0.1**2 - 0.01 = 0.98.  The bound alone decides:
        # just below it the step is the LU step, just above it the QR's.
        # Neither side factors G.
        c = 0.98 + (1e-4 if above else -1e-4)
        gram = np.identity(5)
        gram[0, 1] = gram[1, 0] = c / math.sqrt(2.0)
        rng = np.random.default_rng(23)
        q, _ = np.linalg.qr(rng.standard_normal((30, 5)))
        a, rhs, precond = q @ np.linalg.cholesky(gram).T, rng.standard_normal(30), np.eye(5)
        assert (gram_off_identity(a, precond) > 0.98) is above
        with recorded_factors() as factored:
            step = solver_module._lstsq_step(a, rhs, precond)
        assert factored == []
        want = lstsq_scaled_qr(a, rhs) if above else lu_step(a, rhs, precond)
        assert np.array_equal(step, want)

    def test_damped_solve_counts_every_step_once(self):
        # p5 on [0, e^3 - 1] backtracks before it converges in 8 steps; the
        # certificate leaves every step open (||G - I||_F above 0.98), so the
        # QR solves each of them, with no factor of G first.
        config = SolverConfig(n_points=481, m_basis=60)
        with recorded_factors() as factored:
            sol, steps, qr_systems = run_recorded(stretched_p5(3), config)
        assert sol.report.converged_by is StopReason.CONVERGED
        assert sol.report.iterations == 8
        assert len(qr_systems) == len(steps) == sol.report.iterations and factored == []
        for (_, _, step), (_, _, qr_step) in zip(steps, qr_systems):
            assert step is qr_step

    def test_uncertified_steps_give_the_qr_only_result(self, monkeypatch):
        # Without the preconditioner ||G - I||_F of the bare J is far above the
        # bound, so every step is the QR's and the solve is the forced-QR run.
        config = SolverConfig(n_points=481, m_basis=60)
        wants = [run_recorded(benchmark(name).problem, config, gate=False)[0]
                 for name in ALL_NAMES]
        monkeypatch.setitem(config.__dict__, "_precond", np.eye(60))
        for name, want in zip(ALL_NAMES, wants):
            got, steps, qr_systems = run_recorded(benchmark(name).problem, config)
            assert len(qr_systems) == len(steps) == got.report.iterations
            assert np.array_equal(got.report.xi, want.report.xi)
            assert np.array_equal(got.report.residual_norm_history,
                                  want.report.residual_norm_history)

    def test_zero_column_falls_back_to_qr(self):
        a = np.random.default_rng(20).standard_normal((30, 5))
        a[:, 2] = 0.0
        # In solve's error state, as every solve calls it: the zero column's 0/0 is nan.
        with pytest.raises(SingularSystemError, match="column 2 "), np.errstate(all="ignore"):
            solver_module._lstsq_step(a, np.ones(30), np.eye(5))

    def test_near_duplicate_column_falls_back_to_qr(self):
        # Column 4 is column 0 plus 3e-8 noise: ||G - I||_F is above sqrt(2),
        # so the QR solves it, and its scaled pivot 2.2e-8 passes the QR's
        # 1e-13 rank test.  An exact duplicate fails the QR's rank test.
        rng = np.random.default_rng(21)
        a = rng.standard_normal((30, 5))
        a[:, 4] = a[:, 0] + 3e-8 * rng.standard_normal(30)
        assert gate_pivot(a, np.eye(5)) < 1e-7 and gram_off_identity(a, np.eye(5)) > math.sqrt(2)
        step = solver_module._lstsq_step(a, np.ones(30), np.eye(5))
        assert np.array_equal(step, lstsq_scaled_qr(a, np.ones(30)))
        a[:, 4] = a[:, 0]
        with pytest.raises(SingularSystemError, match="rank deficient"):
            solver_module._lstsq_step(a, np.ones(30), np.eye(5))

    def test_preconditioner_admits_an_ill_conditioned_system(self):
        # a = Q T, T with its columns near e_0, so the scaled cond(a) is 3e8:
        # without a preconditioner the gate declines and the step is the
        # QR's; with P = T^-1, a P = Q passes it and the step lands nearer
        # the exact T^-1 Q^T rhs than the QR's (relative errors up to 4e-9
        # against 3e-8).
        rng = np.random.default_rng(22)
        q, _ = np.linalg.qr(rng.standard_normal((30, 5)))
        t = np.diag(10.0 ** -np.arange(0.0, 10.0, 2.0))
        t[0] = 1.0
        a, rhs = q @ t, rng.standard_normal(30)
        assert gate_pivot(a, np.eye(5)) < 0.1
        qr_step = lstsq_scaled_qr(a, rhs)
        assert np.array_equal(solver_module._lstsq_step(a, rhs, np.eye(5)), qr_step)
        precond = np.linalg.inv(t)
        assert gate_pivot(a, precond) >= 0.99
        exact = np.linalg.solve(t, q.T @ rhs)
        error = lambda w: np.max(np.abs(w - exact) / np.abs(exact))
        step = solver_module._lstsq_step(a, rhs, precond)
        assert error(step) <= 1e-8 and error(step) <= error(qr_step)

    @pytest.mark.parametrize("n_points,m_basis", [(31, 30), (481, 60)])
    def test_converging_step_is_applied(self, n_points, m_basis):
        # The 1.2e-18 last step of p5 lowers the error of y^(8) at the nodes
        # from 7.8e-8 to about 3e-12 (31) and 8e-12 (481): a step below
        # _STEP_TOL in the coefficients is not negligible in the state.
        problem = benchmark("p5").problem
        sol = solve(problem, SolverConfig(n_points=n_points, m_basis=m_basis))
        states = _CollocationTables(sol.expression, sol.grid, sol.config).states(sol.report.xi)
        x = sol.grid.x_nodes
        assert np.max(np.abs(states[8] - problem.exact(x, 8))) <= 1e-10


class TestAssembly:
    def test_build_system_spans_domain(self):
        entry = benchmark("p5")
        ce, grid = build_system(entry.problem, SolverConfig())
        assert grid.x_nodes[0] == entry.problem.bc.x_i
        assert grid.x_nodes[-1] == entry.problem.bc.x_f
        assert ce.m == 10

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
        with pytest.raises(ConfigurationError, match="not linear"):
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

    @pytest.mark.parametrize("callback", ["residual", "partials"])
    def test_complex_callback_result_rejected(self, callback):
        # The float cast kept only the real part: p4 with residual + 1e-3j
        # reported converged in two steps.
        p4 = benchmark("p4").problem
        problem = dataclasses.replace(
            p4, **{callback: lambda x, y: getattr(p4, callback)(x, y) + 1e-3j})
        match = rf"^{callback} must give real numbers, got complex128 values$"
        with pytest.raises(EvaluationError, match=match):
            solve(problem)
        ce, grid = build_system(problem, SolverConfig())
        with pytest.raises(EvaluationError, match=match):
            assemble_loss_and_jacobian(problem, ce, grid, np.zeros(10))

    def test_trial_with_complex_residual_is_rejected(self):
        # Real at the start, complex at every trial: each trial is rejected.
        p4 = benchmark("p4").problem
        calls = []

        def residual(x, y):
            calls.append(x.size)
            return p4.residual(x, y) + (1e-3j if len(calls) > 1 else 0.0)

        report = solve(dataclasses.replace(p4, residual=residual)).report
        assert report.converged_by is StopReason.STALLED
        assert report.iterations == 1 and len(report.residual_norm_history) == 1
        assert len(calls) > 2

    @pytest.mark.parametrize("assemble", [
        lambda problem, ce, grid: assemble_loss_and_jacobian(problem, ce, grid, np.zeros(10)),
        lambda problem, ce, grid: assemble_linear(problem, ce, grid),
    ], ids=["loss_and_jacobian", "linear"])
    def test_overflowing_residual_raises_evaluation_error_not_warning(self, assemble):
        # Assembly silences numpy's warnings once for its callbacks and norms,
        # so an overflow reaches the finiteness check as inf.
        p1 = benchmark("p1").problem
        problem = dataclasses.replace(p1, residual=lambda x, y: (y[8] + 1.0) * 1e300 * 1e300)
        ce, grid = build_system(problem, SolverConfig())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EvaluationError, match="residual is not finite at x="):
                assemble(problem, ce, grid)


class TestNorm:
    """solver._norm is np.linalg.norm of a real vector bit for bit, by one BLAS dot."""

    @staticmethod
    def vectors():
        rng = np.random.default_rng(21)
        for size in (0, 1, 11, 481):
            v = rng.standard_normal(size) * 10.0 ** rng.integers(-3, 4, size)
            yield v
            for special in (np.inf, -np.inf, np.nan, 1e200, -1e200, 5e-324, 2.2e-308):
                if size:
                    w = v.copy()
                    w[size // 2] = special
                    yield w
            yield np.full(size, 5e-324)
            yield np.full(size, 1e200)
        states = rng.standard_normal((9, 481))
        yield states[8]
        yield states[:, 3]  # strided

    def test_equals_linalg_norm_bit_for_bit(self):
        count = 0
        with np.errstate(all="ignore"):  # as in solve: an overflow gives inf
            for v in self.vectors():
                got, want = solver_module._norm(v), np.linalg.norm(v)
                assert type(got) is float
                assert np.float64(got).tobytes() == np.float64(want).tobytes(), (v.size, want)
                count += 1
        assert count == 4 * 3 + 3 * 7 + 2  # 3 per size, 7 specials per nonempty size, 2 rows


class TestSolveLinear:
    def test_report_shape(self):
        sol = solve(benchmark("p1").problem)
        r = sol.report
        assert r.iterations == 1
        assert r.converged_by is StopReason.LINEAR_SINGLE_SHOT
        assert not r.used_fd_partials
        assert r.xi.shape == (10,)
        # The norm at xi = 0, then the norm after the one shot.
        assert r.residual_norm_history.shape == (2,)
        assert r.solution_norm == r.residual_norm_history[-1]
        assert r.residual_norm_history[0] > r.residual_norm_history[1]

    @pytest.mark.parametrize("n_points,m_basis", SIZES)
    @pytest.mark.parametrize("name", ["p1", "p2", "p3", "p7"])
    def test_one_shot_is_the_assembled_least_squares_solve(self, name, n_points, m_basis):
        problem = benchmark(name).problem
        config = SolverConfig(n_points=n_points, m_basis=m_basis)
        r = solve(problem, config).report
        ce, grid = build_system(problem, config)
        a, b = assemble_linear(problem, ce, grid, config)
        xi = solver_module._lstsq_step(a, -b, config._precond)
        assert np.array_equal(r.xi, xi)
        want = [np.linalg.norm(b), np.linalg.norm(a @ xi + b)]
        assert r.residual_norm_history.tolist() == want

    @pytest.mark.parametrize("name", ["p1", "p2", "p3", "p7"])
    def test_benchmark_accuracy(self, name):
        entry = benchmark(name)
        sol = solve(entry.problem)
        err = sol.error(entry.table_points)
        assert err[0] == 0.0 and err[-1] == 0.0
        assert np.max(err) <= 5e-15

    def test_solution_callable_orders(self):
        entry = benchmark("p3")
        sol = solve(entry.problem)
        xs = np.linspace(*entry.problem.domain, 7)
        for order in (0, 1, 4):
            got = sol(xs, order)
            want = entry.problem.exact(xs, order)
            assert_allclose(got, want, atol=1e-11 * max(1.0, np.max(np.abs(want))))


class TestSolveNonlinear:
    def test_gauss_newton_on_linear_matches_single_shot(self):
        prob = benchmark("p1").problem
        gn = solve(dataclasses.replace(prob, is_linear=False))
        lin = solve(prob)
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

    def test_history_holds_accepted_iterates_only(self, monkeypatch):
        evaluated = []
        real = solver_module._evaluate

        def recording(residual, tables, xi):
            evaluated.append(real(residual, tables, xi))
            return evaluated[-1]

        monkeypatch.setattr(solver_module, "_evaluate", recording)
        for name in ("p4", "p5", "p6"):
            r = solve(benchmark(name).problem).report
            h = r.residual_norm_history
            # One entry per step, the converged last step included unless it
            # raised the norm past its roundoff floor, 16 eps ||y^(8)||_2 at
            # the states it moved from; line-search steps lower it strictly.
            assert h.shape in ((r.iterations,), (r.iterations + 1,))
            assert np.all(np.diff(h)[:-1] < 0)
            states = next(e[1] for e in evaluated if e[3] == h[-2])
            floor = solver_module._FLOOR_EPS * np.finfo(float).eps * np.linalg.norm(states[8])
            assert h[-1] <= h[-2] + floor
            assert h[-1] == r.solution_norm

    def test_solution_norm_belongs_to_returned_xi(self):
        sol = solve(benchmark("p6").problem)
        ce, grid = build_system(sol.problem, sol.config)
        loss, _ = assemble_loss_and_jacobian(sol.problem, ce, grid, sol.report.xi)
        assert np.linalg.norm(loss) == pytest.approx(sol.report.solution_norm, rel=1e-12)

    def test_iteration_cap_reported_not_raised(self):
        sol = solve(benchmark("p5").problem, SolverConfig(max_iterations=1))
        assert sol.report.iterations == 1
        assert sol.report.converged_by is StopReason.MAX_ITERATIONS

    def test_loose_step_tol_stops_after_one_step(self, monkeypatch):
        monkeypatch.setattr(solver_module, "_STEP_TOL", 1e10)
        problem = benchmark("p4").problem
        sol = solve(problem)
        assert sol.report.iterations == 1
        assert sol.report.converged_by is StopReason.CONVERGED
        ce, grid = build_system(problem, sol.config)
        loss, jac = assemble_loss_and_jacobian(problem, ce, grid, np.zeros(10))
        assert np.array_equal(sol.report.xi,
                              -solver_module._lstsq_step(jac, loss, sol.config._precond))

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
            solve(dataclasses.replace(benchmark(name).problem, partials=None, is_linear=False))

    def test_fd_partials_fallback(self):
        prob = benchmark("p4").problem
        nofd = solve(prob)
        fd = solve(dataclasses.replace(prob, partials=None))
        assert fd.report.used_fd_partials
        assert not nofd.report.used_fd_partials
        assert_allclose(fd.report.xi, nofd.report.xi, rtol=0, atol=1e-9)

    def test_oracle_switching_invariance(self):
        # Gauss-Newton on an expression whose switching functions come from
        # the support-matrix inverse lands on the same solution.  The solver's
        # tables hold the closed form, so the loop assembles from per-order
        # tables of the oracle expression, and reads it the same way.
        sw = unit_linear_solve()
        for name in ("p2", "p6"):
            entry = benchmark(name)
            a = solve(entry.problem)
            ce, grid = build_system(entry.problem, a.config)
            tables = PerOrderTables(ce, grid, sw)
            xi = np.zeros(a.config.m_basis)
            for _ in range(3):
                loss = entry.problem.residual(grid.x_nodes, tables.states(xi))
                jac = _jacobian(entry.problem.partials, tables, tables.states(xi))
                xi = xi - lstsq_scaled_qr(jac, loss)
            x = entry.table_points
            va = a(x)
            vb = (per_order_a_row(ce, x, 0, sw) @ xi
                  + switching_values(sw, x, 0) @ ce.bc.interleaved())
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


def test_input_errors_are_configuration_errors():
    # Each used to raise a bare ValueError; ConfigurationError still is one.
    linear, nonlinear = solve(benchmark("p1").problem), solve(benchmark("p4").problem)
    ce, grid = build_system(nonlinear.problem, nonlinear.config)
    cases = [
        (lambda: linear(2.0), r"^x=2\.0 outside \[0\.0, 1\.0\]$"),
        (lambda: linear(np.array([0.5, -0.25, 3.0])), r"^x=-0\.25 outside"),
        (lambda: linear(0.5, 9), "order must be an integer in 0..8"),
        (lambda: linear(0.5, 1.0), "order must be an integer in 0..8"),
        (lambda: linear.expression.eval(0.5, 0, np.zeros(3)), r"xi must have shape \(10,\)"),
        (lambda: lstsq_scaled_qr(np.ones((2, 3)), np.ones(2)), "underdetermined"),
        (lambda: assemble_linear(nonlinear.problem, ce, grid), "'p4' is not linear"),
    ]
    for call, match in cases:
        with pytest.raises(ConfigurationError, match=match):
            call()


@pytest.mark.parametrize("call, match", [
    (lambda sol, ce, grid: sol("a"), r"^x must be real numbers, got 'a'$"),
    (lambda sol, ce, grid: sol(0.5 + 0j), r"^x must be real numbers, got \(0\.5\+0j\)$"),
    (lambda sol, ce, grid: sol([0.5, None]), r"^x must be real numbers, got \[0\.5, None\]$"),
    (lambda sol, ce, grid: solve(sol.problem, "x"), "^config must be a SolverConfig, got 'x'$"),
    (lambda sol, ce, grid: assemble_loss_and_jacobian(sol.problem, ce, grid, np.zeros(10), "x"),
     "^config must be a SolverConfig, got 'x'$"),
    (lambda sol, ce, grid: assemble_linear(sol.problem, ce, grid, "x"),
     "^config must be a SolverConfig, got 'x'$"),
    (lambda sol, ce, grid: dataclasses.replace(sol.problem, bc=None),
     "^bc must be a BoundaryConditions, got None$"),
    (lambda sol, ce, grid: dataclasses.replace(sol.problem, bc=sol.problem.domain),
     r"^bc must be a BoundaryConditions, got \(0\.0, 1\.0\)$"),
    (lambda sol, ce, grid: dataclasses.replace(sol.problem, is_linear="no"),
     "^is_linear must be a bool, got 'no'$"),
    (lambda sol, ce, grid: dataclasses.replace(sol.problem, is_linear=1),
     "^is_linear must be a bool, got 1$"),
    (lambda sol, ce, grid: assemble_loss_and_jacobian(sol.problem, ce, grid, np.zeros(3)),
     r"^xi must have shape \(10,\), got \(3,\)$"),
    (lambda sol, ce, grid: assemble_loss_and_jacobian(sol.problem, ce, grid, ["a"] * 10),
     "^xi must be real numbers"),
])
def test_bad_inputs_named_in_configuration_errors(call, match):
    # Each used to raise numpy's or Python's own error from deep inside.
    sol = solve(benchmark("p1").problem)
    with pytest.raises(ConfigurationError, match=match):
        call(sol, *build_system(sol.problem, sol.config))


@pytest.mark.parametrize("call, match", [
    pytest.param(lambda ce, grid: solve("p1"), "^problem must be a BvpProblem, got 'p1'$",
                 id="solve-str"),
    pytest.param(lambda ce, grid: solve(None), "^problem must be a BvpProblem, got None$",
                 id="solve-None"),
    pytest.param(lambda ce, grid: ConstrainedExpression.build(None, 10),
                 "^bc must be a BoundaryConditions, got None$", id="build-bc-None"),
    pytest.param(lambda ce, grid: ConstrainedExpression.build(ce.bc, None),
                 "^m must be an integer, got None$", id="build-m-None"),
    pytest.param(lambda ce, grid: build_system("p1", SolverConfig()),
                 "^problem must be a BvpProblem, got 'p1'$", id="build_system-problem-str"),
    pytest.param(lambda ce, grid: build_system(benchmark("p1").problem, None),
                 "^config must be a SolverConfig, got None$", id="build_system-config-None"),
    pytest.param(lambda ce, grid: assemble_loss_and_jacobian("p1", ce, grid, np.zeros(10)),
                 "^problem must be a BvpProblem, got 'p1'$", id="assemble-problem-str"),
    pytest.param(lambda ce, grid: assemble_loss_and_jacobian(
                     benchmark("p1").problem, None, grid, np.zeros(10)),
                 "^ce must be a ConstrainedExpression, got None$", id="assemble-ce-None"),
    pytest.param(lambda ce, grid: assemble_loss_and_jacobian(
                     benchmark("p1").problem, ce, None, np.zeros(10)),
                 "^grid must be a CollocationGrid, got None$", id="assemble-grid-None"),
    pytest.param(lambda ce, grid: assemble_linear("p1", ce, grid),
                 "^problem must be a BvpProblem, got 'p1'$", id="assemble_linear-problem-str"),
    pytest.param(lambda ce, grid: assemble_linear(benchmark("p1").problem, None, grid),
                 "^ce must be a ConstrainedExpression, got None$", id="assemble_linear-ce-None"),
    pytest.param(lambda ce, grid: assemble_linear(benchmark("p1").problem, ce, "grid"),
                 "^grid must be a CollocationGrid, got 'grid'$",
                 id="assemble_linear-grid-str"),
    pytest.param(lambda ce, grid: lstsq_scaled_qr([["a"]], [1]),
                 r"^a must be real numbers, got \[\['a'\]\]$", id="lstsq-a-str"),
    pytest.param(lambda ce, grid: lstsq_scaled_qr(np.ones((2, 1)), [1.0, 1j]),
                 r"^rhs must be real numbers, got \[1\.0, 1j\]$", id="lstsq-rhs-complex"),
    pytest.param(lambda ce, grid: bvp8.chebyshev_table("a", 3, 1),
                 "^z must be real numbers, got 'a'$", id="chebyshev_table-z-str"),
    pytest.param(lambda ce, grid: bvp8.chebyshev_table([0.5, 1j], 3, 1),
                 r"^z must be real numbers, got \[0\.5, 1j\]$", id="chebyshev_table-z-complex"),
])
def test_wrong_argument_types_named(call, match):
    # Each used to raise a raw AttributeError, or, for lstsq_scaled_qr and
    # chebyshev_table, a raw ValueError or TypeError from a float conversion.
    ce, grid = build_system(benchmark("p1").problem, SolverConfig())
    with pytest.raises(ConfigurationError, match=match):
        call(ce, grid)


def test_numpy_bool_is_linear_accepted():
    problem = benchmark("p1").problem
    want = solve(problem).report
    for flag in (np.True_, np.bool_(True)):
        got = solve(dataclasses.replace(problem, is_linear=flag)).report
        assert got.converged_by is StopReason.LINEAR_SINGLE_SHOT
        assert np.array_equal(got.xi, want.xi)
    got = solve(dataclasses.replace(problem, is_linear=np.False_)).report
    assert got.converged_by is StopReason.CONVERGED


def test_integer_x_reads_as_float64():
    sol = solve(benchmark("p1").problem)
    for d in range(9):
        assert np.array_equal(sol(np.arange(2), d), sol(np.array([0.0, 1.0]), d))
        assert sol(0, d) == sol(0.0, d)
