"""Tests for the fit/predict front end."""

import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

from bvp8 import BvpSolver, ConfigurationError, NotFittedError, SolverConfig, solve
from bvp8.problems import benchmark


class TestParams:
    def test_defaults_mirror_solver_config(self):
        assert BvpSolver().get_params() == dataclasses.asdict(SolverConfig())

    def test_every_config_field_reaches_the_solve(self):
        params = {"n_points": 13, "m_basis": 12, "max_iterations": 7}
        assert set(params) == set(dataclasses.asdict(SolverConfig()))
        est = BvpSolver(**params).fit(benchmark("p4").problem)
        assert est.solution_.config == SolverConfig(**params)

    def test_fits_with_unchanged_params_share_one_config(self):
        # A shared config reuses its collocation tables; a changed parameter
        # gets a config of its own.
        est = BvpSolver(n_points=21, m_basis=20)
        first = est.fit(benchmark("p4").problem).solution_.config
        assert est.fit(benchmark("p5").problem).solution_.config is first
        est.set_params(m_basis=19)
        second = est.fit(benchmark("p4").problem).solution_.config
        assert second is not first and second == SolverConfig(n_points=21, m_basis=19)

    def test_set_params_returns_self(self):
        est = BvpSolver()
        assert est.set_params(m_basis=12, n_points=20) is est
        assert est.m_basis == 12
        assert est.n_points == 20

    def test_set_params_rejects_unknown(self):
        with pytest.raises(ValueError, match="invalid parameter"):
            BvpSolver().set_params(basis_size=12)

    def test_repr_round_trips_params(self):
        est = BvpSolver(m_basis=13)
        assert "m_basis=13" in repr(est)

    def test_invalid_values_surface_at_fit(self):
        est = BvpSolver(n_points=11, m_basis=30)
        with pytest.raises(ConfigurationError):
            est.fit(benchmark("p1").problem)


class TestFitPredict:
    def test_predict_before_fit_rejected(self):
        with pytest.raises(NotFittedError):
            BvpSolver().predict(0.5)

    def test_fit_returns_self_and_sets_attributes(self):
        est = BvpSolver()
        out = est.fit(benchmark("p1").problem)
        assert out is est
        assert est.xi_.shape == (10,)
        assert est.report_ is est.solution_.report

    def test_predict_matches_direct_solve(self):
        entry = benchmark("p6")
        est = BvpSolver().fit(entry.problem)
        sol = solve(entry.problem)
        xs = entry.table_points
        assert_allclose(est.predict(xs), sol(xs), atol=0)
        assert_allclose(est.predict(xs, order=5), sol(xs, 5), atol=0)

    def test_predict_accuracy(self):
        entry = benchmark("p3")
        est = BvpSolver().fit(entry.problem)
        err = np.abs(est.predict(entry.table_points) - entry.problem.exact(entry.table_points, 0))
        assert np.max(err) <= 5e-15

    def test_basis_size_controls_coefficients(self):
        est = BvpSolver(n_points=9, m_basis=8).fit(benchmark("p1").problem)
        assert est.xi_.shape == (8,)

    def test_refit_replaces_solution(self):
        est = BvpSolver()
        est.fit(benchmark("p1").problem)
        first = est.xi_
        est.fit(benchmark("p2").problem)
        assert est.solution_.problem.name == "p2"
        assert not np.array_equal(est.xi_, first)

    def test_ignored_target_argument(self):
        est = BvpSolver().fit(benchmark("p1").problem, y=np.zeros(3))
        assert est.report_.iterations == 1


class TestSklearnInterop:
    def test_clone_preserves_params(self):
        sklearn_base = pytest.importorskip("sklearn.base")
        est = BvpSolver(m_basis=12, n_points=15)
        cloned = sklearn_base.clone(est)
        assert cloned is not est
        assert cloned.get_params() == est.get_params()
