"""Tests for switching functions and the constrained expression."""

import copy
import dataclasses
import inspect
import math
import pickle

import numpy as np
import pytest
from numpy.testing import assert_allclose

import bvp8
import bvp8.basis
from bvp8.basis import DomainMap
from bvp8.errors import ConfigurationError, EvaluationError
from bvp8.expression import (
    CONSTRAINT_ORDERS, UNIT_CHEB, BoundaryConditions, ConstrainedExpression,
)
from bvp8.problems import benchmark
from bvp8.solver import SolverConfig, solve

from switching_oracle import (
    UNIT_COEFFS,
    Switching,
    constraint_locations,
    kronecker_matrix,
    support_matrix,
    switching_values,
    unit_linear_solve,
)
from test_one_pass_tables import per_order_a_row


def kronecker_bound(sw):
    """1e-11 * w**(d_j - d_k): the rounding of row k, column j of the Kronecker matrix."""
    orders = np.array(CONSTRAINT_ORDERS)
    w = sw.domain_map.x_f - sw.domain_map.x_i
    return 1e-11 * w ** (orders[None, :] - orders[:, None]).astype(float)


def unit_bc(left=(1.0, 0.0, 0.0, 0.0), right=(0.0, 0.0, 0.0, 0.0)):
    return BoundaryConditions(0.0, 1.0, tuple(left), tuple(right))


def betas(dm, x, d):
    """beta_1^{(d)}(x) .. beta_8^{(d)}(x) on dm's domain as the package reads them: beta_j is
    b of the boundary data e_j, so column j is b_value of the expression with that data."""
    return np.stack([
        ConstrainedExpression.build(BoundaryConditions(dm.x_i, dm.x_f, e[0::2], e[1::2]), 1)
        .b_value(x, d) for e in np.eye(8)
    ], axis=-1)


class TestSwitchingClosedForm:
    def test_kronecker_values_on_unit_domain(self):
        dm = DomainMap(0.0, 1.0)
        row = betas(dm, 0.0, 0)
        assert row[0] == 1.0 and np.all(row[1:] == 0.0)
        assert betas(dm, 1.0, 0)[0] == 0.0
        assert betas(dm, 0.0, 1)[0] == 0.0

    @pytest.mark.parametrize("x_i,x_f", [(0.0, 1.0), (0.0, np.expm1(0.5)), (-2.0, 3.0)])
    def test_kronecker_matrix_near_identity(self, x_i, x_f):
        sw = Switching(UNIT_COEFFS, DomainMap(x_i, x_f))
        tol = 1e-10 * np.max(np.abs(sw.coeffs))
        assert np.max(np.abs(kronecker_matrix(sw) - np.eye(8))) <= tol

    def test_kronecker_matrix_on_offset_domain(self):
        sw = Switching(UNIT_COEFFS, DomainMap(0.0, np.expm1(0.5)))
        assert np.all(np.abs(kronecker_matrix(sw) - np.eye(8)) <= kronecker_bound(sw))

    def test_kronecker_by_evaluation_on_random_domains(self):
        # Shifted, narrow and wide domains: K[k, j] = beta_j^{(d_k)}(x_k) is
        # plain polynomial evaluation, scaled by w**(d_j - d_k).
        rng = np.random.default_rng(11)
        for _ in range(200):
            x_i = rng.uniform(-30.0, 30.0)
            x_f = x_i + rng.uniform(0.01, 10.0)
            sw = Switching(UNIT_COEFFS, DomainMap(x_i, x_f))
            assert np.all(np.abs(kronecker_matrix(sw) - np.eye(8)) <= kronecker_bound(sw))

    def test_symmetric_domain_seventh_function(self):
        # On [-1, 1] the seventh function is (x-1)^4 (x+1)^3 / 96.
        xs = np.linspace(-1.0, 1.0, 41)
        assert_allclose(betas(DomainMap(-1.0, 1.0), xs, 0)[:, 6],
                        (xs - 1) ** 4 * (xs + 1) ** 3 / 96.0, rtol=0, atol=1e-15)


class TestSwitchingLinearSolve:
    def test_agrees_with_closed_form_on_unit_domain(self):
        assert_allclose(unit_linear_solve().coeffs, UNIT_COEFFS, rtol=1e-10, atol=1e-10)

    def test_support_matrix_first_rows(self):
        mat = support_matrix(0.0, 2.0)
        assert_allclose(mat[0], [1, 0, 0, 0, 0, 0, 0, 0], atol=0)
        assert_allclose(mat[1], [1, 2, 4, 8, 16, 32, 64, 128], atol=0)
        # row 6: third derivative of the monomials at x_i = 0
        assert_allclose(mat[6], [0, 0, 0, 6, 0, 0, 0, 0], atol=0)


class TestSwitchingEval:
    """The switching values as b_value reads them, from the Chebyshev series, and
    the order check of a_row, the public tabulation of the xi rows."""

    def test_symmetry_midpoint(self):
        assert betas(DomainMap(0.0, 1.0), 0.5, 0)[1] == pytest.approx(0.5, abs=1e-15)

    def test_order_eight_is_zero(self):
        assert np.all(betas(DomainMap(-0.4, 1.7), 0.3, 8) == 0.0)

    def test_endpoint_rows_are_exact_units(self):
        dm = DomainMap(0.0, np.expm1(0.5))
        for k, (x, d) in enumerate(constraint_locations(dm.x_i, dm.x_f)):
            row = betas(dm, x, d)
            expected = np.zeros(8)
            expected[k] = 1.0
            assert np.all(row == expected)

    def test_array_evaluation_matches_scalar(self):
        dm = DomainMap(0.0, 1.0)
        xs = np.array([0.0, 0.3, 1.0])
        batch = betas(dm, xs, 1)
        for k, x in enumerate(xs):
            assert_allclose(batch[k], betas(dm, float(x), 1), atol=0)

    def test_order_out_of_range_rejected(self):
        ce = ConstrainedExpression.build(unit_bc(), 4)
        with pytest.raises(ValueError):
            ce.a_row(0.5, 9)

    @pytest.mark.parametrize(
        "order", [2.0, 2.5, True, np.True_, "2", None, np.array(2.0), np.array([2])])
    def test_non_integer_order_rejected(self, order):
        ce = ConstrainedExpression.build(unit_bc(), 4)
        with pytest.raises(ValueError, match="order must be an integer in 0..8"):
            ce.a_row(0.5, order)

    def test_numpy_integer_order_accepted(self):
        ce = ConstrainedExpression.build(unit_bc(), 4)
        x = np.array([0.0, 0.3, 1.0])
        assert np.array_equal(ce.a_row(x, np.int64(2)), ce.a_row(x, 2))
        assert np.array_equal(ce.a_row(x, np.uint8(0)), ce.a_row(x, 0))


class TestBoundaryConditions:
    def test_interleaved_order(self):
        bc = BoundaryConditions(0.0, 1.0, (10.0, 11.0, 12.0, 13.0), (20.0, 21.0, 22.0, 23.0))
        assert_allclose(bc.interleaved(), [10, 20, 11, 21, 12, 22, 13, 23], atol=0)

    def test_interleaved_is_a_fresh_writable_array(self):
        bc = BoundaryConditions(0.0, 1.0, (10.0, 11.0, 12.0, 13.0), (20.0, 21.0, 22.0, 23.0))
        values = bc.interleaved()
        assert values.flags.writeable and values.dtype == np.float64
        assert values is not bc.interleaved() and values.base is None
        values[:] = -1.0
        assert bc.interleaved().tolist() == [10, 20, 11, 21, 12, 22, 13, 23]

    @pytest.mark.parametrize("copy_of", [lambda bc: bc, copy.copy, copy.deepcopy,
                                         lambda bc: pickle.loads(pickle.dumps(bc))],
                             ids=["bc", "copy", "deepcopy", "pickle"])
    def test_values_and_series_built_once_are_read_only(self, copy_of):
        # _values, b's series _beta and the table scales _scales = w**-d are
        # built with the bc and read by every solve; a copy or pickle rebuilds
        # them, read-only too.
        bc = BoundaryConditions(-1.5, 2.0, (1.0, -2.0, 3.0, 0.5), (0.25, 4.0, -1.0, 2.0))
        other = copy_of(bc)
        assert type(other) is BoundaryConditions and other == bc
        assert other.domain_map == bc.domain_map
        w = bc.x_f - bc.x_i
        beta = (w ** np.array(CONSTRAINT_ORDERS, dtype=float) * bc.interleaved()) @ UNIT_CHEB
        assert np.array_equal(other._values, bc.interleaved())
        assert np.array_equal(other._beta, beta)
        assert np.array_equal(other._scales, w ** -np.arange(9.0))
        for array in (other._values, other._beta, other._scales):
            assert array.dtype == np.float64 and array.shape in ((8,), (9,))
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0

    def test_from_callable(self):
        bc = BoundaryConditions.from_callable(0.0, 1.0, lambda x, d: x + d)
        assert bc.left_values == (0.0, 1.0, 2.0, 3.0)
        assert bc.right_values == (1.0, 2.0, 3.0, 4.0)
        # numpy scalars and 0-d arrays read as the floats they hold.
        values = [np.float64(0.1), np.array(1 / 3), np.float32(0.2), 7]
        bc = BoundaryConditions.from_callable(-1.0, 2.0, lambda x, d: values[d])
        assert bc.left_values == bc.right_values == tuple(float(v) for v in values)

    @pytest.mark.parametrize("value, match", [
        (np.ones(1), r"must have shape \(4,\), got \(4, 1\)"),
        ("1", "must be real numbers"),
    ])
    def test_from_callable_checks_the_values(self, value, match):
        # float() of each value raised a raw TypeError for the shape-(1,) array
        # and read the string as 1.0.
        fn = lambda x, d: value if x == 0.0 else 0.0
        with pytest.raises(ConfigurationError, match=f"^left_values {match}"):
            BoundaryConditions.from_callable(0.0, 1.0, fn)

    @pytest.mark.parametrize("fn, message", [
        (lambda x, d: 1 / 0, "at x=0.0, order 0 raised ZeroDivisionError: division by zero"),
        (lambda x, d: math.exp(1000), "at x=0.0, order 0 raised OverflowError: math range error"),
        (lambda x, d: 1.0 / (2.5 - x) if d == 2 else 0.0,
         "at x=2.5, order 2 raised ZeroDivisionError: float division by zero"),
    ], ids=["zero-division", "overflow", "right-end-order-2"])
    def test_from_callable_names_a_raising_callback(self, fn, message):
        # Each exception used to reach the caller raw.
        with pytest.raises(EvaluationError, match=f"^boundary callback {message}$"):
            BoundaryConditions.from_callable(0.0, 2.5, fn)

    def test_from_callable_passes_a_package_error_through(self):
        raised = ConfigurationError("from the callback")

        def fn(x, d):
            raise raised

        with pytest.raises(ConfigurationError) as info:
            BoundaryConditions.from_callable(0.0, 1.0, fn)
        assert info.value is raised

    def test_wrong_arity_rejected(self):
        with pytest.raises(ConfigurationError):
            BoundaryConditions(0.0, 1.0, (1.0, 2.0), (0.0, 0.0, 0.0, 0.0))

    def test_degenerate_domain_rejected(self):
        with pytest.raises(ConfigurationError):
            BoundaryConditions(1.0, 1.0, (0.0,) * 4, (0.0,) * 4)

    @pytest.mark.parametrize("side", ["left_values", "right_values"])
    @pytest.mark.parametrize("bad, match", [
        (("a", 0, 0, 0), r"must be real numbers, got \('a', 0, 0, 0\)"),
        (([1, 2], 0, 0, 0), "must be real numbers"),
        ((None, 0, 0, 0), "must be real numbers"),
        ((math.nan, 0, 0, 0), r"must be finite, got \(nan, 0, 0, 0\)"),
        ((math.inf, 0, 0, 0), "must be finite"),
        ((1.0, 2.0), r"must have shape \(4,\), got \(2,\)"),
    ])
    def test_bad_values_rejected(self, side, bad, match):
        # Each used to build, then fail inside a solve: a raw ValueError, or an
        # EvaluationError blaming the residual (and, for inf, a RuntimeWarning).
        values = {"left_values": (0.0,) * 4, "right_values": (0.0,) * 4, side: bad}
        with pytest.raises(ConfigurationError, match=f"^{side} {match}"):
            BoundaryConditions(0.0, 1.0, **values)

    def test_values_kept_as_float_tuples(self):
        bc = BoundaryConditions(0.0, 1.0, np.arange(4), [0.1, 0, np.float32(0.5), 2])
        assert bc.left_values == (0.0, 1.0, 2.0, 3.0)
        assert bc.right_values == (0.1, 0.0, 0.5, 2.0)
        assert all(type(v) is float for v in bc.left_values + bc.right_values)
        assert hash(bc) == hash(BoundaryConditions(0.0, 1.0, bc.left_values, bc.right_values))

    def test_domain_map_follows_the_domain_and_is_not_compared(self):
        bc = unit_bc()
        assert bc.domain_map == DomainMap(0.0, 1.0)
        assert "domain_map" not in repr(bc)
        moved = dataclasses.replace(bc, x_f=2.0)
        assert moved.domain_map == DomainMap(0.0, 2.0)
        assert dataclasses.replace(moved, x_f=1.0) == bc


def build_unit_ce(m=10, bc=None):
    bc = bc if bc is not None else unit_bc()
    return ConstrainedExpression.build(bc, m)


class TestConstrainedExpression:
    def test_fields_are_the_boundary_conditions_and_the_series_map(self):
        # m, the domain and the constraint values are read from these two.
        assert [f.name for f in dataclasses.fields(ConstrainedExpression)] == ["bc", "series_map"]
        assert list(inspect.signature(ConstrainedExpression.build).parameters) == ["bc", "m"]
        assert not hasattr(bvp8, "ChebyshevBasis") and not hasattr(bvp8.basis, "ChebyshevBasis")
        bc = BoundaryConditions(-2.0, 3.0, (1.0, -2.0, 0.5, 3.0), (0.25, 1.5, -1.0, 2.0))
        ce = ConstrainedExpression.build(bc, 7)
        assert ce.m == 7 and ce.series_map.shape == (15, 7)
        assert ce.bc is bc and ce.bc.domain_map is bc.domain_map

    def test_a_solve_builds_no_expression_map(self, monkeypatch):
        # A solve's expression wraps the config's series_map; only the config's tables call build.
        problem, config = benchmark("p4").problem, SolverConfig(n_points=31, m_basis=30)
        want = solve(problem, config)
        monkeypatch.setattr(ConstrainedExpression, "build", None)
        got = solve(problem, config)
        assert got.expression.series_map is config._tables[3]
        assert np.array_equal(got.report.xi, want.report.xi)

    def test_a_row_vanishes_at_constraints(self):
        ce = build_unit_ce()
        assert np.all(ce.a_row(0.0, 0) == 0.0)
        assert np.all(ce.a_row(1.0, 3) == 0.0)

    def test_constraints_hold_for_random_coefficients(self):
        rng = np.random.default_rng(5)
        bc = BoundaryConditions(0.0, 1.0, (1.0, -2.0, 0.5, 3.0), (0.25, 1.5, -1.0, 2.0))
        ce = build_unit_ce(bc=bc)
        values = bc.interleaved()
        locs = constraint_locations(0.0, 1.0)
        for _ in range(100):
            xi = rng.uniform(-1.0, 1.0, size=10)
            for k, (x, d) in enumerate(locs):
                got = ce.eval(x, d, xi)
                assert abs(got - values[k]) <= 1e-12 * (1.0 + abs(values[k]))

    def test_zero_coefficients_reduce_to_interpolant(self):
        """y(x, 0) is the degree-7 interpolant: its 9th difference vanishes."""
        bc = BoundaryConditions(0.0, 1.0, (1.0, 2.0, -1.0, 0.5), (-0.5, 1.0, 2.0, -3.0))
        ce = build_unit_ce(bc=bc)
        xs = np.linspace(0.0, 1.0, 12)
        samples = np.array([ce.eval(x, 0, np.zeros(10)) for x in xs])
        ninth = np.diff(samples, n=9)
        assert np.max(np.abs(ninth)) <= 1e-9 * np.max(np.abs(samples))

    def test_linearity_in_coefficients(self):
        # eval and a_row are two reads of values up to 6.7e4, where 1e-12 is
        # below one ulp: they agree to a few eps of the values (measured 1.61).
        ce = build_unit_ce(m=6)
        x = 0.37
        zero = np.zeros(6)
        base = ce.eval(x, 2, zero)
        row = ce.a_row(x, 2)
        for j in range(6):
            unit = np.zeros(6)
            unit[j] = 1.0
            value = ce.eval(x, 2, unit)
            gap = abs(value - base - row[j])
            assert gap <= 4 * np.finfo(float).eps * (abs(value) + abs(base)), j

    def test_eval_is_a_row_plus_b_value(self):
        # eval reads one series, the table read sums a_row @ xi and b: equal to
        # rounding, a few eps of the largest |a_row| @ |xi| + |b| on the
        # domain (measured 1.21 eps).
        ce = build_unit_ce(m=7)
        rng = np.random.default_rng(9)
        xi = rng.standard_normal(7)
        xs = np.linspace(0.0, 1.0, 201)
        for order in (0, 1, 4, 8):
            size = np.max(np.abs(ce.a_row(xs, order)) @ np.abs(xi) + np.abs(ce.b_value(xs, order)))
            for x in (0.1, 0.55, 0.98):
                direct = ce.eval(x, order, xi)
                split = ce.a_row(x, order) @ xi + ce.b_value(x, order)
                assert abs(direct - split) <= 4 * np.finfo(float).eps * size, (x, order)

    @pytest.mark.parametrize("order", range(1, 9))
    def test_derivative_chain(self, order):
        """Order-p evaluation matches a central difference of order p-1."""
        bc = BoundaryConditions(0.0, 1.0, (1.0, 0.5, -0.25, 2.0), (0.0, -1.0, 1.5, 0.75))
        ce = build_unit_ce(bc=bc)
        rng = np.random.default_rng(order)
        xi = rng.standard_normal(10)
        xs = np.linspace(0.1, 0.9, 10)
        step = 1e-5
        fd = np.array([
            (ce.eval(x + step, order - 1, xi) - ce.eval(x - step, order - 1, xi)) / (2 * step)
            for x in xs
        ])
        exact = np.array([ce.eval(x, order, xi) for x in xs])
        scale = np.max(np.abs(exact))
        assert_allclose(fd, exact, rtol=1e-5, atol=1e-5 * scale)

    def test_oracle_switching_agrees(self):
        # The expression against one built by hand from the support-matrix
        # switching functions: a per-order row and b from their monomials.
        bc = BoundaryConditions(0.0, 1.0, (1.0, 2.0, 3.0, 4.0), (4.0, 3.0, 2.0, 1.0))
        a = build_unit_ce(bc=bc)
        sw = unit_linear_solve()
        xs = np.linspace(0.0, 1.0, 13)
        xi = np.full(10, 0.1)
        for order in (0, 3, 8):
            va = np.array([a.eval(x, order, xi) for x in xs])
            vb = (per_order_a_row(a, xs, order, sw) @ xi
                  + switching_values(sw, xs, order) @ a.bc.interleaved())
            assert_allclose(vb, va, rtol=1e-9, atol=1e-9 * max(1.0, np.max(np.abs(va))))

    def test_wrong_coefficient_shape_rejected(self):
        ce = build_unit_ce(m=5)
        with pytest.raises(ValueError):
            ce.eval(0.5, 0, np.zeros(6))

    def test_eval_takes_order_and_xi_with_no_defaults(self):
        # A default xi=None could only raise "xi must be real numbers, got None".
        ce = build_unit_ce(m=5)
        params = inspect.signature(ce.eval).parameters
        assert all(params[name].default is inspect.Parameter.empty for name in ("order", "xi"))
        with pytest.raises(TypeError, match="xi"):
            ce.eval(0.5, 0)
        assert ce.eval(0.5, 0, np.zeros(5)) == ce.b_value(0.5, 0)
