"""Tests for switching functions and the constrained expression."""

import copy
import dataclasses
import math
import pickle

import numpy as np
import pytest
from numpy.testing import assert_allclose

from bvp8.basis import ChebyshevBasis, DomainMap
from bvp8.errors import ConfigurationError
from bvp8.expression import (
    CONSTRAINT_ORDERS,
    BoundaryConditions,
    ConstrainedExpression,
    SwitchingFunctions,
    constraint_locations,
)

from switching_oracle import kronecker_matrix, support_matrix, unit_linear_solve

# Monomial coefficients (ascending degree) of the eight switching functions
# on [0, 1].  Every entry is an exactly representable rational.
UNIT_COEFFS = np.array([
    [1.0, 0.0, 0.0, 0.0, -35.0, 84.0, -70.0, 20.0],
    [0.0, 0.0, 0.0, 0.0, 35.0, -84.0, 70.0, -20.0],
    [0.0, 1.0, 0.0, 0.0, -20.0, 45.0, -36.0, 10.0],
    [0.0, 0.0, 0.0, 0.0, -15.0, 39.0, -34.0, 10.0],
    [0.0, 0.0, 0.5, 0.0, -5.0, 10.0, -7.5, 2.0],
    [0.0, 0.0, 0.0, 0.0, 2.5, -7.0, 6.5, -2.0],
    [0.0, 0.0, 0.0, 1 / 6, -2 / 3, 1.0, -2 / 3, 1 / 6],
    [0.0, 0.0, 0.0, 0.0, -1 / 6, 0.5, -0.5, 1 / 6],
])


def kronecker_bound(sw):
    """1e-11 * w**(d_j - d_k): the rounding of row k, column j of the Kronecker matrix."""
    orders = np.array(CONSTRAINT_ORDERS)
    w = sw.domain_map.x_f - sw.domain_map.x_i
    return 1e-11 * w ** (orders[None, :] - orders[:, None]).astype(float)


def unit_bc(left=(1.0, 0.0, 0.0, 0.0), right=(0.0, 0.0, 0.0, 0.0)):
    return BoundaryConditions(0.0, 1.0, tuple(left), tuple(right))


class TestSwitchingClosedForm:
    def test_unit_domain_coefficients(self):
        sw = SwitchingFunctions.closed_form(0.0, 1.0)
        assert_allclose(sw.coeffs, UNIT_COEFFS, rtol=1e-15, atol=0)

    def test_degenerate_domain_rejected(self):
        with pytest.raises(ConfigurationError):
            SwitchingFunctions.closed_form(1.0, 0.5)

    def test_kronecker_values_on_unit_domain(self):
        sw = SwitchingFunctions.closed_form(0.0, 1.0)
        row = sw.eval(0.0, 0)
        assert row[0] == 1.0 and np.all(row[1:] == 0.0)
        assert sw.eval(1.0, 0)[0] == 0.0
        assert sw.eval(0.0, 1)[0] == 0.0

    @pytest.mark.parametrize("x_i,x_f", [(0.0, 1.0), (0.0, np.expm1(0.5)), (-2.0, 3.0)])
    def test_kronecker_matrix_near_identity(self, x_i, x_f):
        sw = SwitchingFunctions.closed_form(x_i, x_f)
        tol = 1e-10 * np.max(np.abs(sw.coeffs))
        assert np.max(np.abs(kronecker_matrix(sw) - np.eye(8))) <= tol

    def test_kronecker_matrix_on_offset_domain(self):
        sw = SwitchingFunctions.closed_form(0.0, np.expm1(0.5))
        assert np.all(np.abs(kronecker_matrix(sw) - np.eye(8)) <= kronecker_bound(sw))

    def test_kronecker_by_evaluation_on_random_domains(self):
        # Shifted, narrow and wide domains: K[k, j] = beta_j^{(d_k)}(x_k) is
        # plain polynomial evaluation, scaled by w**(d_j - d_k).
        rng = np.random.default_rng(11)
        for _ in range(200):
            x_i = rng.uniform(-30.0, 30.0)
            x_f = x_i + rng.uniform(0.01, 10.0)
            sw = SwitchingFunctions.closed_form(x_i, x_f)
            assert np.all(np.abs(kronecker_matrix(sw) - np.eye(8)) <= kronecker_bound(sw))

    def test_symmetric_domain_seventh_function(self):
        # On [-1, 1] the seventh function is (x-1)^4 (x+1)^3 / 96.
        sw = SwitchingFunctions.closed_form(-1.0, 1.0)
        xs = np.linspace(-1.0, 1.0, 41)
        assert_allclose(sw.eval(xs, 0)[:, 6], (xs - 1) ** 4 * (xs + 1) ** 3 / 96.0,
                        rtol=0, atol=1e-15)


class TestSwitchingCopies:
    """Copies and pickles carry only the fields and come back like a new object:
    read-only coeffs, and the derivative rows rebuilt at the first evaluation."""

    @pytest.mark.parametrize("how", ["copy", "deepcopy", "pickle"])
    def test_copy_is_read_only_and_evaluates_alike(self, how):
        sw = SwitchingFunctions.closed_form(-0.4, 1.7)
        xs = np.linspace(-0.4, 1.7, 9)
        want = sw.eval_all(xs)  # builds and caches _deriv
        clone = {"copy": copy.copy, "deepcopy": copy.deepcopy,
                 "pickle": lambda obj: pickle.loads(pickle.dumps(obj))}[how](sw)
        assert "_deriv" not in vars(clone)
        assert not clone.coeffs.flags.writeable
        assert clone.domain_map == sw.domain_map
        assert np.array_equal(clone.eval_all(xs), want)
        assert not clone._deriv.flags.writeable

    def test_pickle_carries_no_derivative_rows(self):
        sw = SwitchingFunctions.closed_form(0.0, 1.0)
        sw.eval_all(0.5)
        assert b"_deriv" not in pickle.dumps(sw)
        assert len(pickle.dumps(sw)) < 9 * 8 * 8 * 8


class TestSwitchingLinearSolve:
    def test_agrees_with_closed_form_on_unit_domain(self):
        a = SwitchingFunctions.closed_form(0.0, 1.0)
        b = unit_linear_solve()
        assert_allclose(b.coeffs, a.coeffs, rtol=1e-10, atol=1e-10)

    def test_support_matrix_first_rows(self):
        mat = support_matrix(0.0, 2.0)
        assert_allclose(mat[0], [1, 0, 0, 0, 0, 0, 0, 0], atol=0)
        assert_allclose(mat[1], [1, 2, 4, 8, 16, 32, 64, 128], atol=0)
        # row 6: third derivative of the monomials at x_i = 0
        assert_allclose(mat[6], [0, 0, 0, 6, 0, 0, 0, 0], atol=0)


class TestSwitchingEval:
    def test_symmetry_midpoint(self):
        sw = SwitchingFunctions.closed_form(0.0, 1.0)
        assert sw.eval(0.5, 0)[1] == pytest.approx(0.5, abs=1e-15)

    def test_order_eight_is_zero(self):
        sw = SwitchingFunctions.closed_form(-0.4, 1.7)
        assert np.all(sw.eval(0.3, 8) == 0.0)

    def test_endpoint_rows_are_exact_units(self):
        sw = SwitchingFunctions.closed_form(0.0, np.expm1(0.5))
        dm = sw.domain_map
        for k, (x, d) in enumerate(constraint_locations(dm.x_i, dm.x_f)):
            row = sw.eval(x, d)
            expected = np.zeros(8)
            expected[k] = 1.0
            assert np.all(row == expected)

    def test_array_evaluation_matches_scalar(self):
        sw = SwitchingFunctions.closed_form(0.0, 1.0)
        xs = np.array([0.0, 0.3, 1.0])
        batch = sw.eval(xs, 1)
        for k, x in enumerate(xs):
            assert_allclose(batch[k], sw.eval(float(x), 1), atol=0)

    def test_order_out_of_range_rejected(self):
        sw = SwitchingFunctions.closed_form(0.0, 1.0)
        with pytest.raises(ValueError):
            sw.eval(0.5, 9)

    @pytest.mark.parametrize(
        "order", [2.0, 2.5, True, np.True_, "2", None, np.array(2.0), np.array([2])])
    def test_non_integer_order_rejected(self, order):
        sw = SwitchingFunctions.closed_form(0.0, 1.0)
        with pytest.raises(ValueError, match="order must be an integer in 0..8"):
            sw.eval(0.5, order)

    def test_numpy_integer_order_accepted(self):
        sw = SwitchingFunctions.closed_form(0.0, 1.0)
        x = np.array([0.0, 0.3, 1.0])
        assert np.array_equal(sw.eval(x, np.int64(2)), sw.eval(x, 2))
        assert np.array_equal(sw.eval(x, np.uint8(0)), sw.eval(x, 0))


class TestBoundaryConditions:
    def test_interleaved_order(self):
        bc = BoundaryConditions(0.0, 1.0, (10.0, 11.0, 12.0, 13.0), (20.0, 21.0, 22.0, 23.0))
        assert_allclose(bc.interleaved(), [10, 20, 11, 21, 12, 22, 13, 23], atol=0)

    def test_from_callable(self):
        bc = BoundaryConditions.from_callable(0.0, 1.0, lambda x, d: x + d)
        assert bc.left_values == (0.0, 1.0, 2.0, 3.0)
        assert bc.right_values == (1.0, 2.0, 3.0, 4.0)

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
    basis = ChebyshevBasis(m, DomainMap(bc.x_i, bc.x_f))
    return ConstrainedExpression.build(basis, bc)


class TestConstrainedExpression:
    def test_domain_mismatch_rejected(self):
        basis = ChebyshevBasis(10, DomainMap(0.0, 2.0))
        with pytest.raises(ConfigurationError):
            ConstrainedExpression.build(basis, unit_bc())

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
        ce = build_unit_ce(m=6)
        x = 0.37
        zero = np.zeros(6)
        base = ce.eval(x, 2, zero)
        row = ce.a_row(x, 2)
        for j in range(6):
            unit = np.zeros(6)
            unit[j] = 1.0
            assert ce.eval(x, 2, unit) - base == pytest.approx(row[j], abs=1e-12)

    def test_eval_is_a_row_plus_b_value(self):
        ce = build_unit_ce(m=7)
        rng = np.random.default_rng(9)
        xi = rng.standard_normal(7)
        for x in (0.1, 0.55, 0.98):
            for order in (0, 1, 4, 8):
                direct = ce.eval(x, order, xi)
                split = ce.a_row(x, order) @ xi + ce.b_value(x, order)
                assert direct == split

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
        bc = BoundaryConditions(0.0, 1.0, (1.0, 2.0, 3.0, 4.0), (4.0, 3.0, 2.0, 1.0))
        a = build_unit_ce(bc=bc)
        b = dataclasses.replace(a, switching=unit_linear_solve())
        xs = np.linspace(0.0, 1.0, 13)
        xi = np.full(10, 0.1)
        for order in (0, 3, 8):
            va = np.array([a.eval(x, order, xi) for x in xs])
            vb = np.array([b.eval(x, order, xi) for x in xs])
            assert_allclose(vb, va, rtol=1e-9, atol=1e-9 * max(1.0, np.max(np.abs(va))))

    def test_wrong_coefficient_shape_rejected(self):
        ce = build_unit_ce(m=5)
        with pytest.raises(ValueError):
            ce.eval(0.5, 0, np.zeros(6))
