"""Switching functions and the constrained expression.

An eighth-order two-point problem pins the value and the first three
derivatives of y at both endpoints.  Those eight constraints are embedded
analytically: eight degree-7 polynomials beta_1..beta_8 each switch exactly
one constraint on (the Kronecker property), and the remaining freedom enters
through the Chebyshev terms.  The solution candidate splits as

    y(x, xi) = a(x)^T xi + b(x)

where every component of a vanishes under every constraint operator and b
interpolates the constraint values, so the boundary conditions hold for any
coefficient vector xi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import polynomial as npoly

from .basis import MAX_ORDER, ChebyshevBasis
from .errors import ConfigurationError, SingularSystemError

#: Derivative order of each constraint, alternating left/right endpoint.
CONSTRAINT_ORDERS = (0, 0, 1, 1, 2, 2, 3, 3)

_UNIT_ROWS = np.eye(8)
_UNIT_ROWS.flags.writeable = False


def _chain_factors(c: float, orders: slice, ndim: int) -> np.ndarray:
    """c**d for d in `orders`, shaped to broadcast over ndim trailing axes."""
    factors = np.array([c**d for d in range(orders.start, orders.stop)])
    return factors.reshape((-1,) + (1,) * ndim)


def constraint_locations(x_i: float, x_f: float):
    """The eight (location, derivative order) pairs in canonical order."""
    return tuple(
        (x_i if k % 2 == 0 else x_f, d) for k, d in enumerate(CONSTRAINT_ORDERS)
    )


@dataclass(frozen=True)
class BoundaryConditions:
    """Values of y, y', y'', y''' at both endpoints of [x_i, x_f]."""

    x_i: float
    x_f: float
    left_values: tuple
    right_values: tuple

    def __post_init__(self):
        if not self.x_f > self.x_i:
            raise ConfigurationError(
                f"degenerate domain: x_f={self.x_f} must exceed x_i={self.x_i}"
            )
        if len(self.left_values) != 4 or len(self.right_values) != 4:
            raise ConfigurationError(
                "need exactly 4 values (orders 0..3) per endpoint"
            )

    @classmethod
    def from_callable(cls, x_i: float, x_f: float, fn) -> "BoundaryConditions":
        """Read the eight constraint values from fn(x, order)."""
        return cls(
            x_i,
            x_f,
            tuple(float(fn(x_i, d)) for d in range(4)),
            tuple(float(fn(x_f, d)) for d in range(4)),
        )

    def interleaved(self) -> np.ndarray:
        """The eight values in canonical constraint order."""
        out = np.empty(8)
        out[0::2] = self.left_values
        out[1::2] = self.right_values
        return out


def _shifted_power(root: float, n: int) -> np.ndarray:
    """Ascending coefficients of (x - root)^n."""
    return npoly.polypow(np.array([-root, 1.0]), n)


def support_matrix(x_i: float, x_f: float) -> np.ndarray:
    """Constraint operators applied to the monomial supports 1, x, .., x^7.

    Row k holds the d_k-th derivative of each monomial at the k-th constraint
    location; the switching coefficients are the columns of its inverse.
    """
    mat = np.zeros((8, 8))
    for row, (x, d) in enumerate(constraint_locations(x_i, x_f)):
        for k in range(d, 8):
            mat[row, k] = math.perm(k, d) * x ** (k - d)
    return mat


@dataclass(frozen=True)
class SwitchingFunctions:
    """Eight degree-7 polynomials with beta_j^{(d_k)}(x_k) = delta_jk.

    Row j of `coeffs` holds the monomial coefficients of beta_{j+1} in
    ascending degree.  Derivatives are taken analytically on the coefficient
    rows, so evaluation is exact at every order up to 8 (order 8 of a
    degree-7 polynomial is identically zero).
    """

    coeffs: np.ndarray
    x_i: float
    x_f: float
    _deriv: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        coeffs = np.asarray(self.coeffs, dtype=float)
        if coeffs.shape != (8, 8):
            raise ConfigurationError(f"expected (8, 8) coefficients, got {coeffs.shape}")
        deriv = np.zeros((9, 8, 8))
        deriv[0] = coeffs
        for p in range(1, 9):
            deriv[p, :, :-1] = deriv[p - 1, :, 1:] * np.arange(1, 8)
        deriv.flags.writeable = False
        object.__setattr__(self, "coeffs", deriv[0])
        object.__setattr__(self, "_deriv", deriv)

    @classmethod
    def closed_form(cls, x_i: float, x_f: float) -> "SwitchingFunctions":
        """Expand the factored closed forms of beta_1..beta_8.

        Each function is a product of powers of (x - x_i) and (x - x_f) with
        a short cofactor polynomial, divided by a power of the domain width.
        """
        if not x_f > x_i:
            raise ConfigurationError(
                f"degenerate domain: x_f={x_f} must exceed x_i={x_i}"
            )
        w = x_f - x_i
        li = {n: _shifted_power(x_i, n) for n in (1, 2, 3, 4)}
        rf = {n: _shifted_power(x_f, n) for n in (1, 2, 3, 4)}
        cubic_i = np.array([
            x_f**3 - 7.0 * x_i * x_f**2 + 21.0 * x_i**2 * x_f - 35.0 * x_i**3,
            4.0 * x_f**2 - 28.0 * x_i * x_f + 84.0 * x_i**2,
            10.0 * x_f - 70.0 * x_i,
            20.0,
        ])
        cubic_f = np.array([
            x_i**3 - 7.0 * x_f * x_i**2 + 21.0 * x_f**2 * x_i - 35.0 * x_f**3,
            4.0 * x_i**2 - 28.0 * x_f * x_i + 84.0 * x_f**2,
            10.0 * x_i - 70.0 * x_f,
            20.0,
        ])
        quad_i = np.array([x_f**2 - 6.0 * x_f * x_i + 15.0 * x_i**2, 4.0 * x_f - 24.0 * x_i, 10.0])
        quad_f = np.array([15.0 * x_f**2 - 6.0 * x_f * x_i + x_i**2, -24.0 * x_f + 4.0 * x_i, 10.0])
        lin_i = np.array([x_f - 5.0 * x_i, 4.0])
        lin_f = np.array([x_i - 5.0 * x_f, 4.0])

        betas = [
            npoly.polymul(rf[4], cubic_i) / w**7,
            -npoly.polymul(li[4], cubic_f) / w**7,
            npoly.polymul(npoly.polymul(rf[4], li[1]), quad_i) / w**6,
            npoly.polymul(npoly.polymul(rf[1], li[4]), quad_f) / w**6,
            npoly.polymul(npoly.polymul(rf[4], li[2]), lin_i) / (2.0 * w**5),
            -npoly.polymul(npoly.polymul(rf[2], li[4]), lin_f) / (2.0 * w**5),
            npoly.polymul(rf[4], li[3]) / (6.0 * w**4),
            npoly.polymul(rf[3], li[4]) / (6.0 * w**4),
        ]
        coeffs = np.zeros((8, 8))
        for j, b in enumerate(betas):
            coeffs[j, : len(b)] = b
        return cls(coeffs, x_i, x_f)

    @classmethod
    def from_linear_solve(cls, x_i: float, x_f: float) -> "SwitchingFunctions":
        """Independent construction by inverting the support matrix.

        Column j of the inverse lists the monomial coefficients of beta_{j+1}.
        A pivot check on the QR factors guards against a numerically singular
        support matrix before inverting.
        """
        if not x_f > x_i:
            raise ConfigurationError(
                f"degenerate domain: x_f={x_f} must exceed x_i={x_i}"
            )
        mat = support_matrix(x_i, x_f)
        pivots = np.abs(np.diag(np.linalg.qr(mat, mode="r")))
        j = int(np.argmin(pivots))
        if pivots[j] < 1e-14 * np.linalg.norm(mat):
            raise SingularSystemError(
                f"support matrix is numerically singular "
                f"(pivot {pivots[j]:.3e} at column {j})"
            )
        return cls(np.linalg.inv(mat).T, x_i, x_f)

    def _eval_poly(self, x, orders: slice) -> np.ndarray:
        """Plain Horner evaluation of the derivative rows of `orders`.

        One polyval call covers every requested order; the result has shape
        (number of orders,) + x.shape + (8,).
        """
        deriv = self._deriv[orders]
        vals = npoly.polyval(x, deriv.reshape(-1, 8).T)
        return np.moveaxis(vals.reshape(deriv.shape[:2] + np.shape(x)), 1, -1)

    def _snapped(self, x, orders: slice) -> np.ndarray:
        """_eval_poly with the constraint orders (0..3) snapped at the endpoints.

        The construction guarantees the exact Kronecker rows there; Horner
        noise would otherwise be amplified by the high-order basis
        derivatives when the expression subtracts the boundary corrections.
        """
        vals = self._eval_poly(x, orders)
        x = np.asarray(x)
        at_i, at_f = x == self.x_i, x == self.x_f
        for d in range(orders.start, min(orders.stop, 4)):
            vals[d - orders.start][at_i] = _UNIT_ROWS[2 * d]
            vals[d - orders.start][at_f] = _UNIT_ROWS[2 * d + 1]
        return vals

    def eval(self, x, order: int = 0) -> np.ndarray:
        """beta_1^{(order)}(x) .. beta_8^{(order)}(x), shape x.shape + (8,).

        At the endpoints the constraint orders (0..3) are snapped to the
        exact Kronecker rows.
        """
        if not 0 <= order <= 8:
            raise ValueError(f"order must be in 0..8, got {order}")
        return self._snapped(x, slice(order, order + 1))[0]

    def eval_all(self, x) -> np.ndarray:
        """eval(x, d) for d = 0..8 from one Horner pass, shape (9,) + x.shape + (8,)."""
        return self._snapped(x, slice(0, 9))

    def kronecker_matrix(self) -> np.ndarray:
        """K[k, j] = beta_{j+1}^{(d_k)}(x_k) by plain polynomial evaluation.

        Certifies the construction itself: the identity up to rounding,
        without the endpoint snapping eval() applies.
        """
        return np.vstack([
            self._eval_poly(x, slice(d, d + 1))[0]
            for x, d in constraint_locations(self.x_i, self.x_f)
        ])


@dataclass(frozen=True)
class ConstrainedExpression:
    """y(x, xi) = a(x)^T xi + b(x) with the eight constraints embedded exactly.

    `boundary_basis_table` caches the constraint operators applied to the
    basis terms: row k holds c**d_k * h^{(d_k)} at the endpoint of the k-th
    constraint.  Subtracting the switching combination of those rows from h
    makes every component of a vanish under every constraint operator.
    """

    basis: ChebyshevBasis
    switching: SwitchingFunctions
    bc: BoundaryConditions
    boundary_basis_table: np.ndarray
    constraint_values: np.ndarray

    @classmethod
    def build(
        cls,
        basis: ChebyshevBasis,
        bc: BoundaryConditions,
        switching_mode: str = "closed_form",
    ) -> "ConstrainedExpression":
        dm = basis.domain_map
        if dm.x_i != bc.x_i or dm.x_f != bc.x_f:
            raise ConfigurationError(
                f"basis domain [{dm.x_i}, {dm.x_f}] does not match "
                f"constraint domain [{bc.x_i}, {bc.x_f}]"
            )
        if switching_mode == "closed_form":
            switching = SwitchingFunctions.closed_form(bc.x_i, bc.x_f)
        elif switching_mode == "linear_solve":
            switching = SwitchingFunctions.from_linear_solve(bc.x_i, bc.x_f)
        else:
            raise ConfigurationError(f"unknown switching_mode {switching_mode!r}")
        ends = basis.table([dm.z_0, dm.z_f], 3)
        table = (_chain_factors(dm.c, slice(0, 4), 2) * ends).reshape(8, basis.m)
        table.flags.writeable = False
        values = bc.interleaved()
        values.flags.writeable = False
        return cls(basis, switching, bc, table, values)

    def _coefficient_rows(self, x, betas, orders: slice) -> np.ndarray:
        """c**d h^{(d)}(x) - beta^{(d)}(x) B for d in `orders`, stacked first.

        h^{(d)} are the basis derivatives in z and betas the matching
        switching values.  The Chebyshev table lives only inside the
        multiply, and the subtraction runs in place on the C-contiguous
        result, so one temporary of the result's size exists at a time.
        """
        dm = self.basis.domain_map
        rows = np.multiply(
            _chain_factors(dm.c, orders, np.ndim(x) + 1),
            self.basis.table(dm.to_z(x), orders.stop - 1)[orders],
            order="C",
        )
        rows -= betas @ self.boundary_basis_table
        return rows

    def a_row(self, x, order: int = 0) -> np.ndarray:
        """The xi coefficient row a^{(order)}(x), shape x.shape + (m,)."""
        betas = self.switching.eval(x, order)
        return self._coefficient_rows(x, betas, slice(order, order + 1))[0]

    def b_value(self, x, order: int = 0):
        """The constraint interpolant b^{(order)}(x) (the xi = 0 candidate)."""
        return self.switching.eval(x, order) @ self.constraint_values

    def tables(self, x) -> tuple[np.ndarray, np.ndarray]:
        """a^{(d)}(x), shape (9,) + x.shape + (m,), and b^{(d)}(x) for d = 0..8.

        One Chebyshev table and one switching evaluation give every order,
        bit for bit equal to stacking a_row(x, d) and b_value(x, d).  The
        switching values keep the layout of the per-order views, so BLAS
        rounds each product as it does on the per-order path.
        """
        betas = self.switching.eval_all(x)
        a = self._coefficient_rows(x, betas, slice(0, MAX_ORDER + 1))
        return a, betas @ self.constraint_values

    def eval(self, x, order: int = 0, xi=None):
        """y^{(order)}(x, xi)."""
        xi = np.asarray(xi, dtype=float)
        if xi.shape != (self.basis.m,):
            raise ValueError(f"xi must have shape ({self.basis.m},), got {xi.shape}")
        return self.a_row(x, order) @ xi + self.b_value(x, order)
