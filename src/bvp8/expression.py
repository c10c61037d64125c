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

The switching functions come from one exact table, UNIT_COEFFS on [0, 1],
evaluated at t = (x - x_i) / w with w = x_f - x_i; the order-d derivative of
beta_j is scaled by w**(d_j - d).  Accuracy therefore does not depend on
where the domain sits or how wide it is.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .basis import MAX_ORDER, ChebyshevBasis, DomainMap, check_order, check_real
from .errors import ConfigurationError

#: Derivative order of each constraint, alternating left/right endpoint.
CONSTRAINT_ORDERS = (0, 0, 1, 1, 2, 2, 3, 3)

#: Coefficients of the switching functions on [0, 1] in ascending powers,
#: one row per constraint.  Every entry is an exactly representable rational.
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
UNIT_COEFFS.flags.writeable = False

_UNIT_ROWS = np.eye(8)
_UNIT_ROWS.flags.writeable = False

#: Coefficient rows are tabulated in pieces of this many bytes, so building a
#: large table needs no temporary of its size.
_PIECE_BYTES = 2**19


def _chain_factors(c: float, orders: int) -> np.ndarray:
    """c**d for d = 0..orders-1, shaped (orders, 1, 1)."""
    return np.array([c**d for d in range(orders)]).reshape(-1, 1, 1)


def constraint_locations(x_i: float, x_f: float):
    """The eight (location, derivative order) pairs in canonical order."""
    return tuple(
        (x_i if k % 2 == 0 else x_f, d) for k, d in enumerate(CONSTRAINT_ORDERS)
    )


@dataclass(frozen=True)
class BoundaryConditions:
    """Values of y, y', y'', y''' at both endpoints of [x_i, x_f], four finite floats each."""

    x_i: float
    x_f: float
    left_values: tuple
    right_values: tuple
    domain_map: DomainMap = field(init=False, repr=False, compare=False)  # checked once, shared

    def __post_init__(self):
        object.__setattr__(self, "domain_map", DomainMap(self.x_i, self.x_f))
        for name in ("left_values", "right_values"):
            values = check_real(name, getattr(self, name), (4,))
            if not np.all(np.isfinite(values)):
                raise ConfigurationError(f"{name} must be finite, got {getattr(self, name)!r}")
            object.__setattr__(self, name, tuple(values.tolist()))

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


@dataclass(frozen=True, eq=False)
class SwitchingFunctions:
    """Eight degree-7 polynomials with beta_j^{(d_k)}(x_k) = delta_jk.

    Row j of `coeffs` holds u_{j+1}, the switching function on [0, 1], in ascending
    powers of t = (x - x_i) / w, w = x_f - x_i, on domain_map's [x_i, x_f].  There,
    beta_j(x) = w**d_j u_j(t), whose order-d derivative is w**(d_j - d)
    u_j^{(d)}(t): the derivative rows are differentiated analytically and
    scaled once, at the first evaluation (by exactly 1 on [0, 1]).  Order 8
    of a degree-7 polynomial is identically zero.
    """

    coeffs: np.ndarray
    domain_map: DomainMap

    def __post_init__(self):
        if not isinstance(self.domain_map, DomainMap):
            raise ConfigurationError(f"expected a DomainMap, got {self.domain_map!r}")
        coeffs = np.array(self.coeffs, dtype=float)
        if coeffs.shape != (8, 8):
            raise ConfigurationError(f"expected (8, 8) coefficients, got {coeffs.shape}")
        coeffs.flags.writeable = False
        object.__setattr__(self, "coeffs", coeffs)

    def __reduce__(self):
        # Copies and pickles rebuild through __init__: read-only coeffs, no _deriv.
        return type(self), (self.coeffs, self.domain_map)

    @cached_property
    def _deriv(self) -> np.ndarray:
        """Read-only ascending coefficients of the order-p rows on [x_i, x_f], p = 0..8."""
        deriv = np.zeros((9, 8, 8))
        deriv[0] = self.coeffs
        for p in range(1, 9):
            deriv[p, :, :-1] = deriv[p - 1, :, 1:] * np.arange(1, 8)
        exponents = np.array(CONSTRAINT_ORDERS) - np.arange(9)[:, None]
        deriv *= (float(self.domain_map.x_f - self.domain_map.x_i) ** exponents)[..., None]
        deriv.flags.writeable = False
        return deriv

    @classmethod
    def closed_form(cls, x_i: float, x_f: float) -> "SwitchingFunctions":
        """The switching functions of [x_i, x_f]: UNIT_COEFFS evaluated at t."""
        return cls(UNIT_COEFFS, DomainMap(x_i, x_f))

    def _eval_poly(self, x, orders: slice) -> np.ndarray:
        """Horner evaluation of the derivative rows of `orders` at t, in one buffer.

        Shape (number of orders,) + x.shape + (8,).  Powers above 7 - orders.start
        are zero in these orders, so Horner starts there, at coefficient + t * 0:
        numpy's polyval bit for bit, and a NaN or inf t reaches every order.  Not snapped
        (see _snapped).  t stays broadcast: a same-shape copy did not pay for its buffer.
        """
        t = (x - self.domain_map.x_i) / (self.domain_map.x_f - self.domain_map.x_i)
        rows = self._deriv[orders].reshape((-1, 8) + (1,) * np.ndim(t))
        top = max(7 - orders.start, 0)
        vals = rows[:, top] + t * 0
        for p in range(top - 1, -1, -1):
            np.multiply(vals, t, out=vals)
            np.add(rows[:, p], vals, out=vals)
        return np.moveaxis(vals.reshape((len(rows) // 8, 8) + np.shape(x)), 1, -1)

    def _snapped(self, x, orders: slice) -> np.ndarray:
        """_eval_poly with the constraint orders (0..3) snapped at the endpoints.

        The construction guarantees the exact Kronecker rows there; Horner
        noise would otherwise be amplified by the high-order basis
        derivatives when the expression subtracts the boundary corrections.
        """
        vals = self._eval_poly(x, orders)
        x = np.asarray(x)
        at_i, at_f = x == self.domain_map.x_i, x == self.domain_map.x_f
        for d in range(orders.start, min(orders.stop, 4)):
            vals[d - orders.start][at_i] = _UNIT_ROWS[2 * d]
            vals[d - orders.start][at_f] = _UNIT_ROWS[2 * d + 1]
        return vals

    def eval(self, x, order: int = 0) -> np.ndarray:
        """beta_1^{(order)}(x) .. beta_8^{(order)}(x), shape x.shape + (8,).

        At the endpoints the constraint orders (0..3) are snapped to the
        exact Kronecker rows.
        """
        order = check_order(order)
        return self._snapped(x, slice(order, order + 1))[0]

    def eval_all(self, x) -> np.ndarray:
        """eval(x, d) for d = 0..8 from one Horner pass, shape (9,) + x.shape + (8,)."""
        return self._snapped(x, slice(0, 9))


@dataclass(frozen=True, eq=False)
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
    def build(cls, basis: ChebyshevBasis, bc: BoundaryConditions,
              ends=None) -> "ConstrainedExpression":
        dm = basis.domain_map
        if dm != bc.domain_map:
            raise ConfigurationError(
                f"basis domain [{dm.x_i}, {dm.x_f}] does not match "
                f"constraint domain [{bc.x_i}, {bc.x_f}]"
            )
        switching = SwitchingFunctions(UNIT_COEFFS, dm)
        if ends is None:  # else basis.table([-1, 1], 3), built once by the caller
            ends = basis.table([dm.z_0, dm.z_f], 3)
        table = (_chain_factors(dm.c, 4) * ends).reshape(8, basis.m)
        table.flags.writeable = False
        values = bc.interleaved()
        values.flags.writeable = False
        return cls(basis, switching, bc, table, values)

    def _coefficient_rows(self, x, betas) -> np.ndarray:
        """c**d h^{(d)}(x) - beta^{(d)}(x) B for d = 0..8, stacked first.

        h^{(d)} are the basis derivatives in z and betas the switching values
        of orders 0..8, as from switching.eval_all(x).  A Chebyshev table is
        built per piece of _PIECE_BYTES of the result, and each order's
        correction is subtracted in place.
        """
        dm = self.basis.domain_map
        z = np.ravel(dm.to_z(x))
        chain = _chain_factors(dm.c, MAX_ORDER + 1)
        rows = np.empty((MAX_ORDER + 1, z.size, self.basis.m))
        step = max(1, _PIECE_BYTES // (8 * (MAX_ORDER + 1) * self.basis.m))
        for k in range(0, z.size, step):
            np.multiply(chain, self.basis.table(z[k:k + step]), out=rows[:, k:k + step])
        rows = rows.reshape((MAX_ORDER + 1,) + np.shape(x) + (self.basis.m,))
        for row, beta in zip(rows, betas):
            row -= beta @ self.boundary_basis_table
        return rows

    def a_row(self, x, order: int = 0) -> np.ndarray:
        """The xi coefficient row a^{(order)}(x), shape x.shape + (m,); builds all nine orders."""
        order = check_order(order)
        return self._coefficient_rows(x, self.switching.eval_all(x))[order]

    def b_value(self, x, order: int = 0):
        """The constraint interpolant b^{(order)}(x) (the xi = 0 candidate)."""
        return self.switching.eval(x, order) @ self.constraint_values

    def eval(self, x, order: int = 0, xi=None):
        """y^{(order)}(x, xi)."""
        xi = check_real("xi", xi, (self.basis.m,))
        return self.a_row(x, order) @ xi + self.b_value(x, order)
