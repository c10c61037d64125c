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

The switching functions come from one exact table, UNIT_COEFFS on [0, 1] in
powers of t = (x - x_i) / w with w = x_f - x_i, and are read only as Chebyshev
series in z = 2 t - 1: UNIT_CHEB holds the same polynomials exactly (coefficient
sums at most 1.25, where the powers of t reach 210).  beta_j^{(d)}(x) is c**d
times the z derivative of its series, scaled by w**d_j, so accuracy does not
depend on where the domain sits or how wide it is.  The collocation tables and
a(x) come from one Chebyshev table of the degrees 0..7+m, whose first eight degrees
carry the switching functions; the tables read b as those degrees times b's series.
Elsewhere b and a solution's xi correction are Clenshaw passes over the series.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .basis import (
    START_DEGREE, ChebyshevBasis, DomainMap, chebyshev_derivatives, chebyshev_table, check_order,
    check_real, clenshaw,
)
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

#: The rows of UNIT_COEFFS as exact Chebyshev series in z, u_j((1 + z) / 2) =
#: sum_k UNIT_CHEB[j, k] T_k(z).  Rows 0-5 are dyadic; rows 6-7 round once.
UNIT_CHEB = np.array([
    [1 / 2, -1225 / 2048, 0.0, 245 / 2048, 0.0, -49 / 2048, 0.0, 5 / 2048],
    [1 / 2, 1225 / 2048, 0.0, -245 / 2048, 0.0, 49 / 2048, 0.0, -5 / 2048],
    [81 / 1024, -201 / 4096, -175 / 2048, 245 / 4096, 7 / 1024, -49 / 4096, -1 / 2048, 5 / 4096],
    [-81 / 1024, -201 / 4096, 175 / 2048, 245 / 4096, -7 / 1024, -49 / 4096, 1 / 2048, 5 / 4096],
    [17 / 2048, -13 / 4096, -47 / 4096, 21 / 4096, 7 / 2048, -9 / 4096, -1 / 4096, 1 / 4096],
    [17 / 2048, 13 / 4096, -47 / 4096, -21 / 4096, 7 / 2048, 9 / 4096, -1 / 4096, -1 / 4096],
    [5 / 12288, -5 / 49152, -5 / 8192, 3 / 16384, 1 / 4096, -5 / 49152, -1 / 24576, 1 / 49152],
    [-5 / 12288, -5 / 49152, 5 / 8192, 3 / 16384, -1 / 4096, -5 / 49152, 1 / 24576, 1 / 49152],
])
UNIT_CHEB.flags.writeable = False

_UNIT_ROWS = np.eye(8)
_UNIT_ROWS.flags.writeable = False


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
        dm = DomainMap(self.x_i, self.x_f)
        object.__setattr__(self, "domain_map", dm)
        object.__setattr__(self, "x_i", dm.x_i)
        object.__setattr__(self, "x_f", dm.x_f)
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
    beta_j(x) = w**d_j u_j(t).  The rows are read only as their Chebyshev series
    in z (_cheb), by ConstrainedExpression.
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
        # Copies and pickles rebuild through __init__: read-only coeffs, no cached _cheb.
        return type(self), (self.coeffs, self.domain_map)

    @cached_property
    def _cheb(self) -> np.ndarray:
        """The rows as read-only Chebyshev series in z = 2 t - 1: UNIT_CHEB for UNIT_COEFFS,
        other rows converted by numpy.polynomial (imported only then)."""
        if np.array_equal(self.coeffs, UNIT_COEFFS):
            return UNIT_CHEB
        from numpy.polynomial import Chebyshev, Polynomial
        cheb = np.zeros((8, 8))
        for row, coeffs in zip(cheb, self.coeffs):
            series = Polynomial(coeffs, [-1, 1], [0, 1]).convert(kind=Chebyshev).coef
            row[:series.size] = series
        cheb.flags.writeable = False
        return cheb

    @classmethod
    def closed_form(cls, x_i: float, x_f: float) -> "SwitchingFunctions":
        """The switching functions of [x_i, x_f]: UNIT_COEFFS, read at t."""
        return cls(UNIT_COEFFS, DomainMap(x_i, x_f))


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

    def _rows(self, x, z, max_order: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(a, betas, low): a^{(d)}(x), beta^{(d)}(x) and c**d T_{0..7}^{(d)}(z), d <= max_order.

        One chebyshev_table at z, times c**d, gives all three: low is its degrees below the basis,
        betas = low (W S)^T (S the switching series, W = w**d_j), and a = T_{8..} - betas B (B the
        boundary basis table), one order at a time.  betas of orders 0..3 are the exact Kronecker
        rows at x_i and x_f, so there a^{(0..3)} = 0.  Read beta(x) . v as low @ _beta_series(v).
        """
        dm, m = self.basis.domain_map, self.basis.m
        table = chebyshev_table(np.ravel(z), self.basis.max_degree, max_order)
        table *= _chain_factors(dm.c, max_order + 1)
        table = table.transpose(0, 2, 1)
        low = np.ascontiguousarray(table[..., :START_DEGREE])
        betas = low @ self._beta_series(_UNIT_ROWS).T
        x = np.ravel(x)
        for d in range(min(max_order + 1, 4)):
            betas[d, x == dm.x_i] = _UNIT_ROWS[2 * d]
            betas[d, x == dm.x_f] = _UNIT_ROWS[2 * d + 1]
        a = np.empty(table.shape[:2] + (m,))
        for row, h, beta in zip(a, table[..., START_DEGREE:], betas):
            np.subtract(h, beta @ self.boundary_basis_table, out=row)
        shape = (max_order + 1,) + np.shape(z)
        return tuple(rows.reshape(shape + rows.shape[-1:]) for rows in (a, betas, low))

    def a_row(self, x, order: int = 0) -> np.ndarray:
        """The xi coefficient row a^{(order)}(x), shape x.shape + (m,); tabulates orders 0..order."""
        order = check_order(order)
        x, z = self.basis.domain_map.checked_z(x)
        return self._rows(x, z, order)[0][order]

    def _beta_series(self, v) -> np.ndarray:
        """The series in z of beta(x) . v, (w**d_j v_j) @ the switching series, per row of v."""
        w = self.bc.x_f - self.bc.x_i
        return (w ** np.array(CONSTRAINT_ORDERS, dtype=float) * v) @ self.switching._cheb

    @cached_property
    def _b_series(self) -> list:
        """Chebyshev series of b^{(d)} in z for d = 0..8; order d keeps 8 - d terms (one at 8)."""
        series = self._beta_series(self.constraint_values)
        return chebyshev_derivatives(series, self.basis.domain_map.c)

    def _snap(self, x, order: int, y):
        """y with the boundary data of orders 0..3 at x_i and x_f, where they hold exactly."""
        if order < 4:
            right = np.where(x == self.bc.x_f, self.bc.right_values[order], y)
            y = np.where(x == self.bc.x_i, self.bc.left_values[order], right)[()]
        return y

    def b_value(self, x, order: int = 0):
        """b^{(order)}(x), the xi = 0 candidate: one Clenshaw pass over the switching series."""
        order = check_order(order)
        x, z = self.basis.domain_map.checked_z(x)
        return self._snap(x, order, clenshaw(z, self._b_series[order]))

    def eval(self, x, order: int = 0, xi=None):
        """y^{(order)}(x, xi)."""
        xi = check_real("xi", xi, (self.basis.m,))
        return self.a_row(x, order) @ xi + self.b_value(x, order)
