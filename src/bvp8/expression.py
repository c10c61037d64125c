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
depend on where the domain sits or how wide it is.  a(x) is then one linear map
of the Chebyshev terms of degrees 0..7+m, a^{(d)}(x) = c**d T^{(d)}(z) @ M, with
the same (8 + m, m) matrix M (series_map) on every domain.  b is the switching
series times the scaled constraint values; the tables read it through degrees
0..7 of their Chebyshev table.  M @ xi plus b's series is one series of y per
order, chopped once at roundoff (basis.chop: a value moves by at most eps/2 of the
series' coefficient sum), and one Clenshaw pass over it is sol(x, d), eval and
b_value (xi = 0).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .basis import (
    START_DEGREE, ChebyshevBasis, DomainMap, ReadOnlyArrays, chebyshev_derivatives,
    chebyshev_table, check_order, check_real, chop, clenshaw,
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
class SwitchingFunctions(ReadOnlyArrays):
    """Eight degree-7 polynomials with beta_j^{(d_k)}(x_k) = delta_jk, as monomial rows.

    Row j of `coeffs` holds u_{j+1}, the switching function on [0, 1], in ascending
    powers of t = (x - x_i) / w, w = x_f - x_i, on domain_map's [x_i, x_f].  There,
    beta_j(x) = w**d_j u_j(t).  closed_form is the checked record of UNIT_COEFFS; the
    constrained expression reads the same polynomials as UNIT_CHEB, not these rows.
    """

    _arrays = ("coeffs",)
    coeffs: np.ndarray
    domain_map: DomainMap

    def __post_init__(self):
        if not isinstance(self.domain_map, DomainMap):
            raise ConfigurationError(f"expected a DomainMap, got {self.domain_map!r}")
        super().__post_init__()
        if self.coeffs.shape != (8, 8):
            raise ConfigurationError(f"expected (8, 8) coefficients, got {self.coeffs.shape}")

    @classmethod
    def closed_form(cls, x_i: float, x_f: float) -> "SwitchingFunctions":
        """The switching functions of [x_i, x_f]: UNIT_COEFFS, read at t."""
        return cls(UNIT_COEFFS, DomainMap(x_i, x_f))


@dataclass(frozen=True, eq=False)
class ConstrainedExpression(ReadOnlyArrays):
    """y(x, xi) = a(x)^T xi + b(x) with the eight constraints embedded exactly.

    `series_map` M, shape (8 + m, m), carries xi to the Chebyshev series in z of
    a(x) . xi over the degrees 0..7+m, so a^{(d)}(x) = c**d T^{(d)}(z) @ M.  Rows 8..
    are the identity, the basis terms; rows 0..7 subtract the switching series
    times the constraint operators applied to those terms, -(W UNIT_CHEB)^T E with
    W = diag(2**d_j) and E = chebyshev_table([-1, 1], .., 3) of the basis degrees,
    in constraint order.  Since w**d_j (2/w)**d_j = 2**d_j, M is the same on every domain.
    """

    _arrays = ("series_map", "constraint_values")
    basis: ChebyshevBasis
    bc: BoundaryConditions
    series_map: np.ndarray
    constraint_values: np.ndarray

    @classmethod
    def build(cls, basis: ChebyshevBasis, bc: BoundaryConditions,
              series_map=None) -> "ConstrainedExpression":
        dm = basis.domain_map
        if dm != bc.domain_map:
            raise ConfigurationError(
                f"basis domain [{dm.x_i}, {dm.x_f}] does not match "
                f"constraint domain [{bc.x_i}, {bc.x_f}]"
            )
        if series_map is None:  # else the map of an m-term basis, built once by the caller
            ends = chebyshev_table([dm.z_0, dm.z_f], basis.max_degree, 3)[:, START_DEGREE:]
            ends = ends.transpose(0, 2, 1).reshape(8, basis.m)
            low = -(UNIT_CHEB.T * 2.0 ** np.array(CONSTRAINT_ORDERS)) @ ends
            series_map = np.concatenate([low, np.eye(basis.m)])
            series_map.flags.writeable = False
        values = bc.interleaved()
        values.flags.writeable = False
        return cls(basis, bc, series_map, values)

    def _rows(self, x, z, max_order: int) -> tuple[np.ndarray, np.ndarray]:
        """(a, low): a^{(d)}(x) and c**d T_{0..7}^{(d)}(z) for d <= max_order.

        One chebyshev_table at z, times c**d, gives both: low is its degrees below the
        basis and a = low @ series_map[:8] plus its degrees 8.., with a^{(0..3)} set to
        the exact zeros of the constraints at x_i and x_f.  Read b(x) as low @ _beta_series(v).
        """
        dm = self.basis.domain_map
        table = chebyshev_table(np.ravel(z), self.basis.max_degree, max_order)
        table *= np.array([dm.c**d for d in range(max_order + 1)]).reshape(-1, 1, 1)
        table = table.transpose(0, 2, 1)
        low = np.ascontiguousarray(table[..., :START_DEGREE])
        a = low @ self.series_map[:START_DEGREE]
        a += table[..., START_DEGREE:]
        x = np.ravel(x)
        a[:4, (x == dm.x_i) | (x == dm.x_f)] = 0.0
        shape = (max_order + 1,) + np.shape(z)
        return a.reshape(shape + (self.basis.m,)), low.reshape(shape + (START_DEGREE,))

    def a_row(self, x, order: int = 0) -> np.ndarray:
        """The xi coefficient row a^{(order)}(x), shape x.shape + (m,); tabulates orders 0..order."""
        order = check_order(order)
        x, z = self.basis.domain_map.checked_z(x)
        return self._rows(x, z, order)[0][order]

    def _beta_series(self, v) -> np.ndarray:
        """The series in z of beta(x) . v, (w**d_j v_j) @ the switching series, per row of v."""
        w = self.bc.x_f - self.bc.x_i
        return (w ** np.array(CONSTRAINT_ORDERS, dtype=float) * v) @ UNIT_CHEB

    def _series(self, xi) -> list:
        """Read-only series in z of y^{(d)}, d = 0..8: series_map @ xi plus b's, c**d d^d/dz^d.

        Each is chopped once (basis.chop): its shortest head that drops at most eps/2 of its
        coefficient sum and chops to itself, so a read moves by at most that.  b's (xi = 0)
        drops the m zeros of M @ 0; a series holding an inf or NaN is kept whole.
        """
        series = self.series_map @ xi
        series[:START_DEGREE] += self._beta_series(self.constraint_values)
        return chop(chebyshev_derivatives(series, self.basis.domain_map.c))

    def _read(self, x, order: int, series: list):
        """y^{(order)}(x) from the chopped series of _series: one Clenshaw pass (numpy's chebval
        of that stored series bit for bit), with the exact boundary data of orders 0..3 where x
        is x_i or x_f."""
        order = check_order(order)
        x, z = self.basis.domain_map.checked_z(x)
        y = clenshaw(z, series[order])
        if order < 4 and x.size and (x.min() <= self.bc.x_i or x.max() >= self.bc.x_f):
            right = np.where(x == self.bc.x_f, self.bc.right_values[order], y)
            y = np.where(x == self.bc.x_i, self.bc.left_values[order], right)[()]
        return y

    def eval(self, x, order: int = 0, xi=None):
        """y^{(order)}(x, xi): one Clenshaw pass over the chopped series of _series(xi)."""
        xi = check_real("xi", xi, (self.basis.m,))
        return self._read(x, order, self._series(xi))

    def b_value(self, x, order: int = 0):
        """b^{(order)}(x), the xi = 0 candidate: eval(x, order, 0), the same one read."""
        return self.eval(x, order, np.zeros(self.basis.m))
