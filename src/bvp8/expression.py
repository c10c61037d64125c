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

The switching functions come from one exact table, UNIT_CHEB: row j holds the
switching polynomial u_j(t) on [0, 1], t = (x - x_i) / w with w = x_f - x_i, as
its Chebyshev series in z = 2 t - 1 (coefficient sums at most 1.25, where the
powers of t reach 210), and beta_j(x) = w**d_j u_j(t).  beta_j^{(d)}(x) is c**d
times the z derivative of its series, scaled by w**d_j, so accuracy does not
depend on where the domain sits or how wide it is.  a(x) is then one linear map
of the Chebyshev terms of degrees 0..7+m, a^{(d)}(x) = c**d T^{(d)}(z) @ M, with
the same (8 + m, m) matrix M (series_map) on every domain.  b is the switching
series times the scaled constraint values; the tables read it through degrees
0..7 of their Chebyshev table.  M @ xi plus b's series is one series of y per
order, chopped once at roundoff (basis.chop: a value moves by at most eps/2 of
the series' coefficient sum), and one Clenshaw pass over it is sol(x, d), eval
and b_value (xi = 0).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .basis import (
    START_DEGREE, DomainMap, ReadOnlyArrays, chebyshev_derivatives, chebyshev_table,
    check_instance, check_integer, check_order, check_real, chop, clenshaw,
)
from .errors import ConfigurationError, call_callback

#: Derivative order of each constraint, alternating left/right endpoint.
CONSTRAINT_ORDERS = (0, 0, 1, 1, 2, 2, 3, 3)

#: The switching polynomials u_j on [0, 1], u_j^{(d_k)}(t_k) = delta_jk, as exact Chebyshev
#: series in z: u_j((1 + z) / 2) = sum_k UNIT_CHEB[j, k] T_k(z).  Rows 0-5 are dyadic; rows
#: 6-7 round once.
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
        """Read the eight constraint values from fn(x, order), checked as the fields are.

        An exception from fn is an EvaluationError naming x and the order; a Bvp8Error passes.
        """
        left, right = ([call_callback(f"boundary callback at x={x!r}, order {d}", fn, x, d)
                        for d in range(4)] for x in (x_i, x_f))
        return cls(x_i, x_f, left, right)

    def interleaved(self) -> np.ndarray:
        """The eight values in canonical constraint order."""
        out = np.empty(8)
        out[0::2] = self.left_values
        out[1::2] = self.right_values
        return out


@dataclass(frozen=True, eq=False)
class ConstrainedExpression(ReadOnlyArrays):
    """y(x, xi) = a(x)^T xi + b(x) with the eight constraints of `bc` embedded exactly.

    `series_map` M, shape (8 + m, m), carries xi to the Chebyshev series in z of
    a(x) . xi over the degrees 0..7+m, so a^{(d)}(x) = c**d T^{(d)}(z) @ M.  Rows 8..
    are the identity, the basis terms T_8 .. T_{7+m}; rows 0..7 subtract the switching
    series times the constraint operators applied to those terms, -(W UNIT_CHEB)^T E with
    W = diag(2**d_j) and E = chebyshev_table([-1, 1], .., 3) of the basis degrees, in
    constraint order.  Since w**d_j (2/w)**d_j = 2**d_j, M is the same on every domain.
    """

    _arrays = ("series_map",)
    bc: BoundaryConditions
    series_map: np.ndarray

    @property
    def m(self) -> int:
        return self.series_map.shape[1]

    @classmethod
    def build(cls, bc: BoundaryConditions, m: int) -> "ConstrainedExpression":
        """The expression of bc with the m basis terms; ConfigurationError naming a bad bc or m."""
        check_instance("bc", bc, BoundaryConditions)
        m = check_integer("m", m)
        if m < 1:
            raise ConfigurationError(f"need at least one basis term, got m={m}")
        ends = chebyshev_table([DomainMap.z_0, DomainMap.z_f], START_DEGREE + m - 1, 3)
        ends = ends[:, START_DEGREE:].transpose(0, 2, 1).reshape(8, m)
        low = -(UNIT_CHEB.T * 2.0 ** np.array(CONSTRAINT_ORDERS)) @ ends
        series_map = np.concatenate([low, np.eye(m)])
        series_map.flags.writeable = False
        return cls(bc, series_map)

    def _rows(self, x, z, max_order: int) -> tuple[np.ndarray, np.ndarray]:
        """(a, low): a^{(d)}(x) and c**d T_{0..7}^{(d)}(z) for d <= max_order.

        One chebyshev_table at z, times c**d, gives both: low is its degrees below the
        basis and a = low @ series_map[:8] plus its degrees 8.., with a^{(0..3)} set to
        the exact zeros of the constraints at x_i and x_f.  Read b(x) as low @ _beta_series(v).
        """
        dm = self.bc.domain_map
        table = chebyshev_table(np.ravel(z), START_DEGREE + self.m - 1, max_order)
        table *= np.array([dm.c**d for d in range(max_order + 1)]).reshape(-1, 1, 1)
        table = table.transpose(0, 2, 1)
        low = np.ascontiguousarray(table[..., :START_DEGREE])
        a = low @ self.series_map[:START_DEGREE]
        a += table[..., START_DEGREE:]
        x = np.ravel(x)
        a[:4, (x == dm.x_i) | (x == dm.x_f)] = 0.0
        shape = (max_order + 1,) + np.shape(z)
        return a.reshape(shape + (self.m,)), low.reshape(shape + (START_DEGREE,))

    def a_row(self, x, order: int = 0) -> np.ndarray:
        """The xi coefficient row a^{(order)}(x), shape x.shape + (m,); tabulates orders 0..order."""
        order = check_order(order)
        x, z = self.bc.domain_map.checked_z(x)
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
        series[:START_DEGREE] += self._beta_series(self.bc.interleaved())
        return chop(chebyshev_derivatives(series, self.bc.domain_map.c))

    def _read(self, x, order: int, series: list):
        """y^{(order)}(x) from the chopped series of _series: one Clenshaw pass (numpy's chebval
        of that stored series bit for bit), with the exact boundary data of orders 0..3 where x
        is x_i or x_f."""
        order = check_order(order)
        x, z = self.bc.domain_map.checked_z(x)
        y = clenshaw(z, series[order])
        if order < 4 and x.size and (x.min() <= self.bc.x_i or x.max() >= self.bc.x_f):
            right = np.where(x == self.bc.x_f, self.bc.right_values[order], y)
            y = np.where(x == self.bc.x_i, self.bc.left_values[order], right)[()]
        return y

    def eval(self, x, order: int = 0, xi=None):
        """y^{(order)}(x, xi): one Clenshaw pass over the chopped series of _series(xi)."""
        xi = check_real("xi", xi, (self.m,))
        return self._read(x, order, self._series(xi))

    def b_value(self, x, order: int = 0):
        """b^{(order)}(x), the xi = 0 candidate: eval(x, order, 0), the same one read."""
        return self.eval(x, order, np.zeros(self.m))
