"""Chebyshev basis terms, their derivatives, and the collocation grid.

The solver expands the free part of the solution in Chebyshev polynomials of
the first kind on [-1, +1], starting at degree 8: the lower degrees span the
same space as the monomial support functions consumed by the constraint
embedding, and keeping them would make the collocation system rank deficient.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError

#: Highest derivative order needed anywhere in the solver (the ODE order).
MAX_ORDER = 8

#: Degree of the first basis term; degrees 0..7 duplicate the support span.
START_DEGREE = 8


def chebyshev_table(z, max_degree: int, max_order: int) -> np.ndarray:
    """Tabulate d^p T_k / dz^p for p = 0..max_order and k = 0..max_degree.

    Differentiating the three-term recurrence T_{k+1} = 2 z T_k - T_{k-1}
    p times gives one uniform recurrence for all orders,

        T^{(p)}_{k+1} = 2 p T^{(p-1)}_k + 2 z T^{(p)}_k - T^{(p)}_{k-1},

    seeded with T_0 = 1 and T_1 = z.  Each degree is one whole-array step over
    all orders p >= 1, with the same operations per element as the scalar
    recurrence.  `z` may be a scalar or an array; the result has shape
    (max_order + 1, max_degree + 1) + z.shape.
    """
    z = np.asarray(z, dtype=float)
    table = np.zeros((max_order + 1, max_degree + 1) + z.shape)
    table[0, 0] = 1.0
    if max_degree >= 1:
        table[0, 1] = z
        if max_order >= 1:
            table[1, 1] = 1.0
    two_z = 2.0 * z
    two_p = (2.0 * np.arange(1, max_order + 1)).reshape((-1,) + (1,) * z.ndim)
    for k in range(1, max_degree):
        table[0, k + 1] = two_z * table[0, k] - table[0, k - 1]
        table[1:, k + 1] = two_p * table[:-1, k] + two_z * table[1:, k] - table[1:, k - 1]
    return table


def clenshaw(z, c):
    """numpy's chebval(z, c) for a 1-D float64 series c, bit for bit, in place.

    The same recurrence and operand order, c0 = c[-i] - c1, c1 = c0_old + c1 * 2z, then c0 + c1 z
    (c1 = 0 for one term), as three ufunc calls per degree into three reused buffers.
    """
    z, c = np.asarray(z), (c.tolist() if len(c) > 1 else [c[0], 0.0])
    x2, c0, c1, tmp = 2 * z, np.full(z.shape, c[-2]), np.full(z.shape, c[-1]), np.empty(z.shape)
    for i in range(3, len(c) + 1):
        np.multiply(c1, x2, tmp)
        np.subtract(c[-i], c1, c1)
        tmp += c0
        c0, c1, tmp = c1, tmp, c0
    return np.add(c0, np.multiply(c1, z, c1), c0)[()]


def check_integer(name: str, value) -> int:
    """int(value) for an int or numpy integer (a bool is not); else ConfigurationError."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")
    return int(value)


def check_order(order) -> int:
    """int(order) for a non-bool int or numpy integer in 0..MAX_ORDER; else ConfigurationError."""
    integer = isinstance(order, (int, np.integer)) and not isinstance(order, bool)
    if not integer or not 0 <= order <= MAX_ORDER:
        raise ConfigurationError(f"order must be an integer in 0..{MAX_ORDER}, got {order!r}")
    return int(order)


def check_real(name: str, value, shape=None) -> np.ndarray:
    """value as a float64 array (float64 keeps its bits), of `shape` if given.

    Integers and floats are read; a string, complex, object or ragged value, or
    one of another shape, raises ConfigurationError naming it.
    """
    try:
        out = np.asarray(value)
    except (TypeError, ValueError):  # ragged
        out = None
    if out is None or out.dtype.kind not in "iuf":
        raise ConfigurationError(f"{name} must be real numbers, got {value!r}")
    if shape is not None and out.shape != shape:
        raise ConfigurationError(f"{name} must have shape {shape}, got {out.shape}")
    return out.astype(float, copy=False)


def check_unit_interval(z) -> None:
    """Raise ConfigurationError unless every z lies in [-1, +1] up to 1e-12 (NaN does not)."""
    if not np.all(np.abs(z) <= 1.0 + 1e-12):
        raise ConfigurationError("z outside [-1, +1]")


def check_domain(x_i: float, x_f: float) -> None:
    """Raise ConfigurationError unless the solver can scale [x_i, x_f].

    That needs x_f > x_i and finite endpoints, width w, largest switching
    scale w**3 and order-8 chain factor (2/w)**8.
    """
    if not x_f > x_i:
        raise ConfigurationError(f"degenerate domain: x_f={x_f} must exceed x_i={x_i}")
    with np.errstate(over="ignore"):
        w = np.float64(x_f) - np.float64(x_i)
        scales = [x_i, x_f, w, w**3, (2.0 / w) ** MAX_ORDER]
    if not np.all(np.isfinite(scales)):
        raise ConfigurationError(f"domain [{x_i}, {x_f}] out of range: w, w**3, (2/w)**8 not finite")


@dataclass(frozen=True)
class DomainMap:
    """Affine map between the problem domain [x_i, x_f] and basis domain [-1, +1].

    `c` is the constant slope dz/dx applied once per derivative order when
    basis derivatives are pulled back to the problem domain.
    """

    z_0 = -1.0  # class constants, not fields
    z_f = 1.0
    x_i: float
    x_f: float
    c: float = field(init=False)

    def __post_init__(self):
        check_domain(self.x_i, self.x_f)
        object.__setattr__(self, "c", (self.z_f - self.z_0) / (self.x_f - self.x_i))

    def to_z(self, x):
        # Snap the right endpoint so x_f maps to exactly z_f; the rounding of
        # c * (x_f - x_i) otherwise leaks into high-order basis derivatives.
        z = self.z_0 + self.c * (x - self.x_i)
        if np.ndim(x) == 0:
            return self.z_f if x == self.x_f else z
        return np.where(np.asarray(x) == self.x_f, self.z_f, z)

    def to_x(self, z):
        return self.x_i + (z - self.z_0) / self.c


@dataclass(frozen=True)
class ChebyshevBasis:
    """The m terms T_8 .. T_{8 + m - 1} on [-1, +1]."""

    m: int
    domain_map: DomainMap

    def __post_init__(self):
        if check_integer("m", self.m) < 1:
            raise ConfigurationError(f"need at least one basis term, got m={self.m}")

    @property
    def max_degree(self) -> int:
        return START_DEGREE + self.m - 1

    def table(self, z, max_order: int = MAX_ORDER) -> np.ndarray:
        """Values of d^p T_k / dz^p for p = 0..max_order and the m retained degrees.

        One chebyshev_table call covers every order.  Derivatives are with
        respect to z; the caller applies the chain-rule factor c**p when
        working in the problem domain.  Output shape is
        (max_order + 1,) + z.shape + (m,).
        """
        max_order = check_order(max_order)
        z = np.asarray(z, dtype=float)
        check_unit_interval(z)
        table = chebyshev_table(z, self.max_degree, max_order)
        return np.moveaxis(table[:, START_DEGREE:], 1, -1)

    def eval(self, z, order: int = 0) -> np.ndarray:
        """The order-`order` slice of table(z, order), shape z.shape + (m,)."""
        return self.table(z, order)[order]


@dataclass(frozen=True, eq=False)
class CollocationGrid:
    """Chebyshev-Gauss-Lobatto nodes in both coordinate systems; equal only to itself."""

    n_points: int
    z_nodes: np.ndarray
    x_nodes: np.ndarray


def make_grid(domain_map: DomainMap, n_points: int, z_nodes=None) -> CollocationGrid:
    """Build the CGL grid z_k = -cos(k pi / (n_points - 1)), k = 0..n_points-1.

    The grid is symmetrized exactly (upper half mirrors the lower half, odd
    middle node forced to 0) and the mapped endpoints are snapped to x_i and
    x_f so boundary rows see the exact constraint locations.  `z_nodes`, when
    given, are the read-only z nodes of an n_points grid built before.
    """
    n = check_integer("n_points", n_points)
    if n < 2:
        raise ConfigurationError(f"need at least 2 grid points, got {n_points}")
    z = z_nodes
    if z is None:
        z = -np.cos(np.pi * np.arange(n) / (n - 1))
        half = n // 2
        z[n - 1 - np.arange(half)] = -z[:half]
        if n % 2:
            z[half] = 0.0
        z.flags.writeable = False
    x = domain_map.to_x(z)
    x[0] = domain_map.x_i
    x[-1] = domain_map.x_f
    x.flags.writeable = False
    return CollocationGrid(n, z, x)
