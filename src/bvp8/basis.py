"""Chebyshev basis terms, their derivatives, and the collocation nodes.

The solver expands the free part of the solution in Chebyshev polynomials of
the first kind on [-1, +1], starting at degree 8: the lower degrees span the
same space as the monomial support functions consumed by the constraint
embedding, and keeping them would make the collocation system rank deficient.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .errors import ConfigurationError

#: Highest derivative order needed anywhere in the solver (the ODE order).
MAX_ORDER = 8

#: Degree of the first basis term; degrees 0..7 duplicate the support span.
START_DEGREE = 8

_HALF_EPS = 0.5 * np.finfo(float).eps


def chebyshev_table(z, max_degree: int, max_order: int) -> np.ndarray:
    """Tabulate d^p T_k / dz^p for p = 0..max_order and k = 0..max_degree.

    Differentiating the three-term recurrence T_{k+1} = 2 z T_k - T_{k-1}
    p times gives one uniform recurrence for all orders,

        T^{(p)}_{k+1} = 2 p T^{(p-1)}_k + 2 z T^{(p)}_k - T^{(p)}_{k-1},

    seeded with T_0 = 1 and T_1 = z.  Each degree is one whole-array step over
    all orders p >= 1, with the same operations per element as the scalar
    recurrence.  `z` may be a scalar or an array; the result has shape
    (max_order + 1, max_degree + 1) + z.shape.  A `z` that is not real numbers
    (check_real) and sizes that are not integers >= 0 raise ConfigurationError.
    """
    for name, size in (("max_degree", max_degree), ("max_order", max_order)):
        if check_integer(name, size) < 0:
            raise ConfigurationError(f"{name} must be at least 0, got {size}")
    z = check_real("z", z)
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
    """numpy's chebval(z, c) for a 1-D float64 series c, bit for bit, into fresh buffers.

    The same recurrence and operand order, c0 = c[-i] - c1, c1 = c0_old + c1 * 2z, then c0 + c1 z,
    as three ufunc calls per degree, seeded as chebval's first step leaves it: c0 = c[-3] - c[-1]
    (a scalar), c1 = c[-1] 2z + c[-2].  One or two terms give c[0] + c[1] z.  A degree's one
    write into another buffer is the one-input c[-i] - c1 into the spare, which c0 then becomes;
    c1 *= 2z and c1 += c0_old run in place, on lines already in cache.  The spare is fetched
    before it is written, so a two-input write such as c1 * 2z there costs more.  The buffers
    are np.empty(z.shape): np.multiply of a scalar and a 0-d z is a scalar, not writable.
    """
    z, c = np.asarray(z), (c.tolist() if len(c) > 1 else [c[0], 0.0])
    if len(c) == 2:
        return (c[0] + c[1] * z)[()]
    x2, c0, spare = 2 * z, c[-3] - c[-1], np.empty(z.shape)
    c1 = np.add(np.multiply(c[-1], x2, spare), c[-2], np.empty(z.shape))
    for i in range(4, len(c) + 1):
        np.subtract(c[-i], c1, spare)
        c1 *= x2
        c1 += c0
        c0, spare = spare, c0 if i > 4 else np.empty(z.shape)
    return np.add(c0, np.multiply(c1, z, c1), c1)[()]


def chebyshev_derivatives(series, c) -> list:
    """Chebyshev series of c**d d^d/dz^d `series`, d = 0..MAX_ORDER (x derivatives if c = dz/dx).

    Each step applies the differentiation matrix (d/dz T_j = sum of 2 j T_k over k < j with
    j - k odd, T_0 halved) times c; chebder loops in Python and costs 5x more.  Order d keeps
    len(series) - d terms; a constant's derivative is the one-term zero series.
    """
    k = np.arange(len(series))
    deriv = 2.0 * c * k * ((k ^ k[:, None]) & (k > k[:, None]))  # j > k, j - k odd
    deriv[0] /= 2.0
    out = [series]
    for _ in range(MAX_ORDER):
        size = out[-1].size
        out.append(deriv[:size - 1, :size] @ out[-1] if size > 1 else np.zeros(1))
    return out


def chop(series: list) -> list:
    """Each series cut to its shortest head that drops at most eps/2 ||c||_1 and chops to itself.

    A head c[:k] drops the tail |c_k| + |c_k+1| + ..  It chops to itself when k = 1 or its
    last coefficient exceeds eps/2 of the head's own |c| sum, so chop(chop(s)) is chop(s); the
    longest droppable tail alone can leave a last term below that, which a second chop drops.
    A series with no such head, or whose |c| sum is not finite (an inf or NaN coefficient), is
    kept whole.  Since |T_k(z)| <= 1 on |z| <= 1, a read moves by at most eps/2 ||c||_1, below
    the rounding of its Clenshaw pass.  One pass over the series zero-padded into one
    read-only array; the heads are views of its rows.
    """
    sizes = [len(s) for s in series]
    table = np.zeros((len(series), max(sizes) + 1))
    for row, s in zip(table, series):
        row[:len(s)] = s
    table.flags.writeable = False
    mag = np.abs(table)
    tol = np.add.accumulate(mag, axis=1)
    tol *= _HALF_EPS  # [:, k - 1]: eps/2 ||c[:k]||_1
    tails = np.add.accumulate(mag[:, ::-1], axis=1)[:, ::-1]  # [:, k]: |c_k| + |c_k+1| + ..
    ends = mag[:, :-1] > tol[:, :-1]
    ends[:, 0] = True
    ends &= (tails[:, 1:] <= tol[:, -1:]) & np.isfinite(tol[:, -1:])
    ends[range(len(sizes)), [k - 1 for k in sizes]] = True
    return [row[:k] for row, k in zip(table, (ends.argmax(axis=1) + 1).tolist())]


def check_integer(name: str, value) -> int:
    """int(value) for an int or numpy integer (a bool is not); else ConfigurationError."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")
    return int(value)


def check_instance(name: str, value, cls: type):
    """value if it is a cls; else ConfigurationError naming the argument."""
    if not isinstance(value, cls):
        raise ConfigurationError(f"{name} must be a {cls.__name__}, got {value!r}")
    return value


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


class ReadOnlyArrays:
    """Base of a frozen dataclass whose fields named in _arrays hold read-only float64 arrays.

    A read-only float64 array that owns its data is kept; any other value is copied, so a
    caller's array keeps its flags and no one writes through a base.  Copies and pickles
    rebuild through __init__, so theirs are read-only too.
    """

    _arrays: tuple = ()

    def __post_init__(self):
        for name in self._arrays:
            value = getattr(self, name)
            if not (isinstance(value, np.ndarray) and value.dtype == np.float64
                    and not value.flags.writeable and value.base is None):
                value = np.array(value, dtype=float)
                value.flags.writeable = False
                object.__setattr__(self, name, value)

    def __reduce__(self):
        return type(self), tuple(getattr(self, f.name) for f in fields(self))


def check_domain(x_i, x_f) -> tuple[float, float]:
    """(x_i, x_f) as Python floats; ConfigurationError unless the solver can scale [x_i, x_f].

    Each endpoint must be one real number (check_real, which names it).  Scaling
    needs x_f > x_i and finite endpoints, width w, largest switching scale w**3
    and order-8 chain factor (2/w)**8.
    """
    x_i, x_f = float(check_real("x_i", x_i, ())), float(check_real("x_f", x_f, ()))
    if not x_f > x_i:
        raise ConfigurationError(f"degenerate domain: x_f={x_f} must exceed x_i={x_i}")
    with np.errstate(over="ignore"):
        w = np.float64(x_f) - np.float64(x_i)
        scales = [x_i, x_f, w, w**3, (2.0 / w) ** MAX_ORDER]
    if not np.all(np.isfinite(scales)):
        raise ConfigurationError(f"domain [{x_i}, {x_f}] out of range: w, w**3, (2/w)**8 not finite")
    return x_i, x_f


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
        x_i, x_f = check_domain(self.x_i, self.x_f)
        object.__setattr__(self, "x_i", x_i)
        object.__setattr__(self, "x_f", x_f)
        object.__setattr__(self, "c", (self.z_f - self.z_0) / (x_f - x_i))

    def to_z(self, x):
        # Snap the right endpoint so x_f maps to exactly z_f; the rounding of
        # c * (x_f - x_i) otherwise leaks into high-order basis derivatives.
        # An array pays the snap's pass only if it reaches x_f.  Each step rounds
        # monotonically (c > 0): before the snap, to_z(x.min()) is to_z(x).min().
        z = self.z_0 + self.c * (x - self.x_i)
        if np.ndim(x) == 0:
            return self.z_f if x == self.x_f else z
        x = np.asarray(x)
        return np.where(x == self.x_f, self.z_f, z) if x.size and x.max() >= self.x_f else z

    def to_x(self, z):
        return self.x_i + (z - self.z_0) / self.c

    def x_nodes(self, z_nodes) -> np.ndarray:
        """The x nodes of z_nodes (cgl_nodes), z_0 first: to_x(z_nodes) with the ends snapped to
        x_i and x_f, so boundary rows see the exact constraint locations; read-only."""
        x = self.to_x(z_nodes)
        x[0], x[-1] = self.x_i, self.x_f
        x.flags.writeable = False
        return x

    def checked_z(self, x) -> tuple:
        """(x as float64, to_z(x), x.min(), x.max()), the bounds as floats, inf and -inf if x is
        empty; ConfigurationError naming the first x outside [x_i, x_f], with no warning.

        The test is |z| <= 1 + 1e-12 (NaN fails it) on the bounds mapped as floats, overflow to
        inf: z.min() and z.max() bit for bit (to_z) but for the snap's ulps at x_f.  z is then
        one buffer with to_z's operands and bits, so a read scans x only for its bounds.
        """
        x = check_real("x", x)
        lo, hi = (float(x.min()), float(x.max())) if x.size else (np.inf, -np.inf)
        z_lo, z_hi = self.z_0 + self.c * (lo - self.x_i), self.z_0 + self.c * (hi - self.x_i)
        if x.size and not -1.0 - 1e-12 <= z_lo <= z_hi <= 1.0 + 1e-12:
            with np.errstate(over="ignore"):
                first = float(np.ravel(x)[np.argmin(np.ravel(np.abs(self.to_z(x)) <= 1.0 + 1e-12))])
            raise ConfigurationError(f"x={first!r} outside [{self.x_i}, {self.x_f}]")
        z = np.asarray(x - self.x_i)  # a new array, 0-d too
        np.add(np.multiply(z, self.c, z), self.z_0, z)
        if hi >= self.x_f:
            np.copyto(z, self.z_f, where=x == self.x_f)
        return x, z, lo, hi


def cgl_nodes(n: int) -> np.ndarray:
    """The n Chebyshev-Gauss-Lobatto nodes z_k = -cos(k pi / (n - 1)), k = 0..n-1, read-only.

    Symmetrized exactly: the upper half mirrors the lower half and an odd middle node is 0.
    n >= 2 is SolverConfig's check; DomainMap.x_nodes maps the nodes to a domain.
    """
    z = -np.cos(np.pi * np.arange(n) / (n - 1))
    half = n // 2
    z[n - 1 - np.arange(half)] = -z[:half]
    if n % 2:
        z[half] = 0.0
    z.flags.writeable = False
    return z
