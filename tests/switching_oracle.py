"""The switching functions in monomial form: a test oracle.

The package reads the eight switching polynomials only as their exact
Chebyshev series, UNIT_CHEB.  This module keeps them in powers of t: the exact
rational table UNIT_COEFFS, and an independent construction by the support
matrix, which applies the eight constraint operators to the monomials 1, x,
.., x^7; column j of its inverse lists the coefficients of beta_{j+1}.  On
[0, 1] the coefficients in x are the unit-domain coefficients in t.
switching_values evaluates either from the monomial coefficients, with numpy's
polyder and polyval, and kronecker_matrix certifies either by that plain
evaluation at the constraints.  exact_unit_cheb converts UNIT_COEFFS to
Chebyshev series in rational arithmetic, rounding each coefficient once.
"""

import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np
from numpy.polynomial import polynomial as npoly

from bvp8.basis import DomainMap
from bvp8.errors import SingularSystemError
from bvp8.expression import CONSTRAINT_ORDERS

#: Coefficients of the switching functions u_j on [0, 1] in ascending powers of t,
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


class Switching(NamedTuple):
    """Switching functions on domain_map's [x_i, x_f]: row j of coeffs is u_{j+1} in
    ascending powers of t = (x - x_i) / w, and beta_j(x) = w**d_j u_j(t)."""

    coeffs: np.ndarray
    domain_map: DomainMap


def constraint_locations(x_i: float, x_f: float):
    """The eight (location, derivative order) pairs in canonical order."""
    return tuple(
        (x_i if k % 2 == 0 else x_f, d) for k, d in enumerate(CONSTRAINT_ORDERS)
    )


def support_matrix(x_i: float, x_f: float) -> np.ndarray:
    """Constraint operators applied to the monomial supports 1, x, .., x^7.

    Row k holds the d_k-th derivative of each monomial at the k-th constraint
    location.
    """
    mat = np.zeros((8, 8))
    for row, (x, d) in enumerate(constraint_locations(x_i, x_f)):
        for k in range(d, 8):
            mat[row, k] = math.perm(k, d) * x ** (k - d)
    return mat


def unit_linear_solve() -> Switching:
    """The [0, 1] switching functions from the inverse of the support matrix.

    A pivot check on the QR factors guards against a numerically singular
    support matrix before inverting.
    """
    mat = support_matrix(0.0, 1.0)
    pivots = np.abs(np.diag(np.linalg.qr(mat, mode="r")))
    j = int(np.argmin(pivots))
    if pivots[j] < 1e-14 * np.linalg.norm(mat):
        raise SingularSystemError(
            f"support matrix is numerically singular (pivot {pivots[j]:.3e} at column {j})"
        )
    return Switching(np.linalg.inv(mat).T, DomainMap(0.0, 1.0))


def switching_values(sw: Switching, x, d: int, snap: bool = True) -> np.ndarray:
    """beta_1^{(d)}(x) .. beta_8^{(d)}(x), shape x.shape + (8,), from the monomial coefficients.

    beta_j(x) = w**d_j u_j(t), t = (x - x_i) / w, so beta_j^{(d)}(x) is polyval of the d-th
    polyder of u_j at t, times w**(d_j - d).  With snap, the constraint orders 0..3 read
    the exact Kronecker rows at x_i and x_f, as the package's tables do.
    """
    dm = sw.domain_map
    w = dm.x_f - dm.x_i
    x = np.asarray(x, dtype=float)
    rows = npoly.polyder(sw.coeffs.T, d)  # powers along axis 0, one column per function
    vals = np.moveaxis(npoly.polyval((x - dm.x_i) / w, rows), 0, -1)
    vals = vals * w ** (np.array(CONSTRAINT_ORDERS, dtype=float) - d)
    if snap and d < 4:
        vals[x == dm.x_i] = np.eye(8)[2 * d]
        vals[x == dm.x_f] = np.eye(8)[2 * d + 1]
    return vals


def kronecker_matrix(sw: Switching) -> np.ndarray:
    """K[k, j] = beta_{j+1}^{(d_k)}(x_k) by plain, unsnapped polynomial evaluation.

    Certifies the construction itself: the identity up to rounding.
    """
    return np.vstack([
        switching_values(sw, x, d, snap=False)
        for x, d in constraint_locations(sw.domain_map.x_i, sw.domain_map.x_f)
    ])


def _times_t(series):
    """The Chebyshev series of t * p(z), t = (1 + z) / 2, for p's series."""
    out = [Fraction(0)] * (len(series) + 1)
    for k, a in enumerate(series):
        out[k] += a / 2
        if k == 0:
            out[1] += a / 2
        else:
            out[k + 1] += a / 4
            out[k - 1] += a / 4
    return out


def exact_unit_cheb() -> np.ndarray:
    """The rows of UNIT_COEFFS as Chebyshev series in z = 2 t - 1, exact and then rounded once.

    Horner in t on Chebyshev series, in rationals; every UNIT_COEFFS entry is a rational
    with denominator at most 6.
    """
    rows = []
    for powers in UNIT_COEFFS.tolist():
        series = [Fraction(0)]
        for a in reversed(powers):
            series = _times_t(series)
            series[0] += Fraction(a).limit_denominator(6)
        assert not any(series[8:])
        rows.append([float(c) for c in series[:8]])
    return np.array(rows)
