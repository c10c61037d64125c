"""Switching functions on [0, 1] by inverting the support matrix: a test oracle.

The package evaluates the exact rational table UNIT_COEFFS.  This module
builds the same eight polynomials independently: the support matrix applies
the eight constraint operators to the monomials 1, x, .., x^7, and column j
of its inverse lists the coefficients of beta_{j+1}.  On [0, 1] the
coefficients in x are the unit-domain coefficients in t, so the result is a
drop-in SwitchingFunctions for expressions on [0, 1].  kronecker_matrix
certifies either construction by plain evaluation at the constraints, and
polyval_rows is the plain numpy evaluation SwitchingFunctions._eval_poly
must match bit for bit.
"""

import math

import numpy as np
from numpy.polynomial import polynomial as npoly

from bvp8.basis import DomainMap
from bvp8.errors import SingularSystemError
from bvp8.expression import SwitchingFunctions, constraint_locations


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


def unit_linear_solve() -> SwitchingFunctions:
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
    return SwitchingFunctions(np.linalg.inv(mat).T, DomainMap(0.0, 1.0))


def kronecker_matrix(sw: SwitchingFunctions) -> np.ndarray:
    """K[k, j] = beta_{j+1}^{(d_k)}(x_k) by plain polynomial evaluation.

    Certifies the construction itself: the identity up to rounding, without
    the endpoint snapping SwitchingFunctions.eval applies.
    """
    return np.vstack([
        sw._eval_poly(x, slice(d, d + 1))[0]
        for x, d in constraint_locations(sw.domain_map.x_i, sw.domain_map.x_f)
    ])


def polyval_rows(sw: SwitchingFunctions, x, orders: slice) -> np.ndarray:
    """_eval_poly by numpy's polyval over every power of every derivative row.

    One polyval call over all eight powers of the rows of `orders`, with no
    power skipped and a new array per Horner step; the result has the shape
    of _eval_poly, (number of orders,) + x.shape + (8,).
    """
    deriv = sw._deriv[orders]
    dm = sw.domain_map
    t = (x - dm.x_i) / (dm.x_f - dm.x_i)
    vals = npoly.polyval(t, deriv.reshape(-1, 8).T)
    return np.moveaxis(vals.reshape(deriv.shape[:2] + np.shape(x)), 1, -1)
