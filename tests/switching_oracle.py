"""Switching functions on [0, 1] by inverting the support matrix: a test oracle.

The package evaluates the exact rational table UNIT_COEFFS.  This module
builds the same eight polynomials independently: the support matrix applies
the eight constraint operators to the monomials 1, x, .., x^7, and column j
of its inverse lists the coefficients of beta_{j+1}.  On [0, 1] the
coefficients in x are the unit-domain coefficients in t, so the result is a
drop-in SwitchingFunctions on [0, 1].  The package reads the switching
functions only as their exact Chebyshev series; switching_values evaluates
them from the monomial coefficients instead, with numpy's polyder and
polyval, and kronecker_matrix certifies either construction by that plain
evaluation at the constraints.
"""

import math

import numpy as np
from numpy.polynomial import polynomial as npoly

from bvp8.basis import DomainMap
from bvp8.errors import SingularSystemError
from bvp8.expression import CONSTRAINT_ORDERS, SwitchingFunctions, constraint_locations


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


def switching_values(sw: SwitchingFunctions, x, d: int, snap: bool = True) -> np.ndarray:
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


def kronecker_matrix(sw: SwitchingFunctions) -> np.ndarray:
    """K[k, j] = beta_{j+1}^{(d_k)}(x_k) by plain, unsnapped polynomial evaluation.

    Certifies the construction itself: the identity up to rounding.
    """
    return np.vstack([
        switching_values(sw, x, d, snap=False)
        for x, d in constraint_locations(sw.domain_map.x_i, sw.domain_map.x_f)
    ])
