"""The in-place evaluation kernels against numpy.

basis.clenshaw (Solution.__call__ and b_value) must give numpy's chebval
and SwitchingFunctions._eval_poly (the collocation tables and a_row) numpy's
polyval (switching_oracle.polyval_rows) bit for bit: same shape, same dtype
and the same bytes, for every series length, every order slice and scalar,
1-D and 2-D points.  Non-finite points must still give NaN at
every order, as polyval does.
"""

import numpy as np
import pytest
from numpy.polynomial import chebyshev

from bvp8.basis import DomainMap, clenshaw
from bvp8.expression import SwitchingFunctions

from switching_oracle import polyval_rows, unit_linear_solve

#: (x_i, x_f) of the unit domain, p5's [0, e**0.5 - 1], and moved or narrow ones.
DOMAINS = [(0.0, 1.0), (0.0, float(np.expm1(0.5))), (-10.0, -9.9), (30.0, 33.0), (5.0, 6.0)]

ORDER_SLICES = [slice(a, b) for a in range(9) for b in range(a + 1, 10)]


def same_bits(got, expected) -> bool:
    got, expected = np.asarray(got), np.asarray(expected)
    return (got.shape == expected.shape and got.dtype == expected.dtype
            and np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(expected).tobytes())


def points(x_i, x_f, rng):
    """Scalars (the endpoints, a float, a numpy scalar, a 0-d array), (N,) and (2, 3) arrays.

    The (N,) array reaches 10% of the width past each end of the domain.
    """
    w = x_f - x_i
    line = np.concatenate([[x_i, x_f], rng.uniform(x_i - 0.1 * w, x_f + 0.1 * w, 257)])
    return [x_i, x_f, x_i + 0.3 * w, np.float64(x_i + 0.7 * w), np.array(x_i + 0.5 * w),
            line, rng.uniform(x_i, x_f, (2, 3))]


@pytest.mark.parametrize("length", range(1, 71))
def test_clenshaw_is_chebval(length):
    rng = np.random.default_rng(length)
    c = rng.standard_normal(length) * 10.0 ** rng.integers(-8, 8, length)
    for z in (0.37, -1.0, 1.0, np.float64(-0.81), np.array(0.25),
              rng.uniform(-1.2, 1.2, 301), rng.uniform(-1.0, 1.0, (2, 3))):
        got, expected = clenshaw(z, c), chebyshev.chebval(z, c)
        assert same_bits(got, expected), (length, z)
        assert np.array_equal(got, expected)
        assert type(got) is type(expected)


def test_clenshaw_leaves_its_inputs_alone():
    c = np.arange(1.0, 12.0)
    c.flags.writeable = False
    z = np.linspace(-1.0, 1.0, 9)
    z.flags.writeable = False
    assert same_bits(clenshaw(z, c), chebyshev.chebval(z, c))


@pytest.mark.parametrize("x_i, x_f", DOMAINS)
@pytest.mark.parametrize("construction", ["closed_form", "linear_solve"])
def test_eval_poly_is_polyval(construction, x_i, x_f):
    # The support-matrix coefficients are not exact rationals, so they
    # exercise the Horner steps on rounded coefficients too; they are built
    # on [0, 1] and moved to each domain.
    if construction == "closed_form":
        sw = SwitchingFunctions.closed_form(x_i, x_f)
    else:
        sw = SwitchingFunctions(unit_linear_solve().coeffs, DomainMap(x_i, x_f))
    rng = np.random.default_rng(7)
    for x in points(x_i, x_f, rng):
        for orders in ORDER_SLICES:
            got, expected = sw._eval_poly(x, orders), polyval_rows(sw, x, orders)
            assert same_bits(got, expected), (x, orders)
            assert np.array_equal(got, expected)
            assert got.strides == expected.strides


@pytest.mark.parametrize("x_i, x_f", DOMAINS)
def test_eval_and_eval_all_are_polyval_at_the_nodes(x_i, x_f):
    sw = SwitchingFunctions.closed_form(x_i, x_f)
    x = np.linspace(x_i, x_f, 31)
    x[1:-1] += np.random.default_rng(3).uniform(-1e-3, 1e-3, 29) * (x_f - x_i)
    everything = sw.eval_all(x)
    for d in range(9):
        expected = polyval_rows(sw, x, slice(d, d + 1))[0]
        if d < 4:  # the endpoints are snapped to the Kronecker rows
            expected[[0, -1]] = everything[d][[0, -1]]
        assert same_bits(sw.eval(x, d), expected), d
        assert same_bits(everything[d], expected), d


@pytest.mark.parametrize("x_i, x_f", DOMAINS)
def test_nan_and_inf_spread_at_every_order(x_i, x_f):
    sw = SwitchingFunctions.closed_form(x_i, x_f)
    x = np.array([np.nan, np.inf, -np.inf, 0.5 * (x_i + x_f)])
    with np.errstate(invalid="ignore"):  # inf * 0, as in polyval
        for d in range(9):
            vals = sw.eval(x, d)
            assert np.all(np.isnan(vals[:3])), d
            assert np.all(np.isfinite(vals[3])), d
            for bad in (np.nan, np.inf, -np.inf):
                assert np.all(np.isnan(sw.eval(bad, d))), (bad, d)
        assert np.all(np.isnan(sw.eval_all(x)[:, :3]))
