"""DomainMap.checked_z, the one checked map of every read, against the two-pass read it replaced.

checked_z tests |z| <= 1 + 1e-12 on x.min() and x.max() mapped as floats, then forms z in one
buffer.  The oracle here is the read as it was before: to_z over the whole of x, the test on
z.min() and z.max(), and a second scan of x for the boundary data.  Every read, sol(x, d) and
a_row(x, d), must match it bit for bit, in type, dtype and shape too, and raise the same
ConfigurationError for the same x.  The check rests on to_z rounding monotonically (c > 0):
before the snap, to_z(x).min() is to_z(x.min()) bit for bit, and the same for max.
"""

import functools
import re
import warnings

import numpy as np
import pytest

from bvp8 import SolverConfig, solve
from bvp8.basis import DomainMap, check_order, check_real, clenshaw
from bvp8.errors import ConfigurationError
from bvp8.problems import PROBLEM_NAMES, benchmark

from test_config_tables import MOVED
from test_domains import moved

SIZES = [(11, 10), (31, 30)]
ORDERS = range(9)


def oracle_checked_z(dm, x):
    """(x as float64, to_z(x)), tested as z.min() and z.max(): the map before the one-pass check."""
    x = check_real("x", x)
    z = np.asarray(dm.to_z(x))
    if z.size and not -1.0 - 1e-12 <= z.min() <= z.max() <= 1.0 + 1e-12:
        first = float(np.ravel(x)[np.argmin(np.ravel(np.abs(z) <= 1.0 + 1e-12))])
        raise ConfigurationError(f"x={first!r} outside [{dm.x_i}, {dm.x_f}]")
    return x, z


def oracle_read(ce, x, order, series):
    """ConstrainedExpression._read before the one-pass check: x scanned again for the ends."""
    order = check_order(order)
    x, z = oracle_checked_z(ce.bc.domain_map, x)
    y = clenshaw(z, series[order])
    if order < 4 and x.size and (x.min() <= ce.bc.x_i or x.max() >= ce.bc.x_f):
        right = np.where(x == ce.bc.x_f, ce.bc.right_values[order], y)
        y = np.where(x == ce.bc.x_i, ce.bc.left_values[order], right)[()]
    return y


def oracle_a_row(ce, x, order):
    x, z = oracle_checked_z(ce.bc.domain_map, x)
    return ce._rows(x, z, order)[0][order]


def outcome(read, x):
    """What a read gives, to compare bit for bit: its error's message, or its value's type,
    dtype, shape and bytes."""
    try:
        y = read(x)
    except ConfigurationError as e:
        return "error", str(e)
    return "value", type(y), np.asarray(y).dtype, np.shape(y), np.asarray(y).tobytes()


def ulps(x, k):
    """x moved by k ulps (k < 0 moves down)."""
    for _ in range(abs(k)):
        x = np.nextafter(x, np.inf if k > 0 else -np.inf)
    return float(x)


def inside(x_i, x_f, rng):
    """Points of [x_i, x_f] in every form a read takes, the ends and their ulp neighbours."""
    w = x_f - x_i
    near = [ulps(x_f, k) for k in (-4, -3, -2, -1, 1, 2, 3, 4)] \
        + [ulps(x_i, k) for k in (-4, -1, 1, 4)]
    ints = [int(v) for v in np.arange(np.ceil(x_i), np.floor(x_f) + 1)]
    return [x_i, x_f, x_i + 0.3 * w, np.float64(x_i + 0.7 * w), np.array(x_i + 0.5 * w),
            *ints, *near, np.array(near), [x_i, x_i + 0.5 * w, x_f],
            np.concatenate([[x_i, x_f], rng.uniform(x_i, x_f, 257)]), rng.uniform(x_i, x_f, 300),
            rng.uniform(x_i, x_f, (4, 5)), np.array([[x_f, x_i + 0.2 * w], [x_i, x_f]]),
            np.zeros(0), [], np.zeros((0, 3))]


def at_tolerance(dm):
    """The x that map to z = +-(1 + 1e-12), and their neighbours 4 ulps either way."""
    return [ulps(dm.to_x(z), k) for z in (-1.0 - 1e-12, 1.0 + 1e-12) for k in range(-4, 5)]


def edges(dm):
    """x outside [x_i, x_f] and at_tolerance, alone and inside 1-D and 2-D arrays."""
    mid = 0.5 * (dm.x_i + dm.x_f)
    bad = [dm.x_i - 1e-3, dm.x_f + 1e-3, np.nan, np.inf, -np.inf]
    edge = at_tolerance(dm)
    return bad + edge + [[mid, b, dm.x_f] for b in bad + edge] + [[[b, mid], [mid, b]] for b in bad]


@functools.lru_cache(maxsize=None)
def solved(name, n, m, domain=None):
    problem = benchmark(name).problem if domain is None else moved(name, *domain)
    return solve(problem, SolverConfig(n_points=n, m_basis=m))


CASES = [(name, n, m, None) for name in PROBLEM_NAMES for n, m in SIZES] \
    + [("p1", 11, 10, domain) for domain in MOVED]


@pytest.mark.parametrize("case", CASES, ids=str)
def test_reads_match_the_two_pass_read_bit_for_bit(case):
    sol = solved(*case)
    ce, series = sol.expression, sol._derivative_series
    dm = ce.bc.domain_map
    for x in inside(dm.x_i, dm.x_f, np.random.default_rng(11)) + edges(dm):
        for d in ORDERS:
            want = outcome(lambda x: oracle_read(ce, x, d, series), x)
            assert outcome(lambda x: sol(x, d), x) == want, (x, d)
            assert outcome(lambda x: ce.a_row(x, d), x) == outcome(
                lambda x: oracle_a_row(ce, x, d), x), (x, d)


def test_the_edge_cases_both_pass_and_fail():
    # The ulp neighbours of z = +-(1 + 1e-12) straddle the tolerance: the comparison above
    # covers reads that pass and reads that raise there, not only one side.
    dm = solved("p1", 11, 10).expression.bc.domain_map
    results = [outcome(dm.checked_z, x)[0] for x in at_tolerance(dm)]
    assert "value" in results and "error" in results


def unsnapped(dm, x):
    """to_z's expression before its snap, as floats for a float and elementwise for an array."""
    return dm.z_0 + dm.c * (x - dm.x_i)


#: p1's [0, 1], a domain about 0, p5's width moved, and p5 stretched to [0, e**k - 1].
FACT_DOMAINS = [(0.0, 1.0), (-0.7, 2.9), (-1e-3, 2e-3)] \
    + [(x_i, x_i + float(np.expm1(0.5))) for x_i in (-10.0, 1.0, 30.0)] \
    + [(0.0, float(np.expm1(k))) for k in (1, 2, 3, 4)]


@pytest.mark.parametrize("x_i, x_f", FACT_DOMAINS)
def test_the_mapped_bounds_are_the_bounds_of_z(x_i, x_f):
    # Each step of to_z, x - x_i, times c > 0, plus z_0, rounds monotonically, so the map
    # of x.min() is the min of the map, bit for bit, and the same for max: checked_z's test
    # on the two mapped bounds is the test on all of z.
    dm = DomainMap(x_i, x_f)
    rng = np.random.default_rng(13)
    w = x_f - x_i
    near = [ulps(v, k) for v in (x_i, x_f, 0.0) for k in range(-8, 9)]
    arrays = [rng.uniform(x_i - 0.1 * w, x_f + 0.1 * w, 1000), np.array(near),
              rng.permutation(near + [-0.0, 5e-324, -5e-324]), rng.uniform(x_i, x_f, (7, 9))]
    for x in arrays:
        z = unsnapped(dm, x)
        assert z.min() == unsnapped(dm, float(x.min()))
        assert z.max() == unsnapped(dm, float(x.max()))
        assert np.all(np.diff(unsnapped(dm, np.sort(x, axis=None))) >= 0.0)
        if -1.0 - 1e-12 <= z.min() and z.max() <= 1.0 + 1e-12:
            got, z, lo, hi = dm.checked_z(x)
            assert got is x and (lo, hi) == (x.min(), x.max())
            assert np.array_equal(z, dm.to_z(x))


def test_empty_x_has_empty_bounds():
    dm = DomainMap(0.0, 1.0)
    for empty in ([], np.zeros((0, 3))):
        x, z, lo, hi = dm.checked_z(empty)
        assert z.shape == x.shape == np.shape(empty) and (lo, hi) == (np.inf, -np.inf)


@pytest.mark.parametrize("x_i, x_f, x, first", [
    (0.0, 1.0, 1e308, "1e+308"),
    (0.0, 1.0, [0.5, -1e308], "-1e+308"),
    (0.0, 1e-30, [0.0, 1e300, 1e-31], "1e+300"),
    (-1e100, 1e100, [0.0, 1.7976931348623157e308], "1.7976931348623157e+308"),
    (-1e100, 1e100, [-1.7976931348623157e308, np.inf], "-1.7976931348623157e+308"),
])
def test_a_read_far_outside_raises_without_a_warning(x_i, x_f, x, first):
    # Mapping x far outside a narrow domain overflows c * (x - x_i); the check maps the bounds
    # as floats and searches for the first bad x with the overflow ignored, so the caller gets
    # the ConfigurationError itself even where warnings are errors.
    dm = DomainMap(x_i, x_f)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        message = f"x={first} outside [{dm.x_i}, {dm.x_f}]"
        with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
            dm.checked_z(x)


def test_solution_reads_far_outside_raise_without_a_warning():
    # p1 on [0, 1]: c = 2 overflows c * x for |x| = 1e308.
    sol = solved("p1", 11, 10)
    reads = [(lambda: sol(1e308, 0), "1e+308"),
             (lambda: sol(np.array([0.5, -1e308]), 0), "-1e+308"),
             (lambda: sol.expression.a_row(1e308, 2), "1e+308"),
             (lambda: sol.expression.b_value(-1e308, 1), "-1e+308")]
    for read, first in reads:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            message = f"x={first} outside [0.0, 1.0]"
            with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
                read()
