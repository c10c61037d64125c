"""The in-place evaluation kernel against numpy.

basis.clenshaw (Solution.__call__ and b_value) must give numpy's chebval bit
for bit: same shape, same dtype and the same bytes, for every series length
and for scalar, 0-d, empty, 1-D and 2-D points.
"""

import numpy as np
import pytest
from numpy.polynomial import chebyshev

from bvp8.basis import clenshaw


def same_bits(got, expected) -> bool:
    got, expected = np.asarray(got), np.asarray(expected)
    return (got.shape == expected.shape and got.dtype == expected.dtype
            and np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(expected).tobytes())


@pytest.mark.parametrize("length", range(1, 71))
def test_clenshaw_is_chebval(length):
    rng = np.random.default_rng(length)
    c = rng.standard_normal(length) * 10.0 ** rng.integers(-8, 8, length)
    for z in (0.37, -1.0, 1.0, np.float64(-0.81), np.array(0.25), np.zeros(0), np.zeros((0, 3)),
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


@pytest.mark.parametrize("c", [
    pytest.param([-0.0], id="one-term-c0-plus-0z"),
    pytest.param([0.0, -0.0], id="two-term-c0-plus-c1z"),
    pytest.param([-0.0, 0.0, -0.0], id="three-term-seed-only"),
    pytest.param([0.0, -0.0, 0.0, -0.0], id="four-term-seed-and-one-step"),
    pytest.param([0.0, -0.0, 0.0, -0.0, 0.0], id="five-term-reused-buffers"),
])
def test_clenshaw_seeding_branches(c):
    # Signed zeros and non-finite z expose any change of operand or order:
    # -0.0 + 0.0 is +0.0, and 0 * inf is NaN.
    c = np.array(c)
    z = np.array([-0.0, 0.0, -0.5, 0.5, -1.0, 1.0, np.inf, -np.inf, np.nan])
    with np.errstate(invalid="ignore"):
        for points in (z, z.reshape(3, 3), *z[:4], np.array(-0.0)):
            got, expected = clenshaw(points, c), chebyshev.chebval(points, c)
            assert same_bits(got, expected), (c, points)
            assert type(got) is type(expected)


def assert_fresh(got, *inputs):
    """got is a writable array that shares memory with none of the inputs."""
    assert isinstance(got, np.ndarray) and got.flags.writeable
    assert not any(np.shares_memory(got, a) for a in inputs)


@pytest.mark.parametrize("length", [1, 2, 3, 4, 5, 6, 17, 30, 70])
def test_clenshaw_reads_any_layout(length):
    # Read-only, strided and Fortran-ordered points and a read-only strided series give
    # chebval's bits in a new writable array.
    rng = np.random.default_rng(100 + length)
    store = rng.standard_normal(2 * length)
    store.flags.writeable = False
    c = store[::2]
    base = rng.uniform(-1.0, 1.0, (24, 36))
    read_only = base.copy()
    read_only.flags.writeable = False
    for z in (read_only, base[::2, 1::3], base[:, ::-1], np.asfortranarray(base),
              np.asfortranarray(base)[3:, ::2], base.ravel()[5::7]):
        got = clenshaw(z, c)
        assert same_bits(got, chebyshev.chebval(z, c)), (length, z.strides)
        assert_fresh(got, z, c, store, base)


@pytest.mark.parametrize("length", range(1, 71))
def test_clenshaw_at_2048_points(length):
    # The size of a dense read: every series length against chebval, in a new writable array
    # that a later read leaves alone.
    rng = np.random.default_rng(200 + length)
    c = rng.standard_normal(length) * 10.0 ** rng.integers(-8, 8, length)
    z = rng.uniform(-1.0, 1.0, 2048)
    got = clenshaw(z, c)
    expected = chebyshev.chebval(z, c)
    assert same_bits(got, expected)
    assert_fresh(got, z, c)
    assert_fresh(clenshaw(z, -c), got)
    assert same_bits(got, expected)
