"""Tests for the Chebyshev basis, derivative recurrence, and collocation nodes."""

import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from bvp8.basis import START_DEGREE, cgl_nodes, chebyshev_table
from bvp8.errors import ConfigurationError
from bvp8.expression import BoundaryConditions, ConstrainedExpression
from bvp8.solver import SolverConfig

from switching_oracle import to_x, to_z

UNIT_BC = BoundaryConditions(0.0, 1.0, (0.0,) * 4, (0.0,) * 4)


def chebyshev_oracle(k, z):
    """Closed form T_k(z) = cos(k arccos z), valid on [-1, 1]."""
    return np.cos(k * np.arccos(z))


class TestChebyshevTable:
    def test_matches_cosine_closed_form(self):
        rng = np.random.default_rng(42)
        z = rng.uniform(-1.0, 1.0, size=50)
        table = chebyshev_table(z, 17, 0)
        for k in range(18):
            assert_allclose(table[0, k], chebyshev_oracle(k, z), atol=1e-12)

    def test_degree_eight_at_half(self):
        # T_8(1/2) = cos(8 pi / 3) = -1/2
        assert chebyshev_table(0.5, 8, 0)[0, 8] == pytest.approx(-0.5, abs=1e-14)

    def test_first_derivative_at_left_endpoint(self):
        # T'_k(-1) = (-1)^(k+1) k^2, so k = 8 gives -64
        assert chebyshev_table(-1.0, 8, 1)[1, 8] == pytest.approx(-64.0, abs=1e-12)

    def test_low_degree_rows(self):
        table = chebyshev_table(0.3, 2, 2)
        assert table[0, 0] == 1.0
        assert table[0, 1] == 0.3
        assert table[1, 1] == 1.0
        assert table[2, 1] == 0.0
        # T_2 = 2z^2 - 1
        assert table[0, 2] == pytest.approx(2 * 0.3**2 - 1, abs=1e-15)
        assert table[1, 2] == pytest.approx(4 * 0.3, abs=1e-15)
        assert table[2, 2] == pytest.approx(4.0, abs=1e-15)

    @pytest.mark.parametrize("max_degree, max_order, match", [
        (-1, 2, r"^max_degree must be at least 0, got -1$"),
        (3, -1, r"^max_order must be at least 0, got -1$"),
        ("a", 2, r"^max_degree must be an integer, got 'a'$"),
        (3.0, 2, r"^max_degree must be an integer, got 3\.0$"),
        (3, True, r"^max_order must be an integer, got True$"),
    ])
    def test_bad_sizes_named(self, max_degree, max_order, match):
        # Each used to raise a raw IndexError or TypeError, or, for True, to build.
        with pytest.raises(ConfigurationError, match=match):
            chebyshev_table(0.5, max_degree, max_order)

    def test_zero_sizes_and_numpy_integers_accepted(self):
        assert np.array_equal(chebyshev_table([0.5, 0.25], 0, 0), [[[1.0, 1.0]]])
        assert np.array_equal(chebyshev_table(0.3, np.int64(2), np.uint8(2)),
                              chebyshev_table(0.3, 2, 2))


def unit_bc(x_i, x_f):
    """Boundary conditions on [x_i, x_f] with zero values: the domain map under test."""
    return BoundaryConditions(x_i, x_f, (0.0,) * 4, (0.0,) * 4)


def assert_checked_z_is_the_oracle(bc, x):
    """bc.checked_z(x)'s z is the oracle to_z of x bit for bit, shape and dtype too."""
    x, z, _, _ = bc.checked_z(x)
    want = np.asarray(to_z(bc, x), dtype=float)
    assert z.shape == want.shape and z.dtype == np.float64
    assert np.array_equal(z, want) and not np.shares_memory(z, x)


def oracle_x_nodes(bc, z):
    """to_x of the nodes z with the ends set to x_i and x_f: x_nodes as it is specified."""
    x = to_x(bc, z)
    x[0], x[-1] = bc.x_i, bc.x_f
    return x


class TestDomainMap:
    """The map of BoundaryConditions, z = -1 + c (x - x_i), against the plain oracle to_z."""

    def test_slope(self):
        assert UNIT_BC.c == 2.0

    def test_degenerate_domain_rejected(self):
        with pytest.raises(ConfigurationError):
            unit_bc(1.0, 1.0)
        with pytest.raises(ConfigurationError):
            unit_bc(2.0, 1.0)

    def test_affine_midpoint(self):
        assert to_z(UNIT_BC, 0.25) == -0.5
        assert UNIT_BC.checked_z(0.25)[1] == -0.5

    def test_endpoints_map_exactly(self):
        bc = unit_bc(0.0, np.expm1(0.5))
        for x, z in ((bc.x_i, -1.0), (bc.x_f, 1.0)):
            assert to_z(bc, x) == z and bc.checked_z(x)[1] == z

    def test_to_z_snaps_x_f_wherever_it_sits(self):
        # On [0, e**3 - 1], c (x_f - x_i) rounds to 1 - 2^-52: only the snap maps x_f to 1.
        bc = unit_bc(0.0, np.e**3 - 1.0)
        assert -1.0 + bc.c * (bc.x_f - bc.x_i) < 1.0
        inner = np.linspace(bc.x_i, bc.x_f, 7)[1:-1]
        for x in (np.r_[bc.x_f, inner], np.r_[inner[:2], bc.x_f, inner[2:]], np.r_[inner, bc.x_f],
                  np.r_[inner, bc.x_i]):
            for shaped in (x, x.reshape(2, 3)):
                want = np.where(shaped == bc.x_f, 1.0, -1.0 + bc.c * (shaped - bc.x_i))
                assert np.array_equal(to_z(bc, shaped), want)
                assert_checked_z_is_the_oracle(bc, shaped)
        assert to_z(bc, bc.x_f) == 1.0 and to_z(bc, np.float64(bc.x_f)) == 1.0
        for x in (bc.x_f, np.float64(bc.x_f), np.array(bc.x_f)):
            assert_checked_z_is_the_oracle(bc, x)
        for empty in (np.zeros(0), np.zeros((0, 3))):
            assert to_z(bc, empty).shape == empty.shape
            assert_checked_z_is_the_oracle(bc, empty)
        with pytest.raises(ConfigurationError, match=r"^x=nan outside"):
            bc.checked_z([bc.x_f, np.nan, 1.0])

    def test_round_trip_near_machine_precision(self):
        # Round-trip error is absolute (set by rounding in x), not relative
        # to |z|, so the bound uses the spacing at the top of the z range.
        rng = np.random.default_rng(3)
        bc = unit_bc(-0.7, 2.9)
        z = rng.uniform(-1.0, 1.0, size=100)
        x = to_x(bc, z)
        back = to_z(bc, x)
        assert np.all(np.abs(back - z) <= 5 * np.spacing(1.0))
        assert np.array_equal(bc.checked_z(x)[1], back)
        nodes = np.r_[-1.0, np.sort(z), 1.0]
        assert np.array_equal(bc.x_nodes(nodes)[1:-1], x[np.argsort(z)])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_checked_z_names_the_first_bad_x(self, bad):
        # min(z) and max(z) carry a NaN or an inf from any position; the x named is the first
        # whose oracle z fails |z| <= 1 + 1e-12.
        bc = unit_bc(-0.7, 2.9)
        for x in ([0.1, 2.0, bad, 5.0, np.nan], [[0.1, 0.2], [0.3, bad]], [0.1, -0.75, bad]):
            z = np.ravel(to_z(bc, np.array(x)))
            first = float(np.ravel(x)[np.argmin(np.abs(z) <= 1.0 + 1e-12)])
            with pytest.raises(ConfigurationError, match=rf"^x={re.escape(repr(first))} outside"):
                bc.checked_z(x)
        with pytest.raises(ConfigurationError, match=r"^x=-0\.75 outside \[-0\.7, 2\.9\]$"):
            bc.checked_z([0.1, -0.75, bad])

    def test_checked_z_tolerance_and_empty_x(self):
        bc = unit_bc(-0.7, 2.9)
        inside = to_x(bc, np.array([-1.0 - 5e-13, 1.0 + 5e-13]))
        assert inside[0] < bc.x_i and inside[1] > bc.x_f
        x, z, _, _ = bc.checked_z(inside)
        assert np.array_equal(x, inside) and np.all(np.abs(np.abs(z) - 1.0 - 5e-13) <= 1e-15)
        assert_checked_z_is_the_oracle(bc, inside)
        for z_out in (-1.0 - 2e-12, 1.0 + 2e-12):
            with pytest.raises(ConfigurationError, match="outside"):
                bc.checked_z([0.0, to_x(bc, z_out)])
        for empty in ([], np.zeros((0, 3))):
            x, z, _, _ = bc.checked_z(empty)
            assert x.shape == z.shape == np.shape(empty) and x.dtype == np.float64
            assert_checked_z_is_the_oracle(bc, empty)


def basis_terms(z, m, order):
    """d^order T_k / dz^order for the m basis degrees k = 8..7+m, shape (m,) + z.shape."""
    return chebyshev_table(z, START_DEGREE + m - 1, order)[order, START_DEGREE:]


class TestChebyshevBasis:
    def test_all_ones_at_right_endpoint(self):
        assert_allclose(basis_terms(1.0, 1, 0), [1.0])

    def test_degree_eight_value(self):
        assert_allclose(basis_terms(0.5, 1, 0), [-0.5], atol=1e-14)

    def test_degree_eight_slope_at_left(self):
        assert_allclose(basis_terms(-1.0, 1, 1), [-64.0], atol=1e-12)

    def test_term_degrees_skip_supports(self):
        assert ConstrainedExpression.build(UNIT_BC, 3).series_map.shape == (11, 3)  # degrees 0..10
        z = 0.37
        expected = [chebyshev_oracle(k, z) for k in (8, 9, 10)]
        assert_allclose(basis_terms(z, 3, 0), expected, atol=1e-12)

    def test_nonpositive_m_rejected(self):
        with pytest.raises(ConfigurationError, match=r"^need at least one basis term, got m=0$"):
            ConstrainedExpression.build(UNIT_BC, 0)

    @pytest.mark.parametrize("m", [10.0, 10.5, np.float64(10.0), True, np.True_, "10", None])
    def test_non_integer_m_rejected(self, m):
        # 10.0 used to build and fail later with a raw TypeError, True to give m=1.
        with pytest.raises(ConfigurationError, match="^m must be an integer"):
            ConstrainedExpression.build(UNIT_BC, m)

    @pytest.mark.parametrize("m", [np.int64(3), np.int32(3), np.uint8(3)])
    def test_numpy_integer_m_accepted(self, m):
        ce = ConstrainedExpression.build(UNIT_BC, m)
        assert type(ce.m) is int and ce.m == 3
        assert np.array_equal(ce.series_map, ConstrainedExpression.build(UNIT_BC, 3).series_map)

    def test_array_shape(self):
        out = basis_terms(np.linspace(-1, 1, 7), 4, 2)
        assert out.shape == (4, 7)

    @pytest.mark.parametrize("order", range(1, 9))
    def test_derivative_consistency(self, order):
        """Order-p output matches a central difference of the order-(p-1) output."""
        z = np.linspace(-0.9, 0.9, 20)
        step = 1e-5
        fd = (basis_terms(z + step, 10, order - 1) - basis_terms(z - step, 10, order - 1)) / (2 * step)
        exact = basis_terms(z, 10, order)
        scale = np.max(np.abs(exact))
        assert_allclose(fd, exact, rtol=1e-6, atol=1e-6 * scale)


class TestMakeGrid:
    """The collocation grid: cgl_nodes in z, mapped to x by BoundaryConditions.x_nodes;
    SolverConfig checks its size."""

    def test_three_points(self):
        z = cgl_nodes(3)
        assert_allclose(z, [-1.0, 0.0, 1.0], atol=0)
        assert_allclose(UNIT_BC.x_nodes(z), [0.0, 0.5, 1.0], atol=0)

    def test_eleven_point_node(self):
        assert cgl_nodes(11)[1] == pytest.approx(-np.cos(np.pi / 10), abs=1e-15)

    def test_cosine_formula(self):
        n = 9
        k = np.arange(n)
        assert_allclose(cgl_nodes(n), -np.cos(np.pi * k / (n - 1)), atol=1e-15)

    def test_two_points_snap_to_domain(self):
        bc = unit_bc(0.0, np.expm1(0.5))
        x = bc.x_nodes(cgl_nodes(2))
        assert x[0] == 0.0
        assert x[-1] == np.expm1(0.5)
        assert np.array_equal(x, oracle_x_nodes(bc, cgl_nodes(2)))

    def test_right_end_snaps_where_the_map_rounds_off_it(self):
        # On [-0.7, 2.9] to_x(1) misses 2.9 by rounding.  The x nodes, which a
        # solve maps by the same x_nodes, end at x_f exactly; inside, they are to_x's.
        bc = unit_bc(-0.7, 2.9)
        assert to_x(bc, np.array([1.0]))[0] != 2.9
        z = cgl_nodes(11)
        x = bc.x_nodes(z)
        assert x[0] == -0.7 and x[-1] == 2.9 and not x.flags.writeable
        assert np.array_equal(x, oracle_x_nodes(bc, z))

    @pytest.mark.parametrize("n", [2, 3, 10, 11])
    def test_exact_symmetry(self, n):
        z = cgl_nodes(n)
        assert np.all(z == -z[::-1]) and not z.flags.writeable
        if n % 2:
            assert z[n // 2] == 0.0

    def test_strictly_increasing(self):
        z = cgl_nodes(12)
        assert np.all(np.diff(z) > 0)
        assert np.all(np.diff(unit_bc(-2.0, 3.0).x_nodes(z)) > 0)

    def test_too_few_points_rejected(self):
        with pytest.raises(ConfigurationError, match="need at least 2 grid points"):
            SolverConfig(n_points=1, m_basis=1)

    @pytest.mark.parametrize("n", [11.5, 11.0, np.float64(11.0), True, np.True_, "11"])
    def test_non_integer_size_rejected(self, n):
        # 11.5 used to build an 11-point grid silently.
        with pytest.raises(ConfigurationError, match="n_points must be an integer"):
            SolverConfig(n_points=n)

    @pytest.mark.parametrize("n", [np.int64(11), np.int32(11), np.uint8(11)])
    def test_numpy_integer_size_accepted(self, n):
        config = SolverConfig(n_points=n)
        assert config.n_points == 11 and type(config.n_points) is int
        assert np.array_equal(config._tables[0], cgl_nodes(11))
