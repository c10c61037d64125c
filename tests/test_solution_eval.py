"""Solution.__call__ (one Clenshaw pass over the cached series of y^(d)) against its oracles.

sol(x, d), ce.eval and ce.b_value share one read, a Clenshaw pass over the
expression's series of y^(d).  The table read, a_row(x, d) @ xi + b_value(x, d)
with a(x) from the Chebyshev table, is the oracle for that read.  chebval_oracle
is the same read path in plain numpy, chebval of the cached series of y^(d)
plus the endpoint snap, which Solution.__call__ must match bit for bit.
tests/test_series_eval.py holds the two-pass read, a . xi and b summed as
values, as the oracle of that one series.
"""

import copy
import dataclasses
import functools
import pickle
import sys
import threading

import numpy as np
import pytest
from numpy.polynomial import chebyshev

import bvp8.solver
from bvp8 import SolverConfig, basis, expression, solve
from bvp8.errors import ConfigurationError
from bvp8.expression import ConstrainedExpression
from bvp8.problems import PROBLEM_NAMES, benchmark

from switching_oracle import to_x, to_z
from test_chop import unchopped

SIZES = [(11, 10), (31, 30), (481, 60)]
ORDERS = range(9)


@functools.lru_cache(maxsize=None)
def solved(name, n, m):
    return solve(benchmark(name).problem, SolverConfig(n_points=n, m_basis=m))


def eval_points(sol):
    x = np.random.default_rng(0).uniform(*sol.problem.domain, 2048)
    return np.concatenate([sol.nodes, x])


def chebval_oracle(sol, x, d):
    """y^{(d)}(x) as numpy's chebval of the cached series of y^{(d)}, then the endpoint snap."""
    x = np.asarray(x)
    ce, bc = sol.expression, sol.problem.bc
    z = to_z(ce.bc, x)
    y = chebyshev.chebval(z, sol._derivative_series[d])
    if d < 4:
        right = np.where(x == bc.x_f, bc.right_values[d], y)
        y = np.where(x == bc.x_i, bc.left_values[d], right)[()]
    return y


def x_forms(sol):
    """A float, a 0-d array, (N,) and (32, 64) arrays, a list and the exact endpoints."""
    x_i, x_f = sol.problem.domain
    rng = np.random.default_rng(5)
    return {
        "scalar": x_i + 0.3 * (x_f - x_i),
        "0-d": np.array(x_i + 0.6 * (x_f - x_i)),
        "line": eval_points(sol),
        "2-d": rng.uniform(x_i, x_f, (32, 64)),
        "list": rng.uniform(x_i, x_f, 7).tolist(),
        "x_i": x_i,
        "x_f": x_f,
        "ends": np.array([x_f, x_i, x_f]),
    }


@pytest.mark.parametrize("n,m", SIZES)
@pytest.mark.parametrize("name", PROBLEM_NAMES)
def test_bit_identical_to_chebval_oracle(name, n, m):
    sol = solved(name, n, m)
    for form, x in x_forms(sol).items():
        for d in ORDERS:
            got, expected = sol(x, d), chebval_oracle(sol, x, d)
            assert type(got) is type(expected) and np.shape(got) == np.shape(expected)
            assert np.array_equal(got, expected), (form, d)
            assert np.asarray(got).tobytes() == np.asarray(expected).tobytes(), (form, d)


def test_switching_work_skipped(monkeypatch):
    # b and the xi correction are Chebyshev series: no order tabulates the
    # switching values or the a rows.
    sol = solved("p3", 31, 30)
    calls = []
    rows = ConstrainedExpression._rows

    def counted(*args, **kwargs):
        calls.append("_rows")
        return rows(*args, **kwargs)

    monkeypatch.setattr(ConstrainedExpression, "_rows", counted)
    for form, x in x_forms(sol).items():
        for d in ORDERS:
            sol(x, d)
            assert calls == [], (form, d)
    # The control: the patched method does count.
    sol.expression.a_row(0.5, 8)
    assert calls == ["_rows"]


def test_one_clenshaw_pass_per_read(monkeypatch):
    # sol, eval and b_value each read y^(d) by one pass over one stored series,
    # chopped from the 8 + m - d terms of order d (b's drops the m zeros of M @ 0);
    # a solution builds its series once.
    sol = dataclasses.replace(solved("p3", 31, 30))  # a fresh Solution: no series cached
    ce, xi = sol.expression, sol.report.xi
    kept, kept_b = ([len(s) for s in ce._series(v)] for v in (xi, np.zeros(30)))
    assert all(max(k, k_b) <= 38 - d for d, (k, k_b) in enumerate(zip(kept, kept_b)))
    passes, builds = [], []
    real_clenshaw, real_series = basis.clenshaw, ConstrainedExpression._series

    def counted(z, c):
        passes.append(len(c))
        return real_clenshaw(z, c)

    def counted_series(ce, xi):
        builds.append(ce)
        return real_series(ce, xi)

    for module in (basis, expression):
        monkeypatch.setattr(module, "clenshaw", counted)
    monkeypatch.setattr(ConstrainedExpression, "_series", counted_series)
    for form, x in x_forms(sol).items():
        for d in ORDERS:
            for read, lengths in ((sol, kept), (lambda x, d: ce.eval(x, d, xi), kept),
                                  (ce.b_value, kept_b)):
                passes.clear()
                read(x, d)
                assert passes == [lengths[d]], (form, d)
    assert len(builds) == 1 + 2 * len(x_forms(sol)) * len(ORDERS)
    builds.clear()
    sol(0.5, 3)
    assert builds == []


@pytest.mark.parametrize("cached", [True, False], ids=["series-cached", "first-read"])
def test_two_threads_read_the_serial_bits(cached):
    # Every read writes only buffers it made itself: two threads reading one solution at
    # once get the serial bits, including when both race to build its cached series.
    # A scratch buffer shared between reads would be written by both threads, since
    # numpy's ufunc loops release the GIL.
    sol = solved("p5", 31, 30)
    x = np.random.default_rng(11).uniform(*sol.problem.domain, 2048)
    serial = [sol(x, d).tobytes() for d in ORDERS]
    shared = sol if cached else dataclasses.replace(sol)  # a fresh Solution: no series cached
    start = threading.Barrier(2, timeout=30)
    results = [[], []]

    def read(out):
        start.wait()
        for _ in range(20):
            out.append([shared(x, d).tobytes() for d in ORDERS])

    threads = [threading.Thread(target=read, args=(out,)) for out in results]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads between Python steps too
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert all(len(out) == 20 and all(r == serial for r in out) for out in results)


def test_copies_read_alike_from_read_only_series():
    # A deep copy used to carry the cached series over as writeable arrays.
    sol = solve(benchmark("p1").problem, SolverConfig(n_points=31, m_basis=30))
    sol(0.5)
    x = eval_points(sol)
    for clone in (copy.copy(sol), copy.deepcopy(sol)):
        for d in ORDERS:
            assert np.array_equal(clone(x, d), sol(x, d)), d
        assert not any(s.flags.writeable for s in clone._derivative_series)
    assert not any(s.flags.writeable for s in sol._derivative_series)


def picklable_solution():
    """A solution of p1, whose callbacks pickle by reference, with its nodes read."""
    sol = solve(benchmark("p1").problem, SolverConfig(n_points=31, m_basis=30))
    sol.nodes  # built before any copy, which must not carry it over
    return sol


def assert_read_only_alike(clone, original):
    """clone is a read-only float64 array with the bits of original."""
    assert clone.dtype == np.float64 and np.array_equal(clone, original)
    with pytest.raises(ValueError, match="read-only"):
        clone[0] += 1.0


def test_deep_copy_keeps_expression_and_grid_read_only():
    # A deep copy used to carry series_map and the nodes
    # over as writeable arrays; one write before the first call moved d(0.5)
    # by 9.4e-9.  The copy builds its own nodes, read-only too.
    sol = solve(benchmark("p4").problem, SolverConfig(n_points=31, m_basis=30))
    sol.nodes  # built before the copy, which must not carry it over
    clone = copy.deepcopy(sol)
    assert_read_only_alike(clone.expression.series_map, sol.expression.series_map)
    assert "nodes" not in vars(clone) and clone.nodes is not sol.nodes
    assert_read_only_alike(clone.nodes, sol.nodes)
    x = eval_points(sol)
    for d in ORDERS:
        assert np.array_equal(clone(x, d), sol(x, d)), d


@pytest.mark.parametrize("how", ["copy", "deepcopy", "pickle"])
@pytest.mark.parametrize("part", ["expression", "grid"])
def test_expression_and_grid_copies_are_read_only(how, part):
    # An expression copies with its read-only series_map.  The grid is a
    # solution's nodes: a copied or unpickled solution builds its own.
    clone_of = {"copy": copy.copy, "deepcopy": copy.deepcopy,
                "pickle": lambda obj: pickle.loads(pickle.dumps(obj))}[how]
    if part == "grid":
        sol = picklable_solution()
        clone = clone_of(sol)
        assert "nodes" not in vars(clone) and clone.nodes is not sol.nodes
        assert_read_only_alike(clone.nodes, sol.nodes)
        return
    sol = solved("p6", 31, 30)
    clone = clone_of(sol.expression)
    assert_read_only_alike(clone.series_map, sol.expression.series_map)
    x = eval_points(sol)
    for d in ORDERS:
        assert np.array_equal(clone.eval(x, d, sol.report.xi), sol(x, d)), d


@pytest.mark.parametrize("n_points, m_basis", SIZES)
@pytest.mark.parametrize("name", PROBLEM_NAMES)
def test_nodes_are_the_solves_x_nodes(monkeypatch, name, n_points, m_basis):
    # sol.nodes, built at its first read, has the bits of the x nodes the
    # solve collocated at, and is read-only.
    made = []

    class Recorded(bvp8.solver._CollocationTables):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(bvp8.solver, "_CollocationTables", Recorded)
    sol = solve(benchmark(name).problem, SolverConfig(n_points=n_points, m_basis=m_basis))
    assert len(made) == 1 and "nodes" not in vars(sol)
    assert sol.nodes is not made[0].x
    assert_read_only_alike(sol.nodes, made[0].x)
    assert sol.nodes.shape == (n_points,) and sol.nodes is sol.nodes


def test_writeable_arrays_are_copied_not_frozen():
    # An expression keeps a read-only copy and leaves the caller's array writeable.
    sol = solved("p1", 11, 10)
    series_map = sol.expression.series_map.copy()
    for given in (series_map, series_map.tolist()):
        clone = ConstrainedExpression(sol.problem.bc, given)
        assert_read_only_alike(clone.series_map, sol.expression.series_map)
    assert series_map.flags.writeable
    view = series_map.view()  # read-only, but writeable through its base
    view.flags.writeable = False
    assert ConstrainedExpression(sol.problem.bc, view).series_map is not view
    config = SolverConfig()  # a solve's read-only arrays are shared, not copied
    z_nodes, _, _, series_map, *_ = config._tables
    for name in ("p1", "p2"):
        other = solve(benchmark(name).problem, config)
        assert other.expression.series_map is series_map
        assert np.array_equal(other.nodes, other.problem.bc.x_nodes(z_nodes))


def test_cached_series_are_read_only():
    # Each stored series is the chop of the 38 - d terms of order d.
    sol = solve(benchmark("p4").problem, SolverConfig(n_points=31, m_basis=30))
    series = sol._derivative_series
    chopped = basis.chop(unchopped(sol.expression, sol.report.xi))
    assert [len(s) for s in series] == [len(s) for s in chopped]
    assert all(len(s) <= 38 - d for d, s in zip(ORDERS, series))
    for s in series:
        with pytest.raises(ValueError, match="read-only"):
            s[0] += 1.0


def test_snap_finds_the_ends_anywhere_in_x():
    # The snap runs when min(x) <= x_i or max(x) >= x_f; a point inside the
    # 1e-12 tolerance beyond an end must not hide that end elsewhere in x.
    sol = solved("p6", 31, 30)
    bc = sol.problem.bc
    below, above = to_x(bc, np.array([-1.0 - 5e-13, 1.0 + 5e-13]))
    assert below < bc.x_i and above > bc.x_f
    x = to_x(bc, np.array([[-0.5, 0.25, 0.9, 0.0], [0.1, 0.0, -0.3, 0.0], [0.4, 0.7, 0.2, 0.0]]))
    left, right, both = x.copy(), x.copy(), x.copy()
    left[0, 0], left[:, -1] = below, bc.x_i
    right[0, 0], right[1, 1] = above, bc.x_f
    both[1, 1], both[:, -1] = bc.x_f, bc.x_i
    for points in (left, right, both):
        for d in ORDERS:
            got = sol(points, d)
            assert np.array_equal(got, chebval_oracle(sol, points, d)), d
            if d < 4:
                assert np.all(got[points == bc.x_i] == bc.left_values[d])
                assert np.all(got[points == bc.x_f] == bc.right_values[d])


@pytest.mark.parametrize("n,m", SIZES)
@pytest.mark.parametrize("name", PROBLEM_NAMES)
def test_matches_expression_eval(name, n, m):
    # The table read is the oracle; eval is the solution's own read.
    sol = solved(name, n, m)
    ce, xi = sol.expression, sol.report.xi
    x = eval_points(sol)
    for d in ORDERS:
        oracle = ce.a_row(x, d) @ xi + ce.b_value(x, d)
        got = sol(x, d)
        assert got.shape == x.shape
        tol = 1e-14 * max(1.0, np.max(np.abs(oracle)))
        assert np.max(np.abs(got - oracle)) <= tol, f"order {d}"
        assert np.array_equal(ce.eval(x, d, xi), got), f"order {d}"


@pytest.mark.parametrize("n,m", SIZES)
@pytest.mark.parametrize("name", PROBLEM_NAMES)
def test_endpoints_return_boundary_data_exactly(name, n, m):
    sol = solved(name, n, m)
    bc = sol.problem.bc
    ends = np.array([bc.x_i, bc.x_f])
    for d in range(4):
        assert sol(bc.x_i, d) == bc.left_values[d]
        assert sol(bc.x_f, d) == bc.right_values[d]
        assert np.array_equal(sol(ends, d), [bc.left_values[d], bc.right_values[d]])


def test_scalar_gives_zero_dimensional_result():
    sol = solved("p5", 11, 10)
    for x in (0.3, sol.problem.bc.x_i, sol.problem.bc.x_f):
        for d in ORDERS:
            value = sol(x, d)
            assert isinstance(value, np.floating) and np.ndim(value) == 0
            assert value == pytest.approx(sol(np.array([x]), d)[0], rel=1e-14, abs=1e-14)


def test_list_matches_array():
    # Empty inputs give empty results of their shape, as do the table rows.
    sol = solved("p1", 11, 10)
    ce = sol.expression
    for points in ([0.0, 0.1, 0.5, 1.0], [], np.zeros((0, 3))):
        x = np.asarray(points, dtype=float)
        for d in ORDERS:
            got = sol(points, d)
            assert got.shape == x.shape and np.array_equal(got, sol(x, d))
            assert ce.a_row(x, d).shape == x.shape + (10,)
            assert ce.eval(x, d, sol.report.xi).shape == x.shape
        a, low = ce._rows(x, to_z(ce.bc, x), 8)
        assert a.shape == (9,) + x.shape + (10,) and low.shape == (9,) + x.shape + (8,)


@pytest.mark.parametrize("order", [9, -1])
def test_order_out_of_range_raises(order):
    sol = solved("p1", 11, 10)
    for evaluate in (sol, sol.expression.a_row):
        with pytest.raises(ValueError, match="order"):
            evaluate(0.5, order)


@pytest.mark.parametrize("order", [2.0, 2.5, True, False, np.True_, np.float64(2.0)])
def test_non_integer_order_raises(order):
    # 2.0 used to fail inside slicing with a TypeError and True to return y'.
    sol = solved("p1", 11, 10)
    for evaluate in (sol, lambda x, d: sol.expression.eval(x, d, sol.report.xi)):
        with pytest.raises(ValueError, match="order must be an integer in 0..8"):
            evaluate(0.5, order)


def test_numpy_integer_order_works():
    sol = solved("p4", 31, 30)
    x = eval_points(sol)
    for d in ORDERS:
        assert np.array_equal(sol(x, np.int64(d)), sol(x, d))
        assert sol(0.5, np.int32(d)) == sol(0.5, d)
    assert np.array_equal(sol.expression.eval(x, np.int64(2), sol.report.xi),
                          sol.expression.eval(x, 2, sol.report.xi))


def test_point_outside_domain_raises():
    sol = solved("p6", 11, 10)
    x_i, x_f = sol.problem.domain
    for x in (x_i - 1e-3, x_f + 1e-3, np.nan):
        with pytest.raises(ValueError, match="outside"):
            sol(np.array([0.5, x]), 2)


@pytest.mark.parametrize("x, match", [
    ("a", r"^x must be real numbers, got 'a'$"),
    ([0.5, 1 + 0j], r"^x must be real numbers"),
    (1.5, r"^x=1\.5 outside \[0\.0, 1\.0\]$"),
    (np.array([0.5, -0.25]), r"^x=-0\.25 outside \[0\.0, 1\.0\]$"),
    (np.nan, r"^x=nan outside"),
])
def test_every_read_checks_x_alike(x, match):
    # ce.eval, a_row and b_value used to raise a raw TypeError on a string,
    # and b_value(1.5) to extrapolate; all four share the solution's check.
    sol = solved("p1", 11, 10)
    ce, xi = sol.expression, sol.report.xi
    for read in (sol, ce.a_row, ce.b_value, lambda x, d: ce.eval(x, d, xi)):
        for d in (0, 8):
            with pytest.raises(ConfigurationError, match=match):
                read(x, d)


def test_builds_no_chebyshev_table(monkeypatch):
    sol = solve(benchmark("p4").problem, SolverConfig(n_points=31, m_basis=30))
    calls = []
    table = basis.chebyshev_table

    def counting(*args, **kwargs):
        calls.append(args)
        return table(*args, **kwargs)

    for module in (basis, expression):
        monkeypatch.setattr(module, "chebyshev_table", counting)
    x = eval_points(sol)
    ce = sol.expression
    for d in ORDERS:
        sol(x, d)
        ce.eval(x, d, sol.report.xi)
        ce.b_value(x, d)
    assert calls == []
    # The control: a_row tabulates every point, in one table.
    ce.a_row(x, 0)
    assert len(calls) == 1 and np.size(calls[0][0]) == x.size
