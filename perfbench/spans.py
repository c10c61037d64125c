"""Spans around calls into bvp8's layers, recorded from outside the package.

The tracer wraps public functions where bvp8 looks them up at call time: every
module attribute of the `bvp8.*` modules that is the function itself, and the
class attributes of the expression and solution classes.  Problem callbacks
are wrapped per problem through `dataclasses.replace`.  Nothing under `src/`
changes, and the patches are in place only while a traced op runs.

Each span's self time is its duration minus the durations of the spans it
directly encloses, so time spent in code that no wrapper covers (for example
after a refactor routes around a wrapped function) lands in the enclosing
span's self time instead of disappearing.  Self times of all spans in an op
add up to the op's duration exactly (integer nanoseconds).
"""

from __future__ import annotations

import dataclasses
import sys
import time

import numpy as np

ROOT = "op"
SOLVE = "solver.solve"


class Stat:
    __slots__ = ("calls", "incl_ns", "self_ns", "work")

    def __init__(self):
        self.calls = 0
        self.incl_ns = 0
        self.self_ns = 0
        self.work = 0


def _cells(args, kwargs, result):
    return int(np.size(result))


def _lstsq_flops(args, kwargs, result):
    # Householder least squares on an M x N matrix: 2 M N^2 - 2 N^3 / 3 flops.
    rows, cols = np.shape(args[0] if args else kwargs["a"])
    return int(2 * rows * cols * cols - 2 * cols**3 // 3)


def _points(args, kwargs, result):
    return int(np.size(args[1] if len(args) > 1 else kwargs["x"]))


class Tracer:
    """Per-name call counts, inclusive and self nanoseconds, and work counts."""

    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self._stack: list[list] = []  # [child_ns] per open span
        self._solve_depth = 0
        self._patches: list[tuple] = []

    def stat(self, name: str) -> Stat:
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = Stat()
        return st

    def run(self, name: str, fn, args=(), kwargs=None, work=None):
        """Call fn inside a span named `name`; `work` maps the call to a count."""
        kwargs = kwargs or {}
        frame = [0]
        self._stack.append(frame)
        if name == SOLVE:
            self._solve_depth += 1
        t0 = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            dt = time.perf_counter_ns() - t0
            self._stack.pop()
            if name == SOLVE:
                self._solve_depth -= 1
            if self._stack:
                self._stack[-1][0] += dt
            st = self.stat(name)
            st.calls += 1
            st.incl_ns += dt
            st.self_ns += dt - frame[0]
        if work is not None:
            st.work += work(args, kwargs, result)
        return result

    def wrap(self, name: str, fn, work=None):
        def traced(*args, **kwargs):
            return self.run(name, fn, args, kwargs, work)

        return traced

    def wrap_under_solve(self, name: str, fn):
        """A span only while a solve is open; elsewhere the call is not split out."""

        def traced(*args, **kwargs):
            if self._solve_depth:
                return self.run(name, fn, args, kwargs)
            return fn(*args, **kwargs)

        return traced

    def traced_problem(self, problem):
        """The problem with its residual and partials callbacks wrapped."""
        changes = {}
        for field in ("residual", "partials"):
            fn = getattr(problem, field)
            if fn is not None:
                changes[field] = self.wrap(f"problems.{field}", fn)
        return dataclasses.replace(problem, **changes)

    def prepare(self) -> None:
        """Build the patch list for the bvp8 modules currently imported.

        An attribute a later version of bvp8 no longer has is skipped; its
        metrics then read zero and its time stays in the enclosing span.
        """
        modules = [
            m for k, m in sys.modules.items()
            if m is not None and (k == "bvp8" or k.startswith("bvp8."))
        ]
        patches = []

        def patch_function(owner, attr, name, work=None):
            fn = getattr(owner, attr, None)
            if fn is None:
                return
            wrapped = self.wrap(name, fn, work)
            for module in modules:
                for key, value in vars(module).items():
                    if value is fn:
                        patches.append((module, key, fn, wrapped))

        def patch_method(cls, attr, name, work=None, under_solve=False):
            raw = cls.__dict__.get(attr) if cls is not None else None
            if raw is None:
                return
            if isinstance(raw, (classmethod, staticmethod)):
                fn, rewrap = raw.__func__, type(raw)
            else:
                fn, rewrap = raw, (lambda f: f)
            inner = self.wrap_under_solve(name, fn) if under_solve else self.wrap(name, fn, work)
            patches.append((cls, attr, raw, rewrap(inner)))

        basis = sys.modules.get("bvp8.basis")
        solver = sys.modules.get("bvp8.solver")
        expression = sys.modules.get("bvp8.expression")
        patch_function(basis, "chebyshev_table", "basis.chebyshev_table", _cells)
        patch_function(basis, "make_grid", "basis.make_grid")
        patch_function(solver, "lstsq_scaled_qr", "solver.lstsq", _lstsq_flops)
        patch_function(solver, "solve", SOLVE)
        ce = getattr(expression, "ConstrainedExpression", None)
        sw = getattr(expression, "SwitchingFunctions", None)
        patch_method(ce, "build", "expression.build")
        patch_method(sw, "closed_form", "expression.switching")
        patch_method(sw, "eval", "expression.switching")
        patch_method(ce, "a_row", "solver.tables", under_solve=True)
        patch_method(ce, "b_value", "solver.tables", under_solve=True)
        patch_method(getattr(solver, "Solution", None), "__call__", "solution.eval",
                     work=_points)
        self._patches = patches

    def install(self) -> None:
        for owner, attr, _, wrapped in self._patches:
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)

    def conserved(self) -> bool:
        """Self times of all spans add up to the total duration of the ops."""
        root = self.stats.get(ROOT)
        total = root.incl_ns if root else 0
        return not self._stack and sum(s.self_ns for s in self.stats.values()) == total
