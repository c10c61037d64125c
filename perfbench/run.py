"""bvp8 benchmark: one closed-loop client, one process, BLAS on one thread.

    python3 perfbench/run.py --workload paper_default --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; bvp8 is imported from `src/`.  The
seed fixes the order the problems cycle in and the evaluation points.  Every
op's output is checked against the problem's exact solution.  The last line
of standard output is one JSON object: `correct`, `attempted`, `failed` and
`metrics`.

With `--trace 0` the metrics are the end-to-end ones, measured with no
tracing.  Latency and throughput are in `ref` units: an op's time divided by
the time of the workload's reference kernel (reference.py), sampled just
before and just after the op, because the host's speed drifts by up to 2x
within a run.  The same figures in raw milliseconds are printed on the `raw`
line above the result for reading, not for comparing runs.

With `--trace 1` the metrics are the per-layer ones, from spans recorded
around calls into bvp8 (spans.py).  Each traced op is paired with an
untraced run of the same input, which must give bit-identical results.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: setup_s is the median of SETUP_REPS set-ups before the measurement and,
#: in untraced runs, one more every SETUP_EVERY_S seconds during it, so that
#: it spans the host's speed swings like the latencies do.
SETUP_REPS = 3
SETUP_EVERY_S = 3.0

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: End-to-end metrics (trace 0): name -> unit.
END_TO_END = {
    "latency.p50": "ref",
    "latency.p90": "ref",
    "throughput_ops_per_kref": "1/kref",
    "accuracy_digits": "digits",
    "success_fraction": "fraction",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics (trace 1), each per traced op: name -> (unit, what it should move).
PER_LAYER = {
    "basis.chebyshev_table.self_ms": (
        "ms", "latency.p50 on paper_default (largest share) and oversampled_nonlinear, "
              "and on dense_eval through evaluation"),
    "basis.chebyshev_table.calls": ("count", "as basis.chebyshev_table.self_ms"),
    "basis.chebyshev_table.cells": ("count", "as basis.chebyshev_table.self_ms"),
    "basis.make_grid.self_ms": ("ms", "latency on paper_default; small elsewhere"),
    "expression.build.self_ms": ("ms", "latency on paper_default; small elsewhere"),
    "expression.switching.self_ms": ("ms", "latency on paper_default; small elsewhere"),
    "solver.tables_ms": (
        "ms", "latency on paper_default and oversampled_nonlinear; zero on dense_eval"),
    "solver.assembly.self_ms": (
        "ms", "latency on oversampled_nonlinear; negligible on paper_default"),
    "problems.residual.calls": ("count", "latency on oversampled_nonlinear; absent on dense_eval"),
    "problems.residual.self_ms": ("ms", "latency on oversampled_nonlinear; absent on dense_eval"),
    "problems.partials.calls": ("count", "latency on oversampled_nonlinear; absent on dense_eval"),
    "problems.partials.self_ms": ("ms", "latency on oversampled_nonlinear; absent on dense_eval"),
    "solver.lstsq.self_ms": ("ms", "latency on oversampled_nonlinear; ~3% on paper_default"),
    "solver.lstsq.calls": ("count", "as solver.lstsq.self_ms"),
    "solver.lstsq.flops": ("count", "as solver.lstsq.self_ms"),
    "solver.iterations": (
        "count", "latency, accuracy_digits and success_fraction on the solve workloads"),
    "solution.eval.ms": ("ms", "latency and throughput on dense_eval only"),
    "solution.eval.points": ("count", "throughput on dense_eval only"),
    "trace.overhead_ratio": ("ratio", "traced over untraced median latency"),
}


def parse_args(argv):
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return args


def import_bvp8():
    """Import bvp8 afresh from this checkout's src/ (never an installed copy)."""
    for key in [k for k in sys.modules if k == "bvp8" or k.startswith("bvp8.")]:
        del sys.modules[key]
    bvp8 = importlib.import_module("bvp8")
    if Path(bvp8.__file__).resolve().parent != SRC / "bvp8":
        raise ImportError(f"imported bvp8 from {bvp8.__file__}, not from {SRC}")
    return bvp8


def environment(seed: int) -> dict:
    """What the figures depend on besides the code: seed, cores, versions, caches."""
    import numpy as np

    blas = "unknown"
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError, ValueError):
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}{'d' if kind == 'Data' else ''}"] = size
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "caches": caches,
        **{v: os.environ.get(v) for v in THREAD_VARS},
    }


class Runner:
    """Runs and checks one workload's ops; counts attempts and failures."""

    def __init__(self, workload, rng):
        self.workload = workload
        self.rng = rng
        self.attempted = 0
        self.failed = 0
        self.worst_error = 0.0
        self.messages: list[str] = []

    def time_op(self, inp, tracer=None):
        """Run one op, traced when a tracer is given; returns (ns, output or None).

        The tracer's patches are in place only while the op runs.
        """
        from spans import ROOT

        self.attempted += 1
        if tracer is not None:
            tracer.install()
        t0 = time.perf_counter_ns()
        try:
            if tracer is None:
                out = self.workload.op(inp, False)
            else:
                out = tracer.run(ROOT, self.workload.op, (inp, True))
        except Exception:
            out = None
            self.fail(traceback.format_exc(limit=3))
        finally:
            ns = time.perf_counter_ns() - t0
            if tracer is not None:
                tracer.uninstall()
        return ns, out

    def check(self, inp, out):
        """The output if it passes the workload's check, else None (counted failed)."""
        if out is None:
            return None
        try:
            self.worst_error = max(self.worst_error, self.workload.check(inp, out))
        except Exception as exc:
            self.fail(f"{type(exc).__name__}: {exc}")
            return None
        return out

    def attempt(self, inp, tracer=None):
        ns, out = self.time_op(inp, tracer)
        return ns, self.check(inp, out)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.messages) < 5:
            self.messages.append(message)


def set_up(name: str, seed: int):
    """Import bvp8, build the workload and run each input once; returns (workload, s)."""
    import numpy as np
    import workloads

    t0 = time.perf_counter()
    bvp8 = import_bvp8()
    workload = workloads.build(name, bvp8, np.random.default_rng(seed))
    warm = Runner(workload, np.random.default_rng([seed, 0]))
    for _ in range(workload.size):
        warm.attempt(workload.next_input(warm.rng))
    return workload, time.perf_counter() - t0


def untraced(runner: Runner, seconds: float, setups: list, set_up_again) -> tuple[dict, dict]:
    """End-to-end metrics with latencies in reference-kernel units, and raw ms.

    The reference kernel is sampled between consecutive ops, and each op's
    time is divided by the mean of the samples taken just before and just
    after it, so the machine's speed at that moment cancels.  Every
    SETUP_EVERY_S seconds, `set_up_again()` times one more set-up, added to
    the `setups` timed before; the ops keep using the workload they started
    with.
    """
    from reference import Kernel
    from workloads import digits

    raw, scaled = [], []
    sample = Kernel(*runner.workload.reference).sample
    before = sample()
    deadline = time.perf_counter() + seconds
    next_setup = time.perf_counter() + SETUP_EVERY_S
    while not raw or time.perf_counter() < deadline:
        if time.perf_counter() >= next_setup:
            setups.append(set_up_again())
            next_setup = time.perf_counter() + SETUP_EVERY_S
            before = sample()
        inp = runner.workload.next_input(runner.rng)
        ns, out = runner.time_op(inp)
        after = sample()
        runner.check(inp, out)
        raw.append(ns / 1e6)
        scaled.append(2.0 * ns / (before + after))
        before = after
    values = {
        "latency.p50": statistics.median(scaled),
        "latency.p90": p90(scaled),
        "throughput_ops_per_kref": 1e3 * len(scaled) / sum(scaled),
        "accuracy_digits": digits(runner.worst_error),
        "success_fraction": 1.0 - runner.failed / runner.attempted,
        "setup_s": statistics.median(setups),
    }
    raw_values = {
        "latency_ms.p50": statistics.median(raw),
        "latency_ms.p90": p90(raw),
        "throughput_ops_per_s": 1e3 * len(raw) / sum(raw),
        "samples": len(raw),
    }
    return values, raw_values


def p90(values: list) -> float:
    return statistics.quantiles(values, n=10)[-1] if len(values) > 1 else values[0]


def traced(runner: Runner, seconds: float) -> dict:
    """Pairs of untraced and traced ops on the same input, alternating which goes first."""
    from spans import Tracer

    tracer = Tracer()
    tracer.prepare()
    runner.workload.trace_with(tracer)
    plain, spanned, iterations = [], [], 0
    deadline = time.perf_counter() + seconds
    while not spanned or time.perf_counter() < deadline:
        inp = runner.workload.next_input(runner.rng)
        outs = {}
        for traced_op in ((False, True) if len(spanned) % 2 else (True, False)):
            ns, outs[traced_op] = runner.attempt(inp, tracer if traced_op else None)
            (spanned if traced_op else plain).append(ns)
        if outs[True] is None or outs[False] is None:
            continue
        fp = runner.workload.fingerprint
        if fp(outs[True]) != fp(outs[False]):
            runner.fail("traced output differs from the untraced output")
        iterations += runner.workload.iterations(outs[True])
    if not tracer.conserved():
        runner.fail("span self times do not add up to the op durations")

    ops = len(spanned)
    st = tracer.stat

    def per_op(value):
        return value / ops

    def ms(ns):
        return ns / ops / 1e6

    return {
        "basis.chebyshev_table.self_ms": ms(st("basis.chebyshev_table").self_ns),
        "basis.chebyshev_table.calls": per_op(st("basis.chebyshev_table").calls),
        "basis.chebyshev_table.cells": per_op(st("basis.chebyshev_table").work),
        "basis.make_grid.self_ms": ms(st("basis.make_grid").self_ns),
        "expression.build.self_ms": ms(st("expression.build").self_ns),
        "expression.switching.self_ms": ms(st("expression.switching").self_ns),
        "solver.tables_ms": ms(st("solver.tables").incl_ns),
        "solver.assembly.self_ms": ms(st("solver.solve").self_ns),
        "problems.residual.calls": per_op(st("problems.residual").calls),
        "problems.residual.self_ms": ms(st("problems.residual").self_ns),
        "problems.partials.calls": per_op(st("problems.partials").calls),
        "problems.partials.self_ms": ms(st("problems.partials").self_ns),
        "solver.lstsq.self_ms": ms(st("solver.lstsq").self_ns),
        "solver.lstsq.calls": per_op(st("solver.lstsq").calls),
        "solver.lstsq.flops": per_op(st("solver.lstsq").work),
        "solver.iterations": per_op(iterations),
        "solution.eval.ms": ms(st("solution.eval").incl_ns),
        "solution.eval.points": per_op(st("solution.eval").work),
        "trace.overhead_ratio": statistics.median(spanned) / statistics.median(plain),
    }


def main(argv=None) -> int:
    for var in THREAD_VARS:
        os.environ[var] = "1"
    args = parse_args(argv)
    if not (SRC / "bvp8" / "__init__.py").is_file():
        print(f"error: no bvp8 sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import numpy as np

    setups = []
    for _ in range(SETUP_REPS):
        workload, seconds = set_up(args.workload, args.seed)
        setups.append(seconds)
    env = environment(args.seed)
    print("env " + json.dumps(env, sort_keys=True))
    runner = Runner(workload, np.random.default_rng([args.seed, 1]))
    if args.trace:
        values = traced(runner, args.seconds)
        units = {k: u for k, (u, _) in PER_LAYER.items()}
    else:
        values, raw_values = untraced(
            runner, args.seconds, setups, lambda: set_up(args.workload, args.seed)[1])
        print("raw " + json.dumps(raw_values, sort_keys=True))
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        units = END_TO_END

    for message in runner.messages:
        print("failure: " + message.rstrip().replace("\n", "\n  "))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{runner.attempted} ops, {runner.failed} failed "
          f"(failed_fraction {runner.failed / runner.attempted})")
    for name, unit in units.items():
        note = f"  [moves {PER_LAYER[name][1]}]" if args.trace else ""
        print(f"metric {name} = {values[name]!r} {unit}{note}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
