"""Command line front end: solve benchmark problems and print error tables."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import problems
from .errors import Bvp8Error, ConfigurationError
from .solver import Solution, SolverConfig, StopReason, solve

_GOOD_STOPS = frozenset({StopReason.CONVERGED, StopReason.LINEAR_SINGLE_SHOT})

_COLUMNS = ("x", "tfc", "exact", "abs_error", "reference_error")
_REPORT_COLUMNS = ("order", "mean_abs_error")
_CELL_WIDTH = 24


def _format(value: float) -> str:
    return f"{value:.15e}"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bvp8",
        description=(
            "Solve eighth-order two-point boundary value benchmark problems "
            "by constraint-embedded least-squares collocation."
        ),
    )
    parser.add_argument(
        "--problem",
        required=True,
        choices=list(problems.PROBLEM_NAMES) + ["all"],
        help="benchmark problem to solve, or 'all'",
    )
    parser.add_argument("--n-points", type=int, default=SolverConfig.n_points,
                        help="collocation points (default %(default)s)")
    parser.add_argument("--m-basis", type=int, default=SolverConfig.m_basis,
                        help="basis terms (default %(default)s)")
    parser.add_argument("--max-iter", type=int, default=SolverConfig.max_iterations,
                        help="iteration cap (default %(default)s)")
    parser.add_argument(
        "--format", dest="fmt", choices=("table", "csv"), default="table",
        help="output format (default table)",
    )
    parser.add_argument(
        "--derivative-report", action="store_true",
        help="append mean absolute errors of all derivatives through order 8",
    )
    parser.add_argument(
        "--error-points", type=int, default=11,
        help="equidistant evaluation points for the error table (default 11)",
    )
    parser.add_argument("--out", type=Path, default=None, help="write output to this path")
    return parser


def _error_rows(entry: problems.BenchmarkEntry, sol: Solution, n_points: int):
    """Rows (x, computed, exact, abs error, reference error or None)."""
    x_i, x_f = entry.problem.domain
    xs = np.linspace(x_i, x_f, n_points)
    computed = np.atleast_1d(sol(xs))
    exact = np.atleast_1d(entry.problem.exact(xs, 0))
    errors = np.abs(computed - exact)
    # Reference values are published for the standard 11-row layout only.
    references = [None] * n_points
    if n_points == problems.TABLE_ROWS:
        references = entry.reference_by_row()
    return [
        (xs[k], computed[k], exact[k], errors[k], references[k])
        for k in range(n_points)
    ]


def _render(header, rows, fmt: str, widths) -> str:
    """The header, then one line per row: comma-separated cells in csv, else each right-aligned
    to its width.  A float is _format's, an int its digits, a missing value empty."""
    lines = [header] + [
        ["" if v is None else str(v) if isinstance(v, int) else _format(v) for v in row]
        for row in rows
    ]
    if fmt == "csv":
        return "".join(",".join(line) + "\n" for line in lines)
    return "".join("".join(c.rjust(w) for c, w in zip(line, widths)) + "\n" for line in lines)


def _info_lines(sol: Solution) -> list[str]:
    report = sol.report
    lines = []
    if not sol.problem.is_linear:
        lines.append(f"iterations: {report.iterations}")
        lines.append(f"final residual norm: {_format(report.solution_norm)}")
    if report.converged_by not in _GOOD_STOPS:
        lines.append(f"warning: stopped by {report.converged_by}")
    return lines


def run(args: argparse.Namespace) -> int:
    if args.error_points < 2:
        raise ConfigurationError(f"--error-points must be at least 2, got {args.error_points}")
    names = list(problems.PROBLEM_NAMES) if args.problem == "all" else [args.problem]
    config = SolverConfig(
        n_points=args.n_points,
        m_basis=args.m_basis,
        max_iterations=args.max_iter,
    )
    # Info lines go to stderr in csv mode so stdout stays machine readable.
    info_stream = sys.stderr if (args.fmt == "csv" and args.out is None) else sys.stdout
    extension = "csv" if args.fmt == "csv" else "txt"
    if args.out is not None and args.problem == "all":
        args.out.mkdir(parents=True, exist_ok=True)

    status = 0
    for position, name in enumerate(names):
        entry = problems.benchmark(name)
        sol = solve(entry.problem, config)
        if sol.report.converged_by not in _GOOD_STOPS:
            status = 1
        rows = _error_rows(entry, sol, args.error_points)
        body = _render(_COLUMNS, rows, args.fmt, (_CELL_WIDTH,) * len(_COLUMNS))
        if args.derivative_report:
            report = enumerate(problems.derivative_errors(sol, args.error_points))
            body += "\n" + _render(_REPORT_COLUMNS, report, args.fmt, (8, _CELL_WIDTH))
        info = _info_lines(sol)
        if len(names) > 1 or info:
            print(f"problem {name}", file=info_stream)
        for line in info:
            print(line, file=info_stream)
        if args.out is None:
            if position:
                sys.stdout.write("\n")
            sys.stdout.write(body)
        elif args.problem == "all":
            (args.out / f"{name}.{extension}").write_text(body, newline="\n")
        else:
            args.out.write_text(body, newline="\n")
    return status


def main(argv=None) -> None:
    args = build_parser().parse_args(argv)
    try:
        status = run(args)
    except ConfigurationError as exc:
        # Bad option values are usage errors, same exit code argparse uses.
        print(f"error: {exc}", file=sys.stderr)
        status = 2
    except (Bvp8Error, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        status = 1
    sys.exit(status)


if __name__ == "__main__":
    main()
