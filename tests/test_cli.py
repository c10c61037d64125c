"""Tests for the command line interface."""

import dataclasses
import subprocess
import sys

import numpy as np
import pytest

from bvp8 import SolverConfig, cli, solve
from bvp8.problems import benchmark, derivative_errors

HEADER = "x,tfc,exact,abs_error,reference_error"


def run_cli(argv, capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(argv)
    out, err = capsys.readouterr()
    return info.value.code, out, err


def csv_rows(text):
    lines = text.strip().split("\n")
    assert lines[0] == HEADER
    return [line.split(",") for line in lines[1:]]


class TestCsvOutput:
    def test_structure(self, capsys):
        code, out, err = run_cli(["--problem", "p1", "--format", "csv"], capsys)
        assert code == 0
        assert err == ""
        rows = csv_rows(out)
        assert len(rows) == 11
        assert all(len(r) == 5 for r in rows)
        assert float(rows[0][3]) == 0.0 and float(rows[-1][3]) == 0.0
        assert float(rows[4][4]) == 3.3e-09

    def test_floats_round_trip_exactly(self, capsys):
        _, out, _ = run_cli(["--problem", "p3", "--format", "csv"], capsys)
        for row in csv_rows(out):
            for cell in row:
                if cell:
                    assert f"{float(cell):.15e}" == cell

    def test_unreported_reference_cell_is_empty(self, capsys):
        _, out, _ = run_cli(["--problem", "p2", "--format", "csv"], capsys)
        rows = csv_rows(out)
        assert rows[9][4] == ""
        assert rows[8][4] != ""

    def test_no_reference_column_values(self, capsys):
        _, out, _ = run_cli(["--problem", "p7", "--format", "csv"], capsys)
        assert all(r[4] == "" for r in csv_rows(out))

    def test_reference_dropped_off_table_grid(self, capsys):
        _, out, _ = run_cli(
            ["--problem", "p1", "--format", "csv", "--error-points", "5"], capsys)
        rows = csv_rows(out)
        assert len(rows) == 5
        assert all(r[4] == "" for r in rows)

    def test_solution_column_tracks_exact(self, capsys):
        _, out, _ = run_cli(["--problem", "p6", "--format", "csv"], capsys)
        # abs_error is formed from the unrounded doubles, so recomputing it
        # from the printed columns can differ by an ulp
        for row in csv_rows(out):
            got, exact, err = float(row[1]), float(row[2]), float(row[3])
            assert err == pytest.approx(abs(got - exact), abs=2 * np.spacing(1.0))
            assert err <= 5e-15

    def test_info_lines_go_to_stderr(self, capsys):
        code, out, err = run_cli(["--problem", "p4", "--format", "csv"], capsys)
        assert code == 0
        csv_rows(out)  # stdout stays machine readable
        assert "iterations: 2" in err
        assert "final residual norm:" in err


class TestTableOutput:
    def test_linear_problem_is_quiet(self, capsys):
        code, out, err = run_cli(["--problem", "p1"], capsys)
        assert code == 0
        assert err == ""
        lines = out.strip().split("\n")
        assert len(lines) == 12
        assert lines[0].split() == HEADER.split(",")

    def test_nonlinear_info_precedes_table(self, capsys):
        _, out, _ = run_cli(["--problem", "p4"], capsys)
        lines = out.split("\n")
        assert lines[0] == "problem p4"
        assert lines[1] == "iterations: 2"
        assert lines[2].startswith("final residual norm:")

    def test_cells_right_justified(self, capsys):
        _, out, _ = run_cli(["--problem", "p1"], capsys)
        data_line = out.strip().split("\n")[1]
        assert data_line.startswith("   0.0")
        assert len(data_line) == 5 * 24

    def test_all_problems_separated(self, capsys):
        code, out, _ = run_cli(["--problem", "all"], capsys)
        assert code == 0
        for name in ("p1", "p2", "p3", "p4", "p5", "p6", "p7"):
            assert f"problem {name}" in out
        assert out.count(HEADER.replace(",", " " * 10)) == 0  # headers are justified


class TestDerivativeReport:
    def test_appended_block(self, capsys):
        _, out, _ = run_cli(
            ["--problem", "p7", "--format", "csv", "--derivative-report"], capsys)
        blocks = out.split("\n\n")
        assert len(blocks) == 2
        lines = blocks[1].strip().split("\n")
        assert lines[0] == "order,mean_abs_error"
        assert len(lines) == 10
        errors = [float(line.split(",")[1]) for line in lines[1:]]
        assert all(e <= 1e-9 for e in errors)

    def test_high_resolution_study(self, capsys):
        _, out, _ = run_cli([
            "--problem", "p5", "--format", "csv", "--derivative-report",
            "--m-basis", "30", "--n-points", "100", "--error-points", "100",
        ], capsys)
        table, report = out.split("\n\n")
        assert len(table.strip().split("\n")) == 101
        errors = [float(line.split(",")[1]) for line in report.strip().split("\n")[1:]]
        assert errors[0] <= 1e-14
        # the last derivative recovers accuracy relative to the one before it
        assert errors[8] < errors[7]
        assert errors[7] <= 1e-8

    def test_report_uses_the_printed_solution(self, capsys):
        # --n-points applies to the report; it is not re-solved on m + 1 points
        _, out, _ = run_cli([
            "--problem", "p5", "--format", "csv", "--derivative-report",
            "--n-points", "41", "--m-basis", "10",
        ], capsys)
        report = out.split("\n\n")[1].strip().split("\n")[1:]
        sol = solve(benchmark("p5").problem, SolverConfig(n_points=41, m_basis=10))
        expected = [f"{d},{cli._format(e)}" for d, e in enumerate(derivative_errors(sol))]
        assert report == expected


class TestDefaults:
    def test_solver_defaults_mirror_solver_config(self):
        args = cli.build_parser().parse_args(["--problem", "p1"])
        assert (args.n_points, args.m_basis, args.max_iter) == dataclasses.astuple(SolverConfig())


class TestExitCodes:
    def test_success(self, capsys):
        code, _, _ = run_cli(["--problem", "p5"], capsys)
        assert code == 0

    def test_iteration_cap_fails_with_warning(self, capsys):
        code, out, _ = run_cli(["--problem", "p5", "--max-iter", "1"], capsys)
        assert code == 1
        assert "warning: stopped by max_iterations" in out

    def test_stall_fails_with_warning(self, capsys, monkeypatch):
        # Negated partials make every Gauss-Newton step an ascent direction.
        entry = benchmark("p4")
        p4 = entry.problem
        stalling = dataclasses.replace(
            entry, problem=dataclasses.replace(p4, partials=lambda x, y: -p4.partials(x, y)))
        monkeypatch.setattr(cli.problems, "benchmark", lambda name: stalling)
        code, out, _ = run_cli(["--problem", "p4"], capsys)
        assert code == 1
        assert "warning: stopped by stalled" in out

    def test_unknown_problem_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(["--problem", "zzz"])
        assert info.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["--problem", "p1", "--error-points", "1"],
        ["--problem", "p1", "--m-basis", "30"],
    ])
    def test_bad_option_values_are_usage_errors(self, argv, capsys):
        code, _, err = run_cli(argv, capsys)
        assert code == 2
        assert err.startswith("error: ")


class TestFileOutput:
    def test_single_file(self, tmp_path, capsys):
        target = tmp_path / "p1.csv"
        code, out, _ = run_cli(
            ["--problem", "p1", "--format", "csv", "--out", str(target)], capsys)
        assert code == 0
        assert out == ""
        rows = csv_rows(target.read_text())
        assert len(rows) == 11

    def test_line_endings_are_lf_only(self, tmp_path, capsys):
        target = tmp_path / "out.csv"
        run_cli(["--problem", "p2", "--format", "csv", "--out", str(target)], capsys)
        data = target.read_bytes()
        assert b"\r" not in data
        assert data.endswith(b"\n")

    def test_directory_for_all_problems(self, tmp_path, capsys):
        outdir = tmp_path / "results"
        code, out, _ = run_cli(
            ["--problem", "all", "--format", "csv", "--out", str(outdir)], capsys)
        assert code == 0
        names = sorted(p.name for p in outdir.iterdir())
        assert names == [f"p{k}.csv" for k in range(1, 8)]
        # info lines stay on the console, one header per problem
        assert out.count("problem p") == 7

    def test_table_files_use_txt_extension(self, tmp_path, capsys):
        outdir = tmp_path / "tables"
        run_cli(["--problem", "all", "--out", str(outdir)], capsys)
        assert (outdir / "p1.txt").exists()
        assert not (outdir / "p1.csv").exists()


class TestEntryPoint:
    def test_console_script(self):
        proc = subprocess.run(
            [sys.executable, "-m", "bvp8.cli", "--problem", "p1", "--format", "csv"],
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0
        assert proc.stdout.startswith(HEADER)
