"""Command-line driver: outputs, determinism, exit codes."""

import contextlib
import csv
import io
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import klshell.cases as cases
import klshell.cli as cli
from klshell.cases import BENCHMARKS, REPORT_COLUMNS
from klshell.elements import CAS, CS, QUAD_ORDERS
from klshell.errors import NumericalError, SingularGeometryError
from klshell.solver import solve_spd


def read(path):
    with open(path, "rb") as f:
        return f.read()


class TestRuns:
    def test_sweep_writes_report(self, tmp_path, capsys):
        rc = cli.main(["--benchmark", "strip", "--element", "cas", "--quad", "3",
                       "--slenderness", "1e2", "--levels", "3",
                       "--outdir", str(tmp_path)])
        assert rc == 0
        text = (tmp_path / "report.csv").read_text()
        assert len(text.strip().split("\n")) == 4
        out = capsys.readouterr().out
        assert out.count("level ") == 3

    def test_single_mesh_reproduces_reference_deflection(self, tmp_path, capsys):
        rc = cli.main(["--benchmark", "scordelis", "--element", "cas",
                       "--elements-per-side", "20", "--slenderness", "1e2",
                       "--outdir", str(tmp_path)])
        assert rc == 0
        rows = (tmp_path / "report.csv").read_text().strip().split("\n")
        deflection = float(rows[1].split(",")[4])
        assert abs(deflection - (-0.30059)) <= 5e-3 * 0.30059

    def test_field_output(self, tmp_path):
        rc = cli.main(["--benchmark", "strip", "--element", "cas",
                       "--slenderness", "1e2", "--levels", "2",
                       "--sample-density", "5", "--outdir", str(tmp_path)])
        assert rc == 0
        text = (tmp_path / "field.dat").read_text()
        data = [l for l in text.strip().split("\n") if not l.startswith("#")]
        assert len(data) == 25

    def test_field_output_samples_the_sweep_without_resolving(self, tmp_path,
                                                                 monkeypatch):
        """--levels N with --sample-density solves each level once and
        samples the finest of those solves."""
        solves = []

        def counted(K, F, *args, **kwargs):
            solves.append(K.shape[0])
            return solve_spd(K, F, *args, **kwargs)

        monkeypatch.setattr(cases, "solve_spd", counted)
        rc = cli.main(["--benchmark", "strip", "--element", "cas",
                       "--slenderness", "1e2", "--levels", "3",
                       "--sample-density", "4", "--outdir", str(tmp_path)])
        assert rc == 0
        assert len(solves) == 3
        assert "# mesh: 8x1\n" in (tmp_path / "field.dat").read_text()

    def test_bitwise_deterministic_report(self, tmp_path):
        args = ["--benchmark", "strip", "--element", "cas", "--quad", "2",
                "--slenderness", "1e3", "--levels", "3"]
        d1, d2 = tmp_path / "a", tmp_path / "b"
        assert cli.main(args + ["--outdir", str(d1)]) == 0
        assert cli.main(args + ["--outdir", str(d2)]) == 0
        assert read(d1 / "report.csv") == read(d2 / "report.csv")

    def test_quadrature_insensitivity(self, tmp_path):
        vals = {}
        for q in ("2", "3"):
            out = tmp_path / q
            cli.main(["--benchmark", "strip", "--element", "cas", "--quad", q,
                      "--slenderness", "1e3", "--levels", "4",
                      "--outdir", str(out)])
            rows = (out / "report.csv").read_text().strip().split("\n")[1:]
            vals[q] = np.array([float(r.split(",")[4]) for r in rows])
        assert np.all(np.abs(vals["2"] - vals["3"]) < 0.01 * np.abs(vals["3"]))


class TestFloorAcceptance:
    @pytest.mark.parametrize("slenderness,at_floor", [("1e4", True), ("1e2", False)])
    def test_reported_on_stderr_only(self, tmp_path, monkeypatch, capsys, slenderness,
                                     at_floor):
        """The notice gives the level's evaluation floor and its residual."""
        traces = []

        def recorded(*args):
            res = cases.solve_case(*args)
            traces.append(res.trace)
            return res

        monkeypatch.setattr(cli, "solve_case", recorded)
        rc = cli.main(["--benchmark", "hypar", "--element", "cas",
                       "--slenderness", slenderness, "--elements-per-side", "32",
                       "--outdir", str(tmp_path)])
        assert rc == 0
        captured = capsys.readouterr()
        trace, = traces
        assert (trace.reason == "floor") == at_floor
        assert captured.err == (f"level 0 accepted at the evaluation floor {trace.floor:.1e}: "
                                f"residual {trace.residual:.1e} > rtol 1e-10\n"
                                if at_floor else "")
        assert "evaluation floor" not in captured.out
        header, row = (tmp_path / "report.csv").read_text().strip().split("\n")
        assert header == ",".join(REPORT_COLUMNS)
        assert len(row.split(",")) == len(REPORT_COLUMNS)


class TestExitCodes:
    def test_usage_error_is_exit_2(self, capsys):
        assert cli.main(["--benchmark", "nosuch"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("klshell: error: argument --benchmark: invalid choice: 'nosuch'")
        assert err.count("\n") == 1 and err.endswith("\n")

    def test_conflicting_flags(self, capsys):
        assert cli.main(["--benchmark", "strip", "--levels", "2",
                         "--elements-per-side", "4"]) == 2
        assert capsys.readouterr().err == (
            "klshell: error: argument --elements-per-side: not allowed with argument --levels\n")

    @pytest.mark.parametrize("argv,first,second", [
        (["--levels", "5", "--elements-per-side", "4"], "--elements-per-side", "--levels"),
        (["--elements-per-side", "4", "--levels", "5"], "--levels", "--elements-per-side"),
    ], ids=["levels-first", "elements-first"])
    def test_conflicting_flags_at_the_default_level_count(self, argv, first, second,
                                                          capsys):
        """`--levels 5`, the count used when it is omitted, still conflicts."""
        assert cli.main(["--benchmark", "strip", *argv]) == 2
        assert capsys.readouterr().err == (
            f"klshell: error: argument {first}: not allowed with argument {second}\n")

    @pytest.mark.parametrize("argv", [  # (flags, the error line's message)
        (["--elements-per-side", "0"], "argument --elements-per-side: 0 is not >= 1"),
        (["--elements-per-side", "-3"], "argument --elements-per-side: -3 is not >= 1"),
        (["--slenderness", "0"], "slenderness must be a positive finite number"),
        (["--slenderness", "-5"], "slenderness must be a positive finite number"),
        (["--slenderness", "nan"], "slenderness must be a positive finite number"),
        (["--slenderness", "inf"], "slenderness must be a positive finite number"),
        (["--slenderness", "1e-300"], "thickness 1e+301 puts the membrane or bending "
                                      "stiffness outside the normal float range"),
        (["--slenderness", "1e300"], "thickness 1e-299 puts the membrane or bending "
                                     "stiffness outside the normal float range"),
        (["--sample-density", "-2"], "argument --sample-density: -2 is not >= 1"),
        (["--levels", "0"], "argument --levels: 0 is not >= 1"),
    ])
    def test_bad_value_is_exit_2_before_solving(self, argv, tmp_path, capsys):
        flags, message = argv
        out = tmp_path / "out"
        assert cli.main(["--benchmark", "strip", *flags, "--outdir", str(out)]) == 2
        assert capsys.readouterr().err == f"klshell: error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("below,errno", [("", "[Errno 17] File exists"),
                                             ("sub", "[Errno 20] Not a directory")],
                             ids=["file", "below-file"])
    def test_outdir_on_a_file_is_exit_2_before_solving(self, tmp_path, monkeypatch,
                                                       capsys, below, errno):
        """An --outdir that cannot be made is reported by the handler of
        every OS error: one line naming the directory and the error."""
        def unreachable(*a, **k):
            raise AssertionError("solved despite an unusable --outdir")
        monkeypatch.setattr(cli, "run_convergence", unreachable)
        blocker = tmp_path / "file"
        blocker.write_text("kept")
        outdir = str(blocker / below)
        assert cli.main(["--benchmark", "strip", "--outdir", outdir]) == 2
        assert capsys.readouterr().err == f"cannot write to {outdir}: {errno}: {outdir!r}\n"
        assert blocker.read_text() == "kept"

    def test_numerical_failure_is_exit_3(self, tmp_path, monkeypatch, capsys):
        def boom(*a, **k):
            raise NumericalError("synthetic failure")
        monkeypatch.setattr(cli, "run_convergence", boom)
        rc = cli.main(["--benchmark", "strip", "--levels", "2",
                       "--outdir", str(tmp_path)])
        assert rc == 3
        assert "synthetic failure" in capsys.readouterr().err

    def test_numerical_failure_while_writing_is_exit_3(self, tmp_path, monkeypatch,
                                                       capsys):
        """A degenerate point met while sampling the field ends the run like
        a failed solve: one stderr line, the report kept, no level line."""
        def degenerate(*a, **k):
            raise SingularGeometryError("a1 x a2 = 0", [3])
        monkeypatch.setattr(cli, "write_field", degenerate)
        rc = cli.main(["--benchmark", "strip", "--levels", "2",
                       "--sample-density", "3", "--outdir", str(tmp_path)])
        assert rc == 3
        captured = capsys.readouterr()
        assert captured.err == "numerical failure: elements [3]: a1 x a2 = 0\n"
        assert "level" not in captured.out
        assert (tmp_path / "report.csv").is_file()
        assert not (tmp_path / "field.dat").exists()

    def test_levels_default_to_5(self, tmp_path, capsys):
        assert cli.main(["--benchmark", "strip", "--outdir", str(tmp_path)]) == 0
        rows = (tmp_path / "report.csv").read_text().strip().split("\n")
        assert [row.split(",")[1] for row in rows[1:]] == ["2", "4", "8", "16", "32"]
        assert capsys.readouterr().out.count("level ") == 5

    @pytest.mark.parametrize("where", ["solve_case", "write_field"])
    def test_out_of_memory_is_exit_2(self, tmp_path, monkeypatch, capsys, where):
        """A mesh or sample grid too large for memory is a usage error: one
        line on stderr, no traceback.  The MemoryError is synthetic."""
        def too_large(*a, **k):
            raise MemoryError("Unable to allocate 298. GiB for an array")
        monkeypatch.setattr(cli, where, too_large)
        rc = cli.main(["--benchmark", "strip", "--elements-per-side", "2",
                       "--sample-density", "3", "--outdir", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("out of memory: Unable to allocate 298. GiB")
        assert err.count("\n") == 1
        assert (tmp_path / "report.csv").exists() == (where == "write_field")
        assert not (tmp_path / "field.dat").exists()

    def test_request_estimate_counts_the_band_and_the_sample(self):
        """The 128x64 hypar has 130 x 66 control points, 25 740 dofs and the
        half-bandwidth 3 (2 * 66 + 2) + 2 = 404; a 20 x 20 sample adds 400
        rows of 15 floats and 4 grid floats each."""
        hypar = cases.make_case("hypar")
        assert cli.request_bytes(hypar, (128, 64), None) == 8 * 25740 * 405
        assert (cli.request_bytes(hypar, (128, 64), 20)
                == 8 * 25740 * 405 + 8 * 19 * 400)

    @pytest.mark.parametrize("argv", [
        ["--benchmark", "hypar", "--levels", "4"],
        ["--benchmark", "hypar", "--elements-per-side", "16"],
        ["--benchmark", "strip", "--elements-per-side", "2", "--sample-density", "1000"],
    ], ids=["levels", "elements-per-side", "sample-density"])
    def test_request_above_the_ceiling_is_exit_2_before_meshing(
            self, argv, tmp_path, monkeypatch, capsys):
        """With the ceiling at the 8x4 hypar's estimate, a finer finest mesh
        or a large sample grid is refused in one line before any mesh is
        built or any directory made."""
        def unreachable(*a, **k):
            raise AssertionError("meshed despite a refused request")
        ceiling = cli.request_bytes(cases.make_case("hypar"), (8, 4), None)
        monkeypatch.setattr(cli, "MEMORY_CEILING", ceiling)
        monkeypatch.setattr(cases, "make_uniform", unreachable)
        out = tmp_path / "out"
        assert cli.main([*argv, "--outdir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("klshell: error: request too large: about ")
        assert f"above the {ceiling / 1e9:.3g} GB ceiling" in err
        assert err.count("\n") == 1
        assert not out.exists()

    def test_request_at_the_ceiling_runs(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "MEMORY_CEILING",
                            cli.request_bytes(cases.make_case("hypar"), (8, 4), None))
        assert cli.main(["--benchmark", "hypar", "--levels", "3",
                         "--outdir", str(tmp_path)]) == 0

    @pytest.mark.parametrize("argv", [
        ["--benchmark", "hypar", "--levels", "12"],
        ["--benchmark", "hemisphere", "--elements-per-side", "100000"],
        ["--benchmark", "strip", "--levels", "2", "--sample-density", "200000"],
        ["--benchmark", "strip", "--levels", str(10 ** 18)],
        ["--benchmark", "hypar", "--elements-per-side", str(10 ** 400)],
    ], ids=["hypar-4096x2048", "hemisphere-1e5", "density-2e5", "levels-1e18",
            "elements-1e400"])
    def test_oversized_request_is_exit_2_at_the_real_ceiling(self, argv, tmp_path,
                                                             monkeypatch, capsys):
        """Requests far beyond memory stop at the estimate, which stays
        cheap for any level count or element count."""
        def unreachable(*a, **k):
            raise AssertionError("meshed despite a refused request")
        monkeypatch.setattr(cases, "make_uniform", unreachable)
        assert cli.main([*argv, "--outdir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("klshell: error: request too large: about ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("name", ["report.csv", "field.dat"])
    def test_unwritable_output_is_exit_2(self, tmp_path, capsys, name):
        """An output file that cannot be opened (a directory of its name is
        in the way) is a usage error: one line on stderr naming the path."""
        (tmp_path / name).mkdir()
        rc = cli.main(["--benchmark", "strip", "--levels", "1",
                       "--sample-density", "3", "--outdir", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"cannot write to {tmp_path}: ")
        assert str(tmp_path / name) in err
        assert err.count("\n") == 1
        assert (tmp_path / "report.csv").is_file() == (name == "field.dat")

    def test_os_error_in_the_solve_is_exit_2(self, tmp_path, monkeypatch, capsys):
        """The writes' handler covers the solve: an OS error there ends the
        run with one stderr line carrying the error, and no output."""
        def denied(*a, **k):
            raise PermissionError(13, "Permission denied", "/synthetic")
        monkeypatch.setattr(cli, "run_convergence", denied)
        assert cli.main(["--benchmark", "strip", "--outdir", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == (f"cannot write to {tmp_path}: "
                                "[Errno 13] Permission denied: '/synthetic'\n")
        assert captured.out == ""
        assert not (tmp_path / "report.csv").exists()


def log_uniform(lo, hi):
    """Floats whose log10 is uniform on [lo, hi]; the ends are `example`s."""
    return st.floats(lo, hi).map(lambda e: 10.0 ** e)


MESH = st.one_of(st.tuples(st.just("--levels"), st.integers(1, 3)),
                 st.tuples(st.just("--elements-per-side"), st.integers(1, 9)))
CLI_ARGS = st.tuples(st.sampled_from(list(BENCHMARKS)), st.sampled_from([CS, CAS]),
                     st.sampled_from(QUAD_ORDERS), MESH,
                     st.one_of(st.none(), st.integers(1, 6)),
                     st.one_of(log_uniform(-110, 110), log_uniform(-1, 7)))


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(CLI_ARGS)
@example(("strip", CAS, 3, ("--levels", 1), None, 1e-110))
@example(("hypar", CS, 2, ("--elements-per-side", 2), 2, 1e110))
@example(("hemisphere", CAS, 2, ("--levels", 1), None, 1e-1))
@example(("scordelis", CS, 3, ("--elements-per-side", 3), 1, 1e7))
def test_every_input_returns_0_2_or_3(args):
    """Over benchmark, element, quadrature, small meshes, an optional sample
    grid and slenderness from 1e-110 to 1e110, ``cli.main`` returns 0, 2 or
    3.  Exit 2 or 3 prints exactly one stderr line, and exit 2 makes no
    --outdir; exit 0 writes one row per level, every non-empty cell finite,
    and prints nothing on stderr but floor notices."""
    benchmark, element, quad, (mesh_flag, n), density, slenderness = args
    argv = ["--benchmark", benchmark, "--element", element, "--quad", str(quad),
            mesh_flag, str(n), "--slenderness", repr(slenderness)]
    if density is not None:
        argv += ["--sample-density", str(density)]
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = cli.main([*argv, "--outdir", str(out)])
        err = err.getvalue()
        assert rc in (0, 2, 3)
        if rc:
            assert err.count("\n") == 1 and err.endswith("\n"), err
            assert rc == 3 or not out.exists()
            return
        assert all(" accepted at the evaluation floor " in line
                   for line in err.splitlines()), err
        with open(out / "report.csv", newline="") as f:
            header, *rows = csv.reader(f)
    assert header == list(REPORT_COLUMNS)
    assert len(rows) == (n if mesh_flag == "--levels" else 1)
    assert all(math.isfinite(float(cell)) for row in rows for cell in row if cell)


class TestModuleEntryPoint:
    """``python -m klshell`` in a fresh interpreter, with PYTHONPATH=src."""

    @staticmethod
    def run(args, cwd):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": src}
        return subprocess.run([sys.executable, "-m", "klshell", *args], cwd=cwd, env=env,
                              capture_output=True, text=True, timeout=300)

    def test_sweep_exits_0_and_writes_the_report(self, tmp_path):
        proc = self.run(["--benchmark", "strip", "--element", "cas", "--levels", "2"],
                        tmp_path)
        assert proc.returncode == 0, proc.stderr
        header = (tmp_path / "report.csv").read_text().split("\n")[0]
        assert header == ",".join(REPORT_COLUMNS)

    def test_usage_error_exits_2(self, tmp_path):
        proc = self.run(["--benchmark", "strip", "--levels", "0"], tmp_path)
        assert proc.returncode == 2
        assert proc.stderr == "klshell: error: argument --levels: 0 is not >= 1\n"
        assert proc.stdout == ""
        assert not (tmp_path / "report.csv").exists()

    def test_help_exits_0_through_argparse(self, tmp_path, monkeypatch, capsys):
        """--help is the one way out of ``cli.main`` that is not a return."""
        monkeypatch.setenv("COLUMNS", "80")  # the same wrapping in both processes
        proc = self.run(["--help"], tmp_path)
        assert proc.returncode == 0 and proc.stderr == ""
        with pytest.raises(SystemExit) as exc:
            cli.main(["--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out == proc.stdout
        assert proc.stdout.startswith("usage: klshell [-h] --benchmark {strip,hemisphere,")
