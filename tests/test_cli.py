"""Command-line driver: outputs, determinism, exit codes."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import klshell.cases as cases
import klshell.cli as cli
from klshell.cases import REPORT_COLUMNS
from klshell.errors import NumericalError
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
    def test_reported_on_stderr_only(self, tmp_path, capsys, slenderness, at_floor):
        rc = cli.main(["--benchmark", "hypar", "--element", "cas",
                       "--slenderness", slenderness, "--elements-per-side", "32",
                       "--outdir", str(tmp_path)])
        assert rc == 0
        captured = capsys.readouterr()
        line = "level 0 accepted at the evaluation floor: residual "
        assert (line in captured.err) == at_floor
        assert ("> rtol 1e-10" in captured.err) == at_floor
        assert "evaluation floor" not in captured.out
        header, row = (tmp_path / "report.csv").read_text().strip().split("\n")
        assert header == ",".join(REPORT_COLUMNS)
        assert len(row.split(",")) == len(REPORT_COLUMNS)


class TestExitCodes:
    def test_usage_error_is_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--benchmark", "nosuch"])
        assert exc.value.code == 2

    def test_conflicting_flags(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--benchmark", "strip", "--levels", "2",
                      "--elements-per-side", "4"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["--elements-per-side", "0"],
        ["--elements-per-side", "-3"],
        ["--slenderness", "0"],
        ["--slenderness", "-5"],
        ["--slenderness", "nan"],
        ["--slenderness", "inf"],
        ["--slenderness", "1e-300"],
        ["--slenderness", "1e300"],
        ["--sample-density", "-2"],
        ["--levels", "0"],
    ])
    def test_bad_value_is_exit_2_before_solving(self, argv, tmp_path):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            cli.main(["--benchmark", "strip", *argv, "--outdir", str(out)])
        assert exc.value.code == 2
        assert not out.exists()

    @pytest.mark.parametrize("below", ["", "sub"], ids=["file", "below-file"])
    def test_outdir_on_a_file_is_exit_2_before_solving(self, tmp_path, monkeypatch,
                                                       below):
        def unreachable(*a, **k):
            raise AssertionError("solved despite an unusable --outdir")
        monkeypatch.setattr(cli, "run_convergence", unreachable)
        blocker = tmp_path / "file"
        blocker.write_text("kept")
        with pytest.raises(SystemExit) as exc:
            cli.main(["--benchmark", "strip", "--outdir", str(blocker / below)])
        assert exc.value.code == 2
        assert blocker.read_text() == "kept"

    def test_numerical_failure_is_exit_3(self, tmp_path, monkeypatch, capsys):
        def boom(*a, **k):
            raise NumericalError("synthetic failure")
        monkeypatch.setattr(cli, "run_convergence", boom)
        rc = cli.main(["--benchmark", "strip", "--levels", "2",
                       "--outdir", str(tmp_path)])
        assert rc == 3
        assert "synthetic failure" in capsys.readouterr().err


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
        assert err.startswith("request too large: about ")
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
        assert capsys.readouterr().err.startswith("request too large: about ")

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
        assert proc.stderr.startswith("usage: klshell")
        assert not (tmp_path / "report.csv").exists()
