"""Smoke runs of the command-line scripts under scripts/ on their coarsest meshes."""

import importlib.util
import math
import os
import sys

import pytest

from klshell.cases import REPORT_COLUMNS

SCRIPTS = os.path.join(os.path.dirname(__file__), "..", "scripts")


def load_script(name, monkeypatch):
    """Import a script from its path; the src/ entry it adds to sys.path is
    undone after the test."""
    monkeypatch.setattr(sys, "path", sys.path[:])
    spec = importlib.util.spec_from_file_location(name, os.path.join(SCRIPTS, name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_sweeps_write_one_csv_per_sweep(tmp_path, monkeypatch, capsys):
    script = load_script("run_benchmark_sweeps", monkeypatch)
    sweeps = {case_id: dict(list(values.items())[:1])
              for case_id, values in script.REFERENCES.items()}
    monkeypatch.setattr(script, "REFERENCES", sweeps)
    monkeypatch.setattr(script, "LEVELS", dict.fromkeys(sweeps, 1))
    monkeypatch.setattr(sys, "argv", ["run_benchmark_sweeps.py", "--outdir", str(tmp_path)])
    assert script.main() == 0
    out = capsys.readouterr().out
    for case_id, (s,) in sweeps.items():
        name = f"{case_id}_cas_q3_s{s:g}"
        header, row = (tmp_path / name / "report.csv").read_text().strip().split("\n")
        assert header == ",".join(REPORT_COLUMNS)
        assert len(row.split(",")) == len(REPORT_COLUMNS)
        assert f"{name}\nlevel 0  elems " in out
    assert out.count("level ") == len(sweeps)


def test_benchmark_sweeps_stop_at_the_first_failing_sweep(tmp_path, monkeypatch, capsys):
    """The run ends with the exit code of the first sweep whose
    ``cli.main`` returns non-zero, and starts no sweep after it."""
    script = load_script("run_benchmark_sweeps", monkeypatch)
    calls = []

    def main(argv):
        calls.append(argv)
        return 3 if len(calls) == 2 else 0

    monkeypatch.setattr(script.cli, "main", main)
    assert script.main(["--outdir", str(tmp_path), "--element", "cs", "--quad", "2"]) == 3
    assert len(calls) == 2
    first, second = (dict(zip(argv[::2], argv[1::2])) for argv in calls)
    assert first == {"--benchmark": "strip", "--element": "cs", "--quad": "2",
                     "--slenderness": "10.0", "--levels": "8",
                     "--outdir": str(tmp_path / "strip_cs_q2_s10")}
    assert second["--slenderness"] == "100.0"
    assert capsys.readouterr().out == "strip_cs_q2_s10\nstrip_cs_q2_s100\n"


def test_benchmark_sweeps_leave_on_a_cli_usage_error(tmp_path, monkeypatch, capsys):
    """The script's --quad is checked by the CLI: a quadrature it does not
    offer ends the run with klshell's usage error, exit 2, before solving."""
    script = load_script("run_benchmark_sweeps", monkeypatch)
    with pytest.raises(SystemExit) as exc:
        script.main(["--outdir", str(tmp_path), "--quad", "5"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith("usage: klshell")
    assert not any(tmp_path.iterdir())


def test_roof_table_prints_every_slenderness_and_element(monkeypatch, capsys):
    script = load_script("reproduce_roof_table", monkeypatch)
    monkeypatch.setattr(script, "MESHES", [2])
    script.main()
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0].split() == ["R/t", "type", "2"]
    assert [line.split()[:2] for line in lines[1:]] == [
        ["100", "cs"], ["100", "cas"], ["1000", "cs"], ["1000", "cas"]]
    assert all(math.isfinite(float(line.split()[2])) for line in lines[1:])
