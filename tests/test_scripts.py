"""Smoke runs of the command-line scripts under scripts/ on their coarsest meshes."""

import importlib.util
import math
import os
import sys

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
    sweeps = {case_id: values[:1] for case_id, values in script.SWEEPS.items()}
    monkeypatch.setattr(script, "SWEEPS", sweeps)
    monkeypatch.setattr(script, "LEVELS", dict.fromkeys(sweeps, 1))
    monkeypatch.setattr(sys, "argv", ["run_benchmark_sweeps.py", "--outdir", str(tmp_path)])
    script.main()
    out = capsys.readouterr().out
    for case_id, (s,) in sweeps.items():
        name = f"{case_id}_cas_q3_s{s:g}.csv"
        header, row = (tmp_path / name).read_text().strip().split("\n")
        assert header == ",".join(REPORT_COLUMNS)
        assert len(row.split(",")) == len(REPORT_COLUMNS)
        assert f"{name}: 1 levels, finest deflection " in out


def test_roof_table_prints_every_slenderness_and_element(monkeypatch, capsys):
    script = load_script("reproduce_roof_table", monkeypatch)
    monkeypatch.setattr(script, "MESHES", [2])
    script.main()
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0].split() == ["R/t", "type", "2"]
    assert [line.split()[:2] for line in lines[1:]] == [
        ["100", "cs"], ["100", "cas"], ["1000", "cs"], ["1000", "cas"]]
    assert all(math.isfinite(float(line.split()[2])) for line in lines[1:])
