"""Self-tests of the benchmark: checker, seed order, tracer, BENCHMARK.json.

Run from the repository root:  python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import check
import run
import speed
import tracer
from workloads import WORKLOADS, orders

BENCHMARK_JSON = run.ROOT / "BENCHMARK.json"


@pytest.fixture(scope="module")
def cli():
    return run.import_cli()


def _ref(label: str, name: str = "report.csv") -> bytes:
    return (run.REFERENCE / label / name).read_bytes()


def _scale_column(report: bytes, column: str, factor: float, level: int | None = None) -> bytes:
    lines = report.decode("ascii").splitlines()
    col = check.COLUMNS.index(column)
    for i, line in enumerate(lines[1:], start=1):
        cells = line.split(",")
        if level is None or cells[0] == str(level):
            cells[col] = repr(float(cells[col]) * factor)
            lines[i] = ",".join(cells)
    return ("\n".join(lines) + "\n").encode("ascii")


def test_reference_passes_its_own_check():
    for ops in WORKLOADS.values():
        for op in ops:
            files = {name: _ref(op.label, name) for name in op.outputs}
            assert check.check_op(op, files, run.REFERENCE) == []


def test_checker_admits_refinement_shift_and_rejects_perturbed_deflection():
    ref = _ref("hypar-cas-1e4-n128")
    # the shift a floor-aware refinement stop moves a thin-shell solve by
    assert check.check_report(_scale_column(ref, "deflection", 1 + 5e-5), ref) == []
    # the 64x32 mesh's deflection (normalized 0.97200 instead of 0.99035)
    neighbour = _scale_column(ref, "deflection", 0.97200 / 0.99035)
    assert check.check_report(neighbour, ref)
    assert check.check_report(_scale_column(ref, "deflection", 1 + 1e-3), ref)


def test_checker_enforces_published_reference_on_finest_level():
    ref = _ref("strip-cas-1e3-l8")
    assert check.check_report(ref, ref, published_tol=2e-3) == []
    off = _scale_column(ref, "normalized", 1.003, level=7)
    assert check.check_report(off, off) == []
    assert check.check_report(off, off, published_tol=2e-3)


def test_checker_rejects_neighbouring_strip_level():
    ref = _ref("strip-cas-1e3-l8").decode("ascii").splitlines()
    level6 = ref[7].split(",")
    shifted = "\n".join(ref[:8] + [",".join(["7"] + level6[1:])]) + "\n"
    problems = check.check_report(shifted.encode("ascii"), "\n".join(ref).encode("ascii"))
    assert any("e_n11" in p for p in problems)


def test_checker_rejects_perturbed_field_sample():
    ref = _ref("hypar-cas-1e4-n32-d20", "field.dat").decode("ascii").splitlines()
    i = next(i for i, line in enumerate(ref) if not line.startswith("#"))
    cells = ref[i].split()
    cells[7] = repr(float(cells[7]) * 1.01 + 1e-3)          # uz
    bad = "\n".join(ref[:i] + [" ".join(cells)] + ref[i + 1:]) + "\n"
    problems = check.check_field(bad.encode("ascii"), "\n".join(ref).encode("ascii"))
    assert problems and "column 7" in problems[0]


def test_orders_depend_only_on_seed():
    a, b, c = orders(6, 1), orders(6, 1), orders(6, 2)
    first_a = [next(a) for _ in range(4)]
    assert first_a == [next(b) for _ in range(4)]
    assert first_a != [next(c) for _ in range(4)]
    assert all(sorted(o) == list(range(6)) for o in first_a)


def test_seed_order_leaves_outputs_unchanged(cli, tmp_path):
    runs = [run.Run("strip-convergence", seed, cli.main, tmp_path / str(seed))
            for seed in (1, 2)]
    for r in runs:
        r.rep()
        assert r.failed == 0 and r.problems == []
    assert runs[0].reps[0]["order"] != runs[1].reps[0]["order"]
    assert runs[0].first == runs[1].first


def _klshell_names():
    return {(m.__name__, name): value for m in tracer._klshell_modules()
            for name, value in vars(m).items()}


def test_traced_run_restores_names_and_matches_untraced_bytes(cli, tmp_path):
    before = _klshell_names()
    patch_init = sys.modules["klshell.elements"].Patch.__init__
    r = run.Run("strip-convergence", 3, cli.main, tmp_path)
    record = {}
    metrics = run.traced_run(r, 0.0, record)
    after = _klshell_names()
    assert before.keys() == after.keys()
    assert all(after[k] is v for k, v in before.items())
    assert sys.modules["klshell.elements"].Patch.__init__ is patch_init
    assert tracer.leftover_wrappers() == []
    # one untraced and one traced repetition, outputs byte-identical
    assert [rep["traced"] for rep in r.reps] == [False, True]
    assert r.failed == 0 and r.problems == []
    assert set(metrics) == {name for name, _ in run.PER_LAYER}
    assert metrics["solver.factorizations"] >= 48
    assert metrics["elements.assemble.calls"] == 48
    assert record["spans"]


def test_traced_spans_nest_and_count_solves(cli):
    trace = tracer.Tracer()
    patched = tracer.install(trace)
    try:
        case = cli.make_case("strip", slenderness=1e2)
        trace.call("cli.main", cli.solve_case, case, (4, 1), "cas", 3)
    finally:
        tracer.restore(patched)
    names = [s.name for s in trace.spans]
    assert names[0] == "cli.main" and "cases.solve_case" in names
    factor = names.index("solver.factor")
    assert names[trace.spans[factor].parent] == "solver.solve_spd"
    assert trace.counts["solver.triangular_solves"] >= 1
    assert trace.counts["solver.nnz_LU"] > 0


def test_clock_divides_by_the_kernel_slowdown(monkeypatch):
    slowdowns = [2.0, 4.0, 2.0, 6.0]
    samples = iter(slowdowns)
    monkeypatch.setattr(speed, "kernel_seconds",
                        lambda: next(samples) * speed.REFERENCE_S)
    clock = speed.Clock()
    # a short call: one sample after it; the median of (2, 4) is 3
    assert clock.scale(3.0) == pytest.approx(1.0)
    # a long call: samples until they take BLOCK_SHARE of it, here 2 and 6;
    # the median of (4, 2, 6) is 4
    long_call = 5.0 * speed.REFERENCE_S / speed.BLOCK_SHARE
    assert clock.scale(long_call) == pytest.approx(long_call / 4.0)
    assert clock.samples == pytest.approx([s * speed.REFERENCE_S for s in slowdowns])


def test_benchmark_json_matches_run():
    spec = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_exits_nonzero_without_program_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCHMARK_JSON, tmp_path / "BENCHMARK.json")
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "strip-convergence", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
