"""Benchmark klshell end to end, in process, through ``klshell.cli.main``.

Run from the repository root:

    python3 perfbench/run.py --workload strip-convergence --seed 1 --seconds 30 --trace 0

One repetition runs every operation of the workload (one ``cli.main`` call
each, the same path as ``python -m klshell``) in an order drawn from the
seed, writes into a scratch outdir under ``.perfbench_out/`` and checks every
output file against the values pinned in ``perfbench/reference/``.
Repetitions continue while another one fits in ``--seconds``.

Every timed call is bracketed by samples of a kernel of fixed work (see
``speed.py``) and its seconds are scaled to the kernel's reference speed, so
that the host's changes of speed do not show as changes of the program.

``--trace 0`` prints the end-to-end metrics, measured with tracing off:

* ``wall_s``      median seconds of one repetition (``cli.main`` calls
                  only), at the reference speed;
* ``setup_s``     median seconds, over at least five fresh interpreters (one
                  before each repetition, the rest after the last), to
                  import klshell and build the four benchmark cases, at the
                  reference speed;
* ``peak_rss_mb`` peak resident memory of this process;
* ``ok_frac``     operations that exited 0 with correct outputs / attempted.

``--trace 1`` alternates untraced and traced repetitions and prints the
per-layer metrics of the traced ones (see ``tracer.py``), with the tracing
overhead and a check that traced outputs are byte-identical to untraced ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A record of the run
(environment, seed, orders, repetition times, spans) is written to
``.perfbench_out/<workload>-seed<seed>-trace<0|1>.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import check
import speed
import tracer
from workloads import WARMUP, WORKLOADS, Op, orders

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference"
OUT = ROOT / ".perfbench_out"

# BLAS/OpenMP threads of this process and of the set-up interpreters; 1 is
# at or below any machine's core count and keeps BLAS from competing for cores.
THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 5

SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import klshell.cli
from klshell.cases import make_case
for benchmark in ("strip", "hemisphere", "scordelis", "hypar"):
    make_case(benchmark)
print(repr(time.perf_counter() - t0))
"""

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
              ("ok_frac", "ratio"))

# Per-layer metrics: ``<span>.s`` is the seconds inside a span name per
# repetition, ``<span>.self_s`` that minus the seconds in its child spans.
INCLUSIVE = ("cli.main", "solver.solve_spd", "solver.relative_residual",
             "elements.assemble", "elements.Patch", "elements.apply_constraints",
             "cases.build_loads", "nurbs.make_uniform", "fields.l2_resultant_error",
             "fields.energies", "fields.displacement_at", "fields.write_field",
             "cli.write_report_csv")
SELF = ("cli.main", "cases.run_convergence", "cases.solve_case",
        "solver.solve_spd", "fields.write_field")
COUNTS = (("solver.triangular_solves", "count"), ("solver.nnz_LU", "count"),
          ("solver.n_dof", "count"), ("solver.nnz_K", "count"),
          ("elements.assemble.elements", "count"),
          ("elements.assemble.coo_bytes", "bytes"),
          ("fields.write_field.points", "count"))
PER_LAYER = (
    *((f"{name}.s", "s") for name in INCLUSIVE),
    *((f"{name}.self_s", "s") for name in SELF),
    ("solver.factor_s", "s"), ("solver.factorizations", "count"),
    ("solver.failed", "count"), ("elements.assemble.calls", "count"),
    ("nurbs.make_uniform.calls", "count"), *COUNTS,
    ("speed.kernel_s", "s"), ("trace.overhead_s", "s"),
)


def measure_setup(n: int) -> list[tuple[float, float]]:
    """Seconds to import klshell and build the cases, in ``n`` fresh interpreters.

    Returns (seconds at the reference speed, raw seconds) per interpreter.
    """
    samples = []
    clock = speed.Clock()
    for _ in range(n):
        done = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        raw = float(done.stdout.split()[-1])
        samples.append((clock.scale(raw), raw))
    return samples


def import_cli():
    """Import ``klshell.cli`` from this checkout's ``src``, not from anywhere else."""
    sys.path.insert(0, str(SRC))
    import klshell.cli
    if Path(klshell.cli.__file__).resolve().parent != (SRC / "klshell").resolve():
        raise ImportError(f"klshell imported from {klshell.cli.__file__}, not {SRC}")
    return klshell.cli


def environment() -> dict:
    import numpy
    import scipy

    def blas(module):
        try:
            info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
            return f"{info['name']} {info['version']}"
        except (TypeError, KeyError, AttributeError):
            return "unknown"

    cpu = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "numpy_blas": blas(numpy),
            "scipy": scipy.__version__, "scipy_blas": blas(scipy),
            "threads": {v: os.environ.get(v) for v in THREAD_VARS}}


def run_op(main, op: Op, outdir: Path, trace: tracer.Tracer | None = None):
    """Run one operation; return (seconds in ``main``, exit code, {file: bytes})."""
    shutil.rmtree(outdir, ignore_errors=True)
    argv = [*op.argv, "--outdir", str(outdir)]
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            if trace is None:
                code = main(argv)
            else:
                trace.op = op.label
                code = trace.call("cli.main", main, argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:
        traceback.print_exc()
        code = 1
    seconds = time.perf_counter() - t0
    files = {name: (outdir / name).read_bytes()
             for name in op.outputs if (outdir / name).is_file()}
    return seconds, code, files


class Run:
    """Repetitions of one workload, with their failures and output checks."""

    def __init__(self, workload: str, seed: int, main, outdir: Path):
        self.ops = WORKLOADS[workload]
        self.orders = orders(len(self.ops), seed)
        self.main = main
        self.outdir = outdir
        self.first: dict[str, dict[str, bytes]] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reps: list[dict] = []

    def rep(self, trace: tracer.Tracer | None = None) -> float:
        """Run every operation once; return the seconds spent in ``cli.main``
        at the reference speed."""
        order = next(self.orders)
        clock = speed.Clock()
        total = raw = 0.0
        for i in order:
            op = self.ops[i]
            seconds, code, files = run_op(self.main, op, self.outdir / op.label, trace)
            total += clock.scale(seconds)
            raw += seconds
            problems = [] if code == 0 else [f"exit code {code}"]
            problems += check.check_op(op, files, REFERENCE)
            first = self.first.setdefault(op.label, files)
            problems += [f"{name} is not byte-identical to the first repetition's"
                         for name in op.outputs if files.get(name) != first.get(name)]
            self.attempted += 1
            if problems:
                self.failed += 1
                self.problems += [f"{op.label}: {p}" for p in problems]
            # free the operation's cyclic garbage now, as its process exit
            # would, so the next operation's peak memory does not include it
            gc.collect()
        self.reps.append({"order": [self.ops[i].label for i in order],
                          "seconds": total, "raw_seconds": raw,
                          "kernel_s": clock.samples, "traced": trace is not None})
        return total


def repeat(seconds: float, step) -> list[float]:
    """Call ``step`` at least once, and again while another call fits in
    ``seconds``; return what the calls returned."""
    t_start = time.perf_counter()
    values, took = [], []
    while not took or time.perf_counter() - t_start + statistics.median(took) <= seconds:
        t0 = time.perf_counter()
        values.append(step())
        took.append(time.perf_counter() - t0)
    return values


def layer_metrics(trace: tracer.Tracer, problems: list[str]) -> dict[str, float]:
    """Per-layer metrics of one traced repetition."""
    incl, own, calls = tracer.summarize(trace.spans)
    total = incl.get("cli.main", 0.0)
    if abs(sum(own.values()) - total) > 1e-9 * max(total, 1.0):
        problems.append(f"self times sum to {sum(own.values())!r}, "
                        f"not cli.main.s {total!r}")
    m = {f"{name}.s": incl.get(name, 0.0) for name in INCLUSIVE}
    m.update({f"{name}.self_s": own.get(name, 0.0) for name in SELF})
    m["solver.factor_s"] = incl.get("solver.factor", 0.0)
    m["solver.factorizations"] = calls.get("solver.factor", 0)
    m["solver.failed"] = trace.counts.get("solver.solve_spd.raised", 0)
    m["elements.assemble.calls"] = calls.get("elements.assemble", 0)
    m["nurbs.make_uniform.calls"] = calls.get("nurbs.make_uniform", 0)
    m.update({name: trace.counts.get(name, 0) for name, _ in COUNTS})
    return m


def traced_run(run: Run, seconds: float, record: dict) -> dict[str, float]:
    """Alternate untraced and traced repetitions; return the median layer metrics."""
    untraced, traced, layers, spans = [], [], [], []

    def traced_rep() -> float:
        trace = tracer.Tracer()
        patched = tracer.install(trace)
        try:
            seconds = run.rep(trace)
        finally:
            tracer.restore(patched)
        left = tracer.leftover_wrappers()
        if left:
            run.problems.append(f"wrappers left after the traced run: {left}")
        traced.append(seconds)
        layers.append(layer_metrics(trace, run.problems))
        spans.extend([s.name, s.start, s.end, s.parent, s.op] for s in trace.spans)
        return seconds

    def untraced_rep() -> float:
        seconds = run.rep()
        untraced.append(seconds)
        return seconds

    def pair() -> float:
        first, second = ((untraced_rep, traced_rep) if len(traced) % 2 == 0
                         else (traced_rep, untraced_rep))
        return first() + second()

    repeat(seconds, pair)
    record["spans"] = spans
    metrics = {name: statistics.median(m[name] for m in layers)
               for name in layers[0]}
    metrics["speed.kernel_s"] = statistics.median(
        k for rep in run.reps for k in rep["kernel_s"])
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    return metrics


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "klshell" / "cli.py").is_file():
        print(f"perfbench: no klshell sources under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = str(THREADS)

    cli = import_cli()
    setup: list[tuple[float, float]] = []
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "environment": environment(),
              "setup_s": setup}
    print("perfbench " + json.dumps({k: record[k] for k in
                                     ("workload", "seed", "trace", "environment")}))

    outdir = OUT / f"run-{os.getpid()}"
    run = Run(args.workload, args.seed, cli.main, outdir)
    try:
        for i, argv_ in enumerate(WARMUP):
            run_op(cli.main, Op("warmup", argv_, outputs=()), outdir / f"warmup{i}")
        if args.trace:
            metrics = traced_run(run, args.seconds, record)
            units = dict(PER_LAYER)
        else:
            def setup_then_rep() -> float:
                # set-up samples are spread over the run, because the
                # machine's speed changes over tens of seconds
                setup.extend(measure_setup(1))
                return run.rep()

            wall = repeat(args.seconds, setup_then_rep)
            setup.extend(measure_setup(max(1, SETUP_SAMPLES - len(setup))))
            metrics = {"wall_s": statistics.median(wall),
                       "setup_s": statistics.median(s for s, _ in setup),
                       "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                       "ok_frac": 1.0 - run.failed / run.attempted}
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)

    for problem in run.problems[:20]:
        print(f"perfbench: {problem}", file=sys.stderr)
    print("perfbench raw: " + json.dumps({
        "repetitions": len(run.reps),
        "rep_raw_s_median": statistics.median(r["raw_seconds"] for r in run.reps),
        "setup_raw_s_median": statistics.median(r for _, r in setup) if setup else None,
        "kernel_s_median": statistics.median(k for r in run.reps for k in r["kernel_s"]),
        "kernel_reference_s": speed.REFERENCE_S}))
    record.update(reps=run.reps, problems=run.problems, metrics=metrics)
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record), encoding="utf-8")
    print(json.dumps({
        "correct": run.failed == 0 and not run.problems,
        "attempted": run.attempted, "failed": run.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
