"""Pin the reference outputs that the benchmark's output checks compare against.

Run from the repository root, at a commit whose results are known to be right:

    python3 perfbench/pin.py [workload ...]

Runs every operation of the named workloads (all of them by default) once
through ``klshell.cli.main`` and stores its output files in
``perfbench/reference/<operation label>/``.
"""

from __future__ import annotations

import os
import sys

from run import REFERENCE, THREAD_VARS, THREADS, import_cli, run_op
from workloads import WORKLOADS


def main(names: list[str]) -> int:
    for var in THREAD_VARS:
        os.environ[var] = str(THREADS)
    cli = import_cli()
    for workload in names or WORKLOADS:
        for op in WORKLOADS[workload]:
            seconds, code, files = run_op(cli.main, op, REFERENCE / op.label)
            if code != 0 or sorted(files) != sorted(op.outputs):
                print(f"{op.label}: exit code {code}, wrote {sorted(files)}",
                      file=sys.stderr)
                return 1
            print(f"{op.label}: pinned in {seconds:.2f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
