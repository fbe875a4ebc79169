"""Command-line driver: run one benchmark mesh or a convergence sweep.

Writes ``report.csv`` (one row per refinement level) and optionally
``field.dat`` (sampled displacements and resultants), printing a one-line
summary per level.  Exit codes: 0 success, 2 usage error (a mesh or sample
grid too large for memory, or an output file that cannot be written, among
them), 3 numerical failure.
"""

from __future__ import annotations

import argparse
import os
import sys

from .cases import make_case, run_convergence, solve_case, write_report_csv
from .errors import (IndefiniteSystemError, NumericalError,
                     SingularGeometryError, SingularSystemError)
from .fields import write_field
from .solver import RESIDUAL_RTOL


def count(text: str) -> int:
    """An element, level or sample count: an integer >= 1."""
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"{text} is not >= 1")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="klshell",
        description="Kirchhoff-Love shell benchmarks with quadratic NURBS "
                    "cs/cas elements")
    p.add_argument("--benchmark", required=True,
                   choices=["strip", "hemisphere", "scordelis", "hypar"])
    p.add_argument("--element", default="cas", choices=["cs", "cas"])
    p.add_argument("--quad", type=int, default=3, choices=[2, 3],
                   help="Gauss points per direction")
    p.add_argument("--slenderness", type=float,
                   help="R/t (L/t for the hypar); the case's default if omitted")
    g = p.add_mutually_exclusive_group()
    g.add_argument("--levels", type=count, default=None,
                   help="number of uniform refinement levels to sweep")
    g.add_argument("--elements-per-side", type=count, default=None,
                   help="solve a single uniform mesh with this many elements "
                        "per side instead of sweeping levels")
    p.add_argument("--sample-density", type=count, default=None,
                   help="write field.dat sampled on this parametric grid")
    p.add_argument("--outdir", default=".")
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        case = make_case(args.benchmark, slenderness=args.slenderness)
        os.makedirs(args.outdir, exist_ok=True)
    except (ValueError, OSError) as exc:
        parser.error(str(exc))

    try:
        if args.elements_per_side is not None:
            results = [solve_case(case, case.mesh_per_side(args.elements_per_side),
                                  args.element, args.quad)]
        else:
            levels = args.levels if args.levels is not None else 5
            results = run_convergence(case, args.element, args.quad, levels)
    except (NumericalError, SingularSystemError, IndefiniteSystemError,
            SingularGeometryError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        return out_of_memory(exc)

    for level, res in enumerate(results):
        norm = "" if res.normalized is None else f"  norm {res.normalized:+.5f}"
        print(f"level {level}  elems {res.mesh[0]}x{res.mesh[1]}"
              f"  dofs {res.n_dof}  deflection {res.deflection:+.6e}"
              f"{norm}  [{res.wall_s:.2f}s]")
        if res.trace.reason == "floor":
            print(f"level {level} accepted at the evaluation floor: "
                  f"residual {res.trace.residual:.1e} > rtol {RESIDUAL_RTOL:.0e}",
                  file=sys.stderr)

    try:
        write_report_csv(results, os.path.join(args.outdir, "report.csv"))
        if args.sample_density is not None:
            last = results[-1]
            header = {"benchmark": case.id, "element": args.element,
                      "mesh": f"{last.mesh[0]}x{last.mesh[1]}",
                      "slenderness": format(case.slenderness, ".17g")}
            write_field(last.solution, os.path.join(args.outdir, "field.dat"),
                        header, density=args.sample_density)
    except MemoryError as exc:
        return out_of_memory(exc)
    except OSError as exc:
        print(f"cannot write to {args.outdir}: {exc}", file=sys.stderr)
        return 2
    return 0


def out_of_memory(exc: MemoryError) -> int:
    """Report a mesh or sample grid too large for memory: exit 2."""
    print(f"out of memory: {str(exc) or 'an allocation failed'}; ask for fewer "
          "elements or a smaller --sample-density", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
