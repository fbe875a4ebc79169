"""Command-line driver: run one benchmark mesh or a convergence sweep.

Writes ``report.csv`` (one row per refinement level) and optionally
``field.dat`` (sampled displacements and resultants), then prints a one-line
summary per level.  ``main`` returns its exit code (only ``--help`` exits,
with 0, through argparse), one rule per code:

- 0: every output written; each level accepted at its evaluation floor
  adds a notice on stderr.
- 2: one stderr line.  ``klshell: error:`` for a refused request, before
  any directory is made: argparse's usage errors, a slenderness the case
  rejects and an estimate above ``MEMORY_CEILING``.  ``out of memory:`` for
  a ``MemoryError``; ``cannot write to <outdir>:`` for any ``OSError``, an
  ``--outdir`` that cannot be made and an unwritable output among them.
- 3: one ``numerical failure:`` line, for a failed solve or field sample.
"""

from __future__ import annotations

import argparse
import os
import sys

from .cases import BENCHMARKS, make_case, run_convergence, solve_case, write_report_csv
from .elements import CAS, CS, QUAD_ORDERS
from .errors import (IndefiniteSystemError, NumericalError,
                     SingularGeometryError, SingularSystemError)
from .fields import write_field
from .solver import RESIDUAL_RTOL


# Four times criterion 2's largest measured peak RSS, 948 MB for the 256x128
# hypar at L/t 1e4, which ``request_bytes`` estimates at 635 MB.
MEMORY_CEILING = 4 * 948_000_000


def request_bytes(case, mesh: tuple[int, int], density: int | None) -> int:
    """Estimated bytes of ``case`` on ``mesh`` with a density^2 sample grid:
    the factor's band, 8 n (bw + 1) for n = 3 n_cp dofs and bw = 3 (p_u n_v
    + p_v) + 2 on the control grid (n_u, n_v) = mesh + (p_u, p_v), plus 19
    floats per sample point, its row of 15 and 4 of parameter grids.  Sides
    past 2**62 elements, far above any ceiling, count as 2**62."""
    pu, pv = case.surface.kv_u.degree, case.surface.kv_v.degree
    nu, nv = min(mesh[0], 2 ** 62) + pu, min(mesh[1], 2 ** 62) + pv
    return 8 * 3 * nu * nv * (3 * (pu * nv + pv) + 3) + 8 * 19 * (density or 0) ** 2


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
    p.add_argument("--benchmark", required=True, choices=BENCHMARKS)
    p.add_argument("--element", default=CAS, choices=(CS, CAS))
    p.add_argument("--quad", type=int, default=3, choices=QUAD_ORDERS,
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

    def refuse(message):  # to main's one handler, not argparse's usage and exit
        raise ValueError(message)
    p.error = refuse
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        case = make_case(args.benchmark, slenderness=args.slenderness)
        # not a parser default: argparse would take `--levels 5`, the cached int
        # object of a default 5, as not given and let --elements-per-side join it
        levels = args.levels or 5
        # the finest mesh; past 64 levels every case is far above the ceiling
        finest = (case.mesh_at_level(min(levels, 64) - 1) if args.elements_per_side is None
                  else case.mesh_per_side(args.elements_per_side))
        need = request_bytes(case, finest, args.sample_density)
        if need > MEMORY_CEILING:
            raise ValueError(f"request too large: about {need / 1e9:.3g} GB estimated, "
                             f"above the {MEMORY_CEILING / 1e9:.3g} GB ceiling; ask for "
                             "fewer elements or a smaller --sample-density")
    except ValueError as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 2
    try:
        os.makedirs(args.outdir, exist_ok=True)
        if args.elements_per_side is not None:
            results = [solve_case(case, finest, args.element, args.quad)]
        else:
            results = run_convergence(case, args.element, args.quad, levels)
        write_report_csv(results, os.path.join(args.outdir, "report.csv"))
        if args.sample_density is not None:
            last = results[-1]
            header = {"benchmark": case.id, "element": args.element,
                      "mesh": f"{last.mesh[0]}x{last.mesh[1]}",
                      "slenderness": format(case.slenderness, ".17g")}
            write_field(last.solution, os.path.join(args.outdir, "field.dat"),
                        header, density=args.sample_density)
    except (NumericalError, SingularSystemError, IndefiniteSystemError,
            SingularGeometryError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"out of memory: {str(exc) or 'an allocation failed'}; ask for fewer "
              "elements or a smaller --sample-density", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"cannot write to {args.outdir}: {exc}", file=sys.stderr)
        return 2

    for level, res in enumerate(results):
        norm = "" if res.normalized is None else f"  norm {res.normalized:+.5f}"
        print(f"level {level}  elems {res.mesh[0]}x{res.mesh[1]}"
              f"  dofs {res.n_dof}  deflection {res.deflection:+.6e}"
              f"{norm}  [{res.wall_s:.2f}s]")
        if res.trace.reason == "floor":
            print(f"level {level} accepted at the evaluation floor {res.trace.floor:.1e}: "
                  f"residual {res.trace.residual:.1e} > rtol {RESIDUAL_RTOL:.0e}",
                  file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
