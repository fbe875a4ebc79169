#!/usr/bin/env python3
"""Run the four benchmark convergence sweeps and write one CSV per sweep.

Writes results/<benchmark>_<kind>_q<n>_s<slenderness>.csv.  Levels are kept
moderate by default; pass --full for the fine-mesh sweeps used in the
reference-deflection checks (slow).
"""

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from klshell.cases import make_case, run_convergence, write_report_csv

SWEEPS = {
    "strip": [1e1, 1e2, 1e3],
    "hemisphere": [2.5e2, 2.5e3, 2.5e4],
    "scordelis": [1e2, 1e3],
    "hypar": [1e2, 1e3, 1e4],
}

LEVELS = {"strip": 8, "hemisphere": 5, "scordelis": 4, "hypar": 6}
LEVELS_FULL = {"strip": 8, "hemisphere": 7, "scordelis": 6, "hypar": 8}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--outdir", default="results")
    ap.add_argument("--element", default="cas", choices=["cs", "cas"])
    ap.add_argument("--quad", type=int, default=3, choices=[2, 3])
    ap.add_argument("--full", action="store_true")
    args = ap.parse_args()
    os.makedirs(args.outdir, exist_ok=True)
    levels = LEVELS_FULL if args.full else LEVELS

    for case_id, slendernesses in SWEEPS.items():
        for s in slendernesses:
            case = make_case(case_id, slenderness=s)
            t0 = time.perf_counter()
            results = run_convergence(case, args.element, args.quad,
                                      levels[case_id])
            name = f"{case_id}_{args.element}_q{args.quad}_s{s:g}.csv"
            write_report_csv(results, os.path.join(args.outdir, name))
            last = results[-1]
            norm = ("" if last.normalized is None
                    else f" normalized {last.normalized:.5f}")
            print(f"{name}: {len(results)} levels, finest deflection "
                  f"{last.deflection:+.6e}{norm} "
                  f"[{time.perf_counter() - t0:.1f}s]")


if __name__ == "__main__":
    main()
