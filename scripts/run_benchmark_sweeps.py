#!/usr/bin/env python3
"""Run the four benchmark convergence sweeps through the command line.

One sweep is one benchmark at one of its published slendernesses, run as
one ``klshell.cli.main`` call that writes
results/<benchmark>_<element>_q<n>_s<slenderness>/report.csv.  The sweep's
name is printed before its level lines; the first sweep whose ``cli.main``
returns non-zero stops the run with its code.  Usage errors that ``cli.main``
reports through argparse (an --element or --quad it does not offer, an
--outdir it cannot create) leave as its ``SystemExit(2)`` with klshell's usage
text.  Levels are kept moderate by default; pass --full for the fine-mesh
sweeps used in the reference-deflection checks (slow).
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from klshell import cli
from klshell.cases import REFERENCES

LEVELS = {"strip": 8, "hemisphere": 5, "scordelis": 4, "hypar": 6}
LEVELS_FULL = {"strip": 8, "hemisphere": 7, "scordelis": 6, "hypar": 8}


def main(argv=None) -> int:
    klshell = cli.build_parser()
    ap = argparse.ArgumentParser()
    ap.add_argument("--outdir", default="results")
    ap.add_argument("--element", default=klshell.get_default("element"))
    ap.add_argument("--quad", type=int, default=klshell.get_default("quad"))
    ap.add_argument("--full", action="store_true")
    args = ap.parse_args(argv)
    levels = LEVELS_FULL if args.full else LEVELS

    for benchmark, references in REFERENCES.items():
        for s in references:
            name = f"{benchmark}_{args.element}_q{args.quad}_s{s:g}"
            print(name, flush=True)
            rc = cli.main(["--benchmark", benchmark, "--element", args.element,
                           "--quad", str(args.quad), "--slenderness", repr(s),
                           "--levels", str(levels[benchmark]),
                           "--outdir", os.path.join(args.outdir, name)])
            if rc:
                return rc
    return 0


if __name__ == "__main__":
    sys.exit(main())
