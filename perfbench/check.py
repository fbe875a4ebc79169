"""Output checks: compare an operation's files with values pinned at a known commit.

``RTOL`` is the relative tolerance on every float.  It has to admit the
~5e-5 relative shift that a floor-aware stop of iterative refinement moves a
thin-shell solve by (measured on the hemisphere at R/t 2.5e4), and it has to
reject the value of a neighbouring mesh level.  The closest neighbours among
the workloads are:

* hypar L/t 1e2, 64 vs 128 per side: normalized 0.99413 vs 0.99809, 4.0e-3
  apart (1e-2 at L/t 1e3, 1.9e-2 at L/t 1e4);
* strip level 6 vs 7 at R/t 1e3: deflections 6.5e-5 apart, but e_n11 and
  e_m11 differ by a factor of 2 to 3 and n_dof differs.

2e-4 leaves a factor of 4 above the shift and of 20 below the hypar
neighbours.  The strain energies Em, Eb and Et are compared against
``RTOL * Et``: Em of the bending-dominated strip is ~1e-7 of Et, so its own
digits are rounding noise.  Field samples are compared per column against
``RTOL`` times the column's largest magnitude.
"""

from __future__ import annotations

from pathlib import Path

RTOL = 2e-4
COLUMNS = ("level", "n_el_u", "n_el_v", "n_dof", "deflection", "normalized",
           "e_n11", "e_m11", "Em", "Eb", "Et")
INT_COLUMNS = ("level", "n_el_u", "n_el_v", "n_dof")
ENERGY_COLUMNS = ("Em", "Eb", "Et")
FIELD_COLUMNS = 15
PARAM_ATOL = 1e-12       # t1, t2: the sample grid itself


def _close(got: float, ref: float, tol: float) -> bool:
    return abs(got - ref) <= tol          # False for NaN


def _parse_report(text: str):
    lines = text.splitlines()
    if not lines or tuple(lines[0].split(",")) != COLUMNS:
        raise ValueError(f"header is not {','.join(COLUMNS)}")
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(COLUMNS):
            raise ValueError(f"row has {len(cells)} cells: {line!r}")
        rows.append(dict(zip(COLUMNS, cells)))
    return rows


def check_report(got: bytes, ref: bytes, published_tol: float | None = None) -> list[str]:
    """Problems of a ``report.csv`` against the pinned one (empty when it passes)."""
    try:
        got_rows = _parse_report(got.decode("ascii"))
        ref_rows = _parse_report(ref.decode("ascii"))
    except (UnicodeDecodeError, ValueError) as exc:
        return [f"report.csv: {exc}"]
    if len(got_rows) != len(ref_rows):
        return [f"report.csv: {len(got_rows)} rows, expected {len(ref_rows)}"]
    problems = []
    for g, r in zip(got_rows, ref_rows):
        where = f"report.csv level {r['level']}"
        for col in COLUMNS:
            if (g[col] == "") != (r[col] == ""):
                problems.append(f"{where} {col}: {g[col]!r}, expected {r[col]!r}")
                continue
            if r[col] == "":
                continue
            try:
                gv, rv = float(g[col]), float(r[col])
            except ValueError:
                problems.append(f"{where} {col}: not a number: {g[col]!r}")
                continue
            if col in INT_COLUMNS:
                ok = gv == rv
            elif col in ENERGY_COLUMNS:
                ok = _close(gv, rv, RTOL * abs(float(r["Et"])))
            else:
                ok = _close(gv, rv, RTOL * abs(rv))
            if not ok:
                problems.append(f"{where} {col}: {g[col]}, expected {r[col]}")
    if published_tol is not None:
        norm = got_rows[-1]["normalized"]
        if norm == "" or not _close(float(norm), 1.0, published_tol):
            problems.append(f"report.csv finest level: normalized {norm!r} is not "
                            f"within {published_tol} of the published reference")
    return problems


def _parse_field(text: str):
    header = [line for line in text.splitlines() if line.startswith("#")]
    data = [[float(v) for v in line.split()]
            for line in text.splitlines() if line and not line.startswith("#")]
    if any(len(row) != FIELD_COLUMNS for row in data):
        raise ValueError(f"a data row does not have {FIELD_COLUMNS} columns")
    return header, data


def check_field(got: bytes, ref: bytes) -> list[str]:
    """Problems of a ``field.dat`` against the pinned one (empty when it passes)."""
    try:
        got_head, got_data = _parse_field(got.decode("ascii"))
        ref_head, ref_data = _parse_field(ref.decode("ascii"))
    except (UnicodeDecodeError, ValueError) as exc:
        return [f"field.dat: {exc}"]
    if got_head != ref_head:
        return [f"field.dat: header {got_head}, expected {ref_head}"]
    if len(got_data) != len(ref_data):
        return [f"field.dat: {len(got_data)} samples, expected {len(ref_data)}"]
    problems = []
    for col in range(FIELD_COLUMNS):
        ref_col = [row[col] for row in ref_data]
        tol = PARAM_ATOL if col < 2 else RTOL * max(abs(v) for v in ref_col)
        bad = [i for i, (g, r) in enumerate(zip((row[col] for row in got_data), ref_col))
               if not _close(g, r, tol)]
        if bad:
            i = bad[0]
            problems.append(f"field.dat column {col}: {len(bad)} samples off, first "
                            f"{got_data[i][col]!r} vs {ref_data[i][col]!r}")
    return problems


def check_op(op, files: dict[str, bytes], ref_dir: Path) -> list[str]:
    """Problems of one operation's output files against ``ref_dir/<label>``."""
    problems = []
    for name in op.outputs:
        if name not in files:
            problems.append(f"{name} was not written")
            continue
        ref = (ref_dir / op.label / name).read_bytes()
        if name == "report.csv":
            problems += check_report(files[name], ref, op.published_tol)
        else:
            problems += check_field(files[name], ref)
    return problems
