#!/usr/bin/env python3
"""Rerun the desk sweep and compare its CSVs with the committed ones.

Runs `msflow sweep --config configs/desk_test1.cfg` into a temporary
directory and compares every `errors_da_*.csv` it writes with
`results/desk_test1/` byte for byte.  Exits 0 when all match, 1 on any
difference (a missing, extra or changed file).  For a changed file it prints
every differing cell: file, M, column, committed value and new value.
Takes a few minutes.

    python scripts/check_desk_csvs.py
    python scripts/check_desk_csvs.py --rtol 1e-6

With --rtol TOL it compares the numbers instead of the bytes: it prints the
largest relative change of each column over all files and rows, and exits 0
only when every change is at most TOL and the files, headers and M rows are
the same.
"""

import argparse
import contextlib
import filecmp
import io
import math
import pathlib
import sys
import tempfile
import warnings
from itertools import groupby, zip_longest

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))  # check this checkout's package

from msflow.cli import main  # noqa: E402

CONFIG = ROOT / "configs" / "desk_test1.cfg"
COMMITTED = ROOT / "results" / "desk_test1"


def check(out_dir):
    """Names of the CSVs that differ, are missing or are extra."""
    want = sorted(p.name for p in COMMITTED.glob("errors_da_*.csv"))
    got = sorted(p.name for p in out_dir.glob("errors_da_*.csv"))
    bad = sorted(set(want) ^ set(got))
    for name in sorted(set(want) & set(got)):
        if not filecmp.cmp(COMMITTED / name, out_dir / name, shallow=False):
            bad.append(name)
    return want, bad


def cell_pairs(committed, new):
    """The shared header of two CSV texts and their cells as (M, column,
    committed, new) tuples, rows matched by M (the first cell) in the order
    of the committed rows, then the new ones.  A cell that only one text has
    is None in the other, and a cell past the header has column None.  The
    header is None when the headers differ."""
    old_rows = [line.split(",") for line in committed.splitlines() if line]
    new_rows = [line.split(",") for line in new.splitlines() if line]
    if not old_rows or not new_rows or old_rows[0] != new_rows[0]:
        return None, []
    old_by_m = {row[0]: row for row in old_rows[1:]}
    new_by_m = {row[0]: row for row in new_rows[1:]}
    cells = []
    for m in {**old_by_m, **new_by_m}:
        row = zip_longest(old_rows[0], old_by_m.get(m, []), new_by_m.get(m, []))
        cells += [(m, col, want, got) for col, want, got in row]
    return old_rows[0], cells


def differing_cells(name, committed, new):
    """Lines naming each cell of two CSV texts that differs, by M and column;
    a row or header present in only one of them is named whole."""
    header, cells = cell_pairs(committed, new)
    if header is None:
        return [f"  {name}: header differs"]
    lines = []
    cells.sort(key=lambda cell: (len(cell[0]), cell[0]))  # stable: columns keep their order
    for m, row in groupby(cells, key=lambda cell: cell[0]):
        _, columns, wants, gots = zip(*row)
        n_old, n_new = (sum(v is not None for v in values) for values in (wants, gots))
        if not n_old or not n_new:
            lines.append(f"  {name}: M={m} row {'added' if not n_old else 'missing'}")
            continue
        for col, want, got in zip(columns, wants, gots):
            if None not in (col, want, got) and want != got:
                lines.append(f"  {name}: M={m} {col} committed {want} new {got}")
        if n_old != n_new:
            lines.append(f"  {name}: M={m} has {n_new} cells, committed {n_old}")
    if not lines:
        lines.append(f"  {name}: bytes differ outside the cells (line endings or order)")
    return lines


def relative_change(want, got):
    """|got - want| / |want| of two CSV cells: 0 for equal text, inf for a
    change from zero or to or from a value that is not finite."""
    if want == got:
        return 0.0
    w, g = float(want), float(got)
    change = abs(g - w) / abs(w) if w else math.inf
    return change if math.isfinite(change) else math.inf


def column_changes(committed, new):
    """The largest relative change of each column of two CSV texts, as
    {column: (change, M)}; None when their headers, M rows (in order) or
    row lengths differ."""
    header, cells = cell_pairs(committed, new)
    m_old, m_new = ([line.split(",")[0] for line in t.splitlines() if line] for t in (committed, new))
    if header is None or m_old != m_new or any(None in cell for cell in cells):
        return None
    changes = {}
    for m, col, want, got in cells:
        change = relative_change(want, got)
        if col != header[0] and (col not in changes or change > changes[col][0]):
            changes[col] = (change, m)
    return changes


def report_rtol(texts, rtol):
    """Print the largest relative change per column over the CSV text pairs
    {name: (committed, new)}; returns 0 when every change is at most rtol
    and every pair has the same layout, else 1."""
    worst, status = {}, 0
    for name, (committed, new) in sorted(texts.items()):
        changes = column_changes(committed, new)
        if changes is None:
            print(f"DIFFERS: {name}: header, M rows or row lengths differ")
            status = 1
            continue
        for col, (change, m) in changes.items():
            if col not in worst or change > worst[col][0]:
                worst[col] = (change, name, m)
    for col, (change, name, m) in worst.items():
        verdict = "ok" if change <= rtol else "EXCEEDS"
        print(f"{col}: largest relative change {change:.3e} ({name}, M={m}) {verdict}")
        status = status if change <= rtol else 1
    print(f"{'within' if status == 0 else 'not within'} rtol {rtol:g}")
    return status


def run(rtol=None):
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = pathlib.Path(tmp)
        with contextlib.redirect_stdout(io.StringIO()), warnings.catch_warnings():
            warnings.filterwarnings("ignore", "snapshot family numerically dependent")
            status = main(["sweep", "--config", str(CONFIG), "--out", str(out_dir)])
        if status != 0:
            print(f"msflow sweep exited with status {status}")
            return 1
        want, bad = check(out_dir)
        if rtol is not None:
            got = sorted(p.name for p in out_dir.glob("errors_da_*.csv"))
            if not want or got != want:
                print(f"sweep CSVs {got} do not match {want} under {COMMITTED}")
                return 1
            texts = {
                name: ((COMMITTED / name).read_text(), (out_dir / name).read_text())
                for name in want
            }
            return report_rtol(texts, rtol)
        for name in bad:
            print(f"DIFFERS: {name}")
            old, new = COMMITTED / name, out_dir / name
            if old.exists() and new.exists():
                for line in differing_cells(name, old.read_text(), new.read_text()):
                    print(line)
    if not want:
        print(f"no committed CSVs under {COMMITTED}")
        return 1
    if bad:
        return 1
    print(f"{len(want)} sweep CSVs byte-identical to {COMMITTED.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--rtol", type=float, default=None, help="compare numbers within this relative tolerance"
    )
    sys.exit(run(parser.parse_args().rtol))
