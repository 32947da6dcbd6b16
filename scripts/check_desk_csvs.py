#!/usr/bin/env python3
"""Rerun the desk sweep and compare its CSVs with the committed ones.

Runs `msflow sweep --config configs/desk_test1.cfg` into a temporary
directory and compares every `errors_da_*.csv` it writes with
`results/desk_test1/`.  It prints one report: every layout fault (a missing
or extra file, a changed header, an added or missing M row, a row with
another cell count, bytes that differ outside the cells), every differing
cell with its file, M, column, committed value, new value and relative
change, then the largest relative change of each column with its file and
M.  Took 31.8 s at 8578881 on 2 cores.

    python scripts/check_desk_csvs.py
    python scripts/check_desk_csvs.py --rtol 1e-6

Without --rtol it exits 0 only when the same files are byte-identical.
With --rtol TOL it exits 0 only when the same files have no layout fault
and every relative change is at most TOL.
"""

import argparse
import contextlib
import filecmp
import io
import math
import pathlib
import re
import sys
import tempfile
import warnings

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))  # check this checkout's package

from msflow.cli import main  # noqa: E402

CONFIG = ROOT / "configs" / "desk_test1.cfg"
COMMITTED = ROOT / "results" / "desk_test1"


def relative_change(want, got):
    """|got - want| / |want| of two CSV cells: 0 for equal text, inf for a
    change from zero, to or from a value that is not finite, or of a cell
    that is not a number."""
    if want == got:
        return 0.0
    try:
        w, g = float(want), float(got)
    except ValueError:
        return math.inf
    change = abs(g - w) / abs(w) if w else math.inf
    return change if math.isfinite(change) else math.inf


def compare(name, committed, new):
    """The layout faults and the cells of two CSV texts of file name.

    Rows are matched by M (the first cell), in the order of the committed
    rows, then the new ones.  A fault is a line naming the file and what
    differs: the header, an M row added or missing, a row whose cell count
    differs from the other text's or the header's, or bytes outside the
    cells (line endings or row order).  A cell is (name, M, column,
    committed, new, relative change), one for each column after M that both
    rows hold; equal cells have change 0."""
    old_rows, new_rows = (
        [line.split(",") for line in text.splitlines() if line] for text in (committed, new)
    )
    if not old_rows or not new_rows or old_rows[0] != new_rows[0]:
        return [f"{name}: header differs"], []
    header = old_rows[0]
    old_by_m, new_by_m = ({row[0]: row for row in rows[1:]} for rows in (old_rows, new_rows))
    faults, cells = [], []
    for m in {**old_by_m, **new_by_m}:
        old, got = old_by_m.get(m), new_by_m.get(m)
        if old is None or got is None:
            faults.append(f"{name}: M={m} row {'added' if old is None else 'missing'}")
            continue
        if not len(old) == len(got) == len(header):
            counts = f"{len(got)} cells, committed {len(old)}, header {len(header)}"
            faults.append(f"{name}: M={m} has {counts}")
        row = zip(header[1:], old[1:], got[1:])
        cells += [(name, m, col, want, value, relative_change(want, value)) for col, want, value in row]
    # the texts with every cell after M emptied: M order, separators, line endings
    outside = (re.sub(r",[^,\r\n]*", ",", text) for text in (committed, new))
    if not faults and next(outside) != next(outside):
        faults.append(f"{name}: bytes differ outside the cells (line endings or row order)")
    return faults, cells


def report(texts):
    """Print the layout faults and the differing cells of the CSV text pairs
    {name: (committed, new)}, then each column's largest relative change
    with its file and M.  Returns the faults and the largest change."""
    faults, worst = [], {}
    for name, (committed, new) in sorted(texts.items()):
        file_faults, cells = compare(name, committed, new)
        faults += file_faults
        for fault in file_faults:
            print(f"DIFFERS: {fault}")
        for _, m, col, want, got, change in cells:
            if want != got:
                print(f"DIFFERS: {name}: M={m} {col} committed {want} new {got} relative change {change:.3e}")
            if col not in worst or change > worst[col][0]:
                worst[col] = (change, name, m)
    for col, (change, name, m) in worst.items():
        print(f"{col}: largest relative change {change:.3e} ({name}, M={m})")
    return faults, max((change for change, _, _ in worst.values()), default=0.0)


def run(rtol=None):
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = pathlib.Path(tmp)
        with contextlib.redirect_stdout(io.StringIO()), warnings.catch_warnings():
            warnings.filterwarnings("ignore", "snapshot family numerically dependent")
            status = main(["sweep", "--config", str(CONFIG), "--out", str(out_dir)])
        if status != 0:
            print(f"msflow sweep exited with status {status}")
            return 1
        want, got = (sorted(p.name for p in d.glob("errors_da_*.csv")) for d in (COMMITTED, out_dir))
        identical = want == got and all(
            filecmp.cmp(COMMITTED / name, out_dir / name, shallow=False) for name in want
        )
        texts = {
            name: ((COMMITTED / name).read_bytes().decode(), (out_dir / name).read_bytes().decode())
            for name in set(want) & set(got)
        }
    where = COMMITTED.relative_to(ROOT) if COMMITTED.is_relative_to(ROOT) else COMMITTED
    if not want:
        print(f"no committed CSVs under {where}")
        return 1
    for name in sorted(set(want) ^ set(got)):
        print(f"DIFFERS: {name}: {'missing from the sweep' if name in want else 'not committed'}")
    faults, largest = report(texts)
    if rtol is None:
        ok = identical
        verdict = f"{len(want)} sweep CSVs byte-identical to" if ok else "sweep CSVs differ from"
    else:
        ok = want == got and not faults and largest <= rtol
        verdict = f"sweep CSVs {'within' if ok else 'not within'} rtol {rtol:g} of"
    print(f"{verdict} {where}")
    return 0 if ok else 1


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--rtol", type=float, default=None, help="compare numbers within this relative tolerance"
    )
    sys.exit(run(parser.parse_args().rtol))
