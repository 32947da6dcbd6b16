#!/usr/bin/env python3
"""Rerun the desk sweep and compare its CSVs with the committed ones.

Runs `msflow sweep --config configs/desk_test1.cfg` into a temporary
directory and compares every `errors_da_*.csv` it writes with
`results/desk_test1/` byte for byte.  Exits 0 when all match, 1 on any
difference (a missing, extra or changed file).  For a changed file it prints
every differing cell: file, M, column, committed value and new value.
Takes a few minutes.

    python scripts/check_desk_csvs.py
"""

import contextlib
import filecmp
import io
import pathlib
import sys
import tempfile
import warnings

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


def differing_cells(name, committed, new):
    """Lines naming each cell of two CSV texts that differs, by M and column;
    a row or header present in only one of them is named whole."""
    old_rows = [line.split(",") for line in committed.splitlines() if line]
    new_rows = [line.split(",") for line in new.splitlines() if line]
    if not old_rows or not new_rows or old_rows[0] != new_rows[0]:
        return [f"  {name}: header differs"]
    header = old_rows[0]
    old_by_m = {row[0]: row for row in old_rows[1:]}
    new_by_m = {row[0]: row for row in new_rows[1:]}
    lines = []
    for m in sorted(set(old_by_m) | set(new_by_m), key=lambda k: (len(k), k)):
        old_row, new_row = old_by_m.get(m), new_by_m.get(m)
        if old_row is None or new_row is None:
            lines.append(f"  {name}: M={m} row {'added' if old_row is None else 'missing'}")
            continue
        for col, want, got in zip(header[1:], old_row[1:], new_row[1:]):
            if want != got:
                lines.append(f"  {name}: M={m} {col} committed {want} new {got}")
        if len(old_row) != len(new_row):
            lines.append(f"  {name}: M={m} has {len(new_row)} cells, committed {len(old_row)}")
    if not lines:
        lines.append(f"  {name}: bytes differ outside the cells (line endings or order)")
    return lines


def run():
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = pathlib.Path(tmp)
        with contextlib.redirect_stdout(io.StringIO()), warnings.catch_warnings():
            warnings.filterwarnings("ignore", "snapshot family numerically dependent")
            status = main(["sweep", "--config", str(CONFIG), "--out", str(out_dir)])
        if status != 0:
            print(f"msflow sweep exited with status {status}")
            return 1
        want, bad = check(out_dir)
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
    sys.exit(run())
