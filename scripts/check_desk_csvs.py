#!/usr/bin/env python3
"""Rerun the desk sweep and compare its CSVs with the committed ones.

Runs `msflow sweep --config configs/desk_test1.cfg` into a temporary
directory and compares every `errors_da_*.csv` it writes with
`results/desk_test1/` byte for byte.  Exits 0 when all match, 1 on any
difference (a missing, extra or changed file).  Takes a few minutes.

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
    if not want:
        print(f"no committed CSVs under {COMMITTED}")
        return 1
    for name in bad:
        print(f"DIFFERS: {name}")
    if bad:
        return 1
    print(f"{len(want)} sweep CSVs byte-identical to {COMMITTED.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(run())
