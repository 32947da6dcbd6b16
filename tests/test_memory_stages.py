"""scripts/memory_stages.py --run fine on desk: the stage rows come in the
order of step 0 and the full run, and VmHWM, the process's high-water mark,
never falls from one row to the next."""

import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
STAGES = ["StepOperators", "cell_order", "step_saddle()", "kept_lu", "first solve", "run_fine, 50 steps"]


def test_desk_fine_stages_come_in_order_with_a_rising_high_water_mark():
    script = ROOT / "scripts" / "memory_stages.py"
    args = ["--run", "fine", "--scale", "desk", "--src", str(ROOT / "src")]
    out = subprocess.run(
        [sys.executable, str(script), *args], capture_output=True, text=True, check=True
    ).stdout
    header, *rows = out.splitlines()
    assert header.split()[:5] == ["stage", "VmRSS", "MB", "VmHWM", "MB"]
    assert re.fullmatch(r"14336 unknowns, step pattern nnz \d+", rows.pop(5))
    assert [row[:22].strip() for row in rows] == STAGES  # a label fills 22 columns
    columns = [row[22:].split() for row in rows]
    assert all(len(c) == 5 and c[3:] == ["-", "-"] for c in columns)  # untraced
    rss, hwm = ([float(c[i]) for c in columns] for i in (0, 1))
    assert all(0 < r <= h for r, h in zip(rss, hwm))
    assert hwm == sorted(hwm)
