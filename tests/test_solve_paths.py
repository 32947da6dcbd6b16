"""scripts/solve_paths.py on one desk bundle: every test1 fine step is served
by the kept float32 factor, and every online step at M=16 by the kept
float64 factor with at most REFRESH_AFTER corrections, as the kept-factor
policy at the top of saddle.py says; the last column counts the kept-factor
solves."""

import pathlib
import subprocess
import sys

from msflow.saddle import REFRESH_AFTER

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_desk_test1_steps_are_served_by_the_kept_factor():
    script = ROOT / "scripts" / "solve_paths.py"
    args = ["--preset", "test1", "--darcy", "1e-3", "--m", "16", "--space", "plain", "--src", str(ROOT / "src")]
    out = subprocess.run(
        [sys.executable, str(script), *args], capture_output=True, text=True, check=True
    ).stdout
    header, fine, online = out.splitlines()
    assert header.split()[:5] == ["run", "steps", "corrections", "(median)", "kept"]
    assert header.split()[-1] == "solves"
    for row, label in ((fine, "test1, Da=0.001, fine"), (online, "test1, Da=0.001, M=16, plain")):
        assert row.startswith(label)
        steps, corrections, _, kept, own, refresh, *_, solves = row[len(label):].split()
        assert (steps, kept, own, refresh) == ("50", "50", "0", "0")
        # one first solve per kept step, and its corrections
        assert 50 <= int(solves) <= 50 * (1 + int(corrections.split("-")[1]))
    assert int(corrections.split("-")[1]) <= REFRESH_AFTER  # the online row's most
