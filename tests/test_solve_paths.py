"""scripts/solve_paths.py on one desk bundle: every test1 step is served by
the kept float32 factor, as the README's solve-path table says."""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_desk_test1_steps_are_served_by_the_kept_factor():
    script = ROOT / "scripts" / "solve_paths.py"
    args = ["--preset", "test1", "--darcy", "1e-3", "--src", str(ROOT / "src")]
    out = subprocess.run(
        [sys.executable, str(script), *args], capture_output=True, text=True, check=True
    ).stdout
    header, row = out.splitlines()
    assert header.split()[:2] == ["bundle", "steps"]
    assert row.startswith("test1, Da=0.001")
    steps, *_, kept, double, _, _, _ = row[len("test1, Da=0.001"):].split()
    assert (steps, kept, double) == ("50", "50", "0")
