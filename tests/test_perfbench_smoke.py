"""perfbench/run.py end to end on the smallest workload: one traced desk-fine
pass, run in a copy of the files the benchmark reads, so its .bench_out/
stays out of the checkout.  Every check passes, equivalence.fine_loop (the
traced loop ends bit-identical to run_fine) and field_statistics (the final
field against perfbench/expected.json) among them."""

import json
import pathlib
import shutil
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_traced_desk_fine_passes_every_check(tmp_path):
    for name in ("src", "perfbench", "configs"):
        shutil.copytree(ROOT / name, tmp_path / name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    args = ["--workload", "desk-fine", "--seed", "0", "--seconds", "0", "--trace", "1"]
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=tmp_path, capture_output=True, text=True, check=True
    ).stdout
    lines = out.splitlines()
    for check in ("equivalence.fine_loop", "field_statistics"):
        assert any(line.startswith(f"check PASS {check}:") for line in lines), check
    assert not any(line.startswith("check FAIL") for line in lines)
    last = json.loads(lines[-1])
    assert last["correct"] is True and last["failed"] == 0
