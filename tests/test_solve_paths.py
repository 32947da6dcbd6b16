"""scripts/solve_paths.py on one desk bundle: every test1 fine step is served
by the kept float32 factor, and every online step at M=16 by the kept
float64 factor with at most REFRESH_AFTER corrections, as the kept-factor
policy at the top of saddle.py says; the last column counts the kept-factor
solves.  The probe scripts' harness, and each probe through it, pins exactly
what perfbench/run.py pins (its PINNED_ENV, read without importing it)
before numpy loads."""

import ast
import json
import os
import pathlib
import subprocess
import sys

import pytest

from msflow.saddle import REFRESH_AFTER

ROOT = pathlib.Path(__file__).resolve().parent.parent
PINNED_ENV = next(
    ast.literal_eval(node.value)
    for node in ast.parse((ROOT / "perfbench" / "run.py").read_text()).body
    if isinstance(node, ast.Assign) and [target.id for target in node.targets] == ["PINNED_ENV"]
)


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


@pytest.mark.parametrize("script", ["harness.py", "solve_paths.py", "operator_digest.py", "memory_stages.py"])
def test_a_script_pins_every_thread_pool_to_one_thread(script):
    # run_path under another name than __main__ runs the prologue, not main;
    # the environment it leaves differs from the one it got, in which every
    # pinned variable had another value, by exactly PINNED_ENV
    run = "import json, os, runpy, sys; given = dict(os.environ)"
    run += "; runpy.run_path(sys.argv[1], run_name='probe')"
    probe = f"{run}; print(json.dumps({{k: v for k, v in os.environ.items() if given.get(k) != v}}))"
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "scripts")])
    env = {**os.environ, **dict.fromkeys(PINNED_ENV, "2"), "PYTHONPATH": path}
    args = [sys.executable, "-c", probe, str(ROOT / "scripts" / script)]
    out = subprocess.run(args, capture_output=True, text=True, check=True, env=env).stdout
    assert json.loads(out) == PINNED_ENV
