#!/usr/bin/env python3
"""Split the memory of a fine run's first step by stage, then read the peak
of the full run.

Builds the mesh and the `StepOperators` of the desk or the paper_like config
(`configs/desk_test1.cfg`, `configs/paper_like.cfg`), then makes step 0 of
`run_fine` by hand, stage by stage:

    ops = StepOperators(mesh, params, bc)
    ops.cell_order
    saddle = ops.step_saddle()
    saddle.kept_lu
    SaddleSolver(saddle.system(saddle.static + ops.step_blocks(u), rhs_u, f_p)).solve()

It then releases that saddle and system, and its last stage is a
full-length `run_fine(..., ops=ops)` (50 steps on both configs), whose
trajectory it keeps until the row is printed.  After each stage it prints
the process's resident set (VmRSS) and its high-water mark (VmHWM) from
/proc/self/status, and the tracemalloc peak of the stage above the memory
traced at its start, with the memory the stage leaves traced.  VmHWM is
the process's, so the last row cannot read below the step-0 stages.
tracemalloc sees numpy's arrays but not SuperLU's factor, and its own
bookkeeping adds a little to the resident set; --no-tracemalloc reads the
resident set without it.  Uses only public calls, so it runs
against any checkout's package:

    python scripts/fine_memory.py --scale paper
    python scripts/fine_memory.py --scale desk --src /path/to/other/checkout/src

Every thread pool is pinned to one thread and numpy's hugepage advice is
off before numpy loads, as perfbench/run.py does.  A stage's VmHWM still
moves by a few MB between runs of the same code, so compare at least 5 runs
per side, not one.

Linux only (it reads /proc).  Takes about 3 seconds on desk and 20 on
paper_like.
"""

import argparse
import os
import pathlib
import sys
import tracemalloc

THREADS = ("MSFLOW_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
os.environ.update(dict.fromkeys(THREADS, "1"), NUMPY_MADVISE_HUGEPAGE="0")

import numpy as np  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parent.parent
CONFIGS = {"desk": ROOT / "configs" / "desk_test1.cfg", "paper": ROOT / "configs" / "paper_like.cfg"}
ROW = "{:<18}{:>10}{:>10}{:>14}{:>12}"
MB = 2.0**20


def status_mb(field):
    """A /proc/self/status field given in kB, in MB."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith(field + ":"):
                return int(line.split()[1]) / 1024.0
    raise KeyError(field)


class Stages:
    """Prints one row per stage: VmRSS, VmHWM, and the stage's tracemalloc
    peak and kept memory, each above the memory traced at its start."""

    def __init__(self, traced):
        self.traced = traced
        print(ROW.format("stage", "VmRSS MB", "VmHWM MB", "traced peak", "traced kept"))
        self.restart()

    def restart(self):
        """Start the next stage at the memory traced now."""
        self.start = 0
        if self.traced:
            tracemalloc.reset_peak()
            self.start = tracemalloc.get_traced_memory()[0]

    def mark(self, name):
        peak = kept = "-"
        if self.traced:
            current, top = tracemalloc.get_traced_memory()
            peak = f"+{(top - self.start) / MB:.1f}"
            kept = f"{(current - self.start) / MB:+.1f}"
        print(ROW.format(name, f"{status_mb('VmRSS'):.1f}", f"{status_mb('VmHWM'):.1f}", peak, kept))
        self.restart()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", choices=sorted(CONFIGS), default="paper")
    parser.add_argument("--seed", type=int, help="mesh seed override, as perfbench's --seed")
    parser.add_argument("--no-tracemalloc", dest="traced", action="store_false")
    parser.add_argument("--src", default=str(ROOT / "src"), help="the src/ to import msflow from")
    args = parser.parse_args()
    sys.path.insert(0, args.src)
    from msflow.config import parse_config
    from msflow.fine_solver import StepOperators, run_fine
    from msflow.geometry import generate_structured_mesh
    from msflow.saddle import SaddleSolver

    if args.traced:
        tracemalloc.start()
    spec = parse_config(str(CONFIGS[args.scale]), mode="fine", seed=args.seed)
    mesh, _ = generate_structured_mesh(spec.domain, spec.n_per_coarse, (spec.nx, spec.ny))
    stages = Stages(args.traced)
    ops = StepOperators(mesh, spec.params, spec.bc)
    stages.mark("StepOperators")
    ops.cell_order
    stages.mark("cell_order")
    saddle = ops.step_saddle()
    stages.mark("step_saddle()")
    saddle.kept_lu
    stages.mark("kept_lu")
    u = np.zeros(ops.patch.n_vdof)
    system = saddle.system(saddle.static + ops.step_blocks(u), ops.mass @ u + ops.f_u, ops.f_p)
    SaddleSolver(system).solve()
    stages.mark("first solve")
    print(f"{len(saddle.perm)} unknowns, step pattern nnz {saddle.pattern.nnz}")
    del saddle, system
    stages.restart()
    traj = run_fine(mesh, spec.params, spec.bc, ops=ops)
    stages.mark(f"run_fine, {len(traj.div_residuals)} steps")


if __name__ == "__main__":
    main()
