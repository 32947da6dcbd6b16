#!/usr/bin/env python3
"""Split the memory of a fine run's step 0, or of a desk sweep slice, by stage.

`--run fine --scale desk|paper` (default paper) makes step 0 of `run_fine`
by hand: `StepOperators`, `cell_order`, `step_saddle()`, `kept_lu` and the
first solve.  It prints the unknowns and pattern nnz, frees that saddle and
ends with a 50-step `run_fine` on the same ops.  `--run ms` runs a desk
sweep slice's multiscale half as perfbench's desk-ms does, keeping every
result: the reference and the linear run, the plain and the oversampled
build at M=16, and `run_multiscale` with `make_report` at M = 2, 4, 8, 16.

A row gives VmRSS and the process's VmHWM (which cannot fall) from
/proc/self/status and the stage's wall time.  `--tracemalloc` adds the
traced peak above the stage's start and the memory it leaves traced
(without SuperLU's factor, and with tracemalloc's own bookkeeping).
`--darcy` (default 1e-3, both configs' `da`), `--seed` (the mesh seed) and
`--src` (the `src/` to import msflow from) serve both runs, which use only
public calls.  It replaces two scripts, and traces only when asked:

    fine_memory.py ARGS                  ->  memory_stages.py --run fine --tracemalloc ARGS
    fine_memory.py --no-tracemalloc ARGS ->  memory_stages.py --run fine ARGS
    ms_memory.py ARGS                    ->  memory_stages.py --run ms ARGS

Thread pools are pinned to one thread and numpy's hugepage advice is off
before numpy loads, as in perfbench/run.py, yet a stage's VmHWM moves by a
few MB between runs: compare 5 or more runs per side.  Linux only.  Takes
about 2 s (fine, desk), 20 s (fine, paper_like) or 25 s (ms).
"""

import argparse
import itertools
import os
import pathlib
import sys
import time
import tracemalloc
import warnings

THREADS = ("MSFLOW_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
os.environ.update(dict.fromkeys(THREADS, "1"), NUMPY_MADVISE_HUGEPAGE="0")

import numpy as np  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parent.parent
CONFIGS = {"desk": ROOT / "configs" / "desk_test1.cfg", "paper": ROOT / "configs" / "paper_like.cfg"}
ROW = "{:<22}{:>10}{:>10}{:>8}{:>14}{:>12}"


class Stages:
    """Prints a row per stage: VmRSS, VmHWM, wall time and, if traced from here
    on, the peak and kept memory above the memory traced at the stage's start."""

    def __init__(self, traced):
        if traced:
            tracemalloc.start()
        print(ROW.format("stage", "VmRSS MB", "VmHWM MB", "wall s", "traced peak", "traced kept"))
        self.restart()

    def restart(self):
        self.clock, self.start = time.perf_counter(), 0
        if tracemalloc.is_tracing():
            tracemalloc.reset_peak()
            self.start = tracemalloc.get_traced_memory()[0]

    def mark(self, name):
        wall, peak, kept = f"{time.perf_counter() - self.clock:.2f}", "-", "-"
        if tracemalloc.is_tracing():
            current, top = (x - self.start for x in tracemalloc.get_traced_memory())
            peak, kept = f"+{top / 2**20:.1f}", f"{current / 2**20:+.1f}"
        with open("/proc/self/status") as status:  # fields in kB
            fields = dict(line.split(":", 1) for line in status)
        rss, hwm = (f"{int(fields[key].split()[0]) / 1024:.1f}" for key in ("VmRSS", "VmHWM"))
        print(ROW.format(name, rss, hwm, wall, peak, kept))
        self.restart()


def fine(traced, mesh, coarse, params, bc):
    from msflow.fine_solver import StepOperators, run_fine
    from msflow.saddle import SaddleSolver

    stages = Stages(traced)
    ops = StepOperators(mesh, params, bc)
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
    traj = run_fine(mesh, params, bc, ops=ops)
    stages.mark(f"run_fine, {len(traj.div_residuals)} steps")


def ms(traced, mesh, coarse, params, bc):
    from msflow import analysis, gmsfem
    from msflow.fine_solver import StepOperators, run_fine

    stages = Stages(traced)
    stages.mark("set-up")
    ops = StepOperators(mesh, params, bc)
    reference = run_fine(mesh, params, bc, ops=ops).final
    stages.mark("reference run")
    u_lin = gmsfem.compute_linearization_field(mesh, params, bc)
    stages.mark("linear run")
    spaces, reports = [], []
    for oversampled, name in ((False, "plain build"), (True, "oversampled build")):
        spaces.append(gmsfem.build_multiscale_space(
            mesh, coarse, params, bc, m=16, oversampled=oversampled, u_lin=u_lin
        ))
        stages.mark(name)
    for space, m in itertools.product(spaces, (2, 4, 8, 16)):
        sub = space if m == space.m else gmsfem.resize_space(space, mesh, coarse, m)
        traj, fine_state = gmsfem.run_multiscale(mesh, coarse, params, bc, space=sub, ops=ops)
        u, p = fine_state.velocity, traj.final.pressure
        reports.append(analysis.make_report(reference, u, p, mesh, coarse, m, sub.oversampled, params))
    stages.mark(f"online runs ({len(reports)})")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--run", choices=("fine", "ms"), required=True)
    parser.add_argument("--scale", choices=sorted(CONFIGS), help="fine: default paper; ms: desk only")
    parser.add_argument("--darcy", type=float, default=1e-3)
    parser.add_argument("--seed", type=int, help="mesh seed override, as perfbench's --seed")
    parser.add_argument("--tracemalloc", action="store_true", help="add each stage's traced memory")
    parser.add_argument("--src", default=str(ROOT / "src"), help="the src/ to import msflow from")
    args = parser.parse_args()
    if args.run == "ms" and args.scale not in (None, "desk"):
        parser.error("--run ms splits the desk slice only")
    sys.path.insert(0, args.src)
    from msflow.config import parse_config
    from msflow.geometry import generate_structured_mesh

    warnings.simplefilter("ignore", RuntimeWarning)  # the snapshot rank drops
    scale = args.scale or {"fine": "paper", "ms": "desk"}[args.run]
    spec = parse_config(str(CONFIGS[scale]), mode="sweep", seed=args.seed)
    mesh, coarse = generate_structured_mesh(spec.domain, spec.n_per_coarse, (spec.nx, spec.ny))
    run = {"fine": fine, "ms": ms}[args.run]
    run(args.tracemalloc, mesh, coarse, spec.params.with_darcy(args.darcy), spec.bc)


if __name__ == "__main__":
    main()
