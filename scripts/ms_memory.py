#!/usr/bin/env python3
"""Split the memory of one desk sweep slice by phase.

Runs the multiscale half of `msflow sweep` on `configs/desk_test1.cfg` at
one Darcy value (default 1e-3, the slice perfbench's desk-ms runs), phase
by phase, as perfbench's desk-ms set-up and pass do:

    ops = StepOperators(mesh, params, bc)
    reference = run_fine(mesh, params, bc, ops=ops).final
    u_lin = compute_linearization_field(mesh, params, bc)
    plain = build_multiscale_space(..., m=16, oversampled=False, u_lin=u_lin)
    over = build_multiscale_space(..., m=16, oversampled=True, u_lin=u_lin)
    run_multiscale(...) and make_report(...) at M = 2, 4, 8, 16 on both

After each phase it prints the process's resident set (VmRSS) and its
high-water mark (VmHWM) from /proc/self/status, and the phase's wall time.
Every phase's result is kept to the end, as in a sweep.  VmHWM is the
process's, so a row cannot read below the rows above it.  Uses only public
calls, so it runs against any checkout's package:

    python scripts/ms_memory.py
    python scripts/ms_memory.py --src /path/to/other/checkout/src

Every thread pool is pinned to one thread and numpy's hugepage advice is
off before numpy loads, as perfbench/run.py does.  A phase's VmHWM still
moves by a few MB between runs of the same code, so compare at least 5 runs
per side, not one.

Linux only (it reads /proc).  Takes about 25 seconds; no test runs it.
"""

import argparse
import os
import pathlib
import sys
import time

THREADS = ("MSFLOW_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
os.environ.update(dict.fromkeys(THREADS, "1"), NUMPY_MADVISE_HUGEPAGE="0")

ROOT = pathlib.Path(__file__).resolve().parent.parent
CONFIG = ROOT / "configs" / "desk_test1.cfg"
M_LIST = (2, 4, 8, 16)
ROW = "{:<22}{:>10}{:>10}{:>10}"


def status_mb(field):
    """A /proc/self/status field given in kB, in MB."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith(field + ":"):
                return int(line.split()[1]) / 1024.0
    raise KeyError(field)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--darcy", type=float, default=1e-3)
    parser.add_argument("--seed", type=int, help="mesh seed override, as perfbench's --seed")
    parser.add_argument("--src", default=str(ROOT / "src"), help="the src/ to import msflow from")
    args = parser.parse_args()
    sys.path.insert(0, args.src)
    import warnings

    from msflow import analysis, gmsfem
    from msflow.config import parse_config
    from msflow.fine_solver import StepOperators, run_fine
    from msflow.geometry import generate_structured_mesh

    warnings.simplefilter("ignore", RuntimeWarning)  # the snapshot rank drops
    spec = parse_config(str(CONFIG), mode="sweep", seed=args.seed)
    mesh, coarse = generate_structured_mesh(spec.domain, spec.n_per_coarse, (spec.nx, spec.ny))
    params, bc = spec.params.with_darcy(args.darcy), spec.bc
    print(ROW.format("phase", "VmRSS MB", "VmHWM MB", "wall s"))
    start = time.perf_counter()

    def mark(name):
        nonlocal start
        wall = time.perf_counter() - start
        print(ROW.format(name, f"{status_mb('VmRSS'):.1f}", f"{status_mb('VmHWM'):.1f}", f"{wall:.2f}"))
        start = time.perf_counter()

    mark("set-up")
    ops = StepOperators(mesh, params, bc)
    reference = run_fine(mesh, params, bc, ops=ops).final
    mark("reference run")
    u_lin = gmsfem.compute_linearization_field(mesh, params, bc)
    mark("linear run")
    spaces = {}
    for oversampled, name in ((False, "plain build"), (True, "oversampled build")):
        spaces[oversampled] = gmsfem.build_multiscale_space(
            mesh, coarse, params, bc, m=max(M_LIST), oversampled=oversampled, u_lin=u_lin
        )
        mark(name)
    reports = {}
    for oversampled, space in spaces.items():
        for m in M_LIST:
            sub = space if m == space.m else gmsfem.resize_space(space, mesh, coarse, m)
            traj, fine_state = gmsfem.run_multiscale(mesh, coarse, params, bc, space=sub, ops=ops)
            reports[(m, oversampled)] = analysis.make_report(
                reference, fine_state.velocity, traj.final.pressure, mesh, coarse, m,
                oversampled, params,
            )
    mark(f"online runs ({len(reports)})")


if __name__ == "__main__":
    main()
