#!/usr/bin/env python3
"""Count how the desk fine steps are solved: from the kept float32 factor
or by a float64 factor of their own, and with how many corrections.

Runs `run_fine` on each desk bundle (`configs/desk_test1.cfg` with presets
test1, test2 and test3 at every Darcy value of the config) and reads every
step's `SaddleSolver` through the run's observer.  Prints per bundle the
corrections of its steps (min-max and median), the number of steps served
by the kept factor and by a float64 factor, and the median, range and total
of the time per step, from one observed step to the next; step 0 includes
building the run's step saddle and its kept factor.  `run_fine` raises if a
step misses the residual gate.  Uses only public calls and attributes, so
it runs against the package of any checkout whose `run_fine` takes
`observe`:

    python scripts/solve_paths.py
    python scripts/solve_paths.py --preset test3 --darcy 1e-4
    python scripts/solve_paths.py --src /path/to/other/checkout/src

Takes about 30 seconds for the nine bundles.
"""

import argparse
import pathlib
import sys
import time

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parent.parent
CONFIG = ROOT / "configs" / "desk_test1.cfg"
PRESETS = ("test1", "test2", "test3")
ROW = "{:<18}{:>5}  {:<22}{:>5}{:>9}  {:<19}{:>7}"


def step_paths(mesh, params, bc):
    """Per step of run_fine: corrections, whether the kept factor served it,
    whether a float64 factor did, and its wall time."""
    from msflow.fine_solver import StepOperators, run_fine

    ops = StepOperators(mesh, params, bc)
    rows = []
    start = time.perf_counter()

    def observe(step, state, solver):
        nonlocal start
        now = time.perf_counter()
        rows.append((solver.corrections, solver.kept, solver.lu.U.dtype == np.float64, now - start))
        start = now

    run_fine(mesh, params, bc, ops=ops, observe=observe)
    return rows


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--preset", nargs="+", choices=PRESETS, default=PRESETS)
    parser.add_argument("--darcy", nargs="+", type=float, help="default: the config's da_list")
    parser.add_argument("--src", default=str(ROOT / "src"), help="the src/ to import msflow from")
    args = parser.parse_args()
    sys.path.insert(0, args.src)
    from msflow.config import parse_config
    from msflow.geometry import generate_structured_mesh
    from msflow.parameters import preset_parameters

    spec = parse_config(str(CONFIG), mode="fine")
    mesh, _ = generate_structured_mesh(spec.domain, spec.n_per_coarse, (spec.nx, spec.ny))
    print(ROW.format("bundle", "steps", "corrections (median)", "kept", "float64", "ms/step (range)", "total s"))
    for preset in args.preset:
        for darcy in args.darcy or spec.da_list:
            params = preset_parameters(preset, darcy, spec.params.n_steps, spec.params.porosity)
            corrections, kept, double, seconds = map(np.array, zip(*step_paths(mesh, params, spec.bc)))
            ms = 1e3 * seconds
            print(
                ROW.format(
                    f"{preset}, Da={darcy:g}",
                    len(ms),
                    f"{corrections.min()}-{corrections.max()} ({np.median(corrections):g})",
                    kept.sum(),
                    double.sum(),
                    f"{np.median(ms):.0f} ({ms.min():.0f}-{ms.max():.0f})",
                    f"{seconds.sum():.2f}",
                )
            )


if __name__ == "__main__":
    main()
