#!/usr/bin/env python3
"""Count how the desk fine and online steps are solved: refined from a kept
factor, factored on their own, or factored to refresh the kept factor, and
with how many corrections.

For each desk bundle (`configs/desk_test1.cfg` with presets test1, test2 and
test3 at every Darcy value of the config) it runs `run_fine`, then the
online stage (`run_multiscale`) on the plain and the oversampled space at
every M of the config's m_list, each space built once at the largest M and
cut to the others.  Every step's `SaddleSolver` is read through the run's
observer.  A row gives the corrections of its steps (min-max and median),
the steps in each of three columns, the median, range and total of the
time per step, from one observed step to the next (step 0 includes building
the run's saddle and its kept factor, and an online run's step 0 on a new
space the projected operators too), and the run's total solves with a kept
factor (`SaddleSolver.kept_solves`: the first solve and the corrections of
every step that refined, a missed refinement's too).  The three columns
count the steps by `SaddleSolver.path`:

- kept: refined from a kept factor, the saddle's or a refreshed one
- own: factored on its own, after a missed refinement or with no kept factor
- refresh: factored directly to refresh a run's kept factor

The counts move with the BLAS thread count; with the thread pools pinned
(scripts/harness.py) they are, unlike the times, the same on every run.

`--paper` adds one opt-in row: the online stage of `configs/paper_like.cfg`
on the plain space at M=25 (the space takes about 15 s to build).  A run
raises if a step misses the residual gate.  Uses only public calls and
attributes, so it runs against the package of any checkout whose
`run_fine` and `run_multiscale` take `observe` and whose `SaddleSolver`
has `path` and `kept_solves`:

    python scripts/solve_paths.py
    python scripts/solve_paths.py --preset test3 --darcy 1e-4 --level online --m 16
    python scripts/solve_paths.py --level online --space plain --paper
    python scripts/solve_paths.py --src /path/to/other/checkout/src

Takes about 2 minutes for the nine bundles at both levels.
"""

import argparse
import time

import harness  # before numpy, which reads the environment it pins
import numpy as np

PAPER_M = 25
PRESETS = ("test1", "test2", "test3")
SPACES = ("plain", "oversampled")
ROW = "{:<36}{:>5}  {:<20}{:>5}{:>5}{:>8}  {:<17}{:>7}{:>7}"


def observer():
    """An observe callback for march and the list it fills: per step, the
    corrections, the solve path, the wall time and the kept-factor solves."""
    rows = []
    start = time.perf_counter()

    def observe(step, state, solver):
        nonlocal start
        now = time.perf_counter()
        rows.append((solver.corrections, solver.path, now - start, solver.kept_solves))
        start = now

    return observe, rows


def row(label, steps):
    """One printed line of a run's steps."""
    corrections, paths, seconds, solves = zip(*steps)
    corrections, paths, ms = np.array(corrections), np.array(paths), 1e3 * np.array(seconds)
    return ROW.format(
        label,
        len(ms),
        f"{corrections.min()}-{corrections.max()} ({np.median(corrections):g})",
        *(int((paths == p).sum()) for p in ("kept", "own", "refresh")),
        f"{np.median(ms):.2f} ({ms.min():.1f}-{ms.max():.0f})",
        f"{1e-3 * ms.sum():.2f}",
        sum(solves),
    )


def online_rows(mesh, coarse, params, bc, m_list, spaces):
    """The rows of the online runs of one bundle: each space built at
    max(m_list), then run at every M."""
    from msflow import gmsfem
    from msflow.fine_solver import StepOperators

    ops = StepOperators(mesh, params, bc)
    u_lin = gmsfem.compute_linearization_field(mesh, params, bc)
    for name in spaces:
        space = gmsfem.build_multiscale_space(
            mesh, coarse, params, bc, m=max(m_list), oversampled=name == "oversampled", u_lin=u_lin
        )
        for m, sub in harness.slices(space, mesh, coarse, m_list):
            observe, steps = observer()
            gmsfem.run_multiscale(mesh, coarse, params, bc, space=sub, ops=ops, observe=observe)
            yield f"M={m}, {name}", steps


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--preset", nargs="+", choices=PRESETS, default=PRESETS)
    parser.add_argument("--darcy", nargs="+", type=float, help="default: the config's da_list")
    parser.add_argument("--level", nargs="+", choices=("fine", "online"), default=("fine", "online"))
    parser.add_argument("--m", nargs="+", type=int, help="online basis sizes; default: the config's m_list")
    parser.add_argument("--space", nargs="+", choices=SPACES, default=SPACES)
    parser.add_argument("--paper", action="store_true", help=f"add the paper_like plain M={PAPER_M} online row")
    args = harness.parse_args(parser)
    from msflow.fine_solver import run_fine
    from msflow.parameters import preset_parameters

    spec, mesh, coarse = harness.config_mesh("desk")
    print(ROW.format("run", "steps", "corrections (median)", "kept", "own", "refresh", "ms/step (range)", "total s", "solves"))
    base = spec.params
    for preset in args.preset:
        for darcy in args.darcy or spec.da_list:
            params = preset_parameters(
                preset, darcy, n_steps=base.n_steps, porosity=base.porosity, penalty=base.penalty
            )
            bundle = f"{preset}, Da={darcy:g}"
            if "fine" in args.level:
                observe, steps = observer()
                run_fine(mesh, params, spec.bc, observe=observe)
                print(row(f"{bundle}, fine", steps), flush=True)
            if "online" in args.level:
                m_list = args.m or spec.m_list
                for label, steps in online_rows(mesh, coarse, params, spec.bc, m_list, args.space):
                    print(row(f"{bundle}, {label}", steps), flush=True)
    if args.paper:
        paper, mesh, coarse = harness.config_mesh("paper")
        label, steps = next(online_rows(mesh, coarse, paper.params, paper.bc, [PAPER_M], ["plain"]))
        print(row(f"paper_like, Da={paper.params.darcy:g}, {label}", steps), flush=True)


if __name__ == "__main__":
    main()
