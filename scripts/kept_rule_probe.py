#!/usr/bin/env python3
"""Time the desk online runs under other kept-factor rules, to set
`saddle.KEPT_MIN` and `saddle.REFRESH_AFTER`.

For each desk bundle (`configs/desk_test1.cfg` with the given presets at
every Darcy value of the config), each space (plain, oversampled) and each M
of the config's m_list, it runs `run_multiscale` once to build the online
record, then `--repeat` rounds in which every rule runs once, in turn, in
this process.  A rule is a pair `floor:budget`, the values the run uses for
`KEPT_MIN` and `REFRESH_AFTER`; the reference rule factors every step.  A
row gives the reference's median time per step (steps 1-49 of a run,
median over the rounds) and, per rule, the change of that median against
the reference, the steps refined from a kept factor and the corrections of
the run:

    python scripts/kept_rule_probe.py
    python scripts/kept_rule_probe.py --preset test2 --rule 1:4 100:2 100:4 100:6 --repeat 9

Takes about 5 minutes for the nine bundles and the default rules.
"""

import argparse
import dataclasses
import pathlib
import sys
import time
import warnings

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from msflow import fine_solver, gmsfem, saddle  # noqa: E402
from msflow.config import parse_config  # noqa: E402
from msflow.fine_solver import StepOperators  # noqa: E402
from msflow.geometry import generate_structured_mesh  # noqa: E402
from msflow.parameters import TEST_PRESETS  # noqa: E402

CONFIG = ROOT / "configs" / "desk_test1.cfg"
FACTOR_EVERY_STEP = (sys.maxsize, saddle.REFRESH_AFTER)


def timed_run(run, rule):
    """Seconds of steps 1 to the last, steps refined from a kept factor,
    and corrections, of one run under rule = (KEPT_MIN, REFRESH_AFTER)."""
    saddle.KEPT_MIN, fine_solver.REFRESH_AFTER = rule
    marks, kept, corrections = [], 0, 0

    def observe(step, state, solver):
        nonlocal kept, corrections
        marks.append(time.perf_counter())
        kept += solver.kept
        corrections += solver.corrections

    run(observe)
    return (marks[-1] - marks[0]) / (len(marks) - 1), kept, corrections


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--preset", nargs="+", default=["test1", "test2", "test3"])
    parser.add_argument("--rule", nargs="+", default=["1:4", "100:2", "100:4", "100:6"])
    parser.add_argument("--repeat", type=int, default=7)
    args = parser.parse_args()
    rules = [tuple(int(v) for v in rule.split(":")) for rule in args.rule]
    warnings.simplefilter("ignore", RuntimeWarning)  # the snapshot rank drops
    spec = parse_config(str(CONFIG), mode="sweep")
    mesh, coarse = generate_structured_mesh(spec.domain, spec.n_per_coarse, (spec.nx, spec.ny))
    print("run".ljust(36) + "factor ms" + "".join(f"  {f}:{b} (kept, corrections)".rjust(26) for f, b in rules))
    for preset in args.preset:
        for darcy in spec.da_list:
            reynolds, forchheimer, t_max = TEST_PRESETS[preset]
            params = dataclasses.replace(
                spec.params, reynolds=reynolds, forchheimer=forchheimer, darcy=darcy,
                tau=t_max / spec.params.n_steps, t_max=None,
            )
            ops = StepOperators(mesh, params, spec.bc)
            u_lin = gmsfem.compute_linearization_field(mesh, params, spec.bc)
            for oversampled in (False, True):
                space = gmsfem.build_multiscale_space(
                    mesh, coarse, params, spec.bc, m=max(spec.m_list), oversampled=oversampled, u_lin=u_lin
                )
                for m in sorted(spec.m_list):
                    sub = space if m == space.m else gmsfem.resize_space(space, mesh, coarse, m)
                    run = lambda observe: gmsfem.run_multiscale(
                        mesh, coarse, params, spec.bc, space=sub, ops=ops, observe=observe
                    )
                    run(None)  # builds the online record
                    results = {rule: [] for rule in [FACTOR_EVERY_STEP, *rules]}
                    for _ in range(args.repeat):
                        for rule, got in results.items():
                            got.append(timed_run(run, rule))
                    base = np.median([t for t, _, _ in results[FACTOR_EVERY_STEP]])
                    label = f"{preset}, Da={darcy:g}, M={m}, {'oversampled' if oversampled else 'plain'}"
                    cells = []
                    for rule in rules:
                        seconds, kept, corrections = zip(*results[rule])
                        change = 100 * (np.median(seconds) / base - 1)
                        cells.append(f"{change:+5.0f}% ({kept[-1]:2d}, {corrections[-1]:4d})".rjust(26))
                    print(label.ljust(36) + f"{1e3 * base:9.3f}" + "".join(cells), flush=True)


if __name__ == "__main__":
    main()
