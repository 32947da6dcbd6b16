"""The benchmark's workloads, driven through msflow's public functions.

Every workload has a set-up, a plain pass and a traced pass:

* set-up parses the config (with the benchmark seed as the seed override),
  builds the mesh and the `StepOperators`; desk-ms also computes its fine
  reference there, as `msflow sweep` does before the multiscale half.
* the plain pass calls msflow the way its CLI does (`run_fine`,
  `build_multiscale_space`, `run_multiscale`, ...). A `SpeedGauge` mark
  after each call (and after each `run_fine` step) splits it into segments.
* the traced pass rebuilds the `run_fine` loop and the per-cell offline
  loop from the public calls they are made of, with a span around each
  call, and must reproduce the plain pass bit for bit.
"""

import dataclasses
import hashlib
import json
import math
import os
import statistics
import time
import warnings
from dataclasses import dataclass

import numpy as np

from msflow import analysis, cli, gmsfem, vtk_io
from msflow.config import parse_config
from msflow.fine_solver import StepOperators, run_fine
from msflow.geometry import generate_structured_mesh
from msflow.parameters import DGState
from msflow.saddle import SaddleSolver

from tracing import SpeedGauge, after_each_step, count, total

SETUP_REPEATS = 5
# Bound on the relative continuity residual of every accepted fine step.
DIV_RESIDUAL_BOUND = 1e-9
# Relative tolerance of the final field statistics against the stored values:
# loose enough for a solver change at the 1e-7 level, tight enough to catch
# a wrong answer.
STATS_REL_TOL = 1e-6
# desk-ms: one Darcy slice of the desk sweep, at the basis sizes of its CSV.
MS_DARCY = 1e-3
MS_M_LIST = (2, 4, 8, 16)
RANK_WARNING = "snapshot family numerically dependent"

EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")


@dataclass(frozen=True)
class Workload:
    name: str
    config: str  # relative to the repository root
    kind: str  # "fine" or "ms"
    n_steps: int = None  # fine prefix length; None runs the config's steps


WORKLOADS = {
    w.name: w
    for w in (
        Workload("desk-fine", "configs/desk_test1.cfg", "fine"),
        Workload("desk-ms", "configs/desk_test1.cfg", "ms"),
        Workload("paper-fine", "configs/paper_like.cfg", "fine", n_steps=3),
    )
}


@dataclass
class Inputs:
    spec: object
    mesh: object
    coarse: object
    params: object
    ops: StepOperators


class Outcome:
    """Operations attempted and failed, and every named check's verdict."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.checks = {}

    def ops(self, n):
        self.attempted += n

    def check(self, name, ok, detail):
        self.attempted += 1
        self.failed += 0 if ok else 1
        previous = self.checks.get(name)
        if previous is None or previous["ok"]:
            self.checks[name] = {"ok": bool(ok), "detail": detail}

    def note(self, name, detail):
        """A check that does not apply to these inputs; not counted."""
        self.checks.setdefault(name, {"ok": None, "detail": detail})

    @property
    def correct(self):
        return self.failed == 0


def seconds(segments, key="s", prefix=""):
    """Summed scaled (key="s") or raw (key="raw_s") time of the segments
    whose label starts with `prefix`."""
    return sum(s[key] for s in segments if s["label"].startswith(prefix))


def set_up(workload, root, seed, out_dir, gauge):
    """Parse, mesh and assemble the step operators once; returns the inputs
    and one gauge segment per part."""
    first = len(gauge.segments)
    gauge.start()
    mode = "sweep" if workload.kind == "ms" else "fine"
    spec = parse_config(os.path.join(root, workload.config), mode=mode, out_dir=out_dir, seed=seed)
    if spec.mesh_source != "generate":
        raise ValueError(f"{workload.config}: the benchmark expects a generated mesh")
    gauge.mark("config")
    mesh, coarse = generate_structured_mesh(spec.domain, spec.n_per_coarse, (spec.nx, spec.ny))
    gauge.mark("mesh")
    params = spec.params
    if workload.kind == "ms":
        params = params.with_darcy(MS_DARCY)
    ops = StepOperators(mesh, params, spec.bc)
    gauge.mark("step_operators")
    if workload.n_steps is not None:
        params = dataclasses.replace(params, n_steps=workload.n_steps, t_max=None)
    return Inputs(spec, mesh, coarse, params, ops), gauge.since(first)


def input_digest(inp):
    """Identifies the inputs a stored result belongs to."""
    h = hashlib.sha256()
    for arr in (inp.mesh.verts, inp.mesh.cells, inp.mesh.region):
        h.update(np.ascontiguousarray(arr).tobytes())
    p = inp.params
    h.update(repr((p.reynolds, p.darcy, p.forchheimer, p.porosity, p.tau, p.n_steps, p.penalty)).encode())
    for side in sorted(inp.spec.bc.sides):
        h.update(side.encode() + np.asarray(inp.spec.bc.sides[side], dtype=float).tobytes())
    return h.hexdigest()[:16]


def stats_dict(stats):
    return {
        name: dataclasses.asdict(getattr(stats, name))
        for name in ("fluid", "porous")
        if getattr(stats, name) is not None
    }


def load_expected():
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)


def same_state(a, b):
    return np.array_equal(a.velocity, b.velocity) and np.array_equal(a.pressure, b.pressure)


def same_csr(a, b):
    return (
        a.shape == b.shape
        and np.array_equal(a.indptr, b.indptr)
        and np.array_equal(a.indices, b.indices)
        and np.array_equal(a.data, b.data)
    )


def gauged_run_fine(inp, gauge):
    """`run_fine` with a gauge mark after every step."""
    with after_each_step(inp.ops, lambda: gauge.mark("step")):
        return run_fine(inp.mesh, inp.params, inp.spec.bc, ops=inp.ops)


# ---------------------------------------------------------------- fine runs


def fine_pass(inp, out_dir, gauge):
    """What `msflow fine` does after set-up: run, export, statistics."""
    first = len(gauge.segments)
    gauge.start()
    traj = gauged_run_fine(inp, gauge)
    vtk_io.export_vtk(inp.mesh, traj.final, os.path.join(out_dir, "fine.vtk"))
    gauge.mark("export")
    stats = analysis.field_statistics(traj.final, inp.mesh)
    gauge.mark("report")
    segments = gauge.since(first)
    return {
        "segments": segments,
        "steps": [s for s in segments if s["label"] == "step"],
        "final": traj.final,
        "div_max": float(traj.div_residuals.max()),
        "stats": stats,
    }


def _factor(tracer, system):
    with tracer.span("saddle.factor") as span:
        solver = SaddleSolver(system)
    span["lu_fill"] = int(solver.lu.L.nnz + solver.lu.U.nnz)
    span["n_unknowns"] = int(solver.matrix.shape[0])
    return solver


def _solve(tracer, solver, rhs_u, rhs_p):
    with tracer.span("saddle.solve"):
        u, p = solver.solve(rhs_u, rhs_p)
    return DGState(u, p)


def traced_fine_loop(ops, params, tracer, linear=False):
    """`run_fine` rebuilt from its public calls, one span per call;
    returns the final state."""
    state = DGState.zeros(ops.patch.n_cells)
    with tracer.span("fine_solver.run_fine", linear=linear, n_steps=params.n_steps):
        solver = None
        if linear:
            with tracer.span("forms.fine_system"):
                system = ops.system(None)
            solver = _factor(tracer, system)
        for step in range(params.n_steps):
            with tracer.span("fine_solver.step", step=step):
                rhs_u = ops.mass @ state.velocity + ops.f_u
                if not linear:
                    with tracer.span("forms.fine_system"):
                        system = ops.system(state.velocity)
                    solver = _factor(tracer, system)
                state = _solve(tracer, solver, rhs_u, ops.f_p)
                with tracer.span("fine_solver.div_residual"):
                    ops.div_residual(state.velocity)
    return state


def traced_fine_pass(inp, out_dir, tracer):
    with tracer.span("pass") as span:
        final = traced_fine_loop(inp.ops, inp.params, tracer)
        with tracer.span("vtk_io.export"):
            vtk_io.export_vtk(inp.mesh, final, os.path.join(out_dir, "fine_traced.vtk"))
        with tracer.span("analysis.report"):
            analysis.field_statistics(final, inp.mesh)
    return {"span": span, "final": final}


def check_fine(outcome, inp, result, expected):
    outcome.check(
        "step_marks",
        len(result["steps"]) == inp.params.n_steps,
        f"{len(result['steps'])} step marks for {inp.params.n_steps} steps",
    )
    outcome.check(
        "div_residual",
        result["div_max"] < DIV_RESIDUAL_BOUND,
        f"max StepOperators.div_residual {result['div_max']:.3e} < {DIV_RESIDUAL_BOUND:g}",
    )
    stats = stats_dict(result["stats"])
    finite = all(math.isfinite(v) for region in stats.values() for v in region.values())
    outcome.check(
        "speed_contrast",
        finite and stats["porous"]["mean_speed"] < stats["fluid"]["mean_speed"],
        "finite statistics, porous mean speed below fluid mean speed",
    )
    digest = input_digest(inp)
    stored = expected["field_statistics"].get(digest)
    if stored is None:
        outcome.note("field_statistics", f"no stored statistics for inputs {digest}")
        return
    worst = max(
        abs(stats[r][k] - v) / max(abs(v), 1e-300)
        for r, region in stored["statistics"].items()
        for k, v in region.items()
    )
    outcome.check(
        "field_statistics",
        worst <= STATS_REL_TOL,
        f"largest relative deviation {worst:.2e} from stored values "
        f"({stored['label']}), tolerance {STATS_REL_TOL:g}",
    )


# ---------------------------------------------------------- multiscale runs


def _split_warnings(caught):
    rank = sum(1 for w in caught if str(w.message).startswith(RANK_WARNING))
    other = sorted({str(w.message) for w in caught if not str(w.message).startswith(RANK_WARNING)})
    return rank, other


def ms_pass(inp, reference, out_dir, gauge):
    """The multiscale half of one `msflow sweep` Darcy slice, plus the
    M=16 field export that `msflow ms` writes."""
    mesh, coarse, params, bc, ops = inp.mesh, inp.coarse, inp.params, inp.spec.bc, inp.ops
    m_max = max(MS_M_LIST)
    reports, spaces = {}, {}
    online_resid = 0.0
    first = len(gauge.segments)
    gauge.start()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        u_lin = gmsfem.compute_linearization_field(mesh, params, bc)
        gauge.mark("offline.linearization")
        for oversampled in (False, True):
            tag = "os" if oversampled else "plain"
            space = gmsfem.build_multiscale_space(
                mesh, coarse, params, bc, m=m_max, oversampled=oversampled, u_lin=u_lin
            )
            gauge.mark("offline.build")
            spaces[oversampled] = space
            for m in MS_M_LIST:
                sub = space
                if m != space.m:
                    sub = gmsfem.resize_space(space, mesh, coarse, m)
                    gauge.mark("offline.projection")
                traj, fine_state = gmsfem.run_multiscale(
                    mesh, coarse, params, bc, space=sub, ops=ops
                )
                gauge.mark(f"online.m{m}.{tag}")
                online_resid = max(online_resid, float(traj.div_residuals.max()))
                reports[(m, oversampled)] = analysis.make_report(
                    reference, fine_state.velocity, traj.final.pressure,
                    mesh, coarse, m, oversampled, params,
                )
                if m == m_max:
                    vtk_io.export_vtk(mesh, fine_state, os.path.join(out_dir, f"ms_m{m}_{tag}.vtk"))
                gauge.mark("report")
    segments = gauge.since(first)
    rank_dropped, other_warnings = _split_warnings(caught)
    n_online_steps = 2 * len(MS_M_LIST) * params.n_steps
    return {
        "segments": segments,
        # one sample per pass: the mean online step over all eight runs
        "steps": [{k: seconds(segments, k, "online.") / n_online_steps for k in ("s", "raw_s")}],
        "online_div_max": online_resid,
        "reports": reports,
        "spaces": spaces,
        "u_lin": u_lin,
        "rank_dropped": rank_dropped,
        "other_warnings": other_warnings,
    }


def traced_offline(mesh, coarse, params, u_lin, m, oversampled, tracer):
    """`build_multiscale_space` (one worker) rebuilt from its per-cell calls."""
    bases = []
    with tracer.span("gmsfem.offline", oversampled=oversampled):
        for i in range(coarse.n_cells):
            with tracer.span("gmsfem.snapshots", cell=i) as span:
                snap = gmsfem.build_snapshots(mesh, coarse, params, i, oversampled, u_lin)
            span["snapshots"] = int(snap.n_snapshots)
            with tracer.span("gmsfem.spectral", cell=i):
                bases.append(gmsfem.spectral_reduce(snap, mesh, coarse, params, m))
        bases.sort(key=lambda b: b.cell_index)
        with tracer.span("gmsfem.projection"):
            r_u, r_p = gmsfem.build_projection(bases, mesh, coarse, m)
    return gmsfem.MultiscaleSpace(
        m=m, oversampled=bool(oversampled), cell_bases=bases, r_u=r_u, r_p=r_p
    )


def traced_ms_pass(inp, reference, out_dir, tracer):
    mesh, coarse, params, bc, ops = inp.mesh, inp.coarse, inp.params, inp.spec.bc, inp.ops
    m_max = max(MS_M_LIST)
    spaces, reports = {}, {}
    with tracer.span("pass") as pass_span, warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with tracer.span("gmsfem.linearization"):
            with tracer.span("forms.step_operators"):
                lin_ops = StepOperators(mesh, params, bc)
            u_lin = traced_fine_loop(lin_ops, params, tracer, linear=True).velocity.copy()
        for oversampled in (False, True):
            tag = "os" if oversampled else "plain"
            space = traced_offline(mesh, coarse, params, u_lin, m_max, oversampled, tracer)
            spaces[oversampled] = space
            for m in MS_M_LIST:
                sub = space
                if m != space.m:
                    with tracer.span("gmsfem.projection"):
                        sub = gmsfem.resize_space(space, mesh, coarse, m)
                with tracer.span(f"gmsfem.online.m{m}.{tag}"):
                    traj, fine_state = gmsfem.run_multiscale(
                        mesh, coarse, params, bc, space=sub, ops=ops
                    )
                with tracer.span("analysis.report"):
                    reports[(m, oversampled)] = analysis.make_report(
                        reference, fine_state.velocity, traj.final.pressure,
                        mesh, coarse, m, oversampled, params,
                    )
                if m == m_max:
                    with tracer.span("vtk_io.export"):
                        vtk_io.export_vtk(
                            mesh, fine_state, os.path.join(out_dir, f"ms_m{m}_{tag}_traced.vtk")
                        )
    rank_dropped, _ = _split_warnings(caught)
    return {
        "span": pass_span,
        "u_lin": u_lin,
        "spaces": spaces,
        "reports": reports,
        "rank_dropped": rank_dropped,
    }


def csv_rows(reports, coarse, out_dir):
    """The M-rows of the CSV `msflow sweep` writes for these reports."""
    path = os.path.join(out_dir, "errors.csv")
    cli.write_sweep_csv(path, MS_M_LIST, reports, coarse)
    with open(path) as fh:
        return fh.read().splitlines()[1:]


def check_ms(outcome, inp, result, reference, expected, out_dir):
    outcome.check(
        "reference_div_residual",
        reference["div_max"] < DIV_RESIDUAL_BOUND,
        f"max div_residual of the fine reference {reference['div_max']:.3e} < {DIV_RESIDUAL_BOUND:g}",
    )
    outcome.check(
        "online_div_residual",
        result["online_div_max"] < DIV_RESIDUAL_BOUND,
        f"max coarse continuity residual {result['online_div_max']:.3e} < {DIV_RESIDUAL_BOUND:g}",
    )
    stored = expected["desk_ms_csv"]
    if stored["digest"] != input_digest(inp):
        outcome.note("sweep_csv", "stored CSV rows belong to other inputs")
        return
    rows = csv_rows(result["reports"], inp.coarse, out_dir)
    outcome.check(
        "sweep_csv",
        rows == stored["rows"],
        f"M-rows equal the stored copy of {stored['source']} to 6 decimals"
        if rows == stored["rows"]
        else f"got {rows} want {stored['rows']}",
    )


# ------------------------------------------------------- running a workload


def plain_pass(workload, inp, reference, out_dir, outcome, expected, gauge):
    if workload.kind == "fine":
        outcome.ops(inp.params.n_steps)
        result = fine_pass(inp, out_dir, gauge)
        check_fine(outcome, inp, result, expected)
    else:
        outcome.ops(2 + 2 * len(MS_M_LIST))
        result = ms_pass(inp, reference["state"], out_dir, gauge)
        check_ms(outcome, inp, result, reference, expected, out_dir)
    return result


def traced_pass(workload, inp, reference, out_dir, outcome, tracer, plain):
    """The traced rebuild of a pass, checked against the plain pass."""
    if workload.kind == "fine":
        result = traced_fine_pass(inp, out_dir, tracer)
        outcome.check(
            "equivalence.fine_loop",
            same_state(result["final"], plain["final"]),
            "rebuilt fine loop final state bit-identical to run_fine",
        )
    else:
        result = traced_ms_pass(inp, reference["state"], out_dir, tracer)
        outcome.check(
            "equivalence.linearization",
            np.array_equal(result["u_lin"], plain["u_lin"]),
            "rebuilt linear loop bit-identical to compute_linearization_field",
        )
        spaces = [(result["spaces"][o], plain["spaces"][o]) for o in (False, True)]
        outcome.check(
            "equivalence.offline",
            all(same_csr(a.r_u, b.r_u) and same_csr(a.r_p, b.r_p) for a, b in spaces),
            "rebuilt per-cell offline loop r_u/r_p bit-identical to build_multiscale_space",
        )
        outcome.check(
            "equivalence.reports",
            all(result["reports"][k].percent() == r.percent() for k, r in plain["reports"].items()),
            "traced pass reproduces the plain pass's error reports",
        )
    span = result["span"]
    result["overhead_s"] = (span["end"] - span["start"]) - seconds(plain["segments"], "raw_s")
    return result


def run(workload, root, seed, seconds_wanted, traced, out_dir, outcome, tracer):
    """Set up, then repeat the workload's pass until `seconds_wanted` have
    passed.

    Records operations and checks in `outcome` and spans in `tracer`;
    returns the end-to-end and per-layer values, workload-specific figures
    and the raw segments.
    """
    os.makedirs(out_dir, exist_ok=True)
    expected = load_expected()
    gauge = SpeedGauge()

    # Set-up runs SETUP_REPEATS times: twice before the passes and the rest
    # after them, so that its median spans the run rather than one moment.
    inp, segments = set_up(workload, root, seed, out_dir, gauge)
    setups = [segments, set_up(workload, root, seed, out_dir, gauge)[1]]
    figures = {"inputs_digest": input_digest(inp), "n_cells": int(inp.mesh.n_cells)}
    reference, ref_segments = None, []
    if workload.kind == "ms":
        first = len(gauge.segments)
        gauge.start()
        traj = gauged_run_fine(inp, gauge)
        ref_segments = gauge.since(first)
        figures["reference_s"] = seconds(ref_segments)
        figures["reference_raw_s"] = seconds(ref_segments, "raw_s")
        reference = {"state": traj.final, "div_max": float(traj.div_residuals.max())}

    plain, traced_passes = [], []
    start = time.perf_counter()
    while True:
        plain.append(plain_pass(workload, inp, reference, out_dir, outcome, expected, gauge))
        if traced:
            tracer.trace_id = len(traced_passes)
            traced_passes.append(
                traced_pass(workload, inp, reference, out_dir, outcome, tracer, plain[-1])
            )
        if time.perf_counter() - start >= seconds_wanted:
            break
    setups += [set_up(workload, root, seed, out_dir, gauge)[1] for _ in range(SETUP_REPEATS - 2)]

    steps = [s for r in plain for s in r["steps"]]
    median = statistics.median
    end_to_end = {
        "setup_s": median(seconds(s) for s in setups) + figures.get("reference_s", 0.0),
        "wall_s": median(seconds(r["segments"]) for r in plain),
        "step_s": median(statistics.mean(s["s"] for s in r["steps"]) for r in plain),
    }
    figures.update(
        passes=len(plain),
        step_samples=len(steps),
        probe_s=median(gauge.probes),
        setup_raw_s=median(seconds(s, "raw_s") for s in setups)
        + figures.get("reference_raw_s", 0.0),
        wall_raw_s=median(seconds(r["segments"], "raw_s") for r in plain),
        step_raw_s=median(statistics.mean(s["raw_s"] for s in r["steps"]) for r in plain),
    )
    if workload.kind == "fine":
        figures["fine_step_s"] = median(s["s"] for s in steps)
        figures["fine_step_s.p80"] = statistics.quantiles([s["s"] for s in steps], n=5)[-1]
    else:
        for key, prefix in (
            ("linearization_s", "offline.linearization"),
            ("offline_s", "offline."),
            ("online_s", "online."),
        ):
            figures[key] = median(seconds(r["segments"], prefix=prefix) for r in plain)
        figures["online_step_s.m16"] = median(
            seconds(r["segments"], prefix=f"online.m{max(MS_M_LIST)}.") / (2 * inp.params.n_steps)
            for r in plain
        )
        figures["rank_warnings"] = plain[-1]["rank_dropped"]
        figures["other_warnings"] = plain[-1]["other_warnings"]

    per_layer = {}
    if traced:
        layer_sets = [layer_values(tracer.of_trace(i), t) for i, t in enumerate(traced_passes)]
        per_layer = {key: median(v[key] for v in layer_sets) for key in layer_sets[0]}
        per_layer["geometry.mesh_s"] = median(seconds(s, "raw_s", "mesh") for s in setups)
        per_layer["forms.step_operators_s"] = median(
            seconds(s, "raw_s", "step_operators") for s in setups
        )
        if workload.kind == "ms":
            figures.update(ms_layer_figures(tracer.of_trace(len(traced_passes) - 1)))
    return {
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "figures": figures,
        "samples": {
            "setups": setups,
            "passes": [r["segments"] for r in plain],
            "reference": ref_segments,
        },
    }


def layer_values(spans, t_result):
    """Per-layer totals of one traced pass; every workload reports each."""
    factors = [s for s in spans if s["name"] == "saddle.factor"]
    snaps = [s["snapshots"] for s in spans if s["name"] == "gmsfem.snapshots"]
    return {
        "forms.fine_system_s": total(spans, "forms.fine_system"),
        "saddle.factor_s": total(spans, "saddle.factor"),
        "saddle.solve_s": total(spans, "saddle.solve"),
        "saddle.lu_fill": statistics.median_low(s["lu_fill"] for s in factors),
        "saddle.n_unknowns": max(s["n_unknowns"] for s in factors),
        "saddle.factor_count": len(factors),
        "saddle.solve_count": count(spans, "saddle.solve"),
        "fine_solver.step_s": statistics.median(
            s["end"] - s["start"] for s in spans if s["name"] == "fine_solver.step"
        ),
        "gmsfem.snapshot_count": sum(snaps),
        "gmsfem.rank_dropped": t_result.get("rank_dropped", 0),
        "analysis.report_s": total(spans, "analysis.report"),
        "vtk_io.export_s": total(spans, "vtk_io.export"),
        "trace.overhead_s": t_result["overhead_s"],
    }


def ms_layer_figures(spans):
    """gmsfem timings that only desk-ms has; reported beside the metrics."""
    out = {
        "gmsfem.linearization_s": total(spans, "gmsfem.linearization"),
        "gmsfem.snapshots_s": total(spans, "gmsfem.snapshots"),
        "gmsfem.spectral_s": total(spans, "gmsfem.spectral"),
        "gmsfem.projection_s": total(spans, "gmsfem.projection"),
        "gmsfem.snapshots_per_cell": sorted(
            {s["snapshots"] for s in spans if s["name"] == "gmsfem.snapshots"}
        ),
    }
    for m in MS_M_LIST:
        for tag in ("plain", "os"):
            out[f"gmsfem.online_s.m{m}.{tag}"] = total(spans, f"gmsfem.online.m{m}.{tag}")
    return out
