"""Command-line driver: mesh generation, fine and multiscale runs, parameter
sweeps shaped like the benchmark error tables, and state comparison."""

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import analysis, gmsfem, vtk_io
from .atomic import atomic_write
from .config import parse_config
from .errors import ConfigError, MsflowError
from .fine_solver import StepOperators, run_fine
from .geometry import generate_structured_mesh, load_mesh, save_mesh
from .parameters import DGState
from .patches import coarse_cell_patch


def _build_mesh(spec):
    if spec.mesh_source == "load":
        return load_mesh(spec.mesh_path)
    return generate_structured_mesh(spec.domain, spec.n_per_coarse, (spec.nx, spec.ny))


def _write_json(path, payload):
    with atomic_write(path) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_reference(path, mesh):
    """The state of a VTK file written on this run's mesh: its points, cells
    and region tags must equal the mesh's, bit for bit."""
    points, cells, state, region = vtk_io.read_vtk_state(path)
    try:
        state.validate(mesh.n_cells)
    except ValueError as exc:
        raise MsflowError(f"{path}: {exc} (not a state on this run's mesh)") from exc
    for name, got, want in (
        ("points", points, mesh.verts),
        ("cells", cells, mesh.cells),
        ("region tags", region, mesh.region),
    ):
        if not np.array_equal(got, want):
            raise MsflowError(f"{path}: {name} differ from this run's mesh")
    return state


def run_mesh_mode(spec, mesh, coarse):
    mesh_path = os.path.join(spec.out_dir, "mesh.txt")
    save_mesh(mesh_path, mesh, coarse)
    vtk_path = os.path.join(spec.out_dir, "mesh.vtk")
    vtk_io.export_vtk(mesh, DGState.zeros(mesh.n_cells), vtk_path, title="msflow mesh")
    print(f"mesh: {mesh.n_cells} cells, {coarse.n_cells} coarse cells -> {mesh_path}")
    return 0


def run_fine_mode(spec, mesh, coarse):
    traj = run_fine(mesh, spec.params, spec.bc)
    state = traj.final
    vtk_path = os.path.join(spec.out_dir, "fine.vtk")
    vtk_io.export_vtk(mesh, state, vtk_path)
    stats = analysis.field_statistics(state, mesh)
    payload = {
        "dof_fine": analysis.dof_fine(mesh.n_cells),
        "max_div_residual": float(traj.div_residuals.max()),
        "statistics": dataclasses.asdict(stats),
    }
    _write_json(os.path.join(spec.out_dir, "fine_stats.json"), payload)
    print(f"fine run: {spec.params.n_steps} steps -> {vtk_path}")
    return 0


def _report_payload(report):
    e_u, e_s, e_p = report.percent()
    return {
        "e_u_percent": e_u,
        "e_s_percent": e_s,
        "e_p_percent": e_p,
        "dof_fine": report.dof_h,
        "dof_multiscale": report.dof_ms,
        "metadata": report.metadata,
    }


def _spaces(spec, mesh, coarse, params, settings, ops):
    """The basis space of size max(spec.m_list) for each oversampling
    setting, loaded from the optional file cache or built (and then cached).
    Spaces that miss the cache share one linearization field, the linear
    run on ops."""
    cache, bc = spec.basis_cache, spec.bc
    spaces, u_lin = {}, None
    for oversampled in settings:
        args = (mesh, coarse, params, bc, max(spec.m_list), oversampled)
        space = gmsfem.load_space(cache, *args) if cache else None
        if space is None:
            if u_lin is None:
                u_lin = gmsfem.compute_linearization_field(mesh, params, bc, ops=ops)
            space = gmsfem.build_multiscale_space(*args, u_lin=u_lin)
            if cache:
                gmsfem.save_space(cache, mesh, params, bc, space)
        spaces[oversampled] = space
    return spaces


def _check_basis_size(m, mesh, coarse, settings):
    """Reject a basis size above a coarse cell's snapshot count, two per
    boundary facet of its plain or oversampled patch, before any solve."""
    for oversampled in settings:
        for i in range(coarse.n_cells):
            patch = coarse_cell_patch(mesh, coarse, i, oversampled=oversampled)
            n_snap = 2 * len(patch.dirichlet_edges)
            if m > n_snap:
                kind = "oversampled patch" if oversampled else "patch"
                raise ConfigError(
                    f"basis size {m} exceeds the {n_snap} snapshots of coarse cell {i} ({kind})"
                )


def _check_reference(ref, mesh, coarse, params):
    """An MsflowError naming the Darcy value when the relative errors
    against ref are undefined (a zero reference)."""
    try:
        analysis.check_reference(ref, mesh, coarse)
    except ValueError as exc:
        raise MsflowError(f"Da={params.darcy:g}: {exc}") from exc


def _multiscale_runs(spec, mesh, coarse, params, settings, ref=None):
    """The multiscale runs of one Darcy value on one StepOperators.  The
    spaces come before the fine reference (run unless ref is given), so a
    basis size above a coarse cell's kept rank fails before that run; the
    smaller sizes are row slices (offline eigenvectors are prefix-reusable).
    Yields (m, oversampled, fine_state, report), m ascending per setting.
    A zero reference is an MsflowError as soon as the reference exists: a
    given ref before any space is built, a computed one before the first
    online run."""
    if ref is not None:
        _check_reference(ref, mesh, coarse, params)
    ops = StepOperators(mesh, params, spec.bc)
    spaces = _spaces(spec, mesh, coarse, params, settings, ops)
    if ref is None:
        ref = run_fine(mesh, params, spec.bc, ops=ops).final
        _check_reference(ref, mesh, coarse, params)
    for oversampled in settings:
        space = spaces[oversampled]
        for m in sorted(spec.m_list):
            sub = space if m == space.m else gmsfem.resize_space(space, mesh, coarse, m)
            traj, fine_state = gmsfem.run_multiscale(mesh, coarse, params, spec.bc, sub, ops=ops)
            try:
                report = analysis.make_report(
                    ref, fine_state.velocity, traj.final.pressure, mesh, coarse, m,
                    oversampled, params,
                )
            except ValueError as exc:
                kind = "oversampled" if oversampled else "plain"
                raise MsflowError(f"Da={params.darcy:g}, M={m}, {kind}: {exc}") from exc
            yield m, oversampled, fine_state, report


def run_ms_mode(spec, mesh, coarse):
    settings = (spec.oversampled,)
    _check_basis_size(max(spec.m_list), mesh, coarse, settings)
    gmsfem.default_thread_count()  # a bad MSFLOW_THREADS fails before any solve
    ref = _load_reference(spec.reference, mesh) if spec.reference else None
    runs = _multiscale_runs(spec, mesh, coarse, spec.params, settings, ref)
    for m, _, fine_state, report in runs:
        vtk_io.export_vtk(mesh, fine_state, os.path.join(spec.out_dir, f"ms_m{m}.vtk"))
        _write_json(os.path.join(spec.out_dir, f"ms_report_m{m}.json"), _report_payload(report))
        e_u, e_s, e_p = report.percent()
        print(
            f"m={m:3d} dof={report.dof_ms:6d} "
            f"e_u={e_u:.3f}% e_s={e_s:.3f}% e_p={e_p:.3f}%"
        )
    return 0


def write_sweep_csv(path, m_list, results, coarse):
    lines = ["M,DOF_H,e_u_plain,e_s_plain,e_p_plain,e_u_os,e_s_os,e_p_os"]
    for m in m_list:
        plain = results[(m, False)].percent()
        os_ = results[(m, True)].percent()
        dof = analysis.dof_multiscale(coarse.n_cells, m)
        cells = [str(m), str(dof)] + [f"{v:.6f}" for v in (*plain, *os_)]
        lines.append(",".join(cells))
    with atomic_write(path, newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def run_sweep_mode(spec, mesh, coarse):
    settings = (False, True)
    _check_basis_size(max(spec.m_list), mesh, coarse, settings)
    gmsfem.default_thread_count()
    for darcy in spec.da_list:
        runs = _multiscale_runs(spec, mesh, coarse, spec.params.with_darcy(darcy), settings)
        results = {(m, oversampled): report for m, oversampled, _, report in runs}
        path = os.path.join(spec.out_dir, f"errors_da_{darcy:g}.csv")
        write_sweep_csv(path, spec.m_list, results, coarse)
        print(f"Da={darcy:g}: wrote {path}")
    return 0


def run_compare_mode(spec, mesh, coarse):
    ref = _load_reference(spec.reference, mesh)
    other = _load_reference(spec.other, mesh)
    try:
        p_other = analysis.coarse_average(other.pressure, mesh, coarse)
        e_u, e_s, e_p = analysis.relative_errors(ref, other.velocity, p_other, mesh, coarse)
    except ValueError as exc:
        raise MsflowError(f"{spec.other} against {spec.reference}: {exc}") from exc
    payload = {
        "e_u_percent": 100.0 * e_u,
        "e_s_percent": 100.0 * e_s,
        "e_p_percent": 100.0 * e_p,
    }
    _write_json(os.path.join(spec.out_dir, "compare.json"), payload)
    print(
        f"compare: e_u={payload['e_u_percent']:.6f}% "
        f"e_s={payload['e_s_percent']:.6f}% e_p={payload['e_p_percent']:.6f}%"
    )
    return 0


_MODE_RUNNERS = {
    "mesh": run_mesh_mode,
    "fine": run_fine_mode,
    "ms": run_ms_mode,
    "sweep": run_sweep_mode,
    "compare": run_compare_mode,
}


def run(spec):
    """Execute a validated RunSpec; returns a process exit status.  Every
    mode writes into spec.out_dir, which is made first."""
    try:
        os.makedirs(spec.out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"output directory not creatable: {exc}", line=spec.out_line)
    mesh, coarse = _build_mesh(spec)
    return _MODE_RUNNERS[spec.mode](spec, mesh, coarse)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="msflow",
        description="Multiscale DG solver for flow with circular porous inclusions",
    )
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in _MODE_RUNNERS:
        p = sub.add_parser(mode)
        p.add_argument("--config", required=True, help="path to a run config file")
        p.add_argument("--out", default=None, help="output directory override")
        p.add_argument("--seed", type=int, default=None, help="inclusion seed override")
    args = parser.parse_args(argv)
    try:
        spec = parse_config(args.config, mode=args.mode, out_dir=args.out, seed=args.seed)
        return run(spec)
    except MsflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
