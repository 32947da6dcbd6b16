#!/usr/bin/env python3
"""Print one SHA-256 per assembled array, to show that two checkouts build
bit-identical operators.

Uses only public calls, and reads the `run_fine` layers through the run's
observer, so it runs against the package of any checkout whose `run_fine`
takes `observe`, whose `StepOperators` has `upper`, whose `forms` has
`linearized_cell_blocks` and `cell_block_matrix` and whose `gmsfem` has
`BASIS_VERSION`.  To compare against an older checkout, run that
checkout's own copy of the script:

    python scripts/operator_digest.py > change.txt
    (cd /path/to/other/checkout && python scripts/operator_digest.py) > other.txt
    diff other.txt change.txt

`--src DIR` names the `src/` directory to import `msflow` from (default:
this checkout's).  It digests the five edge arrays of the desk and the
paper_like meshes (`configs/desk_test1.cfg`, `configs/paper_like.cfg`), and
on the desk config:

- the `StepOperators` blocks and loads for every Darcy value of the config:
  `mass`, `div`, the static velocity block `upper` (mass + viscous +
  Darcy), and the `viscous` and `darcy` blocks as `forms.viscous_block`
  and `forms.darcy_block` assemble them, with their zeros dropped as older
  checkouts' `StepOperators` stored them; then
  the convection and Forchheimer blocks at a seeded field (labelled
  `convection_block` and `forchheimer_block`, as older checkouts print
  them), and the step matrices `ops.system(None)` (linear) and
  `ops.system(field)` (ordered);
- for every coarse patch, plain and oversampled: the viscous block, the
  divergence, the unit-delta Dirichlet loads and the spectral pair;
- a manufactured-data `assemble_rhs` with traction and forcing;
- every state of a 3-step `run_fine`, the zero state as step0, and its
  continuity residuals;
- the multiscale stage at Da=1e-3: the linearization field, the plain
  `r_u` and `r_p` at M=16, their `resize_space` slices at M=2, 4 and 8, the
  final coarse and fine states and the continuity residuals of
  `run_multiscale` at every size, `r_u` after a `save_space` / `load_space`
  round trip through a temporary directory, every coarse cell's eigenvalues
  in the plain and the oversampled space, the oversampled `r_u` and `r_p`
  at M=16, and the final coarse and fine states and the continuity
  residuals of the oversampled `run_multiscale` at every size.  The
  eigenvalues and the two `r_u` cover every pinned snapshot solve;
- the final coarse and fine states and the continuity residuals of the
  test2 preset's `run_multiscale` at Da=1e-3 on its plain space at M=16.
  Its coarse steps refresh the kept factor they refine from, which no test1
  run above does.

Last come `gmsfem.BASIS_VERSION` and the basis-cache keys of the plain and
the oversampled space at Da=1e-3, read from the names of the files
`save_space` writes.  Bases that move while the version stays the same
show as changed eigenvalue or `r_u` lines under an unchanged
`basis_version` line.

A sparse matrix is hashed through its data, indices and indptr, and every
array through its dtype and shape as well as its bytes.  The thread pools
are pinned as perfbench pins them (scripts/harness.py): the oversampled
eigenvalues and everything after them depend on the BLAS thread count, so
two shells would otherwise print other hashes for the same code.  Takes
about twenty seconds.
"""

import argparse
import dataclasses
import hashlib
import pathlib
import tempfile

import harness  # before numpy, which reads the environment it pins
import numpy as np
import scipy.sparse as sp

if __name__ == "__main__":  # --src names the msflow that the imports below load
    harness.parse_args(argparse.ArgumentParser(description=__doc__.splitlines()[0]))

from msflow import forms, gmsfem  # noqa: E402
from msflow.fine_solver import StepOperators, run_fine  # noqa: E402
from msflow.parameters import BoundaryData, DGState, preset_parameters  # noqa: E402
from msflow.patches import coarse_cell_patch, full_patch  # noqa: E402
from msflow.quadrature import EDGE_G2_W  # noqa: E402

EDGE_ARRAYS = ("edge_verts", "edge_cells", "edge_normal", "edge_length", "edge_side")
MS_DARCY = 1e-3
MS_SIZES = (2, 4, 8, 16)


def digest(array):
    parts = (array.data, array.indices, array.indptr) if sp.issparse(array) else (array,)
    h = hashlib.sha256()
    for x in map(np.ascontiguousarray, parts):
        h.update(f"{x.dtype.str}{x.shape}".encode())
        h.update(x.tobytes())
    return h.hexdigest()


def show(name, array):
    print(f"{name} {digest(array)}")


def manufactured_bc():
    def velocity(x):
        return np.column_stack([np.sin(x[:, 1]) + x[:, 0] ** 2, np.cos(x[:, 0]) * x[:, 1]])

    def grad(x):
        g = np.zeros((len(x), 2, 2))
        g[:, 0, 0], g[:, 0, 1] = 2.0 * x[:, 0], np.cos(x[:, 1])
        g[:, 1, 0], g[:, 1, 1] = -np.sin(x[:, 0]) * x[:, 1], np.cos(x[:, 0])
        return g

    def traction(x):
        return np.column_stack([1.0 + x[:, 1] ** 2, -0.5 * x[:, 0]])

    return BoundaryData(velocity=velocity, grad=grad, traction=traction)


def main():
    for tag, scale in (("desk", "desk"), ("paper_like", "paper")):
        built = harness.config_mesh(scale)[1]
        for name in EDGE_ARRAYS:
            show(f"{tag}.mesh.{name}", getattr(built, name))
    spec, mesh, coarse = harness.config_mesh("desk")
    field = np.random.default_rng(0).standard_normal(6 * mesh.n_cells)

    for darcy in spec.da_list:
        params = spec.params.with_darcy(darcy)
        ops = StepOperators(mesh, params, spec.bc)
        tag = f"da={darcy:g}"
        viscous_block = forms.viscous_block(ops.patch, params)
        darcy_block = forms.darcy_block(ops.patch, params)
        for block in (viscous_block, darcy_block):
            block.eliminate_zeros()
        blocks = ("mass", ops.mass), ("div", ops.div), ("viscous", viscous_block), ("darcy", darcy_block)
        for name, array in (*blocks, ("upper", ops.upper), ("f_u", ops.f_u), ("f_p", ops.f_p)):
            show(f"{tag} step_operators.{name}", array)
        convection, porous, drag = forms.linearized_cell_blocks(ops.patch, params, field)
        every = np.arange(ops.patch.n_cells)
        show(f"{tag} convection_block", forms.cell_block_matrix(ops.patch, every, convection))
        show(f"{tag} forchheimer_block", forms.cell_block_matrix(ops.patch, porous, drag))
        show(f"{tag} system(None).matrix", ops.system(None).matrix)
        show(f"{tag} system(field).matrix", ops.system(field).matrix)

    params = spec.params
    for oversampled in (False, True):
        for i in range(coarse.n_cells):
            patch = coarse_cell_patch(mesh, coarse, i, oversampled=oversampled)
            tag = f"coarse{i}.{'os' if oversampled else 'plain'}"
            show(f"{tag} viscous_block", forms.viscous_block(patch, params))
            show(f"{tag} divergence", forms.assemble_divergence(patch))
            ones = np.ones((len(patch.dirichlet_edges), len(EDGE_G2_W), 2))
            contrib, intg = forms.dirichlet_facet_terms(patch, params, ones)
            show(f"{tag} delta_load.momentum", contrib)
            show(f"{tag} delta_load.flux", intg)
            stiffness, trace_mass = forms.assemble_spectral_pair(patch, params)
            show(f"{tag} spectral.stiffness", stiffness)
            show(f"{tag} spectral.trace_mass", trace_mass)

    f_u, f_p = forms.assemble_rhs(
        full_patch(mesh), params, manufactured_bc(),
        forcing=lambda x: np.column_stack([x[:, 0] * x[:, 1], 1.0 - x[:, 0]]),
    )
    show("manufactured_rhs.f_u", f_u)
    show("manufactured_rhs.f_p", f_p)

    layers = [DGState.zeros(mesh.n_cells)]
    short = dataclasses.replace(params, n_steps=3, t_max=None)
    traj = run_fine(mesh, short, spec.bc, observe=lambda step, state, solver: layers.append(state))
    for step, state in enumerate(layers):
        show(f"run_fine.step{step}.velocity", state.velocity)
        show(f"run_fine.step{step}.pressure", state.pressure)
    show("run_fine.div_residuals", traj.div_residuals)

    multiscale(mesh, coarse, spec.params.with_darcy(MS_DARCY), spec.bc)


def multiscale(mesh, coarse, params, bc):
    """The offline stage at MS_DARCY, plain and oversampled, the online
    stage of both, a cache round trip and the test2 online run."""
    ops = StepOperators(mesh, params, bc)
    m_max = max(MS_SIZES)
    u_lin = gmsfem.compute_linearization_field(mesh, params, bc)
    show(f"ms.da={MS_DARCY:g} linearization_field", u_lin)
    space = gmsfem.build_multiscale_space(mesh, coarse, params, bc, m=m_max, u_lin=u_lin)
    for m, sub in harness.slices(space, mesh, coarse, MS_SIZES):
        tag = f"ms.da={MS_DARCY:g}.m{m}"
        show(f"{tag} r_u", sub.r_u)
        show(f"{tag} r_p", sub.r_p)
        online(mesh, coarse, params, bc, sub, ops, tag)
    with tempfile.TemporaryDirectory() as cache:
        plain_file = gmsfem.save_space(cache, mesh, params, bc, space)
        loaded = gmsfem.load_space(cache, mesh, coarse, params, bc, m_max, False)
    show(f"ms.da={MS_DARCY:g}.m{m_max} cached.r_u", loaded.r_u)
    over = gmsfem.build_multiscale_space(
        mesh, coarse, params, bc, m=m_max, oversampled=True, u_lin=u_lin
    )
    for kind, built in (("plain", space), ("os", over)):
        for basis in built.cell_bases:
            tag = f"ms.da={MS_DARCY:g}.{kind} coarse{basis.cell_index}"
            show(f"{tag}.eigenvalues", basis.eigenvalues)
    show(f"ms.da={MS_DARCY:g}.m{m_max} os.r_u", over.r_u)
    show(f"ms.da={MS_DARCY:g}.m{m_max} os.r_p", over.r_p)
    for m, sub in harness.slices(over, mesh, coarse, MS_SIZES):
        online(mesh, coarse, params, bc, sub, ops, f"ms.da={MS_DARCY:g}.m{m} os")
    test2 = preset_parameters(
        "test2", params.darcy, n_steps=params.n_steps, porosity=params.porosity, penalty=params.penalty
    )
    refreshed = gmsfem.build_multiscale_space(mesh, coarse, test2, bc, m=m_max)
    online(
        mesh, coarse, test2, bc, refreshed, StepOperators(mesh, test2, bc),
        f"ms.test2.da={MS_DARCY:g}.m{m_max}",
    )
    with tempfile.TemporaryDirectory() as cache:
        os_file = gmsfem.save_space(cache, mesh, params, bc, over)
    print(f"basis_version {gmsfem.BASIS_VERSION}")
    for kind, path in (("plain", plain_file), ("os", os_file)):
        print(f"ms.da={MS_DARCY:g}.{kind} cache_key {pathlib.Path(path).name.split('_')[1]}")


def online(mesh, coarse, params, bc, space, ops, tag):
    """The final coarse and fine states and the continuity residuals of
    run_multiscale on a space."""
    traj, fine_state = gmsfem.run_multiscale(mesh, coarse, params, bc, space=space, ops=ops)
    show(f"{tag} coarse.velocity", traj.final.velocity)
    show(f"{tag} coarse.pressure", traj.final.pressure)
    show(f"{tag} fine.velocity", fine_state.velocity)
    show(f"{tag} fine.pressure", fine_state.pressure)
    show(f"{tag} coarse.div_residuals", traj.div_residuals)


if __name__ == "__main__":
    main()
