"""Implicit time loop on the fine grid.

Each step freezes the convective velocity and the drag speed at the previous
layer, so a step is a single linear saddle-point solve.  The linear mode
keeps both weights at zero (viscous/Darcy evolution only); it provides the
linearization field for the multiscale basis construction.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import forms
from .errors import SingularSystemError
from .parameters import DGState
from .patches import ND_LEAF_CELLS, full_patch, nested_dissection_order
from .saddle import (
    CellOrderedSaddle,
    SaddleSolver,
    SaddleSystem,
    column_residuals,
    ordered_step,
    permuted_saddle,
)


@dataclass
class Trajectory:
    """The last layer and the continuity residual accepted at each step."""

    final: DGState
    div_residuals: np.ndarray


class StepOperators:
    """Blocks that persist across time steps for a fixed mesh and data.

    A step freezes convection and the quadratic drag at the previous layer,
    so its matrix is a static saddle plus cell blocks.  The static saddle is
    upper = mass + viscous + Darcy, summed once here, and the divergence:
    step_saddle() holds it in the nested-dissection cell order,
    step_blocks(u_lin) the convection and drag of each cell.  system(u_lin)
    adds them on a saddle built on the first call and kept on ops, hands
    out its static kept factor, and records u_lin on the system, where a
    refinement starts (see SaddleSolver).  run_fine steps on a saddle of its
    own, so that its factor is freed when the run ends, and may refresh
    that factor (see the kept-factor policy in saddle).
    system(None), the constant system of the linear run, is left for
    SaddleSolver to order by COLAMD.

    mass and upper store no zeros: eliminate_zeros() drops the zero
    cross-component entries of forms._kron2's cell blocks from mass and
    keeps every other value's bits, and scipy's CSR sum stores no zero
    result.  div keeps its explicit zeros, since COLAMD orders the linear
    run on its pattern.
    """

    def __init__(self, mesh, params, bc, forcing=None):
        self.params = params
        self.patch = full_patch(mesh)
        self.mass = forms.assemble_mass(self.patch, params)
        self.mass.eliminate_zeros()
        self.div = forms.assemble_divergence(self.patch)
        viscous = forms.viscous_block(self.patch, params)
        self.upper = self.mass + viscous + forms.darcy_block(self.patch, params)
        self.f_u, self.f_p = forms.assemble_rhs(self.patch, params, bc, forcing=forcing)
        self._div_scale = abs(self.div).sum(axis=1).max() or 1.0

    @cached_property
    def cell_order(self):
        """Nested-dissection elimination order of the cells over the
        interior-edge cell graph, computed on first use."""
        patch = self.patch
        edges = np.column_stack([patch.plus.cell, patch.minus.cell])
        return nested_dissection_order(patch.mesh.centroid[patch.cells], edges, ND_LEAF_CELLS)

    @cached_property
    def _saddle(self):
        """The step saddle that system() steps on, built on first use."""
        return self.step_saddle()

    def step_saddle(self):
        """A new CellOrderedSaddle of upper and the divergence in cell_order;
        its step entries [c, d, a, b] couple test vertex a to trial vertex b
        in component d of cell c."""
        n = self.patch.n_cells
        dofs = forms.cell_dofs(np.arange(n)).transpose(0, 2, 1)
        rows = np.broadcast_to(dofs[:, :, :, None], (n, 2, 3, 3))
        cols = np.broadcast_to(dofs[:, :, None, :], (n, 2, 3, 3))
        upper = self.upper.tocsc()  # read as it is, see permuted_saddle
        return CellOrderedSaddle(upper, self.div, self.cell_order, rows, cols)

    def step_blocks(self, u_lin):
        """Convection plus drag linearized at the global field u_lin, one
        scalar 3x3 block per cell, (n, 1, 3, 3): the same in both velocity
        components."""
        blocks, porous, drag = forms.linearized_cell_blocks(self.patch, self.params, u_lin)
        blocks[porous] += drag
        return blocks[:, None]

    def system(self, u_lin=None):
        if u_lin is None:
            matrix = permuted_saddle(self.upper, self.div, np.arange(len(self.f_u) + len(self.f_p)))
            return SaddleSystem(matrix, self.f_u, self.f_p)
        saddle = self._saddle
        return saddle.system(saddle.static + self.step_blocks(u_lin), self.f_u, self.f_p, u_lin)

    def div_residual(self, velocity):
        """Relative continuity residual of a velocity vector."""
        return column_residuals(self.div, velocity, self.f_p, self._div_scale)


def march(step_solve, mass, f_u, div_residual, params, label, observe=None):
    """The implicit loop from the zero velocity, shared by the fine and the
    coarse runs: step k gets layer k + 1 and its SaddleSolver as (u, p,
    solver) = step_solve(u_k, mass @ u_k + f_u), records div_residual(u),
    then calls observe(k, state, solver) if given; the solver's matrix may
    be rewritten by the next step (see saddle.ordered_step).  Only the last
    layer is kept, a solved one since params.n_steps >= 1.  A
    SingularSystemError is raised again as "{label} {k}: ..."."""
    u = np.zeros(mass.shape[0])
    residuals = np.empty(params.n_steps)
    for step in range(params.n_steps):
        try:
            u, p, solver = step_solve(u, mass @ u + f_u)
        except SingularSystemError as exc:
            raise SingularSystemError(f"{label} {step}: {exc}") from exc
        state = DGState(u, p)
        residuals[step] = div_residual(u)
        if observe is not None:
            observe(step, state, solver)
        del solver  # no step's solver, or a factor it made, outlives its step
    return Trajectory(state, residuals)


def run_fine(mesh, params, bc, linear=False, forcing=None, ops=None, observe=None):
    """Run the implicit loop from the zero state (see march for observe).

    linear=True freezes convection and the quadratic drag at zero throughout,
    which makes the step matrix constant (factored once, by COLAMD).
    """
    ops = ops if ops is not None else StepOperators(mesh, params, bc, forcing=forcing)
    if linear:
        solver = SaddleSolver(ops.system(None))
        step_solve = lambda u, rhs_u: (*solver.solve(rhs_u, ops.f_p), solver)
    else:
        step_solve = ordered_step(ops.step_saddle(), ops.step_blocks, ops.f_p)
    return march(step_solve, ops.mass, ops.f_u, ops.div_residual, params, "fine step", observe)
