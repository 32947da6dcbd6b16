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
from .geometry import POROUS
from .parameters import DGState
from .patches import ND_LEAF_CELLS, full_patch, nested_dissection_order
from .saddle import CellOrderedSaddle, SaddleSolver, SaddleSystem, relative_residual, saddle_matrix


@dataclass
class Trajectory:
    """States at layers 0..n_steps (layer 0 is the zero initial condition),
    their times, and the continuity residual accepted at each step."""

    states: list
    times: np.ndarray
    div_residuals: np.ndarray

    @property
    def final(self):
        return self.states[-1]


class StepOperators:
    """Blocks that persist across time steps for a fixed mesh and data.

    system(None), the constant system of the linear run, is left for
    SaddleSolver to order by COLAMD.  system(u_lin), the system of a
    nonlinear step, comes in the nested-dissection cell order; its ordered
    pattern and the kept float32 factor of its static matrix are built on
    the first call and kept on ops (see _OrderedStep).  run_fine holds a
    pattern and factor of its own for its loop, so that they are freed when
    the run ends; a step's answer is the same from either.  A step that
    misses the kept factor is solved by a float64 factor of its own (see
    SaddleSolver).
    """

    def __init__(self, mesh, params, bc, forcing=None):
        self.mesh = mesh
        self.params = params
        self.patch = full_patch(mesh)
        self.mass = forms.assemble_mass(self.patch, params)
        self.div = forms.assemble_divergence(self.patch)
        self.viscous = forms.viscous_block(self.patch, params)
        self.darcy = forms.darcy_block(self.patch, params)
        self.f_u, self.f_p = forms.assemble_rhs(self.patch, params, bc, forcing=forcing)
        self._div_scale = abs(self.div).sum(axis=1).max() or 1.0
        self._step = None

    @cached_property
    def cell_order(self):
        """Nested-dissection elimination order of the cells over the
        interior-edge cell graph, computed on first use."""
        patch = self.patch
        edges = np.column_stack([patch.plus.cell, patch.minus.cell])
        return nested_dissection_order(patch.mesh.centroid[patch.cells], edges, ND_LEAF_CELLS)

    def system(self, u_lin=None):
        if u_lin is None:
            upper = self.mass + self.viscous + self.darcy
            return SaddleSystem(saddle_matrix(upper, self.div), self.f_u, self.f_p)
        if self._step is None:
            self._step = _OrderedStep(self)
        return self._step.system(u_lin)

    def div_residual(self, velocity):
        """Relative continuity residual of a velocity vector."""
        return relative_residual(self.div, velocity, self.f_p, self._div_scale)


class _OrderedStep:
    """The saddle matrix of the nonlinear steps, kept in factor order.

    The order lists the cells by nested dissection, each cell's six
    velocity DOFs followed by its pressure DOF (see CellOrderedSaddle).
    Convection and the quadratic drag are cell-local, so a step changes only
    the two component-diagonal 3x3 velocity blocks of every cell.  A step
    writes (m + (v + c)) + (d + f) at the cell-block entries, with m, v, d
    the stored mass, viscous and Darcy values there and c, f the convection
    and Forchheimer cell blocks.  These are the additions, in the same
    order, of summing the CSR blocks mass + (viscous + conv) + (darcy +
    forch), so the matrix is the permuted block sum bit for bit.

    The static matrix of self.saddle, mass + viscous + Darcy with the
    divergence, is the step-0 matrix bit for bit; from SINGLE_MIN unknowns
    on, every step is refined from its float32 factor, made on the first
    step and kept as long as this object, and a step that misses it gets a
    float64 factor of its own (see SaddleSolver).
    """

    def __init__(self, ops):
        patch = ops.patch
        n = patch.n_cells
        upper = ops.mass + ops.viscous + ops.darcy
        # Entry [c, d, a, b] couples test vertex a to trial vertex b in
        # component d of cell c.
        dofs = forms.cell_dofs(np.arange(n)).transpose(0, 2, 1)
        rows = np.broadcast_to(dofs[:, :, :, None], (n, 2, 3, 3))
        cols = np.broadcast_to(dofs[:, :, None, :], (n, 2, 3, 3))
        self.saddle = CellOrderedSaddle(upper, ops.div, ops.cell_order, rows, cols)
        self.m, self.v, d = (
            np.asarray(block[rows.ravel(), cols.ravel()]).reshape(n, 2, 3, 3)
            for block in (ops.mass, ops.viscous, ops.darcy)
        )
        self.porous = np.nonzero(patch.mesh.region[patch.cells] == POROUS)[0]
        self.d = d[self.porous]
        self.patch, self.params, self.f_u, self.f_p = patch, ops.params, ops.f_u, ops.f_p

    def system(self, u_lin):
        """The ordered saddle system linearized at the global field u_lin."""
        patch, params = self.patch, self.params
        u_local = patch.restrict_velocity(np.asarray(u_lin, dtype=float))
        coefs = u_local.reshape(patch.n_cells, 3, 2)
        conv = forms.convection_cell_blocks(patch.mesh, params, patch.cells, coefs)
        values = self.m + (self.v + conv[:, None])
        drag = self.d
        if len(self.porous) and params.forchheimer != 0.0:
            forch = forms.forchheimer_cell_blocks(
                patch.mesh, params, patch.cells[self.porous], coefs[self.porous]
            )
            drag = drag + forch[:, None]
        values[self.porous] += drag
        return self.saddle.system(values, self.f_u, self.f_p)


def march(step_solve, mass, f_u, n_p, div_residual, params, label):
    """The implicit loop from the zero state, shared by the fine and the
    coarse runs: step k solves step_solve(u, mass @ u + f_u) for the
    velocity and pressure of layer k + 1 from the velocity u of layer k, and
    records div_residual of the new velocity.  A SingularSystemError is
    raised again naming the step as "{label} {k}"."""
    state = DGState(np.zeros(mass.shape[0]), np.zeros(n_p))
    states = [state]
    residuals = np.empty(params.n_steps)
    for step in range(params.n_steps):
        try:
            state = DGState(*step_solve(state.velocity, mass @ state.velocity + f_u))
        except SingularSystemError as exc:
            raise SingularSystemError(f"{label} {step}: {exc}") from exc
        residuals[step] = div_residual(state.velocity)
        states.append(state)
    times = params.tau * np.arange(params.n_steps + 1)
    return Trajectory(states, times, residuals)


def run_fine(mesh, params, bc, linear=False, forcing=None, ops=None):
    """Run the implicit loop from the zero state and record every layer.

    linear=True freezes convection and the quadratic drag at zero throughout,
    which makes the step matrix constant (factored once, by COLAMD).
    """
    ops = ops if ops is not None else StepOperators(mesh, params, bc, forcing=forcing)
    linear_solver = SaddleSolver(ops.system(None)) if linear else None
    ordered = None if linear else _OrderedStep(ops)

    def step_solve(u, rhs_u):
        solver = linear_solver if ordered is None else SaddleSolver(ordered.system(u))
        return solver.solve(rhs_u, ops.f_p)

    return march(
        step_solve, ops.mass, ops.f_u, ops.patch.n_cells, ops.div_residual, params, "fine step"
    )
