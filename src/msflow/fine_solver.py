"""Implicit time loop on the fine grid.

Each step freezes the convective velocity and the drag speed at the previous
layer, so a step is a single linear saddle-point solve.  The linear mode
keeps both weights at zero (viscous/Darcy evolution only); it provides the
linearization field for the multiscale basis construction.
"""

import numpy as np
from dataclasses import dataclass

from . import forms
from .parameters import DGState
from .patches import full_patch, nested_dissection_order
from .saddle import SaddleSolver, SaddleSystem, relative_residual


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

    system(u_lin) attaches a nested-dissection cell order, computed on its
    first call, so that every nonlinear step is factored in that order;
    system(None), the constant matrix of the linear run, keeps SuperLU's
    default ordering.
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
        self._cell_order = None

    def system(self, u_lin=None):
        a = self.viscous
        d = self.darcy
        if u_lin is None:
            return SaddleSystem(self.mass, a, d, self.div, self.f_u, self.f_p)
        if np.any(u_lin):
            a = a + forms.convection_block(self.patch, self.params, u_lin)
            d = d + forms.forchheimer_block(self.patch, self.params, u_lin)
        if self._cell_order is None:
            self._cell_order = nested_dissection_order(self.patch)
        return SaddleSystem(self.mass, a, d, self.div, self.f_u, self.f_p, self._cell_order)

    def div_residual(self, velocity):
        """Relative continuity residual of a velocity vector."""
        return relative_residual(self.div, velocity, self.f_p, self._div_scale)


def time_step(mesh, params, bc, state, u_lin=None, ops=None):
    """Advance one implicit step from the given state.

    The linearization field defaults to the state's own velocity (previous
    layer); pass an explicit field (e.g. zeros) to control it.
    """
    ops = ops if ops is not None else StepOperators(mesh, params, bc)
    state.validate(ops.patch.n_cells)
    if u_lin is None:
        u_lin = state.velocity
    system = ops.system(u_lin)
    rhs_u = ops.mass @ state.velocity + ops.f_u
    u, p = SaddleSolver(system).solve(rhs_u, ops.f_p)
    return DGState(u, p)


def run_fine(mesh, params, bc, linear=False, forcing=None, ops=None):
    """Run the implicit loop from the zero state and record every layer.

    linear=True freezes convection and the quadratic drag at zero throughout,
    which makes the step matrix constant (factored once).
    """
    ops = ops if ops is not None else StepOperators(mesh, params, bc, forcing=forcing)
    n_cells = ops.patch.n_cells
    state = DGState.zeros(n_cells)
    states = [state]
    residuals = np.empty(params.n_steps)

    solver = SaddleSolver(ops.system(None)) if linear else None
    for step in range(params.n_steps):
        rhs_u = ops.mass @ state.velocity + ops.f_u
        if linear:
            u, p = solver.solve(rhs_u, ops.f_p)
        else:
            system = ops.system(state.velocity)
            u, p = SaddleSolver(system).solve(rhs_u, ops.f_p)
        state = DGState(u, p)
        residuals[step] = ops.div_residual(u)
        states.append(state)
    times = params.tau * np.arange(params.n_steps + 1)
    return Trajectory(states, times, residuals)
