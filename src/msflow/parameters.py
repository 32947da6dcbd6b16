"""Model parameters, discrete states and boundary data."""

import numpy as np
from dataclasses import dataclass, replace

from .geometry import SIDE_NAMES, DIRICHLET_SIDES


@dataclass(frozen=True)
class ModelParameters:
    """Nondimensional flow parameters and time discretization.

    All finite: reynolds, darcy > 0; forchheimer >= 0; porosity in (0, 1];
    penalty > 0.  t_max defaults to tau * n_steps and must match it when given.
    """

    reynolds: float
    darcy: float
    forchheimer: float
    porosity: float
    tau: float
    n_steps: int
    penalty: float = 4.0
    t_max: float = None

    def __post_init__(self):
        numbers = [self.reynolds, self.darcy, self.forchheimer, self.porosity, self.tau, self.penalty]
        if not np.all(np.isfinite(numbers + [0.0 if self.t_max is None else self.t_max])):
            raise ValueError("model parameters must be finite")
        if self.reynolds <= 0 or self.darcy <= 0 or self.tau <= 0 or self.penalty <= 0:
            raise ValueError("reynolds, darcy, tau and penalty must be positive")
        if self.forchheimer < 0:
            raise ValueError("forchheimer coefficient must be nonnegative")
        if not 0.0 < self.porosity <= 1.0:
            raise ValueError("porosity must lie in (0, 1]")
        if self.n_steps < 1:
            raise ValueError("n_steps must be at least 1")
        if self.t_max is None:
            object.__setattr__(self, "t_max", self.tau * self.n_steps)
        elif abs(self.t_max - self.tau * self.n_steps) > 1e-12 * abs(self.t_max):
            raise ValueError("t_max does not equal tau * n_steps")

    def with_darcy(self, darcy):
        return replace(self, darcy=darcy, t_max=None)


# Reynolds number, Forchheimer coefficient and final time of the three
# benchmark configurations; all run 50 steps at porosity 0.3.
TEST_PRESETS = {
    "test1": (1.0, 1.0, 0.01),
    "test2": (10.0, 10.0, 0.1),
    "test3": (100.0, 1.0, 1.0),
}


def preset_parameters(name, darcy, n_steps=50, porosity=0.3, penalty=4.0):
    """Parameters of a named benchmark case for a given Darcy number."""
    if name not in TEST_PRESETS:
        raise KeyError(f"unknown preset {name!r}; choose from {sorted(TEST_PRESETS)}")
    reynolds, forchheimer, t_max = TEST_PRESETS[name]
    return ModelParameters(
        reynolds=reynolds,
        darcy=darcy,
        forchheimer=forchheimer,
        porosity=porosity,
        tau=t_max / n_steps,
        n_steps=n_steps,
        penalty=penalty,
    )


@dataclass
class DGState:
    """Discrete flow state: per-cell discontinuous P1 velocity (6 coefficients,
    x/y components at the 3 vertices) and piecewise-constant pressure."""

    velocity: np.ndarray
    pressure: np.ndarray

    def validate(self, n_cells):
        if self.velocity.shape != (6 * n_cells,):
            raise ValueError(
                f"velocity has {self.velocity.shape[0]} coefficients, expected {6 * n_cells}"
            )
        if self.pressure.shape != (n_cells,):
            raise ValueError(
                f"pressure has {self.pressure.shape[0]} coefficients, expected {n_cells}"
            )
        if not (np.all(np.isfinite(self.velocity)) and np.all(np.isfinite(self.pressure))):
            raise ValueError("state contains non-finite entries")

    @staticmethod
    def zeros(n_cells):
        return DGState(np.zeros(6 * n_cells), np.zeros(n_cells))


class BoundaryData:
    """Velocity data on the Dirichlet sides plus optional analytic extras.

    sides maps side names ('left', 'bottom', 'top') to constant vectors.
    velocity, when given, is a callable x -> (n, 2) overriding the constants
    (used for manufactured solutions).  grad is the optional extension
    gradient of the boundary data (callable x -> (n, 2, 2), default zero).
    traction is an optional callable supplying the outflow-side boundary
    force for manufactured solutions; the default zero keeps the natural
    zero-stress outflow.
    """

    def __init__(self, sides=None, velocity=None, grad=None, traction=None):
        self.sides = {name: np.zeros(2) for name in ("left", "bottom", "top")}
        for name, val in (sides or {}).items():
            if name not in self.sides:
                raise ValueError(f"{name!r} is not a Dirichlet side")
            self.sides[name] = np.asarray(val, dtype=float)
        self.velocity = velocity
        self.grad = grad
        self.traction = traction

    @staticmethod
    def inflow(g=(1.0, 0.0)):
        """Left-side inflow with zero velocity on top and bottom."""
        return BoundaryData(sides={"left": np.asarray(g, dtype=float)})

    def values(self, side_codes, points):
        """Boundary velocity at points (n, q, 2) on edges of given sides (n,)."""
        if self.velocity is not None:
            flat = self.velocity(points.reshape(-1, 2))
            return np.asarray(flat, dtype=float).reshape(points.shape)
        out = np.zeros_like(points)
        for code in np.unique(side_codes):
            if int(code) not in DIRICHLET_SIDES:
                raise ValueError(
                    f"no Dirichlet data for side code {int(code)} "
                    f"({SIDE_NAMES.get(int(code), 'patch-interior')})"
                )
            out[side_codes == code] = self.sides[SIDE_NAMES[int(code)]]
        return out

    def grad_values(self, points):
        """Extension gradient at points (n, q, 2) -> (n, q, 2, 2); zero by default."""
        if self.grad is None:
            return np.zeros(points.shape[:-1] + (2, 2))
        flat = self.grad(points.reshape(-1, 2))
        return np.asarray(flat, dtype=float).reshape(points.shape[:-1] + (2, 2))

    def traction_values(self, points):
        if self.traction is None:
            return np.zeros_like(points)
        flat = self.traction(points.reshape(-1, 2))
        return np.asarray(flat, dtype=float).reshape(points.shape)
