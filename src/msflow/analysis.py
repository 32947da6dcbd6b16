"""Error metrics between reference and multiscale solutions, DOF accounting
and region statistics for qualitative checks."""

import numpy as np
from dataclasses import asdict, dataclass, field

from .forms import LAMBDA_MASS
from .geometry import FLUID, POROUS
from .quadrature import TRI_D4_BARY, TRI_D4_W


def _pair_l2(mesh, vel_a, vel_b):
    """Broken L2 inner product of two piecewise-P1 vector fields."""
    ca = vel_a.reshape(mesh.n_cells, 3, 2)
    cb = vel_b.reshape(mesh.n_cells, 3, 2)
    per_cell = np.einsum("nad,ab,nbd->n", ca, LAMBDA_MASS, cb)
    return float(np.dot(mesh.area, per_cell))


def _strain_sq(mesh, vel):
    """Cellwise integral of eps(u) : eps(u) for a piecewise-P1 field."""
    coefs = vel.reshape(mesh.n_cells, 3, 2)
    grad_u = np.einsum("nad,nam->ndm", coefs, mesh.grad)
    eps = 0.5 * (grad_u + np.swapaxes(grad_u, 1, 2))
    return float(np.dot(mesh.area, np.einsum("ndm,ndm->n", eps, eps)))


def error_velocity(u_ref, u_ms, mesh):
    """Relative broken-L2 velocity error ||u_ref - u_ms|| / ||u_ref||."""
    ref_sq = _pair_l2(mesh, u_ref, u_ref)
    if ref_sq <= 0.0:
        raise ValueError("reference velocity norm is zero")
    diff = u_ref - u_ms
    return float(np.sqrt(_pair_l2(mesh, diff, diff) / ref_sq))


def error_stress(u_ref, u_ms, mesh):
    """Relative broken strain-seminorm error; undefined (raises) when the
    reference field is rigid (zero strain)."""
    ref_sq = _strain_sq(mesh, u_ref)
    if ref_sq <= 0.0:
        raise ValueError("reference strain seminorm is zero (rigid-body field)")
    return float(np.sqrt(_strain_sq(mesh, u_ref - u_ms) / ref_sq))


def coarse_average(p_fine, mesh, coarse):
    """Area-weighted average of a fine piecewise-constant pressure per
    coarse cell."""
    p_fine = np.asarray(p_fine, dtype=float)
    out = np.empty(coarse.n_cells)
    for i in range(coarse.n_cells):
        cells = coarse.cell_fine[i]
        out[i] = np.dot(mesh.area[cells], p_fine[cells]) / coarse.cell_area[i]
    return out


def error_pressure(p_ref, p_ms, mesh, coarse):
    """Relative coarse-grid L2 pressure error against the coarse-cell
    averages of the fine reference pressure."""
    pbar = coarse_average(p_ref, mesh, coarse)
    ref_sq = float(np.dot(coarse.cell_area, pbar**2))
    if ref_sq <= 0.0:
        raise ValueError("reference pressure norm is zero")
    diff = pbar - np.asarray(p_ms, dtype=float)
    return float(np.sqrt(np.dot(coarse.cell_area, diff**2) / ref_sq))


def relative_errors(ref_state, velocity, coarse_pressure, mesh, coarse):
    """(e_u, e_s, e_p): the relative velocity, stress and coarse pressure
    errors of a fine velocity and a coarse pressure against a reference."""
    return (
        error_velocity(ref_state.velocity, velocity, mesh),
        error_stress(ref_state.velocity, velocity, mesh),
        error_pressure(ref_state.pressure, coarse_pressure, mesh, coarse),
    )


def check_reference(ref_state, mesh, coarse):
    """Raise make_report's ValueError at once when a reference norm that its
    relative errors divide by is zero: each error of the reference against
    itself divides by the same norm."""
    p_bar = coarse_average(ref_state.pressure, mesh, coarse)
    relative_errors(ref_state, ref_state.velocity, p_bar, mesh, coarse)


def dof_fine(n_fine_cells):
    """Fine system size: 6 velocity + 1 pressure DOF per cell."""
    return 7 * int(n_fine_cells)


def dof_multiscale(n_coarse_cells, m):
    """Reduced system size: m velocity modes + 1 pressure per coarse cell."""
    return (int(m) + 1) * int(n_coarse_cells)


@dataclass
class RegionStats:
    area: float
    mean_speed: float
    max_speed: float
    mean_pressure: float
    min_pressure: float
    max_pressure: float


@dataclass
class FieldStatistics:
    fluid: RegionStats
    porous: RegionStats


def _region_stats(state, mesh, mask):
    if not np.any(mask):
        return None
    cells = np.nonzero(mask)[0]
    area = float(mesh.area[cells].sum())
    coefs = state.velocity.reshape(mesh.n_cells, 3, 2)[cells]
    speed_q = np.linalg.norm(np.einsum("qa,nad->nqd", TRI_D4_BARY, coefs), axis=2)
    mean_speed = float(
        np.dot(mesh.area[cells], speed_q @ TRI_D4_W) / area
    )
    vertex_speed = np.linalg.norm(coefs, axis=2)
    p = state.pressure[cells]
    return RegionStats(
        area=area,
        mean_speed=mean_speed,
        max_speed=float(vertex_speed.max()),
        mean_pressure=float(np.dot(mesh.area[cells], p) / area),
        min_pressure=float(p.min()),
        max_pressure=float(p.max()),
    )


def field_statistics(state, mesh):
    """Area-weighted means and extremes of speed and pressure per region."""
    return FieldStatistics(
        fluid=_region_stats(state, mesh, mesh.region == FLUID),
        porous=_region_stats(state, mesh, mesh.region == POROUS),
    )


@dataclass
class ErrorReport:
    """Relative errors (fractions) of one multiscale run against a fine
    reference, with the sizes of both systems."""

    e_u: float
    e_s: float
    e_p: float
    dof_h: int
    dof_ms: int
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        for name in ("e_u", "e_s", "e_p"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v >= 0.0):
                raise ValueError(f"{name}={v} is not a finite nonnegative error")

    def percent(self):
        return 100.0 * self.e_u, 100.0 * self.e_s, 100.0 * self.e_p


def make_report(ref_state, ms_fine_velocity, ms_coarse_pressure, mesh, coarse, m, oversampled, params):
    """Assemble the error report of one multiscale run.  Its metadata holds
    every field of params, m and the oversampling flag."""
    meta = {**asdict(params), "m": int(m), "oversampled": bool(oversampled)}
    return ErrorReport(
        *relative_errors(ref_state, ms_fine_velocity, ms_coarse_pressure, mesh, coarse),
        dof_h=dof_fine(mesh.n_cells),
        dof_ms=dof_multiscale(coarse.n_cells, m),
        metadata=meta,
    )
