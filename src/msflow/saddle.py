"""Direct solution of the indefinite velocity-pressure block systems."""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from dataclasses import dataclass

from . import forms
from .errors import SingularSystemError

RESIDUAL_TOL = 1e-9


@dataclass
class SaddleSystem:
    """Assembled blocks of one linearized step.

    mass/convdiff/drag are velocity blocks, div couples pressure rows to
    velocity columns, f_u/f_p are the right-hand sides.  cell_order, when
    given, is the elimination order of the cells (a permutation of the
    pressure DOFs) that SaddleSolver factors in.
    """

    mass: sp.spmatrix
    convdiff: sp.spmatrix
    drag: sp.spmatrix
    div: sp.spmatrix
    f_u: np.ndarray
    f_p: np.ndarray
    cell_order: np.ndarray = None

    def __post_init__(self):
        nu = self.mass.shape[0]
        npr = self.div.shape[0]
        for name, block in (("convdiff", self.convdiff), ("drag", self.drag)):
            if block.shape != (nu, nu):
                raise ValueError(f"{name} block shape {block.shape} != ({nu}, {nu})")
        if self.div.shape[1] != nu:
            raise ValueError("divergence block does not match velocity DOFs")
        if self.f_u.shape != (nu,) or self.f_p.shape != (npr,):
            raise ValueError("right-hand side shapes do not match the blocks")
        if self.cell_order is not None and not (
            nu == 6 * npr and np.array_equal(np.sort(self.cell_order), np.arange(npr))
        ):
            raise ValueError("cell_order is not a permutation of the cells")

    @property
    def n_velocity(self):
        return self.mass.shape[0]

    @property
    def n_pressure(self):
        return self.div.shape[0]

    def velocity_block(self):
        return (self.mass + self.convdiff + self.drag).tocsr()

    def check_mass_symmetry(self, tol=1e-10):
        m = self.mass
        delta = abs(m - m.T).max()
        scale = abs(m).max() or 1.0
        if delta > tol * scale:
            raise ValueError(f"mass block asymmetry {delta / scale:.2e} exceeds {tol:.0e}")


class SaddleSolver:
    """LU factorization of [[M+A+D, B^T], [B, 0]] reused across right-hand
    sides.

    pin_pressure replaces the first continuity row by a zero-mean style pin
    (first pressure DOF = 0); valid only when the continuity data is
    compatible, as it is for the local snapshot problems.

    Without a cell_order (and for pinned systems) SuperLU orders the columns
    by COLAMD.  With one, the matrix is factored as P A P^T with each cell's
    six velocity DOFs followed by its pressure DOF, cells in cell_order, and
    no further reordering; eliminating a cell's pressure right after its
    velocity keeps the zero pressure block pivotable on the diagonal.
    self.matrix stays A, on which the residual is taken; self.lu then
    factors P A P^T, and self.perm lists the rows of A in factor order.
    """

    def __init__(self, system, pin_pressure=False):
        self.system = system
        self.pinned = bool(pin_pressure)
        nu, npr = system.n_velocity, system.n_pressure
        upper = system.velocity_block()
        if not np.all(np.isfinite(upper.data)):
            raise SingularSystemError("non-finite entries in assembled blocks")
        if npr == 0:
            matrix = upper.tocsc()
        elif pin_pressure:
            div = system.div.tolil(copy=True)
            div[0, :] = 0.0
            pin = sp.coo_matrix(([1.0], ([0], [0])), shape=(npr, npr))
            matrix = sp.bmat(
                [[upper, system.div.T], [div.tocsr(), pin]], format="csc"
            )
        else:
            matrix = sp.bmat([[upper, system.div.T], [system.div, None]], format="csc")
        self.scale = abs(matrix).sum(axis=1).max()
        self.perm = None
        try:
            if system.cell_order is None or pin_pressure:
                self.lu = spla.splu(matrix, permc_spec="COLAMD")
            else:
                order = system.cell_order
                self.perm = np.column_stack(
                    [forms.cell_dofs(order).reshape(-1, 6), nu + order]
                ).ravel()
                self.lu = spla.splu(
                    matrix[self.perm][:, self.perm],
                    permc_spec="NATURAL",
                    diag_pivot_thresh=0.0,
                    options=dict(SymmetricMode=True),
                )
        except RuntimeError as exc:  # SuperLU reports singularity this way
            raise SingularSystemError(f"factorization failed: {exc}") from exc
        self.matrix = matrix

    def solve(self, rhs_u=None, rhs_p=None):
        system = self.system
        rhs_u = system.f_u if rhs_u is None else rhs_u
        rhs_p = system.f_p if rhs_p is None else rhs_p
        if not (np.all(np.isfinite(rhs_u)) and np.all(np.isfinite(rhs_p))):
            raise SingularSystemError("non-finite right-hand side")
        u, p, rel = self.solve_many(rhs_u[:, None], rhs_p[:, None])
        if not rel[0] <= RESIDUAL_TOL:
            raise SingularSystemError(
                f"solve residual {rel[0]:.2e} exceeds {RESIDUAL_TOL:.0e} "
                "(system singular or severely ill-conditioned)"
            )
        return u[:, 0], p[:, 0]

    def solve_many(self, rhs_u_mat, rhs_p_mat):
        """Solve for a batch of right-hand sides given as columns.

        Returns (velocities, pressures, relative residuals) with one column
        per input column; no exception is raised so the caller can attach
        context to a failing column.
        """
        nu = self.system.n_velocity
        if self.system.n_pressure == 0:
            rhs = np.asarray(rhs_u_mat, dtype=float)
        else:
            rhs_p_mat = np.array(rhs_p_mat, dtype=float, copy=True)
            if self.pinned:
                rhs_p_mat[0, :] = 0.0
            rhs = np.vstack([rhs_u_mat, rhs_p_mat])
        if self.perm is None:
            x = self.lu.solve(rhs)
        else:
            x = np.empty_like(rhs)
            x[self.perm] = self.lu.solve(rhs[self.perm])
        return x[:nu], x[nu:], relative_residual(self.matrix, x, rhs, self.scale)


def relative_residual(matrix, x, rhs, scale):
    """|matrix x - rhs| / max(|rhs|, scale |x|), per column for 2-D x and
    rhs; scale is the operator size (its largest absolute row sum).  Every
    solve accepts a result only when this is at most RESIDUAL_TOL."""
    axis = 0 if np.ndim(x) > 1 else None  # vectors keep numpy's dot-product norm
    resid = np.linalg.norm(matrix @ x - rhs, axis=axis)
    denom = np.maximum(np.linalg.norm(rhs, axis=axis), scale * np.linalg.norm(x, axis=axis))
    return resid / np.maximum(denom, 1e-300)


def solve_saddle(system, rhs=None, pin_pressure=False):
    """One-shot factor-and-solve; rhs defaults to the assembled (f_u, f_p)."""
    solver = SaddleSolver(system, pin_pressure=pin_pressure)
    if rhs is None:
        return solver.solve()
    return solver.solve(rhs[0], rhs[1])
