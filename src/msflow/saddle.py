"""Direct solution of the indefinite velocity-pressure block systems."""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg.lapack import dgetrf, dgetrs

from .errors import SingularSystemError

RESIDUAL_TOL = 1e-9
# Columns per block of a batch's residual (see column_residuals).
RESIDUAL_BLOCK = 16
# The kept-factor policy, which serves every step of the fine and the coarse
# runs (a CellOrderedSaddle's static matrix plus the step's cell blocks):
# - Kept factor.  From KEPT_MIN unknowns on, a saddle keeps a factor of its
#   static matrix, made on first use and held as long as the saddle
#   (CellOrderedSaddle.kept_lu): float32 from SINGLE_MIN unknowns on,
#   float64 below.  SINGLE_MIN lies above every coarse online system and
#   below every fine step: a float32 factor of a few hundred unknowns saves
#   nothing, and each correction costs a solve and a product.  Smaller
#   systems are factored directly, which costs less than the corrections.
# - Dense.  Every float64 factor of an ordered system (one with perm) of at
#   most DENSE_MAX unknowns, kept or its own, is LAPACK's dense LU with
#   partial pivoting (DenseLU): at that size SuperLU's per-call cost
#   outweighs the arithmetic.  The float32 factor from SINGLE_MIN on stays
#   SuperLU's.  DENSE_MAX takes every desk coarse system (48-272 unknowns)
#   and leaves every paper_like coarse system (600-2,600) and every fine
#   step (14,336 and 89,600) to SuperLU: per online step, LAPACK read 9-24%
#   faster from 48 to 272 unknowns, 2% at 400, and 4% slower at 528 (the
#   per-size table of the CHANGES.md entry "Small ordered saddle systems
#   get LAPACK's dense LU").
# - Refinement.  SaddleSolver refines each solve from the kept factor until
#   the relative residual reaches REFINE_TARGET, the float64 unit roundoff:
#   a float64 factor leaves 4e-19 to 7e-17 on the fine steps, so a lower
#   target can be out of reach.
# - Miss.  A refinement misses when a correction does not halve the
#   residual, or after KEPT_MAX corrections; the solver then factors the
#   system itself, in float64.  A correction costs 2.0-2.5 ms on desk and
#   22.5 ms at paper_like scale, so KEPT_MAX of them cost about the float64
#   factor and solve that a miss takes (88.8 ms on desk; 0.9 s against
#   1.03 s at paper_like scale).
# - Refresh (ordered_step).  Below SINGLE_MIN, where the kept factor is
#   float64, a run refreshes the factor it refines from: a step that missed
#   leaves its own factor to the steps after it, and after a step that took
#   more than REFRESH_AFTER corrections the next step is factored directly
#   and its factor is kept.  The refreshed factor lives in the run's
#   closure, not on the saddle, so every run starts from the static factor
#   and its answers depend on its own sequence of systems alone.  From
#   SINGLE_MIN on nothing refreshes: a step's answer depends on its system
#   and the static matrix alone.
SINGLE_MIN = 4096
DENSE_MAX = 400
REFINE_TARGET = np.finfo(float).eps / 2
KEPT_MIN = 100
REFRESH_AFTER = 4
KEPT_MAX = 40
# The options of a system factored in its own (perm) order.
ORDERED = dict(permc_spec="NATURAL", diag_pivot_thresh=0.0, options=dict(SymmetricMode=True))


def ordered_step(saddle, blocks, f_p):
    """fine_solver.march's step_solve on a CellOrderedSaddle: the step from
    u solves the system of values saddle.static + blocks(u), linearized at
    u, with the loads (rhs_u, f_p), and refreshes the run's factor by the
    kept-factor policy above.  Every step writes its values into the run's
    one matrix (see CellOrderedSaddle.system), so a step's system and
    solver hold their values only until the next step."""
    refreshed, due, matrix = None, False, None  # the run's factor, a refresh due, its matrix

    def step_solve(u, rhs_u):
        nonlocal refreshed, due, matrix
        system = saddle.system(saddle.static + blocks(u), rhs_u, f_p, u, matrix)
        matrix = system.matrix
        refreshes = system.kept_lu is not None and len(saddle.perm) < SINGLE_MIN
        if refreshes and (due or refreshed is not None):
            system.kept_lu = None if due else refreshed
        solver = SaddleSolver(system)
        if refreshes and due:
            solver.path = "refresh"
        u, p = solver.solve()
        if refreshes:
            if not solver.kept:
                refreshed = solver.lu
            due = solver.kept and solver.corrections > REFRESH_AFTER
        return u, p, solver

    return step_solve


@dataclass
class SaddleSystem:
    """One saddle system: its matrix and right-hand sides.

    With perm None, matrix is S = [[M+A+D, B^T], [B, 0]], or S pinned, as
    permuted_saddle builds it at the identity position: velocity DOFs first
    and pressure DOFs after them; SaddleSolver orders it by COLAMD.
    Otherwise matrix is P S P^T in CSC form, already in factor order: row i
    of matrix is row perm[i] of S.
    f_u/f_p are the right-hand sides in S's order.  kept_lu is the factor
    that SaddleSolver refines the system's solves from (see the kept-factor
    policy), or None.
    u_lin is the velocity the step was linearized at, or None: a refinement
    from kept_lu starts from (u_lin, 0) (see SaddleSolver).
    scale is the matrix's largest absolute row sum, from a maker that has
    checked the values for finiteness (CellOrderedSaddle.system), or None:
    SaddleSolver then checks and sums the matrix itself.
    """

    matrix: sp.spmatrix
    f_u: np.ndarray
    f_p: np.ndarray
    perm: np.ndarray = None
    kept_lu: object = None
    u_lin: np.ndarray = None
    scale: float = None

    def __post_init__(self):
        n = len(self.f_u) + len(self.f_p)
        if self.matrix.shape != (n, n):
            raise ValueError(f"matrix shape {self.matrix.shape} != ({n}, {n})")


def permuted_saddle(upper, div, position, pin=False):
    """The canonical CSC matrix P S P^T of S = [[upper, div^T], [div, 0]]:
    row and column position[g] of it are row and column g of S.  pin
    replaces the first continuity row of S by the pin p_0 = rhs_p[0], which
    the local snapshot problems use: their continuity data is compatible,
    so the caller sets that row of rhs_p to zero.

    Each column is copied straight from the blocks, a velocity column g
    from column g of upper and of div (rows 1.. of div with pin), a
    pressure column p from row p of div (and the pin's 1 in column 0), so
    S, its triplets and a permuted copy are never formed.  Every stored
    entry of the blocks stays stored, explicit zeros included: COLAMD
    orders an unpermuted S on its pattern.  A CSC upper is used as it is.
    """
    n_u, n_p = upper.shape[0], div.shape[0]
    n = n_u + n_p
    upper, div_rows = upper.tocsc(), div.tocsr()
    lower = (div_rows[1:] if pin else div_rows).tocsc()
    corner = sp.csc_matrix(([1.0], ([0], [0])) if pin else (1, n_p), shape=(1, n_p))
    in_upper, in_div = np.diff(upper.indptr), np.diff(div_rows.indptr)
    counts = np.concatenate([in_upper + np.diff(lower.indptr), in_div + np.diff(corner.indptr)])
    nnz = int(counts.sum())
    index = np.int32 if max(nnz, n) <= np.iinfo(np.int32).max else np.int64
    position = position.astype(index)
    indptr = np.zeros(n + 1, dtype=index)
    indptr[1 + position] = counts
    np.cumsum(indptr, out=indptr)
    start = indptr[position]  # where column g of S starts
    data, indices = np.empty(nnz), np.empty(nnz, dtype=index)
    parts = (
        (upper, start[:n_u], 0),
        (lower, start[:n_u] + in_upper, n_u + 1 if pin else n_u),
        (div_rows, start[n_u:], 0),
        (corner, start[n_u:] + in_div, n_u),
    )
    for block, first, row_offset in parts:
        dest = np.repeat(first - block.indptr[:-1], np.diff(block.indptr))
        dest += np.arange(block.nnz, dtype=dest.dtype)
        data[dest] = block.data
        indices[dest] = position[row_offset:][block.indices]
    matrix = sp.csc_matrix((data, indices, indptr), shape=(n, n))
    matrix.sum_duplicates()
    return matrix


def _locate(matrix, rows, cols):
    """Data positions of the entries (rows, cols) of a canonical CSC matrix,
    found by a binary search of each entry's column, and whether each is
    stored."""
    indptr, indices = matrix.indptr, matrix.indices
    rows = rows.astype(indices.dtype)
    found, end = indptr[cols], indptr[cols + 1]
    step = 1 << int(np.diff(indptr).max(initial=0)).bit_length()
    while step > 1:  # found counts the entries of the column above each row
        step >>= 1
        probe = found + step
        found += step * ((probe <= end) & (indices.take(probe - 1, mode="clip") < rows))
    stored = found < end
    stored[stored] = indices[found[stored]] == rows[stored]
    return found, stored


class CellOrderedSaddle:
    """The saddle matrix [[upper, div^T], [div, 0]] in a cell order, kept in
    CSC form with a pattern fixed for its lifetime.  This static matrix is
    the part of a time step that does not change; a step adds its
    cell-local blocks to the static values at the entries (rows, cols).

    perm lists each cell in order as its k = upper.shape[0] // len(order)
    velocity unknowns followed by its pressure unknown, so SaddleSolver
    factors the matrix as it stands, with diagonal pivots.  The pattern is
    that of permuted_saddle, and the entries (rows, cols) of the unpermuted
    numbering, found at the data positions pos, must be stored in it.
    Every system carries kept_lu, the saddle's factor of its static matrix
    (pattern), by the kept-factor policy at the top of this module, and its
    scale (see system).
    """

    def __init__(self, upper, div, order, rows, cols):
        k = upper.shape[0] // len(order)
        velocity = k * order[:, None] + np.arange(k)
        self.perm = np.column_stack([velocity, k * len(order) + order]).ravel()
        n = upper.shape[0] + div.shape[0]
        if not np.array_equal(np.sort(self.perm), np.arange(n)):
            raise ValueError("perm is not a permutation: order must list every cell once")
        position = np.empty_like(self.perm)
        position[self.perm] = np.arange(len(self.perm))
        self.pattern = permuted_saddle(upper, div, position)
        rows, cols = np.broadcast_arrays(position[rows], position[cols])
        pos, stored = _locate(self.pattern, rows, cols)
        if not stored.all():
            raise ValueError(f"{np.count_nonzero(~stored)} step entries are not stored in the pattern")
        self.pos = np.ascontiguousarray(pos, dtype=np.intp)  # numpy's fastest scatter index

    @cached_property
    def static(self):
        """The static values at the entries (rows, cols), gathered once and
        read-only; a step adds its blocks to them (see ordered_step)."""
        values = self.pattern.data[self.pos]
        values.flags.writeable = False
        return values

    @cached_property
    def _row_sums(self):
        """The absolute row sums of the static matrix, or None if a static
        value is not finite; summed 2**14 entries at a time, so that no
        full-size copy of the values or the indices is made."""
        data, indices = self.pattern.data, self.pattern.indices
        if not np.isfinite([data.min(initial=0), data.max(initial=0)]).all():
            return None
        sums = np.zeros(len(self.perm))
        for start in range(0, len(data), 1 << 14):
            chunk = slice(start, start + (1 << 14))
            sums += np.bincount(indices[chunk], np.abs(data[chunk]), len(sums))
        return sums

    @cached_property
    def kept_lu(self):
        """The factor of the static matrix: SuperLU's in float32 from
        SINGLE_MIN unknowns on, else the float64 factor of _ordered_factor
        from KEPT_MIN on.  None below KEPT_MIN, when an entry leaves float32
        range or when the factor finds the matrix (as rounded) singular."""
        n, pattern = len(self.perm), self.pattern
        if n < KEPT_MIN:
            return None
        try:
            if n < SINGLE_MIN:
                return _ordered_factor(pattern)
            with np.errstate(over="ignore"):  # entries beyond float32 range become inf
                data = pattern.data.astype(np.float32)
            if not np.isfinite([data.min(initial=0), data.max(initial=0)]).all():
                return None
            static = sp.csc_matrix((data, pattern.indices, pattern.indptr), shape=pattern.shape)
            return spla.splu(static, **ORDERED)
        except RuntimeError:  # singular
            return None

    def system(self, values, f_u, f_p, u_lin=None, matrix=None):
        """The ordered system with values at the entries (rows, cols), and
        the static values everywhere else, linearized at the velocity u_lin
        (see SaddleSystem).  The values go into matrix, an earlier system's
        matrix of this saddle, or else into a new copy of the pattern, made
        after kept_lu.  A non-finite value (or static value) raises
        SingularSystemError before any factor is made.  The scale is the
        static row sums corrected by |value| - |static| at the entries: the
        largest absolute row sum to within a few ulps."""
        row_sums = self._row_sums
        if row_sums is None or not np.isfinite([values.min(initial=0), values.max(initial=0)]).all():
            raise SingularSystemError("non-finite entries in assembled blocks")
        kept_lu, pattern = self.kept_lu, self.pattern
        size = np.abs(values) - np.abs(self.static)
        rows = pattern.indices[self.pos]
        scale = (row_sums + np.bincount(rows.ravel(), size.ravel(), len(row_sums))).max()
        del size, rows  # not alive beside the copy below
        if matrix is None:
            matrix = sp.csc_matrix((pattern.data.copy(), pattern.indices, pattern.indptr), shape=pattern.shape)
        matrix.data[self.pos] = values
        return SaddleSystem(matrix, f_u, f_p, self.perm, kept_lu, u_lin, scale)


class DenseLU:
    """LAPACK's LU factor with partial pivoting (getrf) of a small square
    sparse matrix, solved (getrs) like a SuperLU factor: solve(b) takes a
    vector or a batch with one column per right-hand side.  An exactly
    singular matrix raises RuntimeError, as SuperLU does."""

    def __init__(self, matrix):
        self.lu, self.piv, info = dgetrf(matrix.toarray(order="F"), overwrite_a=True)
        if info > 0:
            raise RuntimeError("Factor is exactly singular")

    def solve(self, b):
        return dgetrs(self.lu, self.piv, b)[0]


def _ordered_factor(matrix):
    """The float64 factor of an ordered system's CSC matrix: a DenseLU up
    to DENSE_MAX unknowns, above it SuperLU's in the matrix's own order."""
    if matrix.shape[0] <= DENSE_MAX:
        return DenseLU(matrix)
    return spla.splu(matrix, **ORDERED)


class SaddleSolver:
    """LU factorization of a SaddleSystem reused across right-hand sides.

    A system without perm is factored with SuperLU's COLAMD column order.
    A system with perm is factored as it is: no further reordering and
    diagonal pivots, in symmetric mode.  Its order must eliminate each
    cell's pressure after the cell's velocity, which keeps the zero
    pressure block pivotable on the diagonal; the right-hand sides and the
    solution are permuted around the triangular solves.  Up to DENSE_MAX
    unknowns its float64 factor is a DenseLU instead (see the kept-factor
    policy).

    A system with kept_lu (see the kept-factor policy) is solved with no
    factor of its own: y = x0 - LU^-1 (A x0 - rhs), a solve of kept_lu in
    its precision, is refined by y -= LU^-1 (A y - rhs), with A and the
    residual in float64, until the relative residual reaches REFINE_TARGET.
    x0 is (u_lin, 0), and every column of a batch starts from it.  The
    step's convection and drag E have no pressure columns, so the first
    error is S^-1 E applied to one time step's change of the velocity,
    u - u_lin, rather than to u (S the static matrix of kept_lu).  With no
    u_lin, x0 is 0 and y is LU^-1 rhs bit for bit.
    On a miss (see KEPT_MAX) the solver makes its float64 factor, which
    solves that right-hand side and every later one directly.  A system
    without kept_lu gets its float64 factor at once.

    kept tells whether the kept factor served the last solve, and path how
    it was served: kept, own (after a miss or with no kept_lu) or refresh
    (own, as ordered_step marks a refresh).  corrections counts the
    corrections of the last solve (a missed refinement's too), kept_solves
    its kept-factor solves (1 + corrections if kept_lu was tried, else 0),
    and lu is the factor in use.  self.matrix is the float64 matrix; the
    residual gate is taken on it.
    """

    def __init__(self, system):
        self.system = system
        self.perm = system.perm
        matrix = system.matrix.tocsc()
        self.scale = system.scale
        if self.scale is None:
            if not np.all(np.isfinite(matrix.data)):
                raise SingularSystemError("non-finite entries in assembled blocks")
            # The largest absolute row sum, each row summed in storage order
            # on the matrix's own indices: no copy of them.
            size = sp.csc_matrix((np.abs(matrix.data), matrix.indices, matrix.indptr), shape=matrix.shape)
            self.scale = (size @ np.ones(matrix.shape[1])).max()
        self.matrix = matrix
        self.corrections = self.kept_solves = 0
        self.kept = system.kept_lu is not None
        self.path = "kept" if self.kept else "own"
        self.lu = system.kept_lu if self.kept else self._factor()

    def _factor(self):
        """The float64 factor of self.matrix (see _ordered_factor)."""
        try:
            if self.perm is None:
                return spla.splu(self.matrix, permc_spec="COLAMD")
            return _ordered_factor(self.matrix)
        except RuntimeError as exc:  # both factors report singularity this way
            raise SingularSystemError(f"factorization failed: {exc}") from exc

    def solve(self, rhs_u=None, rhs_p=None):
        """The velocity and pressure of one right-hand side, the system's
        loads by default.  Raises SingularSystemError unless its relative
        residual is at most RESIDUAL_TOL."""
        system = self.system
        rhs_u = system.f_u if rhs_u is None else rhs_u
        rhs_p = system.f_p if rhs_p is None else rhs_p
        if not (np.all(np.isfinite(rhs_u)) and np.all(np.isfinite(rhs_p))):
            raise SingularSystemError("non-finite right-hand side")
        x, rel = self.solve_stacked(np.concatenate([rhs_u, rhs_p]))
        if not rel <= RESIDUAL_TOL:
            raise SingularSystemError(
                f"solve residual {rel:.2e} exceeds {RESIDUAL_TOL:.0e} "
                "(system singular or severely ill-conditioned)"
            )
        nu = len(system.f_u)
        return x[:nu], x[nu:]

    def solve_stacked(self, rhs):
        """Solve for a stacked right-hand side [rhs_u; rhs_p], taken as it
        is: a vector, or a batch with one column per right-hand side.

        Returns the stacked solution, shaped as rhs, and its relative
        residual per column (see column_residuals).  No exception is raised
        for a large residual, so the caller can attach context to a failing
        column (a float64 factor made on a miss of the kept factor can
        still raise SingularSystemError).
        """
        rhs = np.asarray(rhs, dtype=float)
        if self.perm is not None:
            rhs = rhs[self.perm]
        self.corrections = self.kept_solves = 0
        if self.kept:
            y, rel = self._refine(rhs)
            self.kept_solves = 1 + self.corrections
            if y is None:
                self.kept, self.path, self.lu = False, "own", self._factor()
        if not self.kept:
            y = self.lu.solve(rhs)
            rel = column_residuals(self.matrix, y, rhs, self.scale)
        if self.perm is None:
            return y, rel
        x = np.empty_like(y)
        x[self.perm] = y
        return x, rel

    @np.errstate(invalid="ignore")  # an infinite iterate's ratio is inf / inf
    def _refine(self, rhs):
        """The solution of the kept factor refined to REFINE_TARGET and its
        relative residuals, or (None, None) on a miss: a non-finite value, a
        correction that did not halve the largest residual, or KEPT_MAX
        corrections short of the target.  A non-finite iterate has a NaN
        ratio, which fails both tests."""
        precision = np.float32 if len(rhs) >= SINGLE_MIN else float
        system = self.system
        u_lin = np.zeros(len(system.f_u)) if system.u_lin is None else system.u_lin
        x0 = np.concatenate([u_lin, np.zeros(len(system.f_p))])
        x0 = x0 if self.perm is None else x0[self.perm]
        start = self.matrix @ x0
        if rhs.ndim == 2:
            x0, start = x0[:, None], start[:, None]
        y = x0 - self.lu.solve((start - rhs).astype(precision, copy=False))
        last, rhs_norm = np.inf, _column_norms(rhs)
        for k in range(KEPT_MAX + 1):
            resid = self.matrix @ y - rhs
            rel = _residual_ratio(resid, y, rhs_norm, self.scale)
            top = rel.max()
            if top <= REFINE_TARGET:
                return y, rel
            if k == KEPT_MAX or not top <= last / 2:
                break
            last = top
            y -= self.lu.solve(resid.astype(precision, copy=False))
            self.corrections += 1
        return None, None


def column_residuals(matrix, x, rhs, scale):
    """|matrix x - rhs| / max(|rhs|, scale |x|) per column of x and rhs (a
    vector is one column); scale is the operator size (its largest absolute
    row sum).  Taken RESIDUAL_BLOCK columns at a time: no product, residual
    or norm temporary is as wide as a batch.  Every solve accepts a column
    only when this is at most RESIDUAL_TOL."""
    if np.ndim(x) == 1:
        return _residual_ratio(matrix @ x - rhs, x, _column_norms(rhs), scale)
    rel = np.empty(x.shape[1])
    for start in range(0, x.shape[1], RESIDUAL_BLOCK):
        cols = slice(start, start + RESIDUAL_BLOCK)
        block, rhs_block = x[:, cols], rhs[:, cols]
        resid = matrix @ block - rhs_block
        rel[cols] = _residual_ratio(resid, block, _column_norms(rhs_block), scale)
    return rel


def _column_norms(x):
    """np.linalg.norm(x, axis=0) of a real array, bit for bit, without its
    argument handling and conjugate copy."""
    return np.sqrt(np.add.reduce(x * x, axis=0))


def _residual_ratio(resid, x, rhs_norm, scale):
    """column_residuals from the residual resid = matrix x - rhs and the
    column norms of rhs."""
    denom = np.maximum(rhs_norm, scale * _column_norms(x))
    return _column_norms(resid) / np.maximum(denom, 1e-300)
