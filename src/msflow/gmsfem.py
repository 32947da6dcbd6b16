"""Multiscale velocity space construction and the coarse-scale solver.

Offline stage: solve local steady flow problems on each coarse cell (or its
oversampled neighborhood) with a discrete-delta boundary datum per fine
boundary facet and Cartesian direction, restrict to the target cell, and
reduce the resulting snapshot family through a generalized eigenproblem.
Online stage: project the static fine blocks onto the retained basis and
the nonlinear ones per coarse cell, once per root space, march the same
linearized implicit scheme on the reduced system, and reconstruct the
fine-grid velocity from the coarse coefficients.
"""

import hashlib
import os
import warnings
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from zipfile import BadZipFile

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp

from . import forms
from .atomic import atomic_write
from .errors import ConfigError, MsflowError, SingularSystemError
from .fine_solver import StepOperators, Steps, march_steps, run_fine
from .geometry import POROUS
from .parameters import DGState
from .patches import coarse_cell_order, coarse_cell_patch
from .quadrature import EDGE_G2_W, TRI_D4_BARY, TRI_D4_W
from .saddle import RESIDUAL_TOL, SaddleSolver, SaddleSystem, permuted_saddle

S_RANK_TOL = 1e-10
# Part of every basis-cache key: a change that moves the bits of a basis
# bumps it, so files saved before that change miss.
BASIS_VERSION = 1


@dataclass
class SnapshotSet:
    """Velocity snapshots of one coarse cell restricted to that cell.

    rows has one snapshot per boundary facet and Cartesian direction
    (row 2k + d for facet k, direction d) over the target cell's local
    velocity DOFs.
    """

    cell_index: int
    target_cells: np.ndarray  # sorted global fine-cell ids of the coarse cell
    rows: np.ndarray  # (2 * n_facets, 6 * len(target_cells))

    @property
    def n_snapshots(self):
        return self.rows.shape[0]


@dataclass
class CellBasis:
    """The velocity basis of one coarse cell: its first m fine rows, in
    ascending eigenvalue order, so a basis of any smaller size is a prefix.

    eigenvalues holds every pencil eigenvalue of the cell's snapshot family,
    not only the m retained.
    """

    cell_index: int
    target_cells: np.ndarray  # sorted global fine-cell ids of the coarse cell
    eigenvalues: np.ndarray
    rows: np.ndarray  # (m, 6 * len(target_cells))


@dataclass
class MultiscaleSpace:
    """Retained per-cell bases with the global projection operators.

    cell_bases holds one CellBasis per coarse cell, in cell order, with at
    least m rows each; r_u stacks the first m rows of every one.  root is
    None on a built or loaded space and, on a resize_space slice, the space
    it was cut from; the root alone keeps the online record of every size
    (see _online_operators).
    """

    m: int
    oversampled: bool
    cell_bases: list  # of CellBasis
    r_u: sp.csr_matrix  # (m * n_coarse, 6 * n_fine)
    r_p: sp.csr_matrix  # (n_coarse, n_fine)
    root: "MultiscaleSpace" = field(default=None, repr=False, compare=False)
    online: tuple = field(default=None, init=False, repr=False, compare=False)  # on the root


def compute_linearization_field(mesh, params, bc, ops=None):
    """Final-time velocity of the linear (convection- and drag-frozen)
    evolution, used to weight the local snapshot problems."""
    return run_fine(mesh, params, bc, linear=True, ops=ops).final.velocity


def _delta_rhs_batch(patch, params):
    """Right-hand sides of all delta-data local problems, stacked as
    [f_u; f_p] in one (n_vdof + n_pdof, 2 n_facets) array, one column per
    (facet, direction) pair in row order 2k + d: the global weak-Dirichlet
    load of the unit datum e_d on facet k.

    The continuity data combines the facet flux with a uniform volume source
    sized so each column sums to zero, which the all-Dirichlet local problem
    needs for solvability.
    """
    nd = len(patch.dirichlet_edges)
    ones = np.ones((nd, len(EDGE_G2_W), 2))
    contrib, intg = forms.dirichlet_facet_terms(patch, params, ones)
    flux = intg * patch.dir_normal  # (nd, 2): column 2k + d
    cols = np.arange(2 * nd).reshape(nd, 1, 2)
    cells = patch.dirichlet.cell
    rhs = np.zeros((patch.n_vdof + patch.n_pdof, 2 * nd))
    f_u, f_p = rhs[: patch.n_vdof], rhs[patch.n_vdof :]  # views
    f_u[forms.cell_dofs(cells), cols] = contrib
    f_p[cells[:, None], cols[:, 0]] += flux
    f_p -= np.outer(patch.mesh.area[patch.cells], flux.ravel() / patch.area)
    return rhs


def build_snapshots(mesh, coarse, params, i, oversampled, u_lin):
    """Solve the local snapshot problems of coarse cell i and restrict the
    velocities to the cell.  u_lin is the global linearization field."""
    patch = coarse_cell_patch(mesh, coarse, i, oversampled=oversampled)
    target = coarse.cell_fine[int(i)]
    # The snapshot rows outlive this call; allocating them before the solve's
    # large temporaries keeps them from pinning the freed heap above them.
    rows = np.empty((2 * len(patch.dirichlet_edges), 6 * len(target)))

    convection, porous, drag = forms.linearized_cell_blocks(patch, params, u_lin)
    every = np.arange(patch.n_cells)
    a = forms.viscous_block(patch, params) + forms.cell_block_matrix(patch, every, convection)
    d = forms.darcy_block(patch, params) + forms.cell_block_matrix(patch, porous, drag)
    identity = np.arange(patch.n_vdof + patch.n_pdof)
    matrix = permuted_saddle(a + d, forms.assemble_divergence(patch), identity, pin=True)
    rhs = _delta_rhs_batch(patch, params)
    rhs[patch.n_vdof] = 0.0  # the pinned row
    try:
        solver = SaddleSolver(SaddleSystem(matrix, np.zeros(patch.n_vdof), np.zeros(patch.n_pdof)))
    except SingularSystemError as exc:
        raise SingularSystemError(
            f"local system of coarse cell {i} (oversampled={oversampled}): {exc}"
        ) from exc
    solutions, residuals = solver.solve_stacked(rhs)
    bad = np.nonzero(~(residuals <= RESIDUAL_TOL))[0]
    if len(bad):
        k, d = divmod(int(bad[0]), 2)
        raise SingularSystemError(
            f"snapshot solve failed on coarse cell {i}, facet {k} "
            f"(edge {patch.dirichlet_edges[k]}), direction {d}: "
            f"relative residual {residuals[bad[0]]:.2e}"
        )

    rows[...] = solutions[forms.cell_dofs(patch.local_of[target]).ravel(), :].T
    if not np.all(np.isfinite(rows)):
        raise SingularSystemError(f"non-finite snapshot on coarse cell {i}")
    return SnapshotSet(cell_index=int(i), target_cells=target, rows=rows)


def generalized_eigh(a, s):
    """Ascending eigenpairs of the symmetric pencil (a, s) with a singular
    or ill-conditioned right operator handled by rank-revealing whitening.

    Directions outside the numerical range of s (relative eigenvalue below
    S_RANK_TOL) correspond to infinite pencil eigenvalues and are dropped; for
    a well-conditioned s this reduces to the ordinary generalized solve.

    Returns (eigenvalues, vectors, filtered) where vectors are in the
    original coordinates with columns s-orthonormal, and filtered is the
    pair (a_f, s_f, z) on the whitened family: a_f its stiffness, s_f the
    (identity) mass, z the eigenvectors in whitened coordinates.
    """
    a = 0.5 * (a + a.T)
    s = 0.5 * (s + s.T)
    sw, q = la.eigh(s)
    keep = sw > S_RANK_TOL * max(sw[-1], 0.0)
    if not np.any(keep):
        raise ValueError("trace-mass operator of the snapshot family is zero")
    if not np.all(keep):
        warnings.warn(
            f"snapshot family numerically dependent: keeping {keep.sum()} of "
            f"{len(sw)} directions with trace mass",
            RuntimeWarning,
        )
    white = q[:, keep] / np.sqrt(sw[keep])[None, :]
    a_f = white.T @ a @ white
    a_f = 0.5 * (a_f + a_f.T)
    lam, z = la.eigh(a_f)
    vectors = white @ z
    s_f = white.T @ s @ white
    return lam, vectors, (a_f, 0.5 * (s_f + s_f.T), z)


def snapshot_pencil(snapshots, mesh, coarse, params):
    """The spectral pencil of a snapshot set: the viscous stiffness (volume
    plus interior-edge couplings on the target cell, no boundary or drag
    terms) and the boundary-trace mass, both projected through the snapshot
    rows."""
    patch = coarse_cell_patch(mesh, coarse, snapshots.cell_index, oversampled=False)
    if not np.array_equal(patch.cells, snapshots.target_cells):
        raise ValueError("snapshot set does not match the coarse cell")
    a_loc, s_loc = forms.assemble_spectral_pair(patch, params)
    r = snapshots.rows
    return r @ (a_loc @ r.T), r @ (s_loc @ r.T)


def spectral_reduce(snapshots, mesh, coarse, params, m):
    """Reduce a snapshot set to its m smoothest modes: the m eigenvectors of
    smallest eigenvalue of its pencil, as fine rows on the target cell."""
    n_snap = snapshots.n_snapshots
    if not 1 <= m <= n_snap:
        raise ValueError(f"basis size {m} outside 1..{n_snap}")
    w, v, _ = generalized_eigh(*snapshot_pencil(snapshots, mesh, coarse, params))
    if m > len(w):
        raise ConfigError(
            f"basis size {m} exceeds the {len(w)} modes kept of the {n_snap} "
            f"snapshots of coarse cell {snapshots.cell_index}"
        )
    return CellBasis(
        cell_index=snapshots.cell_index,
        target_cells=snapshots.target_cells,
        eigenvalues=w,
        rows=(snapshots.rows.T @ v[:, :m]).T,
    )


def build_projection(cell_bases, mesh, coarse, m):
    """Stack the first m rows of every cell basis into the global velocity
    projection, and the coarse-cell indicator rows for pressure."""
    n = coarse.n_cells
    if len(cell_bases) != n:
        raise ValueError(f"expected {n} cell bases, got {len(cell_bases)}")
    rows, cols, vals = [], [], []
    for basis in cell_bases:
        i = basis.cell_index
        if not 1 <= m <= len(basis.rows):
            raise ValueError(f"basis size {m} outside 1..{len(basis.rows)} for coarse cell {i}")
        gdof = forms.cell_dofs(basis.target_cells).ravel()
        rows.append(np.repeat(m * i + np.arange(m), len(gdof)))
        cols.append(np.tile(gdof, m))
        vals.append(basis.rows[:m].ravel())
    r_u = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(m * n, 6 * mesh.n_cells),
    ).tocsr()

    fine = np.arange(mesh.n_cells)
    r_p = sp.coo_matrix((np.ones(len(fine)), (mesh.coarse_id, fine)), shape=(n, len(fine))).tocsr()
    return r_u, r_p


def default_thread_count():
    """Worker count of the per-cell offline loop from MSFLOW_THREADS
    (default 1), capped at the machine's CPU count."""
    env = os.environ.get("MSFLOW_THREADS", "").strip()
    if not env:
        return 1
    try:
        threads = int(env)
    except ValueError:
        threads = 0
    if threads < 1:
        raise ConfigError(f"MSFLOW_THREADS must be a positive integer, got {env!r}")
    return min(threads, os.cpu_count() or 1)


def build_multiscale_space(mesh, coarse, params, bc=None, m=10, oversampled=False, u_lin=None):
    """Offline stage: linearization field (unless u_lin is given), per-cell
    snapshots and spectral reduction, and the global projection operators.
    The cells run on default_thread_count() workers (MSFLOW_THREADS)."""
    threads = default_thread_count()
    if u_lin is None:
        if bc is None:
            raise ValueError("either boundary data or a linearization field is needed")
        u_lin = compute_linearization_field(mesh, params, bc)

    def one_cell(i):
        snap = build_snapshots(mesh, coarse, params, i, oversampled, u_lin)
        return spectral_reduce(snap, mesh, coarse, params, m)

    indices = range(coarse.n_cells)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            bases = list(pool.map(one_cell, indices))
    else:
        bases = [one_cell(i) for i in indices]
    r_u, r_p = build_projection(bases, mesh, coarse, m)
    return MultiscaleSpace(
        m=m, oversampled=bool(oversampled), cell_bases=bases, r_u=r_u, r_p=r_p
    )


def _prefix_rows(m_max, n_coarse, m):
    """Indices of the first m of every coarse cell's m_max basis rows."""
    return (m_max * np.arange(n_coarse)[:, None] + np.arange(m)).ravel()


def resize_space(space, mesh, coarse, m):
    """The same space with the first m basis rows of every coarse cell: a
    row slice of r_u, which equals build_projection(bases, mesh, coarse, m)
    because a smaller basis is a prefix of the eigenvectors.  The slice
    names the root space, so its online operators are prefixes too."""
    if not 1 <= m <= space.m:
        raise ValueError(f"basis size {m} outside 1..{space.m} of the space")
    rows = _prefix_rows(space.m, coarse.n_cells, m)
    return replace(space, m=m, r_u=space.r_u[rows], root=space.root or space)


class _NonlinearBlocks:
    """r_u (C(u) + F(u)) r_u^T for u = r_u^T u_h, as one dense m x m block
    per coarse cell.

    Both terms are cellwise and every basis row lives on one coarse cell, so
    the projection is block diagonal.  Convection is linear in u: its
    projection is an m x m x m tensor per coarse cell, contracted with the
    cell's coefficients each step.  The drag weight |u| is not polynomial,
    so it is evaluated at the degree-4 quadrature points of the porous fine
    cells, from the basis values stored there; each coarse cell's drag block
    is the Gram matrix of its porous cells' values weighted by the speed.
    """

    def __init__(self, conv, quad, drag_weight, owner):
        self.conv = conv  # (n_coarse, m, m, m): convecting k, test r, trial s
        self.quad = quad  # (n_porous, 2q, m): basis values, row 2j + d at point j
        self.drag_weight = drag_weight  # (n_porous, q): rule weight x area x drag factor
        self.owner = owner  # coarse cell of each porous fine cell, ascending
        # Each coarse cell's rows of quad.reshape(-1, m), and their transpose.
        starts = np.flatnonzero(np.diff(owner, prepend=-1))
        stops = np.append(starts[1:], len(owner))
        n_porous, n_rows, m = quad.shape
        flat = quad.reshape(-1, m)
        self.spans = []
        for a, b in zip(starts, stops):
            rows = slice(n_rows * a, n_rows * b)
            self.spans.append((owner[a], rows, flat[rows].T))
        self.by_point = quad.reshape(n_porous, n_rows // 2, 2, m)  # [cell, point, component, k]

    @classmethod
    def build(cls, mesh, params, cell_bases, m):
        """The blocks of the first m rows of every cell basis (in cell
        order), from the basis values and gradients at the quadrature points
        of each fine cell: the degree-4 rule is exact for the convective
        integrand."""
        n_q = len(TRI_D4_W)
        conv = np.empty((len(cell_bases), m, m, m))
        quad, weight, owner = [], [], []
        for basis in cell_bases:
            i, target = basis.cell_index, basis.target_cells
            n = len(target)
            v = basis.rows[:m].reshape(m, n, 3, 2).transpose(1, 3, 2, 0)  # [c, d, vertex, k]
            values = TRI_D4_BARY @ v  # [c, d, j, k]: component d at point j
            grads = mesh.grad[target].transpose(0, 2, 1)[:, None] @ v  # [c, d, e, s]: d_e of d
            w = TRI_D4_W * (mesh.area[target] / mesh.xi(params.porosity)[target] ** 2)[:, None]
            weighted = values * w[:, None, :, None]
            # conv[k, r, s] sums w v_r,d v_k,e d_e v_s,d over cells c, points j, d and e.
            rks = np.zeros((m * m, m))
            for d in range(2):
                for e in range(2):
                    gram = weighted[:, d].transpose(0, 2, 1) @ values[:, e]  # [c, r, k]
                    rks += gram.reshape(n, m * m).T @ grads[:, d, e]
            conv[i] = rks.reshape(m, m, m).transpose(1, 0, 2)
            local = np.nonzero(mesh.region[target] == POROUS)[0]
            if len(local) and params.forchheimer != 0.0:
                quad.append(values[local].transpose(0, 2, 1, 3).reshape(len(local), 2 * n_q, m))
                weight.append(TRI_D4_W * mesh.area[target[local]][:, None])
                owner.append(np.full(len(local), i))
        if not quad:
            return cls(conv, np.empty((0, 2 * n_q, m)), np.empty((0, n_q)), np.empty(0, int))
        factor = params.forchheimer / np.sqrt(params.darcy)
        return cls(conv, np.concatenate(quad), factor * np.concatenate(weight), np.concatenate(owner))

    def prefix(self, m):
        """The blocks of the first m basis rows of every coarse cell."""
        return _NonlinearBlocks(
            np.ascontiguousarray(self.conv[:, :m, :m, :m]),
            np.ascontiguousarray(self.quad[:, :, :m]),
            self.drag_weight,
            self.owner,
        )

    def __call__(self, u_h):
        n, m = self.conv.shape[:2]
        u = u_h.reshape(n, m)
        blocks = (u[:, None, :] @ self.conv.reshape(n, m, m * m)).reshape(n, m, m)
        if self.spans:
            at_points = (self.quad @ u[self.owner][:, :, None]).reshape(len(self.owner), -1, 2)
            a0, a1 = at_points[:, :, 0], at_points[:, :, 1]
            speed = np.sqrt(a0 * a0 + a1 * a1)
            weighted = (self.by_point * (self.drag_weight * speed)[:, :, None, None]).reshape(-1, m)
            for i, rows, rows_t in self.spans:
                blocks[i] += rows_t @ weighted[rows]
        return blocks


@dataclass
class _OnlineOperators(Steps):
    """The coarse step record of one basis size (see fine_solver.Steps): the
    projected blocks and loads, in the coarse cells' saddle order, with a
    dense m x m block of step entries per coarse cell."""

    mass: sp.csr_matrix  # r_u M r_u^T
    upper: sp.csr_matrix  # r_u (M + A + D) r_u^T
    div: sp.csr_matrix  # r_p B r_u^T
    f_u: np.ndarray
    f_p: np.ndarray
    step_blocks: _NonlinearBlocks
    cell_order: np.ndarray  # coarse_cell_order of the coarse grid

    def step_entries(self):
        n = len(self.cell_order)
        m = self.upper.shape[0] // n
        base = m * np.arange(n)[:, None, None]
        rows = base + np.arange(m)[None, :, None]
        cols = base + np.arange(m)[None, None, :]
        return rows, cols


def _project_blocks(r, r_t, matrix):
    """r_u matrix r_u^T in canonical CSR form, multiplied in BSR blocks: r
    is r_u in blocks of a coarse cell's m basis rows by a fine cell's 6
    velocity DOFs, and r_t its transpose."""
    product = (r @ matrix.tobsr((6, 6)) @ r_t).tocsr()
    product.sort_indices()
    return product


def _online_operators(space, mesh, coarse, params, ops):
    """The online operators of a space, read from its root's record.

    The record is an _OnlineOperators at the root's size.  It is built on
    the first run_multiscale of the root or any slice of it, and rebuilt
    when a call brings other step operators (compared by identity) or other
    parameters (by value).  A size m reads the first m basis rows of every
    coarse cell from it; the static blocks so read equal _project_blocks of
    the sliced projection bit for bit.  Every size shares the record's
    coarse cell order.
    """
    root = space.root or space
    # Concurrent first calls may each build a record; either one is valid.
    record = root.online
    if record is None or record[0] is not ops or record[1] != params:
        r_u, r_p = root.r_u, root.r_p
        r = r_u.tobsr((root.m, 6))
        r_t = r.T
        full = _OnlineOperators(
            mass=_project_blocks(r, r_t, ops.mass),
            upper=_project_blocks(r, r_t, ops.upper),
            div=(r_p @ ops.div @ r_u.T).tocsr(),
            f_u=r_u @ ops.f_u,
            f_p=r_p @ ops.f_p,
            step_blocks=_NonlinearBlocks.build(mesh, params, root.cell_bases, root.m),
            cell_order=coarse_cell_order(coarse),
        )
        record = root.online = (ops, params, full)
    full = record[2]
    if space.m == root.m:
        return full
    rows = _prefix_rows(root.m, coarse.n_cells, space.m)
    return _OnlineOperators(
        mass=full.mass[rows][:, rows],
        upper=full.upper[rows][:, rows],
        div=full.div[:, rows],
        f_u=full.f_u[rows],
        f_p=full.f_p,
        step_blocks=full.step_blocks.prefix(space.m),
        cell_order=full.cell_order,
    )


def run_multiscale(mesh, coarse, params, bc, space, ops=None, observe=None):
    """Online stage on a built, loaded or resized space: march the projected
    system on the fine run's path (fine_solver.march_steps) and reconstruct
    the fine velocity.  The basis stays fixed, and each step linearizes the
    nonlinear terms at the previous coarse step.  Fine-mesh work happens
    once per root space (see _online_operators); a step costs
    O(n_coarse m^3) plus O(m^2) per porous fine cell.  ops (the fine step
    operators of params and bc) is built when not given; observe sees each
    coarse step (see march).  Returns the coarse trajectory and the
    reconstructed fine state at the final time.
    """
    ops = ops if ops is not None else StepOperators(mesh, params, bc)
    online = _online_operators(space, mesh, coarse, params, ops)
    coarse_traj = march_steps(online, params, "online step", observe)
    final = coarse_traj.final
    return coarse_traj, DGState(space.r_u.T @ final.velocity, space.r_p.T @ final.pressure)


def _space_key(mesh, params, bc, oversampled):
    """Hash of everything the bases depend on: the mesh, every parameter
    field, the oversampling flag, BASIS_VERSION and, through the
    linearization field, the boundary data."""
    if bc.velocity is not None or bc.grad is not None or bc.traction is not None:
        raise ValueError("boundary data given by callables cannot key the basis cache")
    digest = hashlib.sha256()
    for arr in (mesh.verts, mesh.cells, mesh.region, mesh.coarse_id):
        digest.update(np.ascontiguousarray(arr).tobytes())
    for side in sorted(bc.sides):
        digest.update(side.encode() + np.asarray(bc.sides[side], dtype=float).tobytes())
    digest.update(repr((asdict(params), bool(oversampled), BASIS_VERSION)).encode())
    return digest.hexdigest()[:16]


def _space_path(directory, mesh, params, bc, oversampled):
    """The one cache file of the inputs' key in directory."""
    return os.path.join(directory, f"basis_{_space_key(mesh, params, bc, oversampled)}.npz")


def save_space(directory, mesh, params, bc, space):
    """Write each coarse cell's first space.m basis rows, fine cells and
    eigenvalues to the one file of the inputs' key, replacing it, so a later
    run with the same inputs can skip the offline stage.  An OSError on the
    way is an MsflowError naming the file."""
    path = _space_path(directory, mesh, params, bc, space.oversampled)
    payload = {}
    for basis in space.cell_bases:
        i = basis.cell_index
        payload[f"vec_{i}"] = basis.rows[: space.m]
        payload[f"cells_{i}"] = basis.target_cells
        payload[f"eig_{i}"] = basis.eigenvalues
    try:
        os.makedirs(directory, exist_ok=True)
        with atomic_write(path, "wb") as fh:
            np.savez_compressed(fh, **payload)
    except OSError as exc:
        raise MsflowError(f"basis cache file {path} not saved: {exc}") from exc
    return path


def load_space(directory, mesh, coarse, params, bc, m, oversampled):
    """Load the cached space of these inputs at basis size m, or None when
    its file is absent or holds fewer than m rows per cell.  A file that
    cannot be read or does not fit the mesh is a miss with a RuntimeWarning
    naming it."""
    path = _space_path(directory, mesh, params, bc, oversampled)
    if not os.path.exists(path):
        return None
    try:
        with open(path, "rb") as fh, np.load(fh) as data:
            bases = [
                CellBasis(i, data[f"cells_{i}"], data[f"eig_{i}"], data[f"vec_{i}"])
                for i in range(coarse.n_cells)
            ]
        stored_m = len(bases[0].rows)
        for i, basis in enumerate(bases):
            target = coarse.cell_fine[i]
            if not np.array_equal(basis.target_cells, target):
                raise ValueError(f"fine cells of coarse cell {i} do not match the mesh")
            rows, eig = basis.rows, basis.eigenvalues
            if rows.shape != (stored_m, 6 * len(target)) or not np.all(np.isfinite(rows)):
                raise ValueError(f"basis rows of coarse cell {i} are malformed")
            if eig.ndim != 1 or len(eig) < stored_m or not np.all(np.isfinite(eig)):
                raise ValueError(f"eigenvalues of coarse cell {i} are malformed")
    except (OSError, EOFError, KeyError, TypeError, ValueError, BadZipFile, zlib.error) as exc:
        warnings.warn(f"basis cache file {path} ignored: {exc!r}", RuntimeWarning)
        return None
    if stored_m < m:
        return None
    r_u, r_p = build_projection(bases, mesh, coarse, m)
    return MultiscaleSpace(m=m, oversampled=bool(oversampled), cell_bases=bases, r_u=r_u, r_p=r_p)
