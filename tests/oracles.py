"""Independent integration oracles for the assembled forms.

Everything here avoids the package's quadrature tables and basis code:
triangles are integrated with a tensor Gauss rule under a Duffy transform,
edges with high-order Gauss-Legendre, and P1 fields are evaluated by solving
the 3x3 vertex interpolation system per cell.

Six more references pin faster package code to the same bits, so they
follow its arithmetic rather than avoid it: loop_edge_topology (the edge
arrays that TriMesh builds, one edge at a time), concatenated_csr (the
sparse assembly, from concatenated triplet copies), saddle_matrix (the
saddle matrix, pinned or not, from sp.bmat and a LIL row edit),
einsum_convection_blocks (the convection cell blocks as einsum
contractions), repeated_weight_blocks (the online drag blocks, through
np.repeat) and add_at_vtk_text (the VTK text, one value and one np.add.at
at a time).

The block-assembled fine step at the end is the reference for the ordered
step matrix: the convection and Forchheimer blocks as CSR matrices
(conftest.linearized_matrices) summed into the velocity block, sp.bmat, a
fancy-index permutation into the nested-dissection cell order, and a
SuperLU factor in that order (from saddle.KEPT_MIN unknowns on, a kept
factor of the step-0 matrix with float64 refinement, float32 from
SINGLE_MIN on, starting from the step's own linearization point; on a
miss, the float64 factor; block_run_fine applies the run's refresh rule
below SINGLE_MIN; a test that compares a step of at most saddle.DENSE_MAX
unknowns with it pins DENSE_MAX to 0, so that the package factors with
SuperLU too).  That order comes from a copy of the recursion written for a
patch (its interior-edge graph, leaves of 8 cells), the reference for the
package's general nested_dissection_order.

two_part_snapshot_rows is the reference for the offline stage's stacked
snapshot solve: the delta loads built as two arrays, joined by np.vstack,
and one COLAMD solve of the whole batch.
"""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from msflow import forms
from msflow.errors import MeshFormatError
from msflow.geometry import BOTTOM, INTERIOR, LEFT, POROUS, RIGHT, TOP
from msflow.patches import bisect_cells, coarse_cell_patch
from msflow.quadrature import EDGE_G2_W, TRI_D4_BARY, TRI_D4_W
from msflow.saddle import KEPT_MAX, KEPT_MIN, REFINE_TARGET, REFRESH_AFTER, SINGLE_MIN

from conftest import linearized_matrices


def loop_edge_topology(verts, cells, bbox):
    """Reference edge topology of counter-clockwise cells, one edge at a time
    from a dict of incident cells: (edge_verts, edge_cells, edge_normal,
    edge_length, edge_side) as the TriMesh constructor sets them, raising its
    MeshFormatError for the first faulty edge in vertex-pair order."""
    centroid = verts[cells].mean(axis=1)
    incidence = {}
    for c in range(len(cells)):
        v = [int(x) for x in cells[c]]
        for a in range(3):
            key = (min(v[(a + 1) % 3], v[(a + 2) % 3]), max(v[(a + 1) % 3], v[(a + 2) % 3]))
            incidence.setdefault(key, []).append(c)
    keys = sorted(incidence)

    ne = len(keys)
    edge_verts = np.empty((ne, 2), dtype=np.int64)
    edge_cells = np.full((ne, 2), -1, dtype=np.int64)
    edge_normal = np.empty((ne, 2))
    edge_length = np.empty(ne)
    edge_side = np.full(ne, INTERIOR, dtype=np.int8)

    x0, y0, x1, y1 = bbox
    tol = 1e-9 * max(x1 - x0, y1 - y0)

    for e, key in enumerate(keys):
        adj = incidence[key]
        if len(adj) > 2:
            raise MeshFormatError(f"edge {key} shared by more than two cells")
        edge_verts[e] = key
        pa, pb = verts[key[0]], verts[key[1]]
        t = pb - pa
        length = float(np.hypot(t[0], t[1]))
        n = np.array([t[1], -t[0]]) / length
        if len(adj) == 2:
            cp, cm = min(adj), max(adj)
            edge_cells[e] = (cp, cm)
            if np.dot(n, centroid[cm] - centroid[cp]) < 0.0:
                n = -n
        else:
            c = adj[0]
            edge_cells[e, 0] = c
            if np.dot(n, centroid[c] - 0.5 * (pa + pb)) > 0.0:
                n = -n
            mid = 0.5 * (pa + pb)
            if abs(pa[0] - x0) < tol and abs(pb[0] - x0) < tol:
                edge_side[e] = LEFT
            elif abs(pa[0] - x1) < tol and abs(pb[0] - x1) < tol:
                edge_side[e] = RIGHT
            elif abs(pa[1] - y0) < tol and abs(pb[1] - y0) < tol:
                edge_side[e] = BOTTOM
            elif abs(pa[1] - y1) < tol and abs(pb[1] - y1) < tol:
                edge_side[e] = TOP
            else:
                raise MeshFormatError(
                    f"boundary edge {key} near {mid} does not lie on a bbox side"
                )
        edge_normal[e] = n
        edge_length[e] = length
    return edge_verts, edge_cells, edge_normal, edge_length, edge_side


def concatenated_csr(parts, shape):
    """Reference for forms._collect: every part's rows, cols and vals
    broadcast and raveled to int64 / float64 copies, concatenated, and
    converted coo -> csr."""
    rows, cols, vals = [], [], []
    for r, c, v in parts:
        rows.append(np.broadcast_to(r, v.shape).ravel().astype(np.int64))
        cols.append(np.broadcast_to(c, v.shape).ravel().astype(np.int64))
        vals.append(v.ravel())
    rows = np.concatenate(rows) if parts else np.empty(0, dtype=np.int64)
    cols = np.concatenate(cols) if parts else np.empty(0, dtype=np.int64)
    vals = np.concatenate(vals) if parts else np.empty(0)
    return sp.coo_matrix((vals, (rows, cols)), shape=shape).tocsr()


def saddle_matrix(upper, div, pin=False):
    """Reference for saddle.permuted_saddle at the identity position: the
    CSC saddle matrix [[upper, div^T], [div, 0]] from sp.bmat.  pin replaces
    the first continuity row by the pin p_0, deleting that row of div in a
    LIL copy and adding a 1 in the pressure corner."""
    lower, corner = div, None
    if pin:
        lower = div.tolil(copy=True)
        lower[0, :] = 0.0
        corner = sp.coo_matrix(([1.0], ([0], [0])), shape=(div.shape[0],) * 2)
    return sp.bmat([[upper, div.T], [lower, corner]], format="csc")


def einsum_convection_blocks(mesh, params, cells, coefs):
    """Reference for forms.convection_cell_blocks: the same sums as
    np.einsum contractions."""
    bary, w = TRI_D4_BARY, TRI_D4_W
    xi = mesh.xi(params.porosity)[cells]
    ulq = np.einsum("qa,nad->nqd", bary, coefs)
    adv = np.einsum("nqm,nbm->nqb", ulq, mesh.grad[cells])
    scale = mesh.area[cells] / xi**2
    return scale[:, None, None] * np.einsum("q,qa,nqb->nab", w, bary, adv)


def duffy_points(order=10):
    """Tensor Gauss rule on the reference triangle (0,0)-(1,0)-(0,1)."""
    g, w = np.polynomial.legendre.leggauss(order)
    u = 0.5 * (g + 1.0)
    wu = 0.5 * w
    uu, vv = np.meshgrid(u, u, indexing="ij")
    ww = np.outer(wu, wu)
    x = uu
    y = vv * (1.0 - uu)
    weight = ww * (1.0 - uu)
    return np.column_stack([x.ravel(), y.ravel()]), weight.ravel()


def tri_integrate(f, tri, order=10):
    """Integral of f over the triangle with vertex rows tri (3, 2)."""
    ref, w = duffy_points(order)
    v0 = tri[0]
    jac = np.column_stack([tri[1] - v0, tri[2] - v0])
    pts = v0[None, :] + ref @ jac.T
    det = abs(np.linalg.det(jac))
    vals = np.asarray(f(pts), dtype=float)
    return det * np.dot(w, vals)


def edge_integrate(f, p0, p1, order=10):
    g, w = np.polynomial.legendre.leggauss(order)
    s = 0.5 * (g + 1.0)
    pts = p0[None, :] + s[:, None] * (p1 - p0)[None, :]
    length = np.linalg.norm(p1 - p0)
    vals = np.asarray(f(pts), dtype=float)
    return 0.5 * length * np.dot(w, vals)


class P1Field:
    """Vector P1 function on one triangle, evaluated through the vertex
    interpolation system rather than precomputed barycentric gradients."""

    def __init__(self, tri, coefs):
        self.tri = np.asarray(tri, dtype=float)
        self.coefs = np.asarray(coefs, dtype=float).reshape(3, 2)
        system = np.column_stack([np.ones(3), self.tri])
        # coefficients of 1, x, y for each velocity component
        self.poly = np.linalg.solve(system, self.coefs)

    def __call__(self, pts):
        pts = np.atleast_2d(pts)
        basis = np.column_stack([np.ones(len(pts)), pts])
        return basis @ self.poly

    @property
    def grad(self):
        """Constant Jacobian d u_d / d x_m as a (2, 2) array."""
        return self.poly[1:, :].T


def cell_fields(mesh, vec):
    coefs = np.asarray(vec, dtype=float).reshape(mesh.n_cells, 3, 2)
    return [P1Field(mesh.verts[mesh.cells[c]], coefs[c]) for c in range(mesh.n_cells)]


def _edge_geometry(mesh, e):
    pa, pb = mesh.verts[mesh.edge_verts[e]]
    t = pb - pa
    length = np.linalg.norm(t)
    n = np.array([t[1], -t[0]]) / length
    return pa, pb, n, length


def _outward_normal(mesh, e, cell):
    """Unit normal of edge e oriented away from the given cell."""
    pa, pb, n, _ = _edge_geometry(mesh, e)
    mid = 0.5 * (pa + pb)
    if np.dot(n, mid - mesh.centroid[cell]) < 0:
        n = -n
    return n


def mass_energy(mesh, params, u_vec, v_vec):
    xi = mesh.xi(params.porosity)
    uf, vf = cell_fields(mesh, u_vec), cell_fields(mesh, v_vec)
    total = 0.0
    for c in range(mesh.n_cells):
        tri = mesh.verts[mesh.cells[c]]
        total += (1.0 / (params.tau * xi[c])) * tri_integrate(
            lambda p: np.einsum("nd,nd->n", uf[c](p), vf[c](p)), tri
        )
    return total


def convdiff_energy(mesh, params, patch, u_vec, v_vec, ulin_vec=None):
    """a-form value including volume, interior-edge and Dirichlet terms."""
    xi = mesh.xi(params.porosity)
    kappa = 1.0 / (xi * params.reynolds)
    uf, vf = cell_fields(mesh, u_vec), cell_fields(mesh, v_vec)
    lf = cell_fields(mesh, ulin_vec) if ulin_vec is not None else None
    total = 0.0
    for c in range(mesh.n_cells):
        tri = mesh.verts[mesh.cells[c]]
        gu, gv = uf[c].grad, vf[c].grad
        total += kappa[c] * np.sum(gu * gv) * mesh.area[c]
        if lf is not None:
            def conv(p, c=c, gu=gu):
                adv = lf[c](p) @ gu.T  # (n, 2): (u_lin . grad) u
                return np.einsum("nd,nd->n", adv, vf[c](p))
            total += (1.0 / xi[c] ** 2) * tri_integrate(conv, tri)

    for e in patch.interior_edges:
        cp, cm = mesh.edge_cells[e]
        pa, pb, n, length = _edge_geometry(mesh, e)
        if np.dot(n, mesh.centroid[cm] - mesh.centroid[cp]) < 0:
            n = -n

        def consistency(p):
            mean_u = 0.5 * (kappa[cp] * uf[cp].grad + kappa[cm] * uf[cm].grad) @ n
            mean_v = 0.5 * (kappa[cp] * vf[cp].grad + kappa[cm] * vf[cm].grad) @ n
            jump_v = vf[cp](p) - vf[cm](p)
            jump_u = uf[cp](p) - uf[cm](p)
            return jump_v @ mean_u + jump_u @ mean_v

        def penalty(p):
            jump_u = uf[cp](p) - uf[cm](p)
            jump_v = vf[cp](p) - vf[cm](p)
            return np.einsum("nd,nd->n", jump_u, jump_v)

        weight = params.penalty / (
            params.reynolds * length * 0.5 * (xi[cp] + xi[cm])
        )
        total -= edge_integrate(consistency, pa, pb)
        total += weight * edge_integrate(penalty, pa, pb)

    for k, e in enumerate(patch.dirichlet_edges):
        c = patch.cells[patch.dirichlet.cell[k]]
        pa, pb, _, length = _edge_geometry(mesh, e)
        n = _outward_normal(mesh, e, c)

        def bterm(p, c=c, n=n):
            du_n = uf[c].grad @ n
            dv_n = vf[c].grad @ n
            return vf[c](p) @ du_n + uf[c](p) @ dv_n

        def bpen(p, c=c):
            return np.einsum("nd,nd->n", uf[c](p), vf[c](p))

        total -= kappa[c] * edge_integrate(bterm, pa, pb)
        total += 2.0 * params.penalty * kappa[c] / length * edge_integrate(bpen, pa, pb)
    return total


def drag_energy(mesh, params, u_vec, v_vec, ulin_vec=None):
    uf, vf = cell_fields(mesh, u_vec), cell_fields(mesh, v_vec)
    lf = cell_fields(mesh, ulin_vec) if ulin_vec is not None else None
    total = 0.0
    for c in range(mesh.n_cells):
        if mesh.region[c] != POROUS:
            continue
        tri = mesh.verts[mesh.cells[c]]
        total += (1.0 / (params.reynolds * params.darcy)) * tri_integrate(
            lambda p: np.einsum("nd,nd->n", uf[c](p), vf[c](p)), tri
        )
        if lf is not None:
            total += (params.forchheimer / np.sqrt(params.darcy)) * tri_integrate(
                lambda p: np.linalg.norm(lf[c](p), axis=1)
                * np.einsum("nd,nd->n", uf[c](p), vf[c](p)),
                tri,
            )
    return total


def divergence_action(mesh, patch, q_vec, v_vec):
    """b-form value for piecewise-constant q against a velocity field."""
    vf = cell_fields(mesh, v_vec)
    q = np.asarray(q_vec, dtype=float)
    total = 0.0
    for c in range(mesh.n_cells):
        div = np.trace(vf[c].grad)
        total -= q[c] * div * mesh.area[c]
    for e in patch.interior_edges:
        cp, cm = mesh.edge_cells[e]
        pa, pb, n, _ = _edge_geometry(mesh, e)
        if np.dot(n, mesh.centroid[cm] - mesh.centroid[cp]) < 0:
            n = -n
        mean_q = 0.5 * (q[cp] + q[cm])

        def jump_vn(p):
            return (vf[cp](p) - vf[cm](p)) @ n

        total += mean_q * edge_integrate(jump_vn, pa, pb)
    for k, e in enumerate(patch.dirichlet_edges):
        c = patch.cells[patch.dirichlet.cell[k]]
        pa, pb, _, _ = _edge_geometry(mesh, e)
        n = _outward_normal(mesh, e, c)
        total += q[c] * edge_integrate(lambda p, c=c, n=n: vf[c](p) @ n, pa, pb)
    return total


def rhs_functionals(mesh, params, patch, g_func, v_vec, q_vec, grad_func=None):
    """Oracle values of the boundary-data functionals (momentum, continuity)."""
    xi = mesh.xi(params.porosity)
    kappa = 1.0 / (xi * params.reynolds)
    vf = cell_fields(mesh, v_vec)
    q = np.asarray(q_vec, dtype=float)
    f_val = 0.0
    l_val = 0.0
    for k, e in enumerate(patch.dirichlet_edges):
        c = patch.cells[patch.dirichlet.cell[k]]
        pa, pb, _, length = _edge_geometry(mesh, e)
        n = _outward_normal(mesh, e, c)

        def sym(p, c=c, n=n):
            dv_n = vf[c].grad @ n
            return np.asarray(g_func(p)) @ dv_n

        def pen(p, c=c):
            return np.einsum("nd,nd->n", np.asarray(g_func(p)), vf[c](p))

        f_val -= kappa[c] * edge_integrate(sym, pa, pb)
        f_val += 2.0 * params.penalty * kappa[c] / length * edge_integrate(pen, pa, pb)
        if grad_func is not None:
            def gterm(p, c=c, n=n):
                gn = np.asarray(grad_func(p)) @ n
                return np.einsum("nd,nd->n", gn, vf[c](p))
            f_val += kappa[c] * edge_integrate(gterm, pa, pb)
        l_val += q[c] * edge_integrate(lambda p, n=n: np.asarray(g_func(p)) @ n, pa, pb)
    return f_val, l_val


def patch_nested_dissection(patch):
    """Nested-dissection order of the patch cells over the interior-edge cell
    graph, in parts of at most 8 cells: the fine-step cell order."""
    xy = patch.mesh.centroid[patch.cells]
    part = np.full(patch.n_cells, -1, dtype=np.int64)
    order = []

    def dissect(cells, edges):
        if len(cells) <= 8:
            order.append(cells)
            return
        low, high, separator = bisect_cells(xy, cells, edges)
        part[low], part[high], part[separator] = 0, 1, 2
        side = part[edges]
        dissect(low, edges[(side == 0).all(axis=1)])
        dissect(high, edges[(side == 1).all(axis=1)])
        order.append(separator)

    dissect(np.arange(patch.n_cells), np.column_stack([patch.plus.cell, patch.minus.cell]))
    return np.concatenate(order)


def block_step_matrix(ops, u_lin):
    """The saddle matrix of the nonlinear fine step linearized at u_lin,
    assembled from CSR blocks, the static ops.upper (mass + viscous +
    Darcy) plus convection + Forchheimer, and permuted into the
    nested-dissection cell order (each cell's six velocity DOFs, then its
    pressure DOF).  Returns the permuted matrix, with sorted indices, and
    the permutation."""
    upper = ops.upper
    if np.any(u_lin):
        conv, drag = linearized_matrices(ops.patch, ops.params, u_lin)
        upper = upper + (conv + drag)
    upper = upper.tocsr()
    matrix = sp.bmat([[upper, ops.div.T], [ops.div, None]], format="csc")
    order = patch_nested_dissection(ops.patch)
    perm = np.column_stack(
        [forms.cell_dofs(order).reshape(-1, 6), ops.patch.n_vdof + order]
    ).ravel()
    ordered = matrix[perm][:, perm]
    ordered.sort_indices()
    return ordered, perm


_ORDERED = dict(permc_spec="NATURAL", diag_pivot_thresh=0.0, options=dict(SymmetricMode=True))


def block_static_factor(ops):
    """The kept factor of the block-assembled steps: the factor of the
    step-0 matrix, block_step_matrix(ops, 0), float32 from saddle.SINGLE_MIN
    unknowns on and float64 from KEPT_MIN on; None below KEPT_MIN or when
    SuperLU finds it singular."""
    static, _ = block_step_matrix(ops, np.zeros(ops.patch.n_vdof))
    n = static.shape[0]
    if n < KEPT_MIN:
        return None
    try:
        return spla.splu(static.astype(np.float32 if n >= SINGLE_MIN else float), **_ORDERED)
    except RuntimeError:
        return None


def block_step(ops, u_lin, rhs_u, lu):
    """The block-assembled step solved from the factor lu, or directly when
    lu is None; returns (u, p, corrections, own).

    The start is x0 = (u_lin, 0) in the permuted order, and
    y = x0 - LU^-1 (A x0 - rhs) its first solve with lu, in lu's precision
    (float32 from saddle.SINGLE_MIN unknowns on, float64 below).  y is
    refined in float64 by
    y -= LU^-1 (A y - rhs) until |A y - rhs| / max(|rhs|, s |y|) <=
    REFINE_TARGET, s being the largest absolute row sum of A, for up to
    KEPT_MAX corrections that each halve the residual.  On a miss, or with
    no lu, the float64 factor own of A solves (a SuperLU factor of the
    permuted matrix with no further reordering and diagonal pivots); own is
    None when lu served.
    """
    matrix, perm = block_step_matrix(ops, u_lin)
    rhs = np.concatenate([rhs_u, ops.f_p])[perm][:, None]
    y, corrections, own = None, 0, None
    if lu is not None:
        scale = abs(matrix).sum(axis=1).max()
        x0 = np.concatenate([u_lin, np.zeros(ops.patch.n_pdof)])[perm][:, None]
        y, corrections = _refined(matrix, lu, rhs, scale, x0)
    if y is None:
        own = spla.splu(matrix, **_ORDERED)
        y = own.solve(rhs)
    x = np.empty_like(y)
    x[perm] = y
    nu = ops.patch.n_vdof
    return x[:nu, 0], x[nu:, 0], corrections, own


def block_step_solve(ops, u_lin, rhs_u):
    """Velocity and pressure of the block-assembled step, refined from
    block_static_factor(ops) (see block_step)."""
    u, p, _, _ = block_step(ops, u_lin, rhs_u, block_static_factor(ops))
    return u, p


def _refined(matrix, lu, rhs, scale, x0):
    """The solution of lu refined to REFINE_TARGET on matrix from the start
    x0, or None when a correction does not halve the relative residual or
    KEPT_MAX corrections leave it short; and the corrections made."""
    norm = np.linalg.norm
    precision = np.float32 if matrix.shape[0] >= SINGLE_MIN else float
    y = x0 - lu.solve((matrix @ x0 - rhs).astype(precision))
    last = np.inf
    for k in range(KEPT_MAX + 1):
        resid = matrix @ y - rhs
        rel = norm(resid) / max(norm(rhs), scale * norm(y))
        if rel <= REFINE_TARGET:
            return y, k
        if k == KEPT_MAX or not rel <= last / 2:
            return None, k
        last = rel
        y = y - lu.solve(resid.astype(precision))


def block_run_fine(ops, n_steps):
    """The nonlinear fine loop from the zero state on block-assembled steps;
    returns the (velocity, pressure) of every layer.

    Every step is refined from block_static_factor(ops) from SINGLE_MIN
    unknowns on.  Below, a run on a kept factor refreshes it: a step that
    missed hands its own factor to the steps after it, and after a step of
    more than REFRESH_AFTER corrections the next step is factored directly
    and its factor kept.
    """
    u, p = np.zeros(ops.patch.n_vdof), np.zeros(ops.patch.n_pdof)
    layers = [(u, p)]
    kept = block_static_factor(ops)
    refreshes = kept is not None and ops.patch.n_vdof + ops.patch.n_pdof < SINGLE_MIN
    due = False
    for _ in range(n_steps):
        u, p, corrections, own = block_step(ops, u, ops.mass @ u + ops.f_u, None if due else kept)
        if refreshes:
            kept = kept if own is None else own
            due = own is None and corrections > REFRESH_AFTER
        layers.append((u, p))
    return layers


def snapshot_problem(mesh, coarse, params, i, oversampled, u_lin):
    """The pinned snapshot system of coarse cell i: (patch, matrix, f_u,
    f_p), the unit-delta loads as a momentum and a continuity array, one
    column per facet k and direction d (column 2k + d), with the pinned
    continuity row zeroed."""
    patch = coarse_cell_patch(mesh, coarse, i, oversampled=oversampled)
    convection, porous, drag = forms.linearized_cell_blocks(patch, params, u_lin)
    every = np.arange(patch.n_cells)
    a = forms.viscous_block(patch, params) + forms.cell_block_matrix(patch, every, convection)
    d = forms.darcy_block(patch, params) + forms.cell_block_matrix(patch, porous, drag)
    matrix = saddle_matrix(a + d, forms.assemble_divergence(patch), pin=True)
    nd = len(patch.dirichlet_edges)
    contrib, intg = forms.dirichlet_facet_terms(patch, params, np.ones((nd, len(EDGE_G2_W), 2)))
    flux = intg * patch.dir_normal
    cols = np.arange(2 * nd).reshape(nd, 1, 2)
    cells = patch.dirichlet.cell
    f_u = np.zeros((patch.n_vdof, 2 * nd))
    f_u[forms.cell_dofs(cells), cols] = contrib
    f_p = np.zeros((patch.n_pdof, 2 * nd))
    f_p[cells[:, None], cols[:, 0]] += flux
    f_p -= np.outer(patch.mesh.area[patch.cells], flux.ravel() / patch.area)
    f_p[0, :] = 0.0
    return patch, matrix, f_u, f_p


def two_part_snapshot_rows(mesh, coarse, params, i, oversampled, u_lin):
    """The snapshot rows of coarse cell i from np.vstack of the two load
    arrays and one COLAMD solve of the whole batch, restricted to the
    cell."""
    patch, matrix, f_u, f_p = snapshot_problem(mesh, coarse, params, i, oversampled, u_lin)
    x = spla.splu(matrix, permc_spec="COLAMD").solve(np.vstack([f_u, f_p]))
    local = patch.local_of[coarse.cell_fine[i]]
    return x[forms.cell_dofs(local).ravel(), :].T


def repeated_weight_blocks(nonlinear, u_h):
    """gmsfem._NonlinearBlocks.__call__ as first written: the speed as a sum
    over the length-2 component axis, and the drag weight repeated once per
    component with np.repeat."""
    n, m = nonlinear.conv.shape[:2]
    u = u_h.reshape(n, m)
    blocks = (u[:, None, :] @ nonlinear.conv.reshape(n, m, m * m)).reshape(n, m, m)
    if nonlinear.spans:
        at_points = (nonlinear.quad @ u[nonlinear.owner][:, :, None]).reshape(len(nonlinear.owner), -1, 2)
        speed = np.sqrt((at_points * at_points).sum(axis=2))
        flat = nonlinear.quad.reshape(-1, m)
        weighted = flat * np.repeat((nonlinear.drag_weight * speed).ravel(), 2)[:, None]
        for i, rows, _ in nonlinear.spans:
            blocks[i] += flat[rows].T @ weighted[rows]
    return blocks


def add_at_vtk_text(mesh, state, title="msflow fields"):
    """The text of vtk_io.export_vtk as first written: one repr(float(x))
    per value, and the vertex averages summed by np.add.at, one cell vertex
    at a time."""
    fmt = lambda x: repr(float(x))
    out = np.zeros((mesh.n_verts, 2))
    count = np.zeros(mesh.n_verts)
    coefs = state.velocity.reshape(mesh.n_cells, 3, 2)
    for a in range(3):
        np.add.at(out, mesh.cells[:, a], coefs[:, a, :])
        np.add.at(count, mesh.cells[:, a], 1.0)
    count[count == 0] = 1.0
    averaged = out / count[:, None]
    lines = ["# vtk DataFile Version 3.0", title, "ASCII", "DATASET UNSTRUCTURED_GRID"]
    lines.append(f"POINTS {mesh.n_verts} double")
    lines.extend(f"{fmt(x)} {fmt(y)} 0.0" for x, y in mesh.verts)
    lines.append(f"CELLS {mesh.n_cells} {4 * mesh.n_cells}")
    lines.extend(f"3 {v[0]} {v[1]} {v[2]}" for v in mesh.cells)
    lines.append(f"CELL_TYPES {mesh.n_cells}")
    lines.extend(["5"] * mesh.n_cells)
    lines.append(f"CELL_DATA {mesh.n_cells}")
    lines.extend(["SCALARS pressure double 1", "LOOKUP_TABLE default"])
    lines.extend(fmt(p) for p in state.pressure)
    lines.extend(["SCALARS region int 1", "LOOKUP_TABLE default"])
    lines.extend(str(int(r)) for r in mesh.region)
    lines.extend(["FIELD dgdata 1", f"velocity_dg 6 {mesh.n_cells} double"])
    lines.extend(" ".join(fmt(v) for v in row) for row in state.velocity.reshape(mesh.n_cells, 6))
    lines.extend([f"POINT_DATA {mesh.n_verts}", "VECTORS velocity double"])
    lines.extend(f"{fmt(vx)} {fmt(vy)} 0.0" for vx, vy in averaged)
    return "\n".join(lines) + "\n"
