"""Sparse assembly of the interior-penalty DG forms.

Velocity DOF layout inside a cell: index 2*a + d for vertex a (0..2) and
component d (0 = x, 1 = y); cell c of a patch owns DOFs [6c, 6c + 6)
(cell_dofs) and the pressure DOF c.  All assemblers act on a Patch, so the
same code serves the global problem and the local snapshot problems.

The convective term and the quadratic drag carry the linearization field
pointwise (degree-4 rule, since |u| is not polynomial); every polynomial
integrand uses rules that are exact for its degree.

A sparse block is assembled from parts, dense per-cell or per-edge blocks
with row and column indices that broadcast to them, which _collect writes
into one triplet buffer in a fixed order: reordering the parts changes the
last bits of the operators.
"""

import numpy as np
import scipy.sparse as sp

from .geometry import POROUS
from .quadrature import TRI_D4_BARY, TRI_D4_W, EDGE_G2_S, EDGE_G2_W

# Integrals of lambda_a lambda_b over a P1 triangle of unit area.
LAMBDA_MASS = (np.ones((3, 3)) + np.eye(3)) / 12.0


def _kron2(blocks):
    """Expand per-cell scalar 3x3 blocks to 6x6 vector blocks (components
    uncoupled)."""
    out = np.zeros(blocks.shape[:-2] + (6, 6))
    out[..., 0::2, 0::2] = blocks
    out[..., 1::2, 1::2] = blocks
    return out


def cell_dofs(cells):
    """Velocity DOF indices (n, 3, 2) of the given cells: 6c + 2a + d for
    vertex a and component d."""
    return (
        6 * np.asarray(cells)[:, None, None]
        + 2 * np.arange(3)[None, :, None]
        + np.arange(2)[None, None, :]
    )


def _pair_coo(rows_cells, cols_cells, blocks6):
    """Triplets of (n, 6, 6) blocks coupling two local cell lists: row and
    column indices that broadcast to the blocks, and the blocks."""
    rows = cell_dofs(rows_cells).reshape(-1, 6, 1)
    cols = cell_dofs(cols_cells).reshape(-1, 1, 6)
    return rows, cols, blocks6


def cell_block_matrix(patch, cells, blocks):
    """The patch's velocity matrix of scalar 3x3 blocks (n, 3, 3) on its
    local cells, the same in both components."""
    return _collect([_pair_coo(cells, cells, _kron2(blocks))], (patch.n_vdof, patch.n_vdof))


def _collect(parts, shape):
    """CSR matrix of the triplets (rows, cols, vals) of all parts, rows and
    cols broadcasting to vals.  The triplets go into one buffer in part
    order, C order within a part: coo -> csr sums duplicate entries in that
    order.  The list is emptied once copied, to free its blocks before the
    conversion."""
    total = sum(vals.size for _, _, vals in parts)
    # scipy keeps int32 indices while the shape and the entry count fit
    index = np.int32 if max(total, *shape) <= np.iinfo(np.int32).max else np.int64
    rows, cols = np.empty(total, dtype=index), np.empty(total, dtype=index)
    data = np.empty(total)
    start = 0
    for r, c, vals in parts:
        stop = start + vals.size
        rows[start:stop].reshape(vals.shape)[...] = r
        cols[start:stop].reshape(vals.shape)[...] = c
        data[start:stop].reshape(vals.shape)[...] = vals
        start = stop
    parts.clear()
    return sp.coo_matrix((data, (rows, cols)), shape=shape).tocsr()


def _grad_dot_n(patch, cells_local, normal):
    g = patch.mesh.grad[patch.cells[cells_local]]
    return np.einsum("nam,nm->na", g, normal)


def _kappa(patch, params, side):
    """Viscosity weight 1 / (xi Re) of each edge's cell on one side."""
    return 1.0 / (patch.mesh.xi(params.porosity)[patch.cells[side.cell]] * params.reynolds)


def _trace_integral(side, length):
    """Edge integrals of the P1 traces of one side, (ne, 3)."""
    return np.einsum("q,nqa->na", EDGE_G2_W, side.lam) * length[:, None]


def _trace_mass(test, trial):
    """Unit-length edge mass of two sides' traces, (ne, 3, 3)."""
    return np.einsum("q,nqa,nqb->nab", EDGE_G2_W, test.lam, trial.lam)


def edge_points(mesh, edges):
    """Quadrature points (ne, q, 2) on the given mesh edges."""
    s = EDGE_G2_S
    pa, pb = mesh.verts[mesh.edge_verts[edges, 0]], mesh.verts[mesh.edge_verts[edges, 1]]
    return pa[:, None, :] * (1.0 - s)[None, :, None] + pb[:, None, :] * s[None, :, None]


def _lambda_mass(patch):
    """Exact per-cell integrals of lambda_a lambda_b, (n, 3, 3)."""
    area = patch.mesh.area[patch.cells]
    return area[:, None, None] * LAMBDA_MASS[None]


def assemble_mass(patch, params):
    """Velocity mass block of the time derivative: (1/tau) (u, v) weighted by
    the inverse permeability indicator."""
    xi = patch.mesh.xi(params.porosity)[patch.cells]
    coef = 1.0 / (params.tau * xi)
    blocks = coef[:, None, None] * _lambda_mass(patch)
    return cell_block_matrix(patch, np.arange(patch.n_cells), blocks)


def _diffusion_volume(patch, params):
    mesh = patch.mesh
    xi = mesh.xi(params.porosity)[patch.cells]
    kappa = 1.0 / (xi * params.reynolds)
    grad = mesh.grad[patch.cells]
    gg = np.einsum("nam,nbm->nab", grad, grad)
    blocks = _kron2((kappa * mesh.area[patch.cells])[:, None, None] * gg)
    every = np.arange(patch.n_cells)
    return _pair_coo(every, every, blocks)


def _interior_edge_terms(patch, params):
    """Consistency, symmetry and penalty couplings on interior edges."""
    xi = patch.mesh.xi(params.porosity)
    length = patch.int_len
    sides = ((patch.plus, 1.0), (patch.minus, -1.0))
    kap = [_kappa(patch, params, side) for side, _ in sides]
    gdn = [_grad_dot_n(patch, side.cell, patch.int_normal) for side, _ in sides]
    intlam = [_trace_integral(side, length) for side, _ in sides]
    # Mean of the permeability-Reynolds-size product over the two sides.
    pen_weight = params.penalty / (params.reynolds * length * 0.5 * (
        xi[patch.cells[patch.plus.cell]] + xi[patch.cells[patch.minus.cell]]
    ))
    parts = []
    for t, (test, st) in enumerate(sides):
        for u, (trial, su) in enumerate(sides):
            cons = -0.5 * st * kap[u][:, None, None] * np.einsum(
                "na,nb->nab", intlam[t], gdn[u]
            )
            symm = -0.5 * su * kap[t][:, None, None] * np.einsum(
                "na,nb->nab", gdn[t], intlam[u]
            )
            pen = (st * su * pen_weight * length)[:, None, None] * _trace_mass(test, trial)
            parts.append(_pair_coo(test.cell, trial.cell, _kron2(cons + symm + pen)))
    return parts


def _dirichlet_edge_terms(patch, params):
    """Weak Dirichlet (Nitsche) couplings on the patch boundary edges."""
    side = patch.dirichlet
    kappa = _kappa(patch, params, side)
    gdn = _grad_dot_n(patch, side.cell, patch.dir_normal)
    intlam = _trace_integral(side, patch.dir_len)
    cons = -kappa[:, None, None] * np.einsum("na,nb->nab", intlam, gdn)
    symm = -kappa[:, None, None] * np.einsum("na,nb->nab", gdn, intlam)
    pen = (2.0 * params.penalty * kappa)[:, None, None] * _trace_mass(side, side)
    return [_pair_coo(side.cell, side.cell, _kron2(cons + symm + pen))]


def convection_cell_blocks(mesh, params, cells, coefs):
    """Scalar 3x3 blocks (test vertex, trial vertex) of the linearized
    convective volume term (u_lin . grad u, v) / xi^2 on the given global
    fine cells; coefs (n, 3, 2) holds u_lin's vertex values on each cell.
    The blocks are linear in coefs.  Each sum starts from zero and runs in
    index order (vertices a, components m, points q), as np.einsum's do.
    The operands are laid out (point, component, cell), so every product
    runs over contiguous cells."""
    bary = TRI_D4_BARY
    wbary = TRI_D4_W[:, None] * bary  # (q, a)
    coefs = np.ascontiguousarray(np.transpose(coefs, (1, 2, 0)))  # (a, m, cell)
    grad = np.ascontiguousarray(mesh.grad[cells].transpose(2, 1, 0))  # (m, b, cell)
    n, n_q = len(cells), len(bary)
    ulq = np.zeros((n_q, 2, n))  # u_lin at the points
    for a in range(3):
        ulq += bary[:, a, None, None] * coefs[a]
    adv = np.zeros((n_q, 3, n))  # u_lin . grad lambda_b at the points
    for m in range(2):
        adv += ulq[:, m, None] * grad[m]
    blocks = np.zeros((3, 3, n))
    for q in range(n_q):
        blocks += wbary[q, :, None, None] * adv[q]
    xi = mesh.xi(params.porosity)[cells]
    out = np.empty((n, 3, 3))
    np.multiply(mesh.area[cells] / xi**2, blocks, out=out.transpose(1, 2, 0))
    return out


def viscous_block(patch, params):
    """Viscous volume term plus all interior and Dirichlet edge couplings;
    this is the linearization-independent part of the convection-diffusion
    block."""
    parts = [_diffusion_volume(patch, params)]
    parts += _interior_edge_terms(patch, params)
    parts += _dirichlet_edge_terms(patch, params)
    return _collect(parts, (patch.n_vdof, patch.n_vdof))


def darcy_block(patch, params):
    """Linear porous drag; zero rows and columns on fluid cells."""
    porous = np.nonzero(patch.mesh.region[patch.cells] == POROUS)[0]
    blocks = _lambda_mass(patch)[porous] / (params.reynolds * params.darcy)
    return cell_block_matrix(patch, porous, blocks)


def forchheimer_cell_blocks(mesh, params, cells, coefs):
    """Scalar 3x3 blocks of the quadratic drag on the given global (porous)
    fine cells, weighted by the pointwise speed of the P1 field whose vertex
    values on each cell are coefs (n, 3, 2)."""
    bary, w = TRI_D4_BARY, TRI_D4_W
    ulq = np.einsum("qa,nad->nqd", bary, coefs)
    speed = np.linalg.norm(ulq, axis=2)
    area = mesh.area[cells]
    return (params.forchheimer / np.sqrt(params.darcy)) * area[
        :, None, None
    ] * np.einsum("q,nq,qa,qb->nab", w, speed, bary, bary)


def linearized_cell_blocks(patch, params, u_lin):
    """Convection and quadratic drag of a patch frozen at the global fine
    field u_lin: (convection (n, 3, 3) on every local cell, the local drag
    cells, drag (len(drag cells), 3, 3)).  The drag cells are the porous
    cells, none when params.forchheimer is 0."""
    coefs = np.asarray(u_lin, dtype=float).reshape(patch.mesh.n_cells, 3, 2)[patch.cells]
    convection = convection_cell_blocks(patch.mesh, params, patch.cells, coefs)
    porous = np.flatnonzero(
        (patch.mesh.region[patch.cells] == POROUS) & (params.forchheimer != 0.0)
    )
    drag = forchheimer_cell_blocks(patch.mesh, params, patch.cells[porous], coefs[porous])
    return convection, porous, drag


def assemble_divergence(patch):
    """Pressure-velocity coupling block (pressure rows, velocity columns):
    cellwise -(q, div v) plus mean-pressure jump terms on interior edges and
    the boundary flux term on Dirichlet edges."""
    mesh = patch.mesh
    c_loc = np.arange(patch.n_cells)
    # (pressure cell, velocity cell, block (n, 3, 2)) triples; vol[c, b, e]
    vol = -mesh.area[patch.cells][:, None, None] * mesh.grad[patch.cells]
    parts = [(c_loc, c_loc, vol)]
    sides = ((patch.plus, 1.0), (patch.minus, -1.0))
    for pres, _ in sides:  # pressure side, averaged with weight 1/2
        for vel, sign in sides:  # velocity trace side
            intlam = _trace_integral(vel, patch.int_len)
            block = 0.5 * sign * intlam[:, :, None] * patch.int_normal[:, None, :]
            parts.append((pres.cell, vel.cell, block))
    side = patch.dirichlet
    intlam = _trace_integral(side, patch.dir_len)
    parts.append((side.cell, side.cell, intlam[:, :, None] * patch.dir_normal[:, None, :]))
    coo = [(pc[:, None, None], cell_dofs(vc), b) for pc, vc, b in parts]
    return _collect(coo, (patch.n_pdof, patch.n_vdof))


def dirichlet_facet_terms(patch, params, g_quad, grad_quad=None):
    """Per-facet weak-Dirichlet data terms for values g_quad (ne, q, 2) at
    the quadrature points of the patch Dirichlet edges.

    Returns the momentum contribution (ne, 3, 2) on each facet's cell DOFs
    and the edge integral of g (ne, 2).  The weak imposition pairs the
    penalty and adjoint-consistency terms so that the solve drives the
    boundary trace to +g; grad_quad (ne, q, 2, 2) adds the boundary-gradient
    flux of the data and defaults to zero.
    """
    w = EDGE_G2_W
    side = patch.dirichlet
    kappa = _kappa(patch, params, side)
    gdn = _grad_dot_n(patch, side.cell, patch.dir_normal)
    length = patch.dir_len
    normal = patch.dir_normal

    intg = np.einsum("q,nqd->nd", w, g_quad) * length[:, None]
    pen = 2.0 * params.penalty * kappa[:, None, None] * np.einsum(
        "q,nqa,nqd->nad", w, side.lam, g_quad
    )
    symm = -kappa[:, None, None] * np.einsum("na,nd->nad", gdn, intg)
    contrib = pen + symm
    if grad_quad is not None:
        gn = np.einsum("nqde,ne->nqd", grad_quad, normal)
        contrib = contrib + kappa[:, None, None] * length[:, None, None] * np.einsum(
            "q,nqa,nqd->nad", w, side.lam, gn
        )
    return contrib, intg


def dirichlet_rhs_from_values(patch, params, g_quad, grad_quad=None):
    """Momentum and continuity right-hand sides for Dirichlet data given as
    quadrature-point values g_quad (ne, q, 2) on the patch Dirichlet edges;
    see dirichlet_facet_terms."""
    f_u = np.zeros(patch.n_vdof)
    f_p = np.zeros(patch.n_pdof)
    contrib, intg = dirichlet_facet_terms(patch, params, g_quad, grad_quad)
    cells = patch.dirichlet.cell
    np.add.at(f_u, cell_dofs(cells).ravel(), contrib.ravel())
    np.add.at(f_p, cells, np.einsum("nd,nd->n", intg, patch.dir_normal))
    return f_u, f_p


def assemble_rhs(patch, params, bc, forcing=None):
    """Right-hand sides for the global problem: weak Dirichlet data on the
    velocity sides, optional outflow traction and optional volume forcing."""
    verts = patch.mesh.verts
    pts = edge_points(patch.mesh, patch.dirichlet_edges)
    g_quad = bc.values(patch.dir_side, pts) if len(patch.dirichlet_edges) else pts
    grad_quad = bc.grad_values(pts) if bc.grad is not None else None
    f_u, f_p = dirichlet_rhs_from_values(patch, params, g_quad, grad_quad)

    if bc.traction is not None and len(patch.natural_edges):
        w = EDGE_G2_W
        tq = bc.traction_values(edge_points(patch.mesh, patch.natural_edges))
        side = patch.natural
        contrib = patch.nat_len[:, None, None] * np.einsum("q,nqa,nqd->nad", w, side.lam, tq)
        np.add.at(f_u, cell_dofs(side.cell).ravel(), contrib.ravel())

    if forcing is not None:
        bary, w = TRI_D4_BARY, TRI_D4_W
        xq = np.einsum("qa,nad->nqd", bary, verts[patch.mesh.cells[patch.cells]])
        fq = np.asarray(forcing(xq.reshape(-1, 2)), dtype=float).reshape(xq.shape)
        area = patch.mesh.area[patch.cells]
        contrib = area[:, None, None] * np.einsum("q,qa,nqd->nad", w, bary, fq)
        np.add.at(f_u, cell_dofs(np.arange(patch.n_cells)).ravel(), contrib.ravel())
    return f_u, f_p


def assemble_spectral_pair(patch, params):
    """Operator pair of the local model-reduction eigenproblem.

    Returns (stiffness, trace_mass) on the patch velocity DOFs: the stiffness
    is the viscous volume term plus the interior-edge couplings (no Dirichlet
    terms, drag or convection); the trace mass integrates u . v over the
    patch boundary facets.
    """
    shape = (patch.n_vdof, patch.n_vdof)
    parts = [_diffusion_volume(patch, params)] + _interior_edge_terms(patch, params)
    a_loc = _collect(parts, shape)
    side = patch.dirichlet
    mass = patch.dir_len[:, None, None] * _trace_mass(side, side)
    return a_loc, cell_block_matrix(patch, side.cell, mass)
